"""Workload ``diagram_scenarios``: ``modnod diagram`` on the seven scenario configs.

The continuation path end to end (tracing, event detection, branch
switching, neutral-event reduction, CSV/SVG/spec output) through the
in-process CLI; ``settle`` is never called.  The seed fixes the order of
the seven configs; every round runs that same list.
"""

from __future__ import annotations

import csv
import io
import json
import re

import numpy as np

import oracle
from common import EIG_TOL, RESIDUAL_TOL, Task, run_cli

#: (scenario, parameters, u0 range): two-node orders 1-3, the influencer ring
#: without and with modulation, and drive/steer without and with conditioning
CONFIGS = [
    ("two_node", {"m_strength": 1.0, "n": 1}, (0.0, 1.5)),
    ("two_node", {"m_strength": 1.0, "n": 2}, (0.0, 1.5)),
    ("two_node", {"m_strength": 1.0, "n": 3}, (0.0, 1.5)),
    ("influencer_ring", {"m_bar": 0.0}, (0.05, 1.2)),
    ("influencer_ring", {"m_bar": 0.5}, (0.05, 1.2)),
    ("drive_steer", {"m_bar": 0.0}, (0.05, 4.0)),
    ("drive_steer", {"m_bar": 2.0}, (0.05, 11.0)),
]

TAIL_PERCENTILE = 92
OUTPUT_FILES = ("diagram.csv", "diagram.svg", "spec.json")

#: refined events carry |test eigenvalue| <= 1e-6, and the crossing speeds
#: here are >= 0.3, so an event lies within ~3e-6 of the true crossing;
#: the refinement reaches 1e-8 in practice, which 1e-6 in u0 allows
EVENT_TOL = 1e-6
#: |x| below which an event sits on the neutral (all-zero) branch
NEUTRAL_TOL = 1e-6


def build(seed):
    order = np.random.default_rng(seed).permutation(len(CONFIGS))
    tasks = []
    for i in order:
        scenario, params, (lo, hi) = CONFIGS[i]
        doc = {"scenario": {"name": scenario, **params}, "params": {"u0_range": [lo, hi]}}
        tasks.append(Task("diagram", f"{scenario} {params}",
                          {"config": json.dumps(doc), "scenario": scenario, "params": params,
                           "range": (lo, hi)}))
    return tasks


def run(task, outdir):
    return run_cli(["diagram", "--config", task.inputs["config"], "--no-timestamp"], outdir)


# ---------------------------------------------------------------------------
# checks


def read_csv(text, n_states):
    rows = list(csv.reader(io.StringIO(text)))
    header = ["branch_label", "point_index", "u0"] + [f"x_{i + 1}" for i in range(n_states)]
    header += ["leading_jac_eig", "stable", "event_kind"]
    if rows[0] != header:
        raise ValueError(f"unexpected CSV header {rows[0]}")
    points, events = [], []
    for r in rows[1:]:
        rec = {"label": r[0], "u0": float(r[2]),
               "x": np.array([float(v) for v in r[3:3 + n_states]]),
               "eig": float(r[3 + n_states]), "stable": r[4 + n_states],
               "kind": r[5 + n_states]}
        (events if r[1] == "-1" else points).append(rec)
    return points, events


def check_points(model, points, lo, hi, problems):
    for p in points:
        x, u0 = p["x"], p["u0"]
        res = np.linalg.norm(model.F(x, u0))
        if not res <= RESIDUAL_TOL:
            problems.append(f"point {p['label']}@{u0:.6g}: residual {res:.2e}")
        lead = model.leading_eig(x, u0)
        if not abs(lead - p["eig"]) <= EIG_TOL:
            problems.append(f"point {p['label']}@{u0:.6g}: leading eigenvalue "
                            f"{p['eig']!r}, reference {lead!r}")
        if abs(lead) > 1e-12 and (p["stable"] == "true") != (lead < 0):
            problems.append(f"point {p['label']}@{u0:.6g}: stable={p['stable']} "
                            f"but leading eigenvalue {lead:.3e}")
        if not lo - 1e-12 <= u0 <= hi + 1e-12:
            problems.append(f"point {p['label']} outside the u0 range at {u0!r}")


def _match(value, targets):
    if not targets:
        return None
    best = min(targets, key=lambda t: abs(t - value))
    return best if abs(best - value) <= EVENT_TOL else None


def check_events(task, model, events, problems):
    """Every event must be one the scalar references predict, and every
    predicted event must be present.  Returns the expected criticality of
    each neutral pitchfork, keyed by the event's SVG title."""
    scenario, params = task.inputs["scenario"], task.inputs["params"]
    lo, hi = task.inputs["range"]
    predicted = {"neutral": oracle.neutral_events(model, lo, hi),
                 "fold": oracle.folds(scenario, params, lo, hi)}
    if scenario == "drive_steer":
        alpha, beta = params.get("alpha", 1.0), params.get("beta", 0.3)
        m_bar = params.get("m_bar", 0.0)
        predicted.update(oracle.steering_events(alpha, beta, m_bar, lo, hi))
    found = set()
    subcritical = {}
    for e in events:
        x, u0, where = e["x"], e["u0"], f"event {e['kind']} on {e['label']}@{e['u0']:.9g}"
        res = np.linalg.norm(model.F(x, u0))
        if not res <= RESIDUAL_TOL:
            problems.append(f"{where}: residual {res:.2e}")
        zero = model.nearest_zero_eig(x, u0)
        if not (abs(zero) <= 1e-6 and abs(zero - e["eig"]) <= EIG_TOL):
            problems.append(f"{where}: reference Jacobian eigenvalue nearest 0 is {zero:.3e}, "
                            f"CSV says {e['eig']:.3e}")
        if np.linalg.norm(x) <= NEUTRAL_TOL:
            group = "neutral"
        elif e["kind"] == "SaddleNode":
            group = "fold"
        elif scenario == "drive_steer" and np.all(np.abs(x[2:]) <= NEUTRAL_TOL):
            group = "dr" if x[0] > 0 else "st"
            if not e["label"].startswith(group):
                problems.append(f"{where}: drive state {x[0]:+.3f} on a branch not labelled {group}")
        else:
            problems.append(f"{where}: no reference predicts this event")
            continue
        target = _match(u0, predicted.get(group, []))
        if target is None:
            problems.append(f"{where}: predicted {group} events are {predicted.get(group)}")
            continue
        found.add((group, target))
        if group == "neutral":
            kind, sub = oracle.neutral_kind(scenario, params, target)
            if e["kind"] != kind:
                problems.append(f"{where}: reference classification is {kind}")
            if kind == "Pitchfork":
                subcritical[f"Pitchfork at u0={u0:.6g}"] = sub
    for group, values in predicted.items():
        for v in values:
            if (group, v) not in found:
                problems.append(f"missing {group} event at u0={v:.9g}")
    return subcritical


#: event markers; the SVG is matched as text because its axis label
#: "<x, v_max>" is written unescaped, so it does not parse as XML
CIRCLE = re.compile(r'<circle [^>]*fill="(?P<fill>[^"]*)"[^>]*><title>(?P<title>[^<]*)</title></circle>')


def check_svg(text, events, subcritical, problems):
    titles = []
    for c in CIRCLE.finditer(text):
        title, fill = c["title"], c["fill"]
        titles.append(title)
        if title in subcritical and (fill == "white") != subcritical[title]:
            problems.append(f"SVG marker '{title}' fill {fill} but the reference "
                            f"pitchfork is {'sub' if subcritical[title] else 'super'}critical")
    want = sorted(f"{e['kind']} at u0={e['u0']:.6g}" for e in events)
    if sorted(titles) != want:
        problems.append(f"SVG event markers {sorted(titles)} != CSV events {want}")
    if "<!-- generated" in text:
        problems.append("SVG carries a timestamp despite --no-timestamp")


def check_output(task, result):
    if result.code != 0:
        return f"exit {result.code}: {result.stderr.strip()[-200:]}"
    model = oracle.scenario(task.inputs["scenario"], task.inputs["params"])
    problems = []
    spec = json.loads((result.outdir / "spec.json").read_text(encoding="utf-8"))
    if spec != model.to_json():
        problems.append(f"spec.json {spec} differs from the scenario definition")
    points, events = read_csv((result.outdir / "diagram.csv").read_text(encoding="utf-8"), model.N)
    check_points(model, points, *task.inputs["range"], problems)
    subcritical = check_events(task, model, events, problems)
    check_svg((result.outdir / "diagram.svg").read_text(encoding="utf-8"), events,
              subcritical, problems)
    return "; ".join(problems[:4]) if problems else None


def check(tasks, rounds):
    """Round 0 against the references; later rounds byte-identical to it."""
    verdicts = [[None] * len(tasks) for _ in rounds]
    for i, task in enumerate(tasks):
        first = rounds[0][i]
        try:
            verdicts[0][i] = check_output(task, first)
        except (OSError, ValueError, IndexError) as exc:
            verdicts[0][i] = f"unreadable output: {exc!r}"
        if first.code != 0:
            golden = None
        else:
            golden = {f: (first.outdir / f).read_bytes() for f in OUTPUT_FILES}
        for r in range(1, len(rounds)):
            res = rounds[r][i]
            if res.code != 0 or golden is None:
                verdicts[r][i] = verdicts[0][i] or f"exit {res.code}"
                continue
            differ = [f for f in OUTPUT_FILES if (res.outdir / f).read_bytes() != golden[f]]
            verdicts[r][i] = (f"{', '.join(differ)} differ from round 0" if differ
                              else verdicts[0][i])
    return verdicts
