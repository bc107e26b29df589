"""Command-line front end.

Subcommands: simulate | equilibrium | diagram | reduce | analyze |
scenario list.  Each takes a JSON run configuration (--config PATH, or
stdin) and returns its files; ``main`` writes them and spec.json under
--out once the command has succeeded, so a failing one writes nothing.
Exit codes: 0 success, 1 domain/numeric failure, 2 configuration failure.
Set MODNOD_LOG to a logging level name for diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import continuation, dynamics, reduction, spectral
from .config import RunConfig, parse_config, spec_to_json
from .errors import ModnodError, ParseError, ValidationError
from .output import branches_to_csv, branches_to_svg, trajectory_to_csv
from .scenarios import SCENARIOS

log = logging.getLogger("modnod.cli")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CONFIG = 2


def _param(cfg: RunConfig, key: str, cast, default):
    """``cast(cfg.params[key])``, or ``default`` when the key is absent; a
    failing cast is a ValidationError naming ``params.<key>``."""
    if key not in cfg.params:
        return default
    try:
        return cast(cfg.params[key])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"params.{key}: {exc}") from None


def _finite(value, lo=-np.inf) -> float:
    if not lo < float(value) < np.inf:
        raise ValueError(f"expected a number in ({lo:g}, inf), got {value!r}")
    return float(value)


_positive = functools.partial(_finite, lo=0.0)


def _u0_range(value) -> tuple:
    u0 = np.asarray(value, dtype=float)
    if u0.shape != (2,) or not -np.inf < u0[0] < u0[1] < np.inf:
        raise ValueError(f"expected two finite numbers [lo, hi] with lo < hi, got {value!r}")
    return float(u0[0]), float(u0[1])


def _state(cfg: RunConfig, default) -> np.ndarray:
    """params.x0 as a finite state vector of length N."""
    x = _param(cfg, "x0", lambda value: np.asarray(value, dtype=float), default)
    if x.shape != (cfg.spec.N,) or not np.all(np.isfinite(x)):
        raise ValidationError(f"params.x0: expected {cfg.spec.N} finite numbers, got {x.tolist()}")
    return x


def _initial_state(cfg: RunConfig) -> np.ndarray:
    if cfg.params.get("x0", "random") != "random":
        return _state(cfg, None)
    scale = _param(cfg, "x0_scale", _finite, 0.1)
    return scale * np.random.default_rng(cfg.seed).standard_normal(cfg.spec.N)


def cmd_simulate(cfg: RunConfig, args) -> tuple:
    u0 = _param(cfg, "u0", _finite, 1.0)
    t_end = _param(cfg, "t_end", _positive, 50.0)
    dt = _param(cfg, "dt", _positive, None)
    x0 = _initial_state(cfg)
    try:
        traj = dynamics.integrate(cfg.spec, x0, u0, t_end, dt)
    except ValueError as exc:  # t_end and dt are positive and finite: too many samples
        raise ValidationError(f"params.t_end: {exc}") from None
    xf = traj.states[-1]
    return ({"trajectory.csv": trajectory_to_csv(traj)},
            f"u0 = {u0:g}, t_end = {t_end:g}, final state = {np.array2string(xf, precision=6)}")


def cmd_equilibrium(cfg: RunConfig, args) -> tuple:
    u0 = _param(cfg, "u0", _finite, 1.0)
    x0 = _state(cfg, np.zeros(cfg.spec.N))
    x_star = continuation.newton_equilibrium(cfg.spec, x0, u0)
    point = continuation.branch_point_at(cfg.spec, x_star, u0)
    doc = {
        "u0": u0,
        "x": x_star.tolist(),
        "leading_jac_eig": point.leading_jac_eig,
        "stable": point.stable,
    }
    return ({"equilibrium.json": doc},
            f"u0 = {u0:g}, x* = {np.array2string(x_star, precision=6)}, "
            f"stable = {point.stable}")


#: params.step key -> (StepParams field, type); absent keys keep the default,
#: other keys are rejected, and StepParams rejects out-of-range values
#: (max_points is read as a float so that a fractional count is rejected,
#: not truncated)
_STEP_KEYS = {
    "initial": ("initial", float),
    "min": ("min_step", float),
    "max": ("max_step", float),
    "max_points": ("max_points", float),
}


def _step_params(doc) -> continuation.StepParams:
    unknown = set(doc) - set(_STEP_KEYS)
    if unknown:
        raise ValueError(f"unknown key(s) {sorted(unknown)}")
    return continuation.StepParams(**{
        name: cast(doc[key]) for key, (name, cast) in _STEP_KEYS.items() if key in doc
    })


def _projection(cfg: RunConfig):
    """Ordinate for the diagram plot: <x, v_max> by default, or one
    component via params.projection = "x_i"."""
    choice = cfg.params.get("projection", "v_max")
    if isinstance(choice, str) and choice.startswith("x_"):
        idx = _param(cfg, "projection", lambda c: int(c[2:]) - 1, None)
        if not (0 <= idx < cfg.spec.N):
            raise ValidationError(f"params.projection: component {choice!r} out of range")
        return (lambda x: x[idx]), choice
    if choice != "v_max":
        raise ValidationError(
            f"params.projection: expected 'v_max' or 'x_i', got {choice!r}"
        )
    try:
        v = spectral.leading_eigenpair(cfg.spec).v_max
        return (lambda x: float(x @ v)), "<x, v_max>"
    except ModnodError:
        return (lambda x: x[0]), "x_1"


def cmd_diagram(cfg: RunConfig, args) -> tuple:
    if "u0_range" not in cfg.params:
        raise ValidationError("params.u0_range: required, as [lo, hi]")
    branches = continuation.diagram(cfg.spec, _param(cfg, "u0_range", _u0_range, None),
                                    _param(cfg, "step", _step_params, None),
                                    SCENARIOS[cfg.scenario]["labeler"] if cfg.scenario else None)
    files = {"diagram.csv": branches_to_csv(branches, cfg.spec.N)}
    if not args.no_svg:
        proj, ylabel = _projection(cfg)
        stamp = None if args.no_timestamp else time.strftime("%Y-%m-%dT%H:%M:%S")
        files["diagram.svg"] = branches_to_svg(branches, proj, ylabel, stamp)
    n_events = sum(len(b.events) for b in branches)
    kinds = sorted({e.kind.value for b in branches for e in b.events})
    return (files, f"{len(branches)} branches, {n_events} events"
            + (f" ({', '.join(kinds)})" if kinds else ""))


def cmd_reduce(cfg: RunConfig, args) -> tuple:
    eig = spectral.leading_eigenpair(cfg.spec)
    spectral_eig = spectral.max_entry_normalized(eig)
    report = reduction.ls_derivatives(cfg.spec, spectral_eig)
    doc = {
        "u0_star": report.u0_star,
        "g": report.g,
        "g_v": report.g_v,
        "g_u0": report.g_u0,
        "g_vv": report.g_vv,
        "g_vu0": report.g_vu0,
        "g_vvv": report.g_vvv,
        "classification": report.classification.value,
        "kernel": report.kernel.tolist(),
    }
    return ({"reduce.json": doc},
            f"u0* = {report.u0_star:g}, g_vv = {report.g_vv:.6g}, "
            f"g_vu0 = {report.g_vu0:.6g}, g_vvv = {report.g_vvv:.6g}, "
            f"classification = {report.classification.value}")


def cmd_analyze(cfg: RunConfig, args) -> tuple:
    eig = spectral.leading_eigenpair(cfg.spec)
    u0_star = spectral.critical_attention(cfg.spec)
    spectrum = spectral.full_spectrum(cfg.spec.A)
    doc = {
        "lambda_max": eig.lambda_max,
        "spectral_gap": eig.spectral_gap,
        "u0_star": u0_star,
        "v_max": eig.v_max.tolist(),
        "w_max": eig.w_max.tolist(),
        "spectrum_real": spectrum.real.tolist(),
        "spectrum_imag": spectrum.imag.tolist(),
    }
    return ({"analysis.json": doc},
            f"u0* = {u0_star:g}, lambda_max = {eig.lambda_max:g}, "
            f"v_max = {np.array2string(eig.v_max, precision=6)}")


def cmd_scenario(args) -> int:
    for name in sorted(SCENARIOS):
        entry = SCENARIOS[name]
        params = ", ".join(f"{k}={v}" for k, v in entry["params"].items())
        print(f"{name}({params}): {entry['describe']}")
    return EXIT_OK


#: every params key some command reads; one config can serve all commands
_PARAM_KEYS = {"u0", "x0", "x0_scale", "t_end", "dt", "u0_range", "step", "projection"}

#: command name -> function(cfg, args) returning (files, summary): files
#: maps an output file name to its text, or to a document written as JSON
_COMMANDS = {
    "simulate": cmd_simulate,
    "equilibrium": cmd_equilibrium,
    "diagram": cmd_diagram,
    "reduce": cmd_reduce,
    "analyze": cmd_analyze,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modnod",
        description="Modulated nonlinear opinion dynamics toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None,
                       help="JSON run config (default: read stdin)")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--no-svg", action="store_true")
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit the timestamp comment from SVG output")
        p.add_argument("--quiet", action="store_true")
    ps = sub.add_parser("scenario")
    ps.add_argument("action", nargs="?", default="list", choices=["list"])
    return parser


def main(argv=None) -> int:
    level = os.environ.get("MODNOD_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    args = _build_parser().parse_args(argv)
    if args.command == "scenario":
        return cmd_scenario(args)

    try:
        cfg = parse_config(args.config if args.config else sys.stdin)
        unknown = set(cfg.params) - _PARAM_KEYS
        if unknown:
            raise ValidationError(f"params: unknown key(s) {sorted(unknown)}")
        files, summary = _COMMANDS[args.command](cfg, args)
    except (ParseError, ValidationError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModnodError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    files["spec.json"] = spec_to_json(cfg.spec)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        text = content if isinstance(content, str) else json.dumps(content, indent=2) + "\n"
        (outdir / name).write_text(text, encoding="utf-8")
        if not args.quiet:
            print(f"wrote {outdir / name}")
    if not args.quiet:
        print(summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
