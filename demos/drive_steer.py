"""Conditional decision-making for navigation: a drive-or-stay decision
gates how eagerly a steering decision is made.

Two mutually inhibiting pairs share no additive edges: nodes {1,2} decide
drive vs stay (strength alpha), nodes {3,4} decide steer left vs right
(strength beta).  Node 1 modulates the steering inhibition, so the steering
pair destabilizes where beta*u0 + m_bar*x1 = 1.  Without modulation both
outcomes of the first decision lead to the same steering threshold 1/beta;
with m_bar > 0 a formed "drive" opinion (x1 > 0) lowers the threshold and a
"stay" opinion raises it: steering commitments come faster when moving.

Branches are labeled by navigation command: id, dr, st, drl, drr, stl, str.

Run:  python demos/drive_steer.py        (writes SVGs next to itself)
"""

from pathlib import Path

from modnod import StepParams, build_drive_steer, diagram
from modnod.output import branches_to_svg
from modnod.scenarios import drive_steer_label

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

ALPHA, BETA = 1.0, 0.3

for m_bar, hi in ((0.0, 4.0), (2.0, 11.0)):
    spec = build_drive_steer(ALPHA, BETA, m_bar)
    branches = diagram(spec, (0.05, hi), StepParams(max_points=4000), drive_steer_label)
    by_label = {b.label: b for b in branches}

    print(f"== modulation m_bar = {m_bar} ==")
    print(f"drive-or-stay decision opens at u0 = {1/ALPHA:g}")
    for lbl in ("dr", "st"):
        events = sorted(e.u0 for e in by_label[lbl].events)
        shown = ", ".join(f"{u:.4f}" for u in events)
        print(f"steering events on the {lbl} branch: {shown}")
    if m_bar == 0.0:
        print(f"(both at 1/beta = {1/BETA:.4f}: steering ignores the first decision)")
    else:
        first_dr = min(e.u0 for e in by_label["dr"].events)
        first_st = min(e.u0 for e in by_label["st"].events)
        print(f"(driving steers {first_st - first_dr:.3f} attention units earlier "
              f"than staying)")

    svg = branches_to_svg(branches, lambda x: x[2], "steering opinion x_3")
    path = OUT / f"drive_steer_m{m_bar:g}.svg"
    path.write_text(svg)
    print(f"diagram written to {path}\n")
