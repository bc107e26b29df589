"""CSV and SVG emitters for diagrams and trajectories.

All float formatting uses repr (shortest round-trip), with zero always
written as 0.0, so equal inputs produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

__all__ = ["branches_to_csv", "trajectory_to_csv", "branches_to_svg"]


def _fmt(x) -> str:
    return repr(float(x) + 0.0)  # -0.0 + 0.0 is 0.0; every other value is kept


def _escape(text: str) -> str:
    """Escape &, < and > for an XML text node (as xml.sax.saxutils.escape,
    whose import pulls in urllib.request, http.client and ssl)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def branches_to_csv(branches, n_states: int) -> str:
    """One row per branch point plus one row per event (point_index -1).

    Columns: branch_label, point_index, u0, x_1..x_N, leading_jac_eig,
    stable, event_kind.
    """
    header = ["branch_label", "point_index", "u0"]
    header += [f"x_{i + 1}" for i in range(n_states)]
    header += ["leading_jac_eig", "stable", "event_kind"]
    lines = [",".join(header)]
    for branch in branches:
        for idx, p in enumerate(branch.points):
            lines.append(",".join(
                [branch.label, str(idx), _fmt(p.u0)] + [_fmt(v) for v in p.x]
                + [_fmt(p.leading_jac_eig), str(p.stable).lower(), ""]
            ))
        for e in branch.events:
            lines.append(",".join(
                [branch.label, "-1", _fmt(e.u0)] + [_fmt(v) for v in e.x]
                + [_fmt(e.eigenvalue), "", e.kind.value]
            ))
    return "\n".join(lines) + "\n"


def trajectory_to_csv(traj) -> str:
    n = traj.states.shape[1]
    header = ["t"] + [f"x_{i + 1}" for i in range(n)]
    lines = [",".join(header)]
    # floats a row at a time: a float list of the whole table takes 4x its memory
    for row in np.column_stack((traj.times, traj.states)) + 0.0:
        lines.append(",".join(map(repr, row.tolist())))
    return "\n".join(lines + [""])  # the final newline, without a copy of the text


# ---------------------------------------------------------------------------
# SVG

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2",
            "#7f7f7f", "#bcbd22", "#17becf", "#ff7f0e"]

_EVENT_COLORS = {
    "Pitchfork": "#1f77b4",
    "Transcritical": "#ff7f0e",
    "SaddleNode": "#2ca02c",
    "Unclassified": "#7f7f7f",
}

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 62, 16, 16, 46


def _ticks(lo, hi):
    """About five round tick values in [lo, hi] (lo < hi)."""
    raw = (hi - lo) / 5
    mag = 10.0 ** np.floor(np.log10(raw))
    step = min(s for s in (1 * mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = np.ceil(lo / step) * step
    return [first + i * step for i in range(int((hi - first) / step) + 1)]


def branches_to_svg(branches, projection, ylabel: str, timestamp: str | None = None) -> str:
    """Self-contained bifurcation-diagram SVG.

    ``projection(x) -> float`` maps a state vector to the plotted ordinate.
    Stable stretches are drawn with stroke-width 2, unstable with 0.75;
    events are circles colored by kind (subcritical pitchforks unfilled).
    """
    series = []
    for branch in branches:
        pts = [(p.u0, float(projection(p.x)), p.stable) for p in branch.points]
        evs = [(e.u0, float(projection(e.x)), e) for e in branch.events]
        series.append((branch.label, pts, evs))

    xs = [u for _, pts, _ in series for u, _, _ in pts]
    ys = [y for _, pts, _ in series for _, y, _ in pts]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 1.0, x_hi + 1.0
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(u):
        return _ML + (u - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">'
    ]
    if timestamp:
        out.append(f"<!-- generated {timestamp} -->")
    out.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')

    # axes and ticks
    axis = (
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        f'stroke="black"/>'
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>'
    )
    out.append(axis)
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        out.append(
            f'<line x1="{px:.2f}" y1="{_H - _MB}" x2="{px:.2f}" y2="{_H - _MB + 5}" stroke="black"/>'
            f'<text x="{px:.2f}" y="{_H - _MB + 18}" font-size="11" text-anchor="middle">{t:.4g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        out.append(
            f'<line x1="{_ML - 5}" y1="{py:.2f}" x2="{_ML}" y2="{py:.2f}" stroke="black"/>'
            f'<text x="{_ML - 8}" y="{py + 4:.2f}" font-size="11" text-anchor="end">{t:.4g}</text>'
        )
    out.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 8}" font-size="13" '
        f'text-anchor="middle">u0</text>'
        f'<text x="14" y="{(_MT + _H - _MB) / 2:.0f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.0f})">{_escape(ylabel)}</text>'
    )

    # branches: split into stable/unstable runs at each change of stability;
    # consecutive runs share the point where it changes
    for b_idx, (label, pts, evs) in enumerate(series):
        color = _PALETTE[b_idx % len(_PALETTE)]
        stable = [s for _, _, s in pts]
        cuts = [0] + [k for k in range(1, len(pts)) if stable[k] != stable[k - 1]]
        for a, b in zip(cuts, cuts[1:] + [len(pts) - 1]):
            if b > a:  # a final run of one point draws nothing
                width = 2.0 if stable[a] else 0.75
                path = " ".join(f"{sx(u):.2f},{sy(v):.2f}" for u, v, _ in pts[a:b + 1])
                out.append(
                    f'<polyline fill="none" stroke="{color}" '
                    f'stroke-width="{width}" points="{path}"/>'
                )
        first_u, first_v, _ = pts[0]
        out.append(
            f'<text x="{sx(first_u) + 4:.2f}" y="{sy(first_v) - 4:.2f}" '
            f'font-size="10" fill="{color}">{_escape(label)}</text>'
        )

    # event markers on top
    for _, _, evs in series:
        for u, v, e in evs:
            color = _EVENT_COLORS[e.kind.value]
            subcritical = (e.detail is not None
                           and e.detail.classification.value == "SubcriticalPitchfork")
            fill = "white" if subcritical else color
            out.append(
                f'<circle cx="{sx(u):.2f}" cy="{sy(v):.2f}" r="4" '
                f'fill="{fill}" stroke="{color}" stroke-width="1.5">'
                f"<title>{e.kind.value} at u0={u:.6g}</title></circle>"
            )

    out.append("</svg>")
    return "\n".join(out) + "\n"
