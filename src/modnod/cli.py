"""Command-line front end.

Subcommands: simulate | equilibrium | diagram | reduce | analyze |
scenario list.  Each takes a JSON run configuration (--config PATH, or
stdin) and writes its outputs under --out.  Exit codes: 0 success, 1
domain/numeric failure, 2 configuration failure.  Set MODNOD_LOG to a
logging level name for diagnostics.
"""

from __future__ import annotations

import argparse
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
from .scenarios import SCENARIOS, drive_steer_label

log = logging.getLogger("modnod.cli")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_CONFIG = 2


def _write(path: Path, text: str, quiet: bool):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    if not quiet:
        print(f"wrote {path}")


def _dump_spec(cfg: RunConfig, outdir: Path, quiet: bool):
    _write(outdir / "spec.json", json.dumps(spec_to_json(cfg.spec), indent=2) + "\n", quiet)


def _summary(quiet: bool, line: str):
    if not quiet:
        print(line)


def _initial_state(cfg: RunConfig, default_scale: float = 0.1) -> np.ndarray:
    x0 = cfg.params.get("x0", "random")
    if isinstance(x0, str):
        if x0 != "random":
            raise ValidationError(f"params.x0: expected a vector or 'random', got {x0!r}")
        rng = np.random.default_rng(cfg.seed)
        scale = float(cfg.params.get("x0_scale", default_scale))
        return scale * rng.standard_normal(cfg.spec.N)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (cfg.spec.N,):
        raise ValidationError(
            f"params.x0: expected length {cfg.spec.N}, got shape {x0.shape}"
        )
    return x0


def cmd_simulate(cfg: RunConfig, outdir: Path, args) -> int:
    u0 = float(cfg.params.get("u0", 1.0))
    t_end = float(cfg.params.get("t_end", 50.0))
    dt = cfg.params.get("dt")
    traj = dynamics.integrate(cfg.spec, _initial_state(cfg), u0, t_end,
                              None if dt is None else float(dt))
    _write(outdir / "trajectory.csv", trajectory_to_csv(traj), args.quiet)
    _dump_spec(cfg, outdir, args.quiet)
    xf = traj.states[-1]
    _summary(args.quiet,
             f"u0 = {u0:g}, t_end = {t_end:g}, final state = {np.array2string(xf, precision=6)}")
    return EXIT_OK


def cmd_equilibrium(cfg: RunConfig, outdir: Path, args) -> int:
    u0 = float(cfg.params.get("u0", 1.0))
    x0 = cfg.params.get("x0", [0.0] * cfg.spec.N)
    x_star = continuation.newton_equilibrium(cfg.spec, np.asarray(x0, dtype=float), u0)
    point = continuation.branch_point_at(cfg.spec, x_star, u0)
    doc = {
        "u0": u0,
        "x": x_star.tolist(),
        "leading_jac_eig": point.leading_jac_eig,
        "stable": point.stable,
    }
    _write(outdir / "equilibrium.json", json.dumps(doc, indent=2) + "\n", args.quiet)
    _dump_spec(cfg, outdir, args.quiet)
    _summary(args.quiet,
             f"u0 = {u0:g}, x* = {np.array2string(x_star, precision=6)}, "
             f"stable = {point.stable}")
    return EXIT_OK


#: params.step key -> (StepParams field, type); absent keys keep the default
_STEP_KEYS = {
    "initial": ("initial", float),
    "min": ("min_step", float),
    "max": ("max_step", float),
    "max_points": ("max_points", int),
}


def _diagram_options(cfg: RunConfig) -> continuation.DiagramOptions:
    step_doc = cfg.params.get("step", {})
    step = continuation.StepParams(**{
        name: cast(step_doc[key]) for key, (name, cast) in _STEP_KEYS.items() if key in step_doc
    })
    labeler = drive_steer_label if cfg.scenario == "drive_steer" else None
    return continuation.DiagramOptions(
        step=step,
        max_depth=int(cfg.params.get("depth", 2)),
        labeler=labeler,
    )


def _projection(cfg: RunConfig):
    """Ordinate for the diagram plot: <x, v_max> by default, or one
    component via params.projection = "x_i"."""
    choice = cfg.params.get("projection", "v_max")
    if isinstance(choice, str) and choice.startswith("x_"):
        idx = int(choice[2:]) - 1
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


def cmd_diagram(cfg: RunConfig, outdir: Path, args) -> int:
    rng = cfg.params.get("u0_range")
    if rng is None or len(rng) != 2:
        raise ValidationError("params.u0_range: required, as [lo, hi]")
    branches = continuation.diagram(cfg.spec, (float(rng[0]), float(rng[1])),
                                    _diagram_options(cfg))
    _write(outdir / "diagram.csv", branches_to_csv(branches, cfg.spec.N), args.quiet)
    if not args.no_svg:
        proj, ylabel = _projection(cfg)
        stamp = None if args.no_timestamp else time.strftime("%Y-%m-%dT%H:%M:%S")
        _write(outdir / "diagram.svg",
               branches_to_svg(branches, proj, ylabel, stamp), args.quiet)
    _dump_spec(cfg, outdir, args.quiet)
    n_events = sum(len(b.events) for b in branches)
    kinds = sorted({e.kind.value for b in branches for e in b.events})
    _summary(args.quiet,
             f"{len(branches)} branches, {n_events} events"
             + (f" ({', '.join(kinds)})" if kinds else ""))
    return EXIT_OK


def cmd_reduce(cfg: RunConfig, outdir: Path, args) -> int:
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
        "fd_steps": list(report.fd_steps),
        "kernel": report.kernel.tolist(),
    }
    _write(outdir / "reduce.json", json.dumps(doc, indent=2) + "\n", args.quiet)
    _dump_spec(cfg, outdir, args.quiet)
    _summary(args.quiet,
             f"u0* = {report.u0_star:g}, g_vv = {report.g_vv:.6g}, "
             f"g_vu0 = {report.g_vu0:.6g}, g_vvv = {report.g_vvv:.6g}, "
             f"classification = {report.classification.value}")
    return EXIT_OK


def cmd_analyze(cfg: RunConfig, outdir: Path, args) -> int:
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
    _write(outdir / "analysis.json", json.dumps(doc, indent=2) + "\n", args.quiet)
    _dump_spec(cfg, outdir, args.quiet)
    _summary(args.quiet,
             f"u0* = {u0_star:g}, lambda_max = {eig.lambda_max:g}, "
             f"v_max = {np.array2string(eig.v_max, precision=6)}")
    return EXIT_OK


def cmd_scenario(args) -> int:
    if args.action != "list":
        print(f"unknown scenario action {args.action!r}; try 'list'", file=sys.stderr)
        return EXIT_CONFIG
    for name in sorted(SCENARIOS):
        entry = SCENARIOS[name]
        params = ", ".join(f"{k}={v}" for k, v in entry["params"].items())
        print(f"{name}({params}): {entry['describe']}")
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "equilibrium": cmd_equilibrium,
    "diagram": cmd_diagram,
    "reduce": cmd_reduce,
    "analyze": cmd_analyze,
}


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
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--quiet", action="store_true")
    ps = sub.add_parser("scenario")
    ps.add_argument("action", nargs="?", default="list")
    return parser


def main(argv=None) -> int:
    level = os.environ.get("MODNOD_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    args = _build_parser().parse_args(argv)
    if args.command == "scenario":
        return cmd_scenario(args)

    try:
        cfg = parse_config(args.config if args.config else sys.stdin)
        if args.seed is not None:
            cfg.seed = args.seed
        code = _COMMANDS[args.command](cfg, Path(args.out), args)
    except (ParseError, ValidationError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModnodError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
