"""Pieces shared by the workloads: the task record and the in-process CLI call."""

from __future__ import annotations

import contextlib
import io
import traceback
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Task:
    """One operation of a workload's task list.

    ``known_fault`` names a program fault the operation is expected to hit;
    only such operations may fail without making the run incorrect.
    """

    kind: str
    label: str
    inputs: dict = field(default_factory=dict)
    known_fault: str | None = None


@dataclass
class CliResult:
    code: int
    outdir: Path
    stderr: str


def run_cli(argv: list, outdir: Path) -> CliResult:
    """``modnod <argv> --out outdir --quiet`` in this process; stderr is
    kept with the result."""
    from modnod import cli

    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--out", str(outdir), "--quiet"])
        except Exception:  # a crash is this operation's failure, not the run's
            traceback.print_exc(file=err)
            code = -1
    return CliResult(code, outdir, err.getvalue())


#: modnod's Newton tolerance on the residual norm, plus float rounding
#: between two evaluations of the same formula
RESIDUAL_TOL = 1e-12 + 1e-14
#: eigenvalues of the same Jacobian evaluated twice agree to rounding
EIG_TOL = 1e-9


def close(got, want, rel) -> bool:
    """|got - want| <= rel * max(|want|, 1); False for non-finite got."""
    got = float(got)
    return got == got and abs(got - want) <= rel * max(abs(want), 1.0)
