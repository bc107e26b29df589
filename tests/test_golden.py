"""Byte snapshots of ``modnod diagram`` outputs.

``tests/golden/<name>/diagram.csv`` and ``diagram.svg`` were written by
``modnod diagram --config '<inline JSON>' --no-timestamp`` with the configs
below: the seven scenario configs of the benchmark's ``diagram_scenarios``
(two-node orders 1-3, the influencer ring at m_bar = 0 and 0.5, drive/steer
at m_bar = 0 and 2).  All fourteen files were regenerated once when
tracing came to accept every converged correction (the corrector keeps the
step along the tangent at h <= max_step; a chord check that threw away
converged corrections was deleted) and the switch solve and the landing on
the u0 boundary moved onto the same corrector: the points off the neutral
branches moved, on the old polylines to within 7.6e-4, the events off them
by at most 1.3e-8, and the drive/steer m_bar = 2 labels changed (CHANGES.md
gives the reasons).  ``drive_steer_m2`` was regenerated once more when a loop
came to close on its seed: its ``stl`` loop gained one last row, the landing
on its seed, and nothing else moved.
A change that moves any digit of these files must say why in CHANGES.md.
The bytes depend on float64 rounding in numpy and LAPACK, so a different
platform may legitimately differ in the last printed digits.
"""

import json
from pathlib import Path

import pytest

from modnod.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "two_node_n1": {"scenario": {"name": "two_node", "m_strength": 1.0, "n": 1},
                    "params": {"u0_range": [0.0, 1.5]}},
    "two_node_n2": {"scenario": {"name": "two_node", "m_strength": 1.0, "n": 2},
                    "params": {"u0_range": [0.0, 1.5]}},
    "two_node_n3": {"scenario": {"name": "two_node", "m_strength": 1.0, "n": 3},
                    "params": {"u0_range": [0.0, 1.5]}},
    "influencer_ring_m0": {"scenario": {"name": "influencer_ring", "m_bar": 0.0},
                           "params": {"u0_range": [0.05, 1.2]}},
    "influencer_ring_m0.5": {"scenario": {"name": "influencer_ring", "m_bar": 0.5},
                             "params": {"u0_range": [0.05, 1.2]}},
    "drive_steer_m0": {"scenario": {"name": "drive_steer", "m_bar": 0.0},
                       "params": {"u0_range": [0.05, 4.0]}},
    "drive_steer_m2": {"scenario": {"name": "drive_steer", "m_bar": 2.0},
                       "params": {"u0_range": [0.05, 11.0]}},
}


def first_difference(expected: bytes, got: bytes) -> str:
    """The first line where ``got`` departs from ``expected``, both lines shown."""
    old, new = expected.decode().splitlines(), got.decode().splitlines()
    for i, (a, b) in enumerate(zip(old, new), 1):
        if a != b:
            return f"first difference at line {i}:\n  golden: {a}\n  output: {b}"
    return f"golden has {len(old)} lines, output {len(new)}; the first {min(len(old), len(new))} agree"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_diagram_outputs_match_snapshot(name, tmp_path):
    rc = main(["diagram", "--config", json.dumps(GOLDEN[name]), "--out", str(tmp_path),
               "--no-timestamp", "--quiet"])
    assert rc == 0
    for fname in ("diagram.csv", "diagram.svg"):
        expected = (GOLDEN_DIR / name / fname).read_bytes()
        got = (tmp_path / fname).read_bytes()
        assert got == expected, f"{name}/{fname} drifted; {first_difference(expected, got)}"


def test_first_difference_names_the_line():
    assert first_difference(b"a\nb\nc\n", b"a\nx\nc\n") == (
        "first difference at line 2:\n  golden: b\n  output: x")
    assert first_difference(b"a\nb\n", b"a\n") == (
        "golden has 2 lines, output 1; the first 1 agree")
