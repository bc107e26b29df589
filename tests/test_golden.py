"""Byte snapshots of ``modnod diagram`` outputs.

``tests/golden/<name>/diagram.csv`` and ``diagram.svg`` were written by
``modnod diagram --config '<inline JSON>' --no-timestamp`` with the configs
below: the seven scenario configs of the benchmark's ``diagram_scenarios``
(two-node orders 1-3, the influencer ring at m_bar = 0 and 0.5, drive/steer
at m_bar = 0 and 2).  The first four were written before the fused
linearisation replaced the per-call gain loop; two-node n = 2 and 3 and the
m_bar = 0 ring before mirror branches were reflected instead of traced.
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_diagram_outputs_match_snapshot(name, tmp_path):
    rc = main(["diagram", "--config", json.dumps(GOLDEN[name]), "--out", str(tmp_path),
               "--no-timestamp", "--quiet"])
    assert rc == 0
    for fname in ("diagram.csv", "diagram.svg"):
        expected = (GOLDEN_DIR / name / fname).read_bytes()
        assert (tmp_path / fname).read_bytes() == expected, f"{name}/{fname} drifted"
