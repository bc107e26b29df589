import json
import os
from pathlib import Path
import subprocess
import sys
from xml.etree import ElementTree

import numpy as np
import pytest

from modnod import ParseError, Saturation, ValidationError, build_two_node
from modnod.cli import main
from modnod.config import parse_config, spec_from_json, spec_to_json


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# -- parsing and validation ---------------------------------------------------

def test_minimal_scenario_config(tmp_path):
    cfg = parse_config(write_config(tmp_path, {
        "scenario": {"name": "two_node", "m_strength": 1.0, "n": 1},
    }))
    assert cfg.spec == build_two_node(1.0, 1)
    assert cfg.scenario == "two_node"
    assert cfg.seed == 0


def test_inline_model_config():
    cfg = parse_config(json.dumps({
        "model": {
            "A": [[0, -1], [-1, 0]],
            "M": [[2, 1, 1, 1.0]],
            "n": 2,
            "saturation": {"variant": "shifted", "s": 0.4},
            "b": [0.1, 0.0],
            "tau": 2.0,
        },
        "params": {"u0": 0.5},
        "seed": 7,
    }))
    assert cfg.spec.order == 2
    assert cfg.spec.saturation == Saturation.shifted(0.4)
    assert cfg.spec.tau == 2.0
    assert cfg.seed == 7


def test_non_square_matrix_names_the_field():
    with pytest.raises(ValidationError, match=r"model\.A"):
        parse_config(json.dumps({"model": {"A": [[0, 1, 2], [3, 4, 5]]}}))


def test_duplicate_modulation_triplet_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        parse_config(json.dumps({
            "model": {"A": [[0, 1], [1, 0]], "M": [[1, 2, 1, 1.0], [1, 2, 1, 2.0]]},
        }))


def test_scenario_and_model_are_mutually_exclusive():
    with pytest.raises(ValidationError, match="exactly one"):
        parse_config(json.dumps({
            "scenario": {"name": "two_node"},
            "model": {"A": [[0]]},
        }))
    with pytest.raises(ValidationError, match="exactly one"):
        parse_config(json.dumps({}))


def test_malformed_json_is_a_parse_error():
    with pytest.raises(ParseError, match="line"):
        parse_config("{not json")


def test_bad_order_and_tau_are_validation_errors():
    with pytest.raises(ValidationError):
        parse_config(json.dumps({"model": {"A": [[0, 1], [1, 0]], "n": 0}}))
    with pytest.raises(ValidationError):
        parse_config(json.dumps({"model": {"A": [[0, 1], [1, 0]], "tau": -1}}))
    with pytest.raises(ValidationError, match="saturation.s"):
        parse_config(json.dumps({"model": {"A": [[0, 1], [1, 0]],
                                           "saturation": {"variant": "shifted", "s": 400}}}))


def test_spec_json_round_trip_exact():
    spec = build_two_node(1.0, 2)
    assert spec_from_json(spec_to_json(spec)) == spec
    shifted = spec_from_json(spec_to_json(spec) | {
        "saturation": {"variant": "shifted", "s": 0.123456789012345},
    })
    assert spec_from_json(spec_to_json(shifted)) == shifted


# -- CLI ----------------------------------------------------------------------

def test_cli_analyze_ring(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"name": "influencer_ring", "m_bar": 0.5}})
    rc = main(["analyze", "--config", cfg, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "u0* = 0.5" in out
    assert "lambda_max = 2" in out
    doc = json.loads((tmp_path / "analysis.json").read_text())
    v = np.array(doc["v_max"])
    assert np.max(np.abs(v - v[0])) < 1e-9  # proportional to all-ones


def test_cli_diagram_two_node(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": {"name": "two_node", "m_strength": 1.0, "n": 1},
        "params": {"u0_range": [0.0, 1.5]},
    })
    rc = main(["diagram", "--config", cfg, "--out", str(tmp_path),
               "--no-timestamp", "--quiet"])
    assert rc == 0
    lines = (tmp_path / "diagram.csv").read_text().splitlines()
    assert lines[0].startswith("branch_label,point_index,u0,x_1,x_2,")
    labels = {line.split(",")[0] for line in lines[1:]}
    assert len(labels) >= 3
    event_rows = [l for l in lines[1:] if l.split(",")[-1]]
    kinds = {row.split(",")[-1] for row in event_rows}
    assert "Transcritical" in kinds
    tc = [l for l in event_rows if l.endswith("Transcritical")][0]
    assert abs(float(tc.split(",")[2]) - 1.0) < 1e-6
    svg = (tmp_path / "diagram.svg").read_text()
    assert svg.startswith("<svg") and "generated" not in svg
    # well-formed XML, with the default "<x, v_max>" axis label escaped
    root = ElementTree.fromstring(svg)
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert "<x, v_max>" in texts


def one_point_branch():
    from modnod.continuation import Branch, BranchPoint

    point = BranchPoint(u0=0.5, x=np.array([-0.0, 0.0]), leading_jac_eig=-1.0, stable=True,
                        tangent=np.array([0.0, 0.0, 1.0]), det_sign=1.0)
    return Branch(points=[point], label="00")


def test_svg_of_a_single_point_parses():
    # every point at one u0: the u0 span is widened as the y span is
    from modnod.output import branches_to_svg

    svg = branches_to_svg([one_point_branch()], lambda x: x[0], "x_1")
    root = ElementTree.fromstring(svg)
    assert "00" in [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]


def test_csv_writes_negative_zero_as_zero():
    from modnod.output import branches_to_csv

    assert branches_to_csv([one_point_branch()], 2).splitlines()[1] == "00,0,0.5,0.0,0.0,-1.0,true,"


def test_cli_reduce_ring(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenario": {"name": "influencer_ring", "m_bar": 0.5}})
    rc = main(["reduce", "--config", cfg, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "classification = Transcritical" in out
    doc = json.loads((tmp_path / "reduce.json").read_text())
    assert abs(doc["g_vv"] - 2.0) < 1e-12 * 2.0
    assert abs(doc["g_vvv"] + 2.0) < 1e-12 * 2.0


def test_cli_simulate_and_equilibrium(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": {"name": "two_node", "m_strength": 0.0, "n": 1},
        "params": {"u0": 1.2, "x0": [0.4, -0.4], "t_end": 60.0},
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x_1,x_2"
    assert len(lines) > 100
    assert main(["equilibrium", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    doc = json.loads((tmp_path / "equilibrium.json").read_text())
    assert doc["stable"] is True
    # simulate and equilibrium agree on the attractor
    final = [float(v) for v in lines[-1].split(",")[1:]]
    assert np.max(np.abs(np.array(final) - np.array(doc["x"]))) < 1e-6


def test_cli_simulate_samples_the_step_grid(tmp_path):
    # t = k * dt with no accumulated drift: t_end 50 at dt 0.01 is 5001 rows
    cfg = write_config(tmp_path, {
        "scenario": {"name": "two_node", "m_strength": 1.0, "n": 1},
        "params": {"u0": 0.5, "x0": [0.1, -0.1], "t_end": 50.0},
    })
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 5001
    times = np.array([float(row.split(",")[0]) for row in rows])
    assert np.array_equal(times, 0.01 * np.arange(5001))


def test_cli_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": {"name": "influencer_ring", "m_bar": 0.5},
        "params": {"u0_range": [0.05, 1.2]},
    })
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        assert main(["diagram", "--config", cfg, "--out", str(tmp_path / d),
                     "--no-timestamp", "--quiet"]) == 0
    for name in ("diagram.csv", "diagram.svg", "spec.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cli_spec_round_trip(tmp_path):
    cfg = write_config(tmp_path, {
        "scenario": {"name": "drive_steer", "alpha": 1.0, "beta": 0.3, "m_bar": 2.0},
    })
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 0
    exported = json.loads((tmp_path / "spec.json").read_text())
    reparsed = parse_config(json.dumps({"model": exported}))
    from modnod import build_drive_steer
    assert reparsed.spec == build_drive_steer(1.0, 0.3, 2.0)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["analyze", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "ParseError" in capsys.readouterr().err

    rotation = write_config(tmp_path, {
        "model": {"A": [[0, 1], [-1, 0]]},
    }, "rot.json")
    assert main(["analyze", "--config", rotation, "--out", str(tmp_path)]) == 1
    assert "NoStrictLeader" in capsys.readouterr().err

    # the origin is no equilibrium when b != 0, so there is nothing to reduce
    biased = write_config(tmp_path, {"model": {"A": [[0, 1], [1, 0]], "b": [0.1, 0]}}, "b.json")
    assert main(["reduce", "--config", biased, "--out", str(tmp_path)]) == 1
    assert "OutOfDomain" in capsys.readouterr().err

    # lambda_max = 0 puts the crossing at u0* = inf
    neutral = write_config(tmp_path, {"model": {"A": [[0, 1], [0, -1]]}}, "zero.json")
    assert main(["reduce", "--config", neutral, "--out", str(tmp_path)]) == 1
    assert "DegenerateLeader" in capsys.readouterr().err

    for command, params, key in [
        ("diagram", {"u0_range": ["a", "b"]}, "u0_range"),
        ("diagram", {"u0_range": [1.5, 0.2]}, "u0_range"),
        ("diagram", {"u0_range": "05"}, "u0_range"),
        ("diagram", {"u0_range": [0.0, 0.5, 1.5]}, "u0_range"),
        ("diagram", {"u0_range": [0.0, 1.5], "projection": "x_a"}, "projection"),
        ("diagram", {"u0_range": [0.0, 1.5], "step": {"max": "a"}}, "step"),
        ("diagram", {"u0_range": [0.0, 1.5], "step": {"initial": 0}}, "step"),
        ("diagram", {"u0_range": [0.0, 1.5], "step": {"max_points": 0}}, "step"),
        ("diagram", {"u0_range": [0.0, 1.5], "step": {"max_points": 1}}, "step"),
        ("diagram", {"u0_range": [0.0, 1.5], "step": {"max": -0.1}}, "step"),
        ("equilibrium", {"x0": [0.1, 0.2, 0.3]}, "x0"),
        ("simulate", {"u0": "abc"}, "u0"),
        ("simulate", {"u0": float("nan")}, "u0"),
        ("equilibrium", {"u0": "nan"}, "u0"),
        ("simulate", {"x0_scale": float("inf")}, "x0_scale"),
        ("simulate", {"t_end": -1}, "t_end"),
        ("simulate", {"t_end": 1e15}, "t_end"),
    ]:
        cfg = write_config(tmp_path, {"scenario": {"name": "two_node"}, "params": params})
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
        assert f"ValidationError: params.{key}:" in capsys.readouterr().err

    # a key that no command reads is a typo, not a silently applied default
    for command, params, where in [
        ("simulate", {"t_ned": 5}, "params"),
        ("diagram", {"u0_range": [0.0, 1.5], "depht": 3}, "params"),
        ("diagram", {"u0_range": [0.0, 1.5], "depth": 0.5}, "params"),
        ("diagram", {"u0_range": [0.0, 1.5], "depth": -1}, "params"),
        ("diagram", {"u0_range": [0.0, 1.5], "depth": "x"}, "params"),
        ("diagram", {"u0_range": [0.0, 1.5], "step": {"maxx": 0.01}}, "params.step"),
    ]:
        cfg = write_config(tmp_path, {"scenario": {"name": "two_node"}, "params": params})
        assert main([command, "--config", cfg, "--out", str(tmp_path), "--quiet"]) == 2
        assert f"ValidationError: {where}: unknown key(s)" in capsys.readouterr().err


def test_cli_failing_command_writes_nothing(tmp_path, capsys):
    # the projection is checked only after the diagram is traced; no
    # diagram.csv or spec.json may be left behind
    cfg = write_config(tmp_path, {"scenario": {"name": "two_node"},
                                  "params": {"u0_range": [0.0, 1.5], "projection": "x_9"}})
    out = tmp_path / "out"
    assert main(["diagram", "--config", cfg, "--out", str(out)]) == 2
    assert "params.projection" in capsys.readouterr().err
    assert not out.exists()


def test_cli_commands_share_one_config(tmp_path):
    # README's example config: every command accepts the keys the others read
    cfg = write_config(tmp_path, {
        "scenario": {"name": "two_node", "m_strength": 1.0, "n": 2},
        "params": {"u0_range": [0.0, 1.5], "projection": "v_max"},
        "seed": 0,
    })
    for command in ("diagram", "reduce", "simulate", "equilibrium", "analyze"):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), "--quiet", "--no-svg"]) == 0
        assert (out / "spec.json").exists()


def test_cli_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("two_node", "influencer_ring", "drive_steer"):
        assert name in out
    with pytest.raises(SystemExit) as exc:
        main(["scenario", "show"])
    assert exc.value.code == 2


def test_cli_parser_serves_every_call_in_one_process(tmp_path, capsys):
    from modnod.cli import _build_parser

    help_text = _build_parser.__wrapped__().format_help()
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    bad = write_config(tmp_path, {"scenario": {"name": "two_node"}, "params": {"t_ned": 5}})
    assert main(["analyze", "--config", bad, "--out", str(tmp_path), "--quiet"]) == 2
    good = write_config(tmp_path, {"scenario": {"name": "two_node"}}, "good.json")
    assert main(["analyze", "--config", good, "--out", str(tmp_path / "ok"), "--quiet"]) == 0
    assert abs(json.loads((tmp_path / "ok" / "analysis.json").read_text())["lambda_max"] - 1) < 1e-12
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == help_text
    assert _build_parser() is _build_parser()


def test_cli_import_does_not_load_scipy():
    # the runtime needs numpy only; scipy would double the CLI's cold start,
    # and numpy.ma (pulled in by np.unique and np.setdiff1d) adds about 1 MB
    # of resident memory.  The child also builds a spec with two triplets on
    # one edge and evaluates it, and draws a small diagram (whose mirror-block
    # search deduplicates rows, which np.unique would do through numpy.ma).
    # It is given the directory this process imports modnod from, and must
    # import the same.
    import modnod

    code = ("import sys, modnod.cli; print(modnod.__file__)\n"
            "from modnod import build_two_node, diagram\n"
            "from modnod.model import NetworkSpec, linearize, vector_field\n"
            "spec = NetworkSpec(A=[[0.0, -1.0], [-1.0, 0.0]], order=2,\n"
            "                   M=((2, 1, 1, 1.0), (2, 1, 2, -0.5)))\n"
            "vector_field(spec, [0.3, -0.2], 0.8)\n"
            "linearize(spec, [0.3, -0.2], 0.8)\n"
            "diagram(build_two_node(1.0, 1), (0.0, 1.5))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m.split('.')[:2] == ['numpy', 'ma']))")
    env = {**os.environ, "PYTHONPATH": str(Path(modnod.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == [modnod.__file__, "[]"]


def test_diagram_step_options_override_only_given_keys():
    from modnod.cli import _step_params
    from modnod.continuation import StepParams

    cfg = parse_config(json.dumps({
        "scenario": {"name": "two_node"},
        "params": {"u0_range": [0.0, 1.5], "step": {"max": 0.05, "max_points": 300}},
    }))
    assert _step_params(cfg.params["step"]) == StepParams(max_step=0.05, max_points=300)
