"""JSON run-configuration parsing and NetworkSpec (de)serialization.

A run config is a single JSON document:

    {
      "scenario": {"name": "influencer_ring", "m_bar": 0.5},
      // or, mutually exclusive with "scenario":
      "model": {
        "A": [[0, -1], [-1, 0]],
        "M": [[2, 1, 1, 1.0]],          // 1-based [i, j, k, weight]
        "n": 1,
        "saturation": {"variant": "odd"},   // or {"variant": "shifted", "s": 0.5}
        "b": [0, 0],
        "tau": 1.0
      },
      "params": { ... per-command parameters ... },
      "seed": 0
    }

Validation errors name the offending field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError
from .model import NetworkSpec, Saturation
from .scenarios import SCENARIOS, build_scenario

__all__ = ["RunConfig", "parse_config", "spec_to_json", "spec_from_json"]


@dataclass
class RunConfig:
    spec: NetworkSpec
    scenario: str | None = None
    params: dict = field(default_factory=dict)
    seed: int = 0


def _require(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def spec_from_json(doc: dict) -> NetworkSpec:
    """Build a NetworkSpec from its JSON form, reporting precise field paths."""
    _require(isinstance(doc, dict), "model: expected an object")
    unknown = set(doc) - {"A", "M", "n", "saturation", "b", "tau"}
    _require(not unknown, f"model: unknown field(s) {sorted(unknown)}")
    _require("A" in doc, "model.A: required")

    A = doc["A"]
    _require(
        isinstance(A, list) and A and all(isinstance(r, list) for r in A),
        "model.A: expected a matrix (list of rows)",
    )
    nrows = len(A)
    for r, row in enumerate(A):
        _require(
            len(row) == nrows,
            f"model.A: row {r} has {len(row)} entries, expected {nrows} (square matrix)",
        )

    triplets = []
    for idx, entry in enumerate(doc.get("M", [])):
        _require(
            isinstance(entry, list) and len(entry) == 4,
            f"model.M[{idx}]: expected [i, j, k, weight]",
        )
        triplets.append(tuple(entry))

    sat_doc = doc.get("saturation", {"variant": "odd"})
    _require(isinstance(sat_doc, dict), "model.saturation: expected an object")
    variant = sat_doc.get("variant", "odd")
    if variant == "odd":
        saturation = Saturation.odd()
    elif variant == "shifted":
        _require("s" in sat_doc, "model.saturation.s: required for the shifted variant")
        try:
            saturation = Saturation.shifted(float(sat_doc["s"]))
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"model.saturation.s: {exc}") from exc
    else:
        raise ValidationError(f"model.saturation.variant: unknown variant {variant!r}")

    try:
        return NetworkSpec(
            A=np.array(A, dtype=float),
            M=tuple(triplets),
            order=doc.get("n", 1),
            saturation=saturation,
            b=np.array(doc["b"], dtype=float) if "b" in doc else None,
            tau=doc.get("tau", 1.0),
        )
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"model: {exc}") from exc


def spec_to_json(spec: NetworkSpec) -> dict:
    doc = {
        "A": spec.A.tolist(),
        "M": [list(t) for t in spec.M],
        "n": spec.order,
        "saturation": (
            {"variant": "odd"}
            if spec.saturation.kind == "odd"
            else {"variant": "shifted", "s": spec.saturation.shift}
        ),
        "b": spec.b.tolist(),
        "tau": spec.tau,
    }
    return doc


def _config_from_doc(doc: dict) -> RunConfig:
    _require(isinstance(doc, dict), "config: expected a JSON object at top level")
    unknown = set(doc) - {"scenario", "model", "params", "seed"}
    _require(not unknown, f"config: unknown top-level field(s) {sorted(unknown)}")
    has_scenario = "scenario" in doc
    has_model = "model" in doc
    _require(
        has_scenario != has_model,
        "config: exactly one of 'scenario' or 'model' must be present",
    )

    scenario_name = None
    if has_scenario:
        sc = doc["scenario"]
        _require(isinstance(sc, dict), "scenario: expected an object")
        _require("name" in sc, "scenario.name: required")
        scenario_name = sc["name"]
        _require(
            scenario_name in SCENARIOS,
            f"scenario.name: unknown scenario {scenario_name!r}; "
            f"available: {', '.join(sorted(SCENARIOS))}",
        )
        params = {k: v for k, v in sc.items() if k != "name"}
        try:
            spec = build_scenario(scenario_name, **params)
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"scenario: {exc}") from exc
    else:
        spec = spec_from_json(doc["model"])

    params = doc.get("params", {})
    _require(isinstance(params, dict), "params: expected an object")
    seed = doc.get("seed", 0)
    _require(isinstance(seed, int), "seed: expected an integer")
    return RunConfig(spec=spec, scenario=scenario_name, params=params, seed=seed)


def parse_config(source) -> RunConfig:
    """Parse a run configuration from a path, file object, or JSON string."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
        if not text.lstrip().startswith("{"):
            try:
                with open(text, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read config file {text!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return _config_from_doc(doc)
