"""The random-spec draw that corpus runs share.

``corpus_model(rng)`` takes one model's draws from a numpy Generator in a
fixed order, so the k-th draw of ``default_rng(seed)`` names the same spec in
every run: N = 2-5; A standard normal, each entry kept with probability 0.6;
0-3 modulation triplets; odd or shifted S; b = 0 or 0.1 * normal; order 1-3.
It returns the JSON model document, because a repeated triplet is left in
and ``config.spec_from_json`` rejects it with a ValidationError.
"""

import numpy as np


def corpus_model(rng: np.random.Generator) -> dict:
    n = int(rng.integers(2, 6))
    A = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.6)
    M = []
    for _ in range(int(rng.integers(0, 4))):
        i, j, k = (int(v) for v in rng.integers(1, n + 1, 3))
        M.append([i, j, k, float(rng.standard_normal())])
    saturation = {"variant": "odd"}
    if rng.random() >= 0.5:
        saturation = {"variant": "shifted", "s": float(rng.uniform(-1, 1))}
    b = [0.0] * n
    if rng.random() >= 0.5:
        b = (0.1 * rng.standard_normal(n)).tolist()
    return {"A": A.tolist(), "M": M, "n": int(rng.integers(1, 4)),
            "saturation": saturation, "b": b}
