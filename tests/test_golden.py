"""Golden digests of built models.

Each digest is a sha256 over the shape and the CSR ``indptr``/``indices``/
``data`` arrays of J, Q, B, C and D, then the dimensions and the JSON of
``meta``.  Hashing the arrays rather than the exported ``.mtx`` bytes keeps
the digests independent of how Matrix Market formats numbers, while any
change in a value, in the sparsity pattern or in the stored entry order
shows.  A refactoring of the construction path must leave them unchanged.
"""

import hashlib
import json

import numpy as np
import pytest

from phfem.sim import build_model


def _rect(N, M, h, causality, weights):
    return {
        "mesh": {"kind": "rect", "N": N, "M": M, "h": h},
        "causality": causality,
        "weights": weights,
    }


CONFIGS = {
    "cli-roundtrip": _rect(24, 24, 1.0, {"p_sides": ["bottom"]}, "set2"),
    "build-determinism": _rect(3, 3, 1.0, {"p_nodes": [0, 1]}, "set3"),
    "wave": _rect(20, 20, 1.0, {"p_nodes": [0]}, "set4"),
    "q-edges-all": _rect(4, 3, 0.5, {"q_edges": "all"}, "set1"),
    "explicit-weights": _rect(
        5, 4, 0.7, {"p_sides": ["left"]},
        {"alpha_I": 0.4, "beta_I": 0.35, "alpha_II": 0.2, "beta_II": 0.5},
    ),
    "interval": {"mesh": {"kind": "interval", "N": 40}, "alpha": 1 / 6},
    "golo": {
        "mesh": {"kind": "interval", "N": 40},
        "method": "golo",
        "alpha_prime": 1 / 12,
    },
    # alpha' = 0 stores zeros in the effort maps, which resolve as selectors
    "golo-zero": {
        "mesh": {"kind": "interval", "N": 40},
        "method": "golo",
        "alpha_prime": 0.0,
    },
    "interval-negative-alpha": {"mesh": {"kind": "interval", "N": 40}, "alpha": -1 / 12},
    "p-sides-left-top": _rect(5, 4, 1.0, {"p_sides": ["left", "top"]}, "set2"),
    # top (reversed), left, bottom, right: segments keep their order
    "q-segments": _rect(
        4, 3, 0.5,
        {
            "p_nodes": [0],
            "q_segments": [[15, 14, 13, 12], [16, 21, 26], [0, 1, 2, 3], [20, 25, 30]],
        },
        "set3",
    ),
}

GOLDEN = {
    "build-determinism": "6204b1d81f8b1e6bb09ae3bcc312debbb911671c187d0e624f39049d1e180071",
    "cli-roundtrip": "d9d1214f12bf672ddf66b608e3cac5ba18abeadddbbc3545ed062b0bd4a27ac3",
    "explicit-weights": "ffbfa38666a9616eecc6e6349cb79645dc1bbb98abe38c0e452950e6dad1ded1",
    "golo": "4a0b7b8206f7a09a5b6775134f343bff553d9798fba9539194fb1cdef42ad04d",
    "golo-zero": "b04f889d6701144866125a1243f1e403857dd44b0639c7bc4d78966a90ca7ba4",
    "interval": "5f95e4851f7b8151ecef6c635ee5dd2acd4d52946d198344b32e95df34c59bd2",
    "interval-negative-alpha": "79b5923e83cec15aa88279158f8180888083435ae10fd651d182b42808c85c7e",
    "p-sides-left-top": "5d7bf09e117354af79ba018dbb51347474c25531ffe05dda97ed565c1a3e492d",
    "q-edges-all": "17cbf61e59764e1b6eff75a9cb1784b87ebd8f4b8ada073cd07637ec8dbde617",
    "q-segments": "31f5c866991ffeb518130c7c1f9a45e93b37a8000b1547b58181447c3330a14d",
    "wave": "0f11a2321d8d2e340c0246dd8f2ed021fe0d621d7fc8845806028231b083617c",
}


def model_digest(model) -> str:
    hsh = hashlib.sha256()
    for name in ("J", "Q", "B", "C", "D"):
        mat = getattr(model, name)
        hsh.update(f"{name}{mat.shape}".encode())
        hsh.update(np.asarray(mat.indptr, dtype=np.int64).tobytes())
        hsh.update(np.asarray(mat.indices, dtype=np.int64).tobytes())
        hsh.update(np.asarray(mat.data, dtype=np.float64).tobytes())
    dims = (model.n_p, model.n_q, model.m_hat, model.m)
    hsh.update(json.dumps([dims, model.meta], sort_keys=True).encode())
    return hsh.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_model_digest(name):
    assert model_digest(build_model(CONFIGS[name]).model) == GOLDEN[name]
