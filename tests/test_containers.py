"""One rule for list and object arguments (`errors.scalars`, `errors.fields`):
every public entry point rejects a wrong container, and every config object
an unknown key, with an InvalidArgumentError naming the parameter."""

import json

import numpy as np
import pytest

from phfem import analysis as an
from phfem import cli
from phfem import mesh as msh
from phfem import sim
from phfem.errors import InvalidArgumentError, fields, scalars

RECT = {"kind": "rect", "N": 4, "M": 3}
MIXED_PRESET = {"mesh": RECT, "weights": {"preset": "set1", "alpha_I": 0.9}}
EXTRA_WEIGHT = {
    "mesh": RECT,
    "weights": {"alpha_I": 0.5, "beta_I": 0.25, "alpha_II": 0.25, "beta_II": 0.5,
                "gamma_I": 0.25},
}


def square():
    return msh.build_rect_mesh(2, 2, 1.0)


#: (id, call, name in the message)
PROBES = [
    ("p_nodes-0d", lambda: msh.partition_boundary(square(), {"p_nodes": np.array(0)}),
     "'p_nodes'"),
    ("p_nodes-2d",
     lambda: msh.partition_boundary(square(), {"p_nodes": np.array([[0, 1]])}),
     "'p_nodes' must be a list of integers"),
    ("convergence-alphas", lambda: an.convergence_study(0.5, (20, 40), (1,)), "alphas"),
    ("convergence-Ns", lambda: an.convergence_study((0.0,), 20, (1,)), "grid size N"),
    ("convergence-Ns-0d", lambda: an.convergence_study((0.0,), np.array(20), (1,)),
     "grid size N"),
    ("convergence-ks", lambda: an.convergence_study((0.0,), (20, 40), None),
     "mode index"),
    ("eig_table-Ns", lambda: an.eig_table("mixed", [("0", 0.0)], 20), "grid size N"),
    ("eig_table-parameters", lambda: an.eig_table("mixed", [0.0], (20,)),
     "parameters entry 0.0"),
    ("eig_table-method-list", lambda: an.eig_table(["mixed"], [("a", 0.0)], (4,)),
     "method ['mixed']"),
    ("eig_table-label-list", lambda: an.eig_table("mixed", [(["a"], 0.0)], (4,)),
     "parameters entry (['a'], 0.0)"),
    ("side-list", lambda: msh.boundary_side_nodes(square(), ["bottom"]), "side ['bottom']"),
    ("exact_frequencies-string", lambda: an.exact_frequencies("ab"), "mode index"),
    ("exact_frequencies-none", lambda: an.exact_frequencies(None), "mode index"),
    ("exact_frequencies-nan", lambda: an.exact_frequencies([np.nan]), "mode index"),
    ("exact_frequencies-zero", lambda: an.exact_frequencies([0, 1]), "mode index"),
    ("weights-preset-and-explicit", lambda: sim.build_model(MIXED_PRESET),
     "weight config key 'alpha_I'"),
    ("weights-unknown-key", lambda: sim.build_model(EXTRA_WEIGHT),
     "weight config key 'gamma_I'"),
    ("config-not-an-object", lambda: sim.build_model([RECT]), "top-level config"),
]


@pytest.mark.parametrize(
    "call, name", [pytest.param(c, n, id=i) for i, c, n in PROBES]
)
def test_bad_container_raises_naming_the_parameter(call, name):
    with pytest.raises(InvalidArgumentError) as info:
        call()
    assert name in str(info.value)


@pytest.mark.parametrize(
    "config", [MIXED_PRESET, EXTRA_WEIGHT], ids=["preset", "extra"]
)
def test_weight_config_with_unknown_key_exits_2(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "m"
    assert cli.main(["build", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "unknown weight config key" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--n", "4"], ["--preset", "set1"]])
def test_non_object_config_exits_2(tmp_path, capsys, flags):
    """`build_model` rejects a JSON config that is not an object, also when
    a command-line override would edit it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([MIXED_PRESET]))
    out = tmp_path / "m"
    assert cli.main(["build", "--config", str(cfg), "--out", str(out)] + flags) == 2
    err = capsys.readouterr().err
    assert "top-level config must be an object" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "values, integer, expected",
    [([1, 2], True, (1, 2)), ((0.5,), False, (0.5,)), ([], True, ()),
     (range(1, 3), True, (1, 2)), (np.arange(1, 3), True, (1, 2)),
     (np.array([0.25, 1.0]), False, (0.25, 1.0))],
    ids=["list", "tuple", "empty", "range", "int-array", "float-array"],
)
def test_scalars_accepts_sequences(values, integer, expected):
    got = scalars(values, "x", integer)
    assert got == expected and type(got) is tuple
    assert all(type(v) is (int if integer else float) for v in got)


@pytest.mark.parametrize(
    "values",
    ["12", b"12", {1, 2}, {1: 2}, (v for v in (1, 2)), None, 3, 2.5,
     np.array(3), np.array([[1, 2]])],
    ids=["str", "bytes", "set", "dict", "generator", "none", "int", "float",
         "0d-array", "2d-array"],
)
def test_scalars_rejects_other_containers(values):
    with pytest.raises(InvalidArgumentError, match="^x must be a list of integers"):
        scalars(values, "x", integer=True)


def test_scalars_checks_every_entry():
    with pytest.raises(InvalidArgumentError, match="^x must be a finite number, got nan"):
        scalars([1.0, float("nan")], "x")


def test_fields_returns_the_object():
    obj = {"a": 1}
    assert fields(obj, "thing", ("a", "b")) is obj
    assert fields({}, "thing", ()) == {}


@pytest.mark.parametrize("obj", [[("a", 1)], "a", None, 3])
def test_fields_rejects_a_non_object(obj):
    with pytest.raises(InvalidArgumentError, match="^thing must be an object, got"):
        fields(obj, "thing", ("a",))


def test_fields_names_the_first_unknown_key():
    with pytest.raises(InvalidArgumentError, match="^unknown thing key 'c'$"):
        fields({"a": 1, "c": 2, "d": 3}, "thing", ("a", "b"))


def test_array_inputs_still_accepted():
    m = square()
    listed = msh.partition_boundary(m, {"p_nodes": [0, 1]})
    arrayed = msh.partition_boundary(m, {"p_nodes": np.array([0, 1])})
    for a, b in zip(listed, arrayed):
        assert np.array_equal(a, b)
    np.testing.assert_array_equal(
        an.exact_frequencies(np.arange(1, 4)), an.exact_frequencies([1, 2, 3])
    )
