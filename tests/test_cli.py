"""Command-line front end: exit codes, artifacts, determinism."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

import oracles
from phfem import cli, power_maps, sim, statespace, whitney
from phfem.errors import StructureViolationError
from phfem.statespace import load_model

MIXED_2X1 = {
    "mesh": {"kind": "rect", "N": 2, "M": 1, "h": 1.0},
    "causality": {"p_nodes": [0, 1], "q_edges": "rest"},
    "weights": "set2",
}
INTERVAL = {"mesh": {"kind": "interval", "N": 12}, "alpha": 0.0}


def non_json_entries(obj, path="checks"):
    """Paths in `obj` whose exact type json.dumps does not write as such
    (numpy scalars included, although np.float64 subclasses float)."""
    if type(obj) is dict:
        for key, value in obj.items():
            if type(key) is not str:
                yield f"{path} key {key!r}"
            yield from non_json_entries(value, f"{path}[{key!r}]")
    elif type(obj) in (tuple, list):
        for i, value in enumerate(obj):
            yield from non_json_entries(value, f"{path}[{i}]")
    elif type(obj) not in (str, int, float, type(None)):
        yield f"{path}: {type(obj).__name__}"


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path


class TestBuild:
    def test_mixed_2x1(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MIXED_2X1)
        out = tmp_path / "model"
        assert cli.main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("J", "Q", "B", "C", "D"):
            assert (out / f"{name}.mtx").is_file()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["format"] == "phfem-model/v1"
        assert manifest["run"]["command"] == "build"
        assert set(manifest["run"]["artifacts"]) == {
            "J.mtx", "Q.mtx", "B.mtx", "C.mtx", "D.mtx"
        }
        assert "model written" in capsys.readouterr().out
        # exactly one manifest in the directory
        assert len(list(out.glob("*manifest*"))) == 1

    def test_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, MIXED_2X1)
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["build", "--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["build", "--config", str(cfg), "--out", str(b)]) == 0
        for name in ("J", "Q", "B", "C", "D"):
            assert (a / f"{name}.mtx").read_bytes() == (b / f"{name}.mtx").read_bytes()

    def test_interval_and_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, INTERVAL)
        out = tmp_path / "m"
        assert cli.main(
            ["build", "--config", str(cfg), "--out", str(out), "--n", "8"]
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_p"] == 8

    @pytest.mark.parametrize(
        "base, flags, edited",
        [(MIXED_2X1, ["--preset", "set3"], {"weights": "set3"}),
         (INTERVAL, ["--alpha", "0.25"], {"alpha": 0.25})],
        ids=["preset", "alpha"],
    )
    def test_override_builds_the_edited_config(self, tmp_path, base, flags, edited):
        """`--preset` and `--alpha` build what the config with that value builds."""
        base_cfg = write_cfg(tmp_path, base, "base.json")
        edited_cfg = write_cfg(tmp_path, {**base, **edited}, "edited.json")
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["build", "--config", str(base_cfg), "--out", str(a)] + flags
        assert cli.main(argv) == 0
        assert cli.main(["build", "--config", str(edited_cfg), "--out", str(b)]) == 0
        for name in ("J", "Q", "B", "C", "D"):
            assert (a / f"{name}.mtx").read_bytes() == (b / f"{name}.mtx").read_bytes()
        run = json.loads((a / "manifest.json").read_text())["run"]
        assert run["config"] == {**base, **edited}

    def test_golo_method(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            {"mesh": {"kind": "interval", "N": 10}, "method": "golo",
             "alpha_prime": 1 / 12},
        )
        out = tmp_path / "m"
        assert cli.main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["meta"]["method"] == "golo"

    def test_export_equals_build_model(self, tmp_path):
        config = {
            "mesh": {"kind": "rect", "N": 4, "M": 3, "h": 0.5},
            "causality": {"p_sides": ["bottom"], "q_edges": "rest"},
            "weights": {"alpha_I": 0.5, "beta_I": 0.2, "alpha_II": 0.3, "beta_II": 0.4},
        }
        out = tmp_path / "m"
        cfg = write_cfg(tmp_path, config)
        assert cli.main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        loaded = load_model(out)
        built = sim.build_model(config).model
        for name in ("J", "Q", "B", "C", "D"):
            a, b = getattr(loaded, name), getattr(built, name)
            assert a.shape == b.shape, name
            assert np.array_equal(a.toarray(), b.toarray()), name
        assert (loaded.n_p, loaded.n_q, loaded.m_hat, loaded.m) == (
            built.n_p, built.n_q, built.m_hat, built.m
        )
        assert loaded.meta == built.meta

    def test_ours_is_alias_of_mixed(self, tmp_path):
        outs = []
        for method in ("ours", "mixed"):
            cfg = write_cfg(tmp_path, dict(INTERVAL, method=method, alpha=1 / 6),
                            f"{method}.json")
            outs.append(tmp_path / method)
            assert cli.main(["build", "--config", str(cfg), "--out", str(outs[-1])]) == 0
        for name in ("J", "Q", "B", "C", "D"):
            assert (outs[0] / f"{name}.mtx").read_bytes() == (
                outs[1] / f"{name}.mtx"
            ).read_bytes()

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"mesh": {"kind": "rect",}')
        assert cli.main(["build", "--config", str(bad), "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_config(self, tmp_path):
        assert cli.main(
            ["build", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "m")]
        ) == 3

    def test_bad_parameters(self, tmp_path):
        cfg = write_cfg(tmp_path, {"mesh": {"kind": "interval", "N": 12}, "alpha": 1.5})
        assert cli.main(["build", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 2
        cfg2 = write_cfg(tmp_path, {"mesh": {"kind": "torus", "N": 4}}, "c2.json")
        assert cli.main(["build", "--config", str(cfg2), "--out", str(tmp_path / "m")]) == 2

    @pytest.mark.parametrize(
        "base, path, value, named",
        [
            (MIXED_2X1, ("mesh", "N"), "abc", "'N'"),
            (MIXED_2X1, ("mesh", "N"), 3.7, "'N'"),
            (MIXED_2X1, ("mesh", "N"), True, "'N'"),
            (MIXED_2X1, ("mesh", "h"), "x", "'h'"),
            (MIXED_2X1, ("mesh", "h"), 1e400, "'h' must be a finite number, got inf"),
            (MIXED_2X1, ("weights",), 5, "weights"),
            (MIXED_2X1, ("weights",), {"alpha_I": "x", "beta_I": 0.25,
                                       "alpha_II": 0.25, "beta_II": 0.5}, "alpha_I"),
            (MIXED_2X1, ("causality",), [1], "causality"),
            (MIXED_2X1, ("causality", "p_nodes"), ["a"], "'p_nodes'"),
            (MIXED_2X1, ("causality", "p_sides"), "bottom", "'p_sides'"),
            (MIXED_2X1, ("causality", "q_edges"), 5, "'q_edges'"),
            (INTERVAL, ("alpha",), "x", "'alpha'"),
            (INTERVAL, ("mesh", "L"), 1e400, "'L' must be a finite number, got inf"),
            (MIXED_2X1, ("causality", "q_sides"), "anything", "'q_sides'"),
            (MIXED_2X1, ("causality", "q_sides"), ["bottom"], "q side 'bottom': edge 0"),
            (MIXED_2X1, ("causalty",), {"p_nodes": [0]}, "top-level config key 'causalty'"),
            (MIXED_2X1, ("mesh", "n"), 4, "unknown mesh config key 'n'"),
            (MIXED_2X1, ("causality", "q_edge"), "all", "unknown causality key 'q_edge'"),
            (INTERVAL, ("causality",), {"p_sides": ["left"]},
             "unknown 1D causality key 'p_sides'"),
            (MIXED_2X1, ("causality", "q_segments"), 5,
             "'q_segments' must be a list of edge lists, got 5"),
            (INTERVAL, ("method",), "spectral", "or 'golo', got 'spectral'"),
        ],
    )
    def test_wrong_config_type_exits_2(self, tmp_path, capsys, base, path, value, named):
        config = json.loads(json.dumps(base))
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        cfg = write_cfg(tmp_path, config)
        assert cli.main(["build", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err

    def test_known_keys_that_do_not_apply_are_accepted(self, tmp_path):
        # a mixed interval config switched to golo keeps its unread "alpha"
        # (and an interval mesh its unread "M")
        mesh = {"kind": "interval", "N": 12, "M": 3}
        cfg = write_cfg(tmp_path, {**INTERVAL, "mesh": mesh})
        assert cli.main(
            ["build", "--config", str(cfg), "--method", "golo", "--alpha-prime", "0.0833",
             "--out", str(tmp_path / "m")]
        ) == 0

    @pytest.mark.parametrize(
        "mesh, override", [("rect", ["--n", "4"]), (["rect", 4], ["--m", "3"])]
    )
    def test_override_of_non_object_mesh_exits_2(self, tmp_path, capsys, mesh, override):
        cfg = write_cfg(tmp_path, {**MIXED_2X1, "mesh": mesh})
        argv = ["build", "--config", str(cfg), "--out", str(tmp_path / "m")]
        assert cli.main(argv) == 2
        plain = capsys.readouterr().err
        assert cli.main(argv + override) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "mesh config must be an object" in err
        assert err == plain

    @pytest.mark.parametrize(
        "causality, edge",
        [({"q_edges": [0]}, 1), ({"p_nodes": [0], "q_edges": [0, 1, 2]}, 9)],
    )
    def test_boundary_edge_without_port_exits_2(self, tmp_path, capsys, causality, edge):
        config = {
            "mesh": {"kind": "rect", "N": 3, "M": 3, "h": 1.0},
            "causality": causality,
            "weights": "set1",
        }
        cfg = write_cfg(tmp_path, config)
        assert cli.main(["build", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert f"boundary edge {edge} " in err and "no port" in err

    def test_build_residuals_computed_once(self, tmp_path, monkeypatch):
        # count every call, through the defining module or the sim binding
        calls = {"power_residual": 0, "power_balance_residual": 0}
        for module, name in (
            (power_maps, "power_residual"), (sim, "power_residual"),
            (statespace, "power_balance_residual"), (sim, "power_balance_residual"),
        ):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        config = {**MIXED_2X1, "mesh": {"kind": "rect", "N": 3, "M": 3, "h": 1.0}}
        cfg = write_cfg(tmp_path, config)
        out = tmp_path / "m"
        assert cli.main(["build", "--config", str(cfg), "--out", str(out)]) == 0
        assert calls == {"power_residual": 1, "power_balance_residual": 1}
        checks = json.loads((out / "manifest.json").read_text())["run"]["checks"]
        monkeypatch.undo()
        assert {
            k: checks["residuals"][k] for k in ("power_preservation", "power_balance")
        } == sim.build_model(config).residuals
        assert all(got == want for got, want in checks["ranks"].values())

    @pytest.mark.parametrize(
        "config, ranked",
        [
            ({**MIXED_2X1, "mesh": {"kind": "rect", "N": 4, "M": 4, "h": 1.0}}, True),
            ({**MIXED_2X1, "mesh": {"kind": "rect", "N": 2, "M": 2, "h": 1.0}}, True),
            (INTERVAL, False),
        ],
        ids=["rect-4x4-ranked", "rect-2x2-ranked", "interval"],
    )
    def test_checks_hold_only_json_types(self, config, ranked):
        # the manifest writes `checks` as they are, with no conversion
        _, checks = cli._build_from_config(json.loads(json.dumps(config)))
        assert (checks["ranks"] is not None) == ranked
        assert list(non_json_entries(checks)) == []

    def test_structure_gate_maps_to_exit_1(self, tmp_path, monkeypatch, capsys):
        def broken(cfg):
            raise StructureViolationError("structural checks failed: demo = 1.0e-02")

        monkeypatch.setattr(cli, "_build_from_config", broken)
        cfg = write_cfg(tmp_path, INTERVAL)
        assert cli.main(["build", "--config", str(cfg), "--out", str(tmp_path / "m")]) == 1
        assert "structural checks failed" in capsys.readouterr().err

    def test_nan_residual_exits_1_without_a_model(self, tmp_path, capsys):
        # alpha = -1e308 overflows the maps: the power-preservation residual
        # is NaN, which the gate must not let through
        cfg = write_cfg(tmp_path, {**INTERVAL, "alpha": -1e308})
        out = tmp_path / "m"
        assert cli.main(["build", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "residual" in err and "Traceback" not in err
        assert not out.exists()

    def test_nan_structure_residual_fails_the_gate(self, tmp_path, monkeypatch, capsys):
        verify = whitney.verify_structure

        def nan_report(*args):
            report = verify(*args)
            return report._replace(residuals={**report.residuals, "demo": float("nan")})

        monkeypatch.setattr(whitney, "verify_structure", nan_report)
        cfg = write_cfg(tmp_path, MIXED_2X1)
        out = tmp_path / "m"
        assert cli.main(["build", "--config", str(cfg), "--out", str(out)]) == 1
        assert "demo = nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, entry",
        [
            ({**MIXED_2X1, "mesh": {"kind": "rect", "N": 2, "M": 1, "h": 1e300}},
             "Q_p[0] = 0 "),
            ({**MIXED_2X1, "mesh": {"kind": "rect", "N": 2, "M": 1, "h": 1e-320}},
             "Q_p[0] = inf"),
            ({**INTERVAL, "mesh": {"kind": "interval", "N": 12, "L": 1e-320}},
             "Q_p[0] = inf"),
            ({"mesh": {"kind": "interval", "N": 12, "L": 1e-320}, "method": "golo",
              "alpha_prime": 0.0}, "Q_p[0] = inf"),
        ],
        ids=["h-overflow", "h-underflow", "L-underflow", "golo-L-underflow"],
    )
    def test_hodge_out_of_range_exits_2_without_a_model(
        self, tmp_path, capsys, config, entry
    ):
        """Every model `build` writes is one `load_model` accepts."""
        cfg = write_cfg(tmp_path, config)
        out = tmp_path / "m"
        assert cli.main(["build", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"Hodge entry {entry}" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--n", str(10**20)], ["--m", str(10**20)]])
    def test_oversized_grid_exits_2(self, tmp_path, capsys, flags):
        # numpy refuses this size before allocating anything
        cfg = write_cfg(tmp_path, MIXED_2X1)
        out = tmp_path / "m"
        assert cli.main(["build", "--config", str(cfg), "--out", str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert "cannot be allocated" in err and "Traceback" not in err
        assert f"={10**20}" in err and not out.exists()


class TestSimulate:
    def test_round_trip(self, tmp_path):
        cfg = write_cfg(tmp_path, INTERVAL)
        model_dir = tmp_path / "model"
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        out = tmp_path / "run"
        assert cli.main(
            ["simulate", str(model_dir), "--dt", "0.01", "--t-end", "1.0",
             "--out", str(out)]
        ) == 0
        rows = list(csv.reader((out / "energy.csv").open()))
        assert rows[0] == ["t", "H_d", "E_supplied"]
        assert len(rows) == 1 + 101  # header, then every grid time of 100 steps
        energies = np.array([float(r[1]) for r in rows[1:]])
        assert abs(energies[-1] - energies[0]) <= 1e-12 * energies[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert {"relative_energy_drift", "max_relative_energy_drift"} <= set(
            manifest["run"]
        )
        assert manifest["run"]["relative_energy_drift"] <= 1e-12
        drifts = np.abs(energies - energies[0]) / energies[0]
        assert manifest["run"]["max_relative_energy_drift"] == pytest.approx(
            drifts.max(), rel=1e-6, abs=1e-18
        )
        assert manifest["run"]["max_relative_energy_drift"] <= 1e-12

    def test_manifest_records_node_solve(self, tmp_path):
        """The run records the node-solve route and its certificate."""
        cfg = write_cfg(tmp_path, INTERVAL)
        model_dir = tmp_path / "model"
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        out = tmp_path / "run"
        assert cli.main(
            ["simulate", str(model_dir), "--dt", "0.01", "--t-end", "0.1",
             "--out", str(out)]
        ) == 0
        run = json.loads((out / "manifest.json").read_text())["run"]
        assert set(run["node_solve"]) == {"route", "iterations", "interval"}

    def test_zero_initial_state(self, tmp_path):
        """`--x0 zero` with the zero input stays at H_d = 0 for the whole run."""
        cfg = write_cfg(tmp_path, INTERVAL)
        model_dir = tmp_path / "model"
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        out = tmp_path / "run"
        assert cli.main(
            ["simulate", str(model_dir), "--dt", "0.1", "--t-end", "1", "--x0", "zero",
             "--out", str(out)]
        ) == 0
        rows = list(csv.reader((out / "energy.csv").open()))[1:]
        assert len(rows) == 11 and all(float(r[1]) == 0.0 for r in rows)
        run = json.loads((out / "manifest.json").read_text())["run"]
        assert run["config"]["x0"] == "zero" and run["relative_energy_drift"] == 0.0

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        model_dir = tmp_path / "model"
        cfg = write_cfg(tmp_path, INTERVAL)
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        capsys.readouterr()
        assert cli.main(
            ["simulate", str(model_dir), "--dt", "0.1", "--t-end", "1",
             "--x0", "random", "--seed", "-1", "--out", str(tmp_path / "r")]
        ) == 2
        err = capsys.readouterr().err
        assert "--seed must be non-negative, got -1" in err
        assert "Traceback" not in err

    def test_nonfinite_horizon_exits_2(self, tmp_path, capsys):
        model_dir = tmp_path / "model"
        cfg = write_cfg(tmp_path, INTERVAL)
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        assert cli.main(
            ["simulate", str(model_dir), "--dt", "0.01", "--t-end", "inf",
             "--out", str(tmp_path / "r")]
        ) == 2
        err = capsys.readouterr().err
        assert "finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("dt", ["1e-300", "1e-12"])
    def test_ungridable_step_exits_2(self, tmp_path, capsys, dt):
        """Too many steps to allocate: exit 2 naming dt, T and the count."""
        model_dir = tmp_path / "model"
        cfg = write_cfg(tmp_path, INTERVAL)
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        capsys.readouterr()
        assert cli.main(
            ["simulate", str(model_dir), "--dt", dt, "--t-end", "1",
             "--out", str(tmp_path / "r")]
        ) == 2
        err = capsys.readouterr().err
        assert f"dt = {float(dt):g} and T = 1 give" in err and "steps" in err
        assert "Traceback" not in err

    def test_malformed_model_manifest_exits_2(self, tmp_path, capsys):
        model_dir = tmp_path / "model"
        cfg = write_cfg(tmp_path, INTERVAL)
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        (model_dir / "manifest.json").write_text("{")
        assert cli.main(
            ["simulate", str(model_dir), "--dt", "0.01", "--t-end", "1.0",
             "--out", str(tmp_path / "r")]
        ) == 2
        assert "line 1, column 2" in capsys.readouterr().err

    def test_non_object_manifest_exits_2(self, tmp_path, capsys):
        model_dir = tmp_path / "model"
        cfg = write_cfg(tmp_path, INTERVAL)
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        (model_dir / "manifest.json").write_text("[]")
        capsys.readouterr()
        assert cli.main(
            ["simulate", str(model_dir), "--dt", "0.01", "--t-end", "1.0",
             "--out", str(tmp_path / "r")]
        ) == 2
        err = capsys.readouterr().err
        assert "must hold a JSON object" in err and "Traceback" not in err

    def test_missing_model_dir(self, tmp_path):
        assert cli.main(
            ["simulate", str(tmp_path / "ghost"), "--dt", "0.1", "--t-end", "1.0",
             "--out", str(tmp_path / "r")]
        ) == 3


class TestEigs:
    def test_from_parameters(self, tmp_path):
        out = tmp_path / "e"
        assert cli.main(
            ["eigs", "--alpha", "0", "--n", "20", "--out", str(out)]
        ) == 0
        rows = list(csv.reader((out / "eigs.csv").open()))
        assert rows[0] == ["k", "omega", "exact"]
        assert len(rows) == 21
        assert float(rows[1][1]) == pytest.approx(1.5321, abs=5e-4)
        assert float(rows[1][2]) == pytest.approx(np.pi / 2)

    def test_ours_is_alias_of_mixed(self, tmp_path):
        tables = []
        for method in ("ours", "mixed"):
            out = tmp_path / method
            assert cli.main(
                ["eigs", "--method", method, "--alpha", "0.25", "--n", "10",
                 "--out", str(out)]
            ) == 0
            tables.append((out / "eigs.csv").read_bytes())
        assert tables[0] == tables[1]

    def test_golo_method(self, tmp_path):
        out = tmp_path / "e"
        assert cli.main(
            ["eigs", "--method", "golo", "--alpha-prime", str(1 / 12),
             "--n", "20", "--out", str(out)]
        ) == 0
        rows = list(csv.reader((out / "eigs.csv").open()))
        assert float(rows[1][1]) == pytest.approx(1.5387, abs=5e-4)

    def test_from_model_dir(self, tmp_path):
        cfg = write_cfg(tmp_path, INTERVAL)
        model_dir = tmp_path / "model"
        cli.main(["build", "--config", str(cfg), "--out", str(model_dir)])
        out = tmp_path / "e"
        assert cli.main(["eigs", str(model_dir), "--out", str(out)]) == 0
        rows = list(csv.reader((out / "eigs.csv").open()))
        assert len(rows) == 13

    def test_exact_column_uses_interval_length(self, tmp_path):
        cfg = write_cfg(tmp_path, {"mesh": {"kind": "interval", "N": 80, "L": 2.0},
                                   "alpha": 0})
        model_dir = tmp_path / "model"
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        out = tmp_path / "e"
        assert cli.main(["eigs", str(model_dir), "--out", str(out)]) == 0
        rows = list(csv.reader((out / "eigs.csv").open()))
        assert rows[0] == ["k", "omega", "exact"]
        assert float(rows[1][1]) == pytest.approx(0.7805, abs=5e-4)
        for k in (1, 2, 80):
            assert float(rows[k][2]) == pytest.approx((2 * k - 1) * np.pi / 4.0)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda mf: [], "must hold a JSON object"),
            (lambda mf: {**mf, "meta": []}, "meta must be an object"),
            (lambda mf: {**mf, "meta": {**mf["meta"], "L": "2"}},
             "length L must be a finite number"),
            (lambda mf: {**mf, "meta": {**mf["meta"], "L": 0}}, "positive finite"),
            (lambda mf: {**mf, "meta": {**mf["meta"], "L": float("nan")}},
             "length L must be a finite number"),
        ],
        ids=["manifest-array", "meta-array", "L-string", "L-zero", "L-nan"],
    )
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, edit, message):
        cfg = write_cfg(tmp_path, INTERVAL)
        model_dir = tmp_path / "model"
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        mf = model_dir / "manifest.json"
        mf.write_text(json.dumps(edit(json.loads(mf.read_text()))))
        capsys.readouterr()
        assert cli.main(["eigs", str(model_dir), "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_from_2d_model_dir(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "mesh": {"kind": "rect", "N": 5, "M": 4, "h": 1.0},
            "causality": {"p_sides": ["bottom"], "q_edges": "rest"},
            "weights": "set4",
        })
        model_dir = tmp_path / "model"
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        out = tmp_path / "e"
        assert cli.main(["eigs", str(model_dir), "--out", str(out)]) == 0
        rows = list(csv.reader((out / "eigs.csv").open()))
        assert rows[0] == ["k", "omega"]
        lam = np.linalg.eigvals(oracles.state_matrix(load_model(model_dir)).toarray())
        ref = np.sort(lam.imag[lam.imag > 1e-9])
        assert len(rows) - 1 == ref.size
        omega = np.array([float(r[1]) for r in rows[1:]])
        np.testing.assert_allclose(omega, ref, rtol=1e-9, atol=0)

    def test_full_spectrum_out_of_memory_exits_4(self, tmp_path, capsys, monkeypatch):
        """A 2-D model too large for the dense S of the full spectrum exits
        4 and points at --k; the allocation failure is injected."""
        cfg = write_cfg(tmp_path, {
            "mesh": {"kind": "rect", "N": 5, "M": 4, "h": 1.0},
            "causality": {"p_sides": ["bottom"], "q_edges": "rest"},
            "weights": "set4",
        })
        model_dir = tmp_path / "model"
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        model = load_model(model_dir)
        capsys.readouterr()

        def out_of_memory(a, *args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(np.linalg, "svd", out_of_memory)
        out = tmp_path / "e"
        assert cli.main(["eigs", str(model_dir), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert f"({model.n_p} x {model.n_q})" in err and "--k" in err
        assert "Traceback" not in err
        assert not (out / "eigs.csv").exists()

    def test_lowest_k_of_model_dir(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "mesh": {"kind": "rect", "N": 6, "M": 5, "h": 1.0},
            "causality": {"p_sides": ["bottom", "right", "top", "left"]},
            "weights": "set4",
        })
        model_dir = tmp_path / "model"
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        for k in (None, 4):
            out = tmp_path / f"e{k}"
            argv = ["eigs", str(model_dir), "--out", str(out)]
            assert cli.main(argv + ([] if k is None else ["--k", str(k)])) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["run"]["config"]["k"] == k
        full = list(csv.reader((tmp_path / "eNone" / "eigs.csv").open()))
        low = list(csv.reader((tmp_path / "e4" / "eigs.csv").open()))
        assert len(low) == 5
        np.testing.assert_allclose(
            [float(r[1]) for r in low[1:]], [float(r[1]) for r in full[1:5]],
            rtol=1e-12,
        )

    def test_k_below_one_exits_2(self, tmp_path, capsys):
        assert cli.main(
            ["eigs", "--n", "20", "--k", "0", "--out", str(tmp_path / "e")]
        ) == 2
        err = capsys.readouterr().err
        assert "k must be an integer >= 1" in err and "Traceback" not in err

    def test_needs_model_or_n(self, tmp_path):
        assert cli.main(["eigs", "--out", str(tmp_path / "e")]) == 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--alpha-prime", "0.2"], "--alpha-prime"),
            (["--method", "ours", "--alpha-prime", "0.2"], "--alpha-prime"),
            (["--method", "golo", "--alpha", "0.2"], "--alpha"),
            (["--method", "golo", "--alpha-prime", "0.2", "--alpha", "0.2"], "--alpha"),
        ],
    )
    def test_flag_the_method_does_not_read_exits_2(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "e"
        assert cli.main(["eigs", "--n", "10", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(flag) and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--n", "99"], "--n"),
            (["--alpha", "0.5"], "--alpha"),
            (["--alpha-prime", "0.2"], "--alpha-prime"),
            (["--method", "golo"], "--method"),
            (["--method", "mixed"], "--method"),
        ],
    )
    def test_model_flag_with_model_dir_exits_2(self, tmp_path, capsys, argv, flag):
        model_dir = tmp_path / "model"
        cfg = write_cfg(tmp_path, INTERVAL)
        assert cli.main(["build", "--config", str(cfg), "--out", str(model_dir)]) == 0
        out = tmp_path / "e"
        assert cli.main(["eigs", str(model_dir), *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(flag) and "Traceback" not in err
        assert not out.exists()

    def test_golo_needs_weight(self, tmp_path):
        assert cli.main(
            ["eigs", "--method", "golo", "--n", "10", "--out", str(tmp_path / "e")]
        ) == 2


class TestTables:
    def test_table3(self, tmp_path):
        out = tmp_path / "t"
        assert cli.main(["table3", "--out", str(out)]) == 0
        rows = list(csv.reader((out / "table3.csv").open()))
        assert len(rows) == 10
        assert rows[0][:2] == ["k", "exact"]
        assert len(rows[0]) == 11  # k, exact, 3 alphas x 3 Ns
        k1 = {name: val for name, val in zip(rows[0], rows[1])}
        assert float(k1["alpha=0 N=20"]) == pytest.approx(1.5321, abs=5e-4)
        assert k1["k"] == "1"
        # unresolved cells are empty
        k80 = rows[9]
        assert k80[2] == "" and k80[4] != ""

    def test_table4(self, tmp_path):
        out = tmp_path / "t"
        assert cli.main(["table4", "--out", str(out)]) == 0
        rows = list(csv.reader((out / "table4.csv").open()))
        k1 = {name: val for name, val in zip(rows[0], rows[1])}
        assert float(k1["alpha_prime=1/12 N=20"]) == pytest.approx(1.5387, abs=5e-4)


class TestProcess:
    def test_thread_cap(self, monkeypatch):
        for var in cli._THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("PHFEM_THREADS", "2")
        cli._apply_thread_cap()
        import os

        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_thread_cap_invalid(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHFEM_THREADS", "zero")
        assert cli.main(["eigs", "--n", "4", "--out", str(tmp_path / "e")]) == 2

    def test_import_loads_no_numpy(self):
        """PHFEM_THREADS must apply before numpy loads, so importing the
        front end (and `errors`, which it imports) must not load numpy."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, phfem.cli; sys.exit('numpy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_console_entry(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "phfem.cli", "eigs", "--n", "4",
             "--alpha", "0.5", "--out", str(tmp_path / "e")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "e" / "eigs.csv").is_file()
