"""Workload definitions for the phfem benchmark, with the reasons behind them.

Every workload is single-process and closed-loop: one operation starts when
the previous one has finished.  Each repetition runs in a fresh interpreter
with BLAS pinned to one thread (``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS``
set before numpy loads), so ``peak_rss_mb`` is never inherited from an
earlier repetition.

wave2d
    ``sim.wave2d_experiment(64, weights="set4", dt=0.05, T=18.0,
    snapshot_times=(0.0, 18.0))``: the paper's 2-D corner-pulse experiment
    with 4x the acceptance state count (n = 16 384 states, 360 steps, a
    callable input).  Most of its time goes to ``statespace.assemble_model``
    (the dense ``_resolve`` behind the ~1.66 GB peak RSS) and
    ``sim.simulate`` (one SuperLU factor, then 360 solves).  ``whitney`` is
    never called.
cli-roundtrip
    ``phfem build`` on a 24x24 rectangle (h = 1, set2 weights, causality
    ``{"p_sides": ["bottom"], "q_edges": "rest"}``; n = 2 304 states, 97
    inputs), then ``phfem simulate`` from disk (zero input, x0 drawn from
    ``--seed``, dt = 0.01, 2 000 steps).  It is the only workload that runs
    ``whitney.assemble`` and the dense-SVD rank table of
    ``whitney.verify_structure`` (625 nodes is under the 3000-node cutoff),
    the ``export_model`` -> ``load_model`` round trip, and the densifying
    ``p_sides`` diagnostics in ``power_maps.solve_Pfq_and_outputs``.  Its
    ``sim`` use is many cheap steps on a small LU, where per-step Python
    overhead dominates.
spectra1d
    ``analysis.table3()``, ``analysis.table4()`` and
    ``analysis.convergence_study((0.0, 0.5), (20, 40, 80, 160, 320, 640),
    (1,))``: the paper's 1-D tables plus convergence, two refinements past
    the acceptance gate.  Almost all of it is dense ``np.linalg.eigvals`` in
    ``analysis.spectrum`` on models of up to 1 280 states; it also covers the
    comparison scheme's dense-LU ``_resolve`` branch.  It never touches
    ``sim``, ``whitney`` or the 2-D ``power_maps``, so it is the no-change
    control for work on those layers.

End-to-end metrics (every workload; measured with tracing off):

    setup_s      interpreter start -> numpy, scipy and the phfem submodules
                 the workload calls are imported and its inputs generated
    wall_s       the whole workload operation after set-up (checks excluded)
    peak_rss_mb  ru_maxrss of the repetition's own process

The untraced summary line also prints two phase times, without a bound:

    build_s      time inside the calls that construct the model: the
                 mesh/maps/Hodge/assemble_model calls of wave2d, the
                 ``phfem build`` command of cli-roundtrip, the
                 build_1d_model/build_golo_1d_model calls of spectra1d
    solve_s      wall_s - build_s: time stepping (wave2d), the ``phfem
                 simulate`` command (cli-roundtrip), eigenvalues and fits
                 (spectra1d)

Per-layer metrics (traced run) and the end-to-end metric each should move:

    layer       metrics                                   moves                 heavy / light-or-absent
    mesh        mesh.build_s                              build_s, wall_s       cli-roundtrip, wave2d / spectra1d
    whitney     whitney.assemble_s, .verify_s,            build_s               cli-roundtrip / absent on wave2d, spectra1d
                .rank_checked
    power_maps  power_maps.build_2d_maps_s, _peak_mb      wall_s, build_s,      wave2d, cli-roundtrip / spectra1d
                                                          peak_rss_mb
    hodge       hodge.hodge_2d_s                          wall_s                wave2d / spectra1d
    statespace  statespace.assemble_model_s, _peak_mb,    wall_s, peak_rss_mb;  wave2d (assemble), cli-roundtrip
                .export_s, .export_bytes, .load_s,        build_s and solve_s   (export/load) / spectra1d
                .n_states, .nnz_A                         for export/load
    sim         sim.simulate_s, .stepper_setup_s,         wall_s (wave2d),      wave2d (large LU), cli-roundtrip
                .step_ms, .write_csv_s, .steps            solve_s (cli)         (small LU) / spectra1d
    analysis    analysis.spectrum_s, .spectrum_calls,     wall_s                spectra1d / absent elsewhere
                .build_1d_s
    cli         cli.unattributed_s                        build_s, solve_s      cli-roundtrip / absent elsewhere

Seed figures (single runs on a 2-core Intel Xeon box, 1 BLAS thread, Python
3.11.7, numpy 2.4.6, scipy 1.17.1; not benchmark-grade):

    wave2d         wall 6.2-7.4 s, peak RSS 1 663 MB, front radius 13.70,
                   post-pulse |dH| <= 3.6e-15
    cli-roundtrip  build 4.2-5.1 s (rank table ~3 s of it),
                   simulate 0.93-1.6 s, relative drift ~2.5e-13
    spectra1d      ~5 s, peak RSS ~92 MB
    imports        0.33-0.55 s of numpy + scipy + phfem

Only the standard library is imported at module level, so run.py can
read the definitions without loading numpy.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import pathlib
from typing import Callable, NamedTuple

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_TABLES = HERE / "reference_tables.json"

#: residual level the CLI build gate uses; manifest residuals must stay under it
STRUCTURE_GATE = 1e-10
#: power-balance level a built or loaded model must meet
POWER_BALANCE_TOL = 1e-12
#: relative energy change allowed per step once the pulse is over, and over
#: a whole zero-input run
ENERGY_TOL = 1e-10


class Workload(NamedTuple):
    name: str
    why: str
    modules: tuple  # imported during set-up
    build_fns: tuple  # (module, function) pairs whose calls make up build_s
    full: dict  # parameters of the benchmark size
    toy: dict  # parameters of the self-test size
    make_inputs: Callable  # (params, seed, tmpdir) -> inputs
    run: Callable  # (params, inputs) -> result
    check: Callable  # (params, inputs, result) -> [(name, ok, detail)]


def _check(name: str, ok: bool, detail) -> tuple:
    return (name, bool(ok), detail)


# ---------------------------------------------------------------------------
# wave2d


def _wave2d_inputs(params, seed, tmpdir):
    return {}


def _wave2d_run(params, inputs):
    from phfem import sim

    return sim.wave2d_experiment(
        params["N"], weights="set4", dt=0.05, T=18.0, snapshot_times=(0.0, 18.0)
    )


def _wave2d_check(params, inputs, result):
    import numpy as np

    from phfem import sim, statespace

    balance = statespace.power_balance_residual(result.model)
    traj = result.trajectory
    tail = traj.energy[traj.t >= 8.0 - 1e-9]
    per_step = float((np.abs(np.diff(tail)) / max(tail[0], 1e-30)).max())
    radius = sim.diagonal_front_radius(result.snapshots[18.0], 20.0 / params["N"])
    return [
        _check("power_balance", balance <= POWER_BALANCE_TOL, balance),
        _check("post_pulse_energy", per_step <= ENERGY_TOL, per_step),
        _check("front_radius", 12.5 <= radius <= 15.5, radius),
    ]


# ---------------------------------------------------------------------------
# cli-roundtrip


def _cli_inputs(params, seed, tmpdir):
    tmpdir = pathlib.Path(tmpdir)
    config = {
        "mesh": {"kind": "rect", "N": params["N"], "M": params["N"], "h": 1.0},
        "weights": "set2",
        "causality": {"p_sides": ["bottom"], "q_edges": "rest"},
    }
    cfg = tmpdir / "config.json"
    cfg.write_text(json.dumps(config))
    model_dir, run_dir = tmpdir / "model", tmpdir / "run"
    return {
        "model_dir": model_dir,
        "run_dir": run_dir,
        "build_argv": ["build", "--config", str(cfg), "--out", str(model_dir)],
        "simulate_argv": [
            "simulate", str(model_dir),
            "--dt", repr(params["dt"]), "--t-end", repr(params["t_end"]),
            "--seed", str(seed), "--out", str(run_dir),
        ],
    }


def _cli_run(params, inputs):
    from phfem import cli

    build_code = cli.main(inputs["build_argv"])
    simulate_code = cli.main(inputs["simulate_argv"]) if build_code == 0 else None
    return build_code, simulate_code


def _artifacts_match(directory: pathlib.Path) -> bool:
    run = json.loads((directory / "manifest.json").read_text())["run"]
    return bool(run["artifacts"]) and all(
        hashlib.sha256((directory / name).read_bytes()).hexdigest() == digest
        for name, digest in run["artifacts"].items()
    )


def _cli_check(params, inputs, result):
    from phfem import statespace

    build_code, simulate_code = result
    checks = [
        _check("build_exit", build_code == 0, build_code),
        _check("simulate_exit", simulate_code == 0, simulate_code),
    ]
    if simulate_code != 0:
        return checks
    model_dir, run_dir = inputs["model_dir"], inputs["run_dir"]
    manifest = json.loads((model_dir / "manifest.json").read_text())
    residuals = manifest["run"]["checks"]["residuals"]
    worst = max(residuals.values())
    ranks = manifest["run"]["checks"]["ranks"]
    balance = statespace.power_balance_residual(statespace.load_model(model_dir))

    with (run_dir / "energy.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    energy = [float(r["H_d"]) for r in rows]
    drift = max(abs(e - energy[0]) for e in energy) / max(abs(energy[0]), 1e-30)
    steps = int(round(params["t_end"] / params["dt"]))
    return checks + [
        _check("manifest_residuals", worst <= STRUCTURE_GATE, worst),
        _check(
            "rank_table",
            bool(ranks) and all(got == want for got, want in ranks.values()),
            ranks,
        ),
        _check(
            "artifact_sha256",
            _artifacts_match(model_dir) and _artifacts_match(run_dir),
            None,
        ),
        _check("loaded_power_balance", balance <= POWER_BALANCE_TOL, balance),
        _check("energy_drift", drift <= ENERGY_TOL, drift),
        _check("energy_rows", len(rows) == steps + 1, len(rows)),
    ]


# ---------------------------------------------------------------------------
# spectra1d


def _spectra_inputs(params, seed, tmpdir):
    return {"reference": json.loads(REFERENCE_TABLES.read_text())}


def _spectra_run(params, inputs):
    from phfem import analysis

    return (
        analysis.table3(),
        analysis.table4(),
        analysis.convergence_study((0.0, 0.5), params["Ns"], (1,)),
    )


def table_cells(table) -> dict:
    """Columns of an EigTable keyed "label|N", blank (NaN) cells as None."""
    return {
        f"{label}|{N}": [None if math.isnan(v) else float(v) for v in values]
        for (_method, label, N), values in table.columns.items()
    }


def cell_tol(value: float) -> float:
    """Tolerance of the acceptance tables: max(5e-4, one unit in the fifth
    significant digit)."""
    return max(5e-4, 10.0 ** (math.floor(math.log10(abs(value))) - 4))


def _cells_match(got: dict, ref: dict) -> bool:
    if got.keys() != ref.keys():
        return False
    for key, column in ref.items():
        for g, r in zip(got[key], column, strict=True):
            if (g is None) != (r is None):
                return False
            if r is not None and abs(g - r) > cell_tol(r):
                return False
    return True


def _spectra_check(params, inputs, result):
    t3, t4, conv = result
    cells3, cells4 = table_cells(t3), table_cells(t4)
    zero_gap = 0.0
    zero_blanks_match = True
    for key, col3 in cells3.items():
        label, N = key.split("|")
        if label != "0":
            continue
        for a, b in zip(col3, cells4[f"0|{N}"], strict=True):
            if (a is None) != (b is None):
                zero_blanks_match = False
            elif a is not None:
                zero_gap = max(zero_gap, abs(a - b))
    slope0, slope_half = conv.slopes[(0.0, 1)], conv.slopes[(0.5, 1)]
    ref = inputs["reference"]
    return [
        _check("slope_alpha0_k1", abs(slope0 + 1.0) <= 0.1, slope0),
        _check("slope_alpha_half_k1", abs(slope_half + 2.0) <= 0.2, slope_half),
        _check(
            "table4_zero_equals_table3_zero",
            zero_blanks_match and zero_gap <= 1e-13,
            zero_gap,
        ),
        _check("table3_reference", _cells_match(cells3, ref["table3"]), None),
        _check("table4_reference", _cells_match(cells4, ref["table4"]), None),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wave2d",
            why="2-D corner-pulse wave, n = 16 384: dense _resolve in "
            "assemble_model plus a large-LU 360-step simulate",
            modules=("numpy", "scipy.sparse", "scipy.sparse.linalg", "phfem.sim"),
            build_fns=(
                ("phfem.sim", "build_rect_mesh"),
                ("phfem.sim", "partition_boundary"),
                ("phfem.sim", "incidence"),
                ("phfem.sim", "build_2d_maps"),
                ("phfem.sim", "hodge_2d"),
                ("phfem.sim", "assemble_model"),
            ),
            full={"N": 64},
            toy={"N": 20},
            make_inputs=_wave2d_inputs,
            run=_wave2d_run,
            check=_wave2d_check,
        ),
        Workload(
            name="cli-roundtrip",
            why="phfem build (whitney rank table, export) then phfem simulate "
            "from disk: 2 000 cheap steps on a small LU",
            modules=(
                "numpy", "scipy.sparse", "scipy.sparse.linalg", "scipy.io",
                "phfem.cli", "phfem.analysis", "phfem.whitney", "phfem.sim",
            ),
            build_fns=(("phfem.cli", "cmd_build"),),
            full={"N": 24, "dt": 0.01, "t_end": 20.0},
            toy={"N": 4, "dt": 0.5, "t_end": 20.0},
            make_inputs=_cli_inputs,
            run=_cli_run,
            check=_cli_check,
        ),
        Workload(
            name="spectra1d",
            why="1-D eigenvalue tables and convergence: dense eigvals in "
            "analysis.spectrum; control that never runs sim or whitney",
            modules=("numpy", "scipy.sparse", "scipy.sparse.linalg", "phfem.analysis"),
            build_fns=(
                ("phfem.analysis", "build_1d_model"),
                ("phfem.analysis", "build_golo_1d_model"),
            ),
            full={"Ns": (20, 40, 80, 160, 320, 640)},
            toy={"Ns": (20, 40)},
            make_inputs=_spectra_inputs,
            run=_spectra_run,
            check=_spectra_check,
        ),
    )
}


def write_reference(path=REFERENCE_TABLES) -> None:
    """Store the table3/table4 cells of the current phfem as the reference
    the spectra1d check compares against."""
    from phfem import analysis

    ref = {
        "table3": table_cells(analysis.table3()),
        "table4": table_cells(analysis.table4()),
    }
    pathlib.Path(path).write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    # python3 perfbench/workloads.py  -- rewrite reference_tables.json
    import sys

    sys.path.insert(0, str(HERE.parent / "src"))
    write_reference()
