"""Command-line front end: build, simulate, eigs, table3, table4.

Every command writes its artifacts into an output directory together with a
single ``manifest.json``; for ``build`` the run information is merged into
the model manifest so the directory keeps exactly one manifest.  Exit codes:
0 ok, 1 structural-check failure, 2 configuration error, 3 missing artifact,
4 numerical failure.

Only the standard library is imported at module level so that the
``PHFEM_THREADS`` environment variable can cap the BLAS thread pools before
numpy is first loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import sys
from datetime import datetime, timezone

from .errors import (
    InvalidArgumentError,
    MissingArtifactError,
    PhfemError,
    StructureViolationError,
)

#: residual level at which `build` refuses to write a model
STRUCTURE_GATE = 1e-10

#: 1D model families; "ours" is an alias of "mixed"
METHODS_1D = ("mixed", "ours", "golo")

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _apply_thread_cap() -> None:
    """Honor PHFEM_THREADS by seeding the BLAS pool variables (must run
    before numpy is imported; explicit user settings win)."""
    cap = os.environ.get("PHFEM_THREADS")
    if cap is None or cap == "":
        return
    try:
        n = int(cap)
        if n < 1:
            raise ValueError
    except ValueError:
        raise InvalidArgumentError(
            f"PHFEM_THREADS must be a positive integer, got {cap!r}"
        ) from None
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))


def load_config(path):
    path = pathlib.Path(path)
    if not path.is_file():
        raise MissingArtifactError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(
            f"config parse error in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from None


def _build_from_config(cfg: dict):
    """Assemble the model described by a config and run the structure gate.

    Returns (model, checks) where checks collects every residual and rank
    comparison; any residual above STRUCTURE_GATE raises.
    """
    from . import whitney
    from .sim import build_model

    built = build_model(cfg)
    g = whitney.assemble(built.mesh)
    report = whitney.verify_structure(built.mesh, g, built.inc)
    residuals = {**report.residuals, **built.residuals}
    checks = {"residuals": residuals, "ranks": report.ranks}

    failures = [f"{k} = {v:.3e}" for k, v in residuals.items() if not v <= STRUCTURE_GATE]
    if report.ranks:
        failures += [
            f"rank({name}) = {got} (expected {want})"
            for name, (got, want) in report.ranks.items()
            if got != want
        ]
    if failures:
        raise StructureViolationError(
            "structural checks failed: " + "; ".join(failures)
        )
    return built.model, checks


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_info(command: str, config, outdir: pathlib.Path, extra=None) -> dict:
    from . import __version__

    info = {
        "command": command,
        "config": config,
        "version": __version__,
        "created": datetime.now(timezone.utc).isoformat(),
        "artifacts": {
            p.name: _sha256(p)
            for p in sorted(outdir.iterdir())
            if p.suffix in (".mtx", ".csv")
        },
    }
    if extra:
        info.update(extra)
    return info


def _write_manifest(outdir: pathlib.Path, run: dict) -> None:
    """Attach run info to the directory's single manifest (creating it when
    the command produced no model manifest)."""
    mf = outdir / "manifest.json"
    manifest = json.loads(mf.read_text()) if mf.is_file() else {}
    manifest["run"] = run
    mf.write_text(json.dumps(manifest, indent=2, sort_keys=True))


def cmd_build(args) -> int:
    cfg = load_config(args.config)
    # a non-object config or "mesh" is left for build_model to reject
    if isinstance(cfg, dict):
        for key, value in (("N", args.n), ("M", args.m)):
            if value is not None and isinstance(cfg.setdefault("mesh", {}), dict):
                cfg["mesh"][key] = value
        for key, value in (("weights", args.preset), ("alpha", args.alpha),
                           ("alpha_prime", args.alpha_prime), ("method", args.method)):
            if value is not None:
                cfg[key] = value

    from .statespace import export_model

    model, checks = _build_from_config(cfg)
    outdir = export_model(model, args.out)
    _write_manifest(outdir, _run_info("build", cfg, outdir, {"checks": checks}))
    print(f"model written to {outdir} (states = {model.n}, inputs = {model.n_u})")
    return 0


def cmd_simulate(args) -> int:
    import numpy as np

    from .sim import SimConfig, simulate, write_energy_csv
    from .statespace import load_model

    if args.seed < 0:
        raise InvalidArgumentError(f"--seed must be non-negative, got {args.seed}")
    model = load_model(args.model_dir)
    if args.x0 == "random":
        x0 = np.random.default_rng(args.seed).standard_normal(model.n)
    else:
        x0 = np.zeros(model.n)
    traj = simulate(
        model, SimConfig(dt=args.dt, T=args.t_end, x0=x0, snapshot_times=())
    )

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_energy_csv(traj, outdir / "energy.csv")
    scale = max(abs(traj.energy[0]), 1e-30)
    drift = abs(traj.energy[-1] - traj.energy[0]) / scale
    max_drift = float(np.abs(traj.energy - traj.energy[0]).max()) / scale
    _write_manifest(
        outdir,
        _run_info(
            "simulate",
            {
                "model_dir": str(args.model_dir),
                "dt": args.dt,
                "t_end": args.t_end,
                "x0": args.x0,
                "seed": args.seed,
            },
            outdir,
            {
                "relative_energy_drift": drift,
                "max_relative_energy_drift": max_drift,
                "node_solve": traj.node_solve,
            },
        ),
    )
    print(f"simulated {len(traj.t) - 1} steps; relative energy drift {drift:.3e}")
    return 0


def cmd_eigs(args) -> int:
    import csv

    import numpy as np

    from . import analysis
    from .statespace import load_model

    if args.model_dir is not None:
        for flag, value in (("--n", args.n), ("--alpha", args.alpha),
                            ("--alpha-prime", args.alpha_prime), ("--method", args.method)):
            if value is not None:
                raise InvalidArgumentError(f"eigs with a model directory reads no {flag}")
        model = load_model(args.model_dir)
        config = {"model_dir": str(args.model_dir)}
    elif args.n is None:
        raise InvalidArgumentError("eigs needs either a model directory or --n")
    elif args.method == "golo":
        a = args.alpha_prime
        if a is None or args.alpha is not None:
            raise InvalidArgumentError("--method golo needs --alpha-prime, not --alpha")
        model = analysis.build_golo_1d_model(args.n, a)
        config = {"method": "golo", "alpha_prime": a, "n": args.n}
    else:
        if args.alpha_prime is not None:
            method = args.method or "mixed"
            raise InvalidArgumentError(f"--method {method} reads no --alpha-prime")
        alpha = args.alpha if args.alpha is not None else 0.0
        model = analysis.build_1d_model(args.n, alpha)
        config = {"method": "mixed", "alpha": alpha, "n": args.n}

    freqs = analysis.spectrum(model, args.k)
    config["k"] = args.k
    L = model.meta.get("L", 1.0)
    exact = analysis.exact_frequencies(np.arange(1, freqs.size + 1), L)
    with_exact = model.meta.get("method") in ("mixed", "golo")

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "eigs.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "omega"] + (["exact"] if with_exact else []))
        for i, w in enumerate(freqs):
            row = [str(i + 1), f"{w:.10g}"]
            if with_exact:
                row.append(f"{exact[i]:.10g}")
            writer.writerow(row)
    _write_manifest(outdir, _run_info("eigs", config, outdir))
    print(f"wrote {freqs.size} frequencies to {path}")
    return 0


def cmd_table(args) -> int:
    from . import analysis

    which = args.which
    table = analysis.table3() if which == "table3" else analysis.table4()
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    path = analysis.write_eig_csv(table, outdir / f"{which}.csv")
    _write_manifest(outdir, _run_info(which, {}, outdir))
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phfem",
        description="Structure-preserving discretization of two-conservation-law systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="assemble a model from a JSON config")
    p_build.add_argument("--config", required=True, help="JSON config path")
    p_build.add_argument("--out", required=True, help="output model directory")
    p_build.add_argument("--n", type=int, help="override mesh N")
    p_build.add_argument("--m", type=int, help="override mesh M")
    p_build.add_argument("--preset", help="override 2D weight preset (set1..set4)")
    p_build.add_argument("--alpha", type=float, help="override 1D flow-map weight")
    p_build.add_argument(
        "--alpha-prime", type=float, help="override comparison effort weight"
    )
    p_build.add_argument(
        "--method", choices=METHODS_1D, help="1D model family ('ours' = 'mixed')"
    )
    p_build.set_defaults(func=cmd_build)

    p_sim = sub.add_parser("simulate", help="integrate a built model (zero input)")
    p_sim.add_argument("model_dir", help="directory written by `build`")
    p_sim.add_argument("--dt", type=float, required=True, help="time step")
    p_sim.add_argument("--t-end", type=float, required=True, help="final time")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument(
        "--x0", choices=("random", "zero"), default="random", help="initial state"
    )
    p_sim.add_argument("--seed", type=int, default=0, help="seed for random x0")
    p_sim.set_defaults(func=cmd_simulate)

    p_eigs = sub.add_parser("eigs", help="frequencies of a model")
    p_eigs.add_argument(
        "model_dir", nargs="?", default=None, help="directory written by `build`"
    )
    p_eigs.add_argument("--n", type=int, help="1D grid size (without a model dir)")
    p_eigs.add_argument("--alpha", type=float, help="1D flow-map weight")
    p_eigs.add_argument("--alpha-prime", type=float, help="comparison effort weight")
    p_eigs.add_argument(
        "--method",
        choices=METHODS_1D,
        help="1D model family ('ours' = 'mixed', the default)",
    )
    p_eigs.add_argument(
        "--k",
        type=int,
        help="write only the lowest K frequencies (banded bisection or sparse Lanczos)",
    )
    p_eigs.add_argument("--out", required=True, help="output directory")
    p_eigs.set_defaults(func=cmd_eigs)

    for name, blurb in (
        ("table3", "frequency table over the flow-map weight alpha"),
        ("table4", "frequency table of the effort-map comparison scheme"),
    ):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=cmd_table, which=name)

    return parser


def main(argv=None) -> int:
    try:
        _apply_thread_cap()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PhfemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
