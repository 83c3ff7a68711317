"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE [--toy]

MODE is ``setup`` (set up, then stop), ``plain`` (the operation untraced),
``traced`` (every layer call timed) or ``memory`` (traced, with tracemalloc
peaks in the memory spans).  Prints one JSON object on its last stdout line.
``run.py`` starts this with BLAS pinned to one thread; ``setup_end`` is a
``time.monotonic`` reading, which the parent subtracts from its own reading
at spawn to get set-up time from interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import importlib
import json
import pathlib
import resource
import shutil
import sys
import tempfile
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
#: scratch space for the CLI's model and run directories, inside the checkout
TMP_ROOT = ROOT / ".perfbench_tmp"
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

MODES = ("setup", "plain", "traced", "memory")


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by owning package."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libdir = pathlib.Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libdir / "lib*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    out[pkg.__name__] = fn()
                    break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def run_once(wl, params, inputs, mode: str) -> dict:
    clock = layers.BuildClock()
    tracer = layers.Tracer(memory=mode == "memory") if mode != "plain" else None
    with contextlib.ExitStack() as stack:
        stack.enter_context(layers.patched(wl.build_fns, clock.wrap))
        if tracer is not None:
            stack.enter_context(tracer.installed())
            stack.enter_context(tracer.span("op", None))
        start = time.perf_counter()
        try:
            result, error = wl.run(params, inputs), None
        except Exception:  # a failing operation is a failed check, not a crash
            result, error = None, traceback.format_exc()
        wall = time.perf_counter() - start

    if error is None:
        checks = wl.check(params, inputs, result)
    else:
        sys.stderr.write(error)
        checks = [("operation", False, error.strip().splitlines()[-1])]
    out = {
        "wall_s": wall,
        "build_s": clock.seconds,
        "solve_s": wall - clock.seconds,
        "checks": checks,
    }
    if tracer is not None:
        stepper = tracer.stepper_setup_s() if mode == "traced" else 0.0
        out["layers"] = tracer.metrics(wall, stepper)
        out["spans"] = [[s["name"], s["parent"]] for s in tracer.spans]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--toy", action="store_true", help="self-test size")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    params = wl.toy if args.toy else wl.full
    for module in wl.modules:
        importlib.import_module(module)
    TMP_ROOT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=TMP_ROOT)
    try:
        inputs = wl.make_inputs(params, args.seed, tmpdir)
        out = {"setup_end": time.monotonic()}
        if args.mode != "setup":
            out.update(run_once(wl, params, inputs, args.mode))
        out["env"] = environment()
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()  # only when no other repetition still uses it
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
