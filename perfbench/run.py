"""phfem benchmark: one workload, repeated in fresh interpreters for a fixed time.

    python3 perfbench/run.py --workload {wave2d,cli-roundtrip,spectra1d}
                             --seed N --seconds S --trace {0,1} [--toy]

Run from the root of a checkout.  ``--trace 0`` reports the end-to-end
metrics (medians over the repetitions of the run); ``--trace 1`` reports the
per-layer metrics of perfbench/layers.py.  Every repetition checks its
outputs; the last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (checks) and ``metrics``.  The line before it
records the environment, the repetitions, ``fail_ratio``, and the build and
solve phase times (untraced) or the largest spans (traced).  Workloads and their rationale: perfbench/workloads.py.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
#: printed on the summary line of an untraced run, without a bound: as a
#: share of wall_s they spread too much on a shared box to be gated
PHASES = ("build_s", "solve_s")

#: set-up-only repetitions per untraced run, so setup_s is a median of many
SETUP_PROBES = 3
#: a run ends within this many seconds, even when a repetition hangs: the
#: repetition is killed and counted as failed
HARD_LIMIT_S = 170
#: environment of every repetition: BLAS pinned before numpy loads
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_child(workload: str, seed: int, mode: str, toy: bool, timeout: float) -> dict | None:
    """Run one repetition; None when it crashed or timed out."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode] + (["--toy"] if toy else [])
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **PINNED},
            capture_output=True, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{workload} {mode} repetition timed out\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["setup_s"] = rec["setup_end"] - start
    rec["elapsed_s"] = time.monotonic() - start
    rec["mode"] = mode
    return rec


def schedule(trace: bool):
    """Modes of the full repetitions, in order.  A traced run starts with a
    memory repetition, then alternates untraced and traced ones so the
    tracing overhead is measured in the same run."""
    if not trace:
        while True:
            yield "plain"
    yield "memory"
    while True:
        yield "plain"
        yield "traced"


def repeat(workload: str, seed: int, seconds: int, trace: bool, toy: bool):
    """Run repetitions until the next one, at the median length so far,
    would end after ``seconds``; always at least one of each mode the
    metrics need."""
    start = time.monotonic()
    deadline, hard_deadline = start + seconds, start + HARD_LIMIT_S

    def child(mode):
        return run_child(workload, seed, mode, toy, hard_deadline - time.monotonic())

    probes = [] if trace else [child("setup") for _ in range(SETUP_PROBES)]
    reps = []
    min_reps = 3 if trace else 1
    lengths = []
    for mode in schedule(trace):
        if len(reps) >= min_reps and time.monotonic() + statistics.median(lengths or [0]) > deadline:
            break
        rec = child(mode)
        reps.append(rec)
        if rec is not None:
            lengths.append(rec["elapsed_s"])
    return probes, reps


def environment(seed: int, env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "phfem").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        **env,
        "blas_env": PINNED,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "src_phfem_lines": src_lines,
    }


def median_of(reps, key, field=None) -> float:
    return statistics.median((r[field] if field else r)[key] for r in reps)


def largest_spans(layer_metrics: dict, n: int = 4) -> list:
    """The n largest per-function time metrics of a traced repetition."""
    times = {
        k: v for k, v in layer_metrics.items()
        if layers.LAYER_METRICS[k] == "s"
        and not k.endswith(("self_s", "unattributed_s", "stepper_setup_s"))
        and not k.startswith("trace.")
    }
    return sorted(times.items(), key=lambda kv: -kv[1])[:n]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    parser.add_argument("--toy", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "phfem" / "__init__.py").is_file():
        sys.stderr.write(f"phfem sources not found under {ROOT / 'src'}; "
                         "run from the root of a phfem checkout\n")
        return 2

    probes, reps = repeat(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)
    # a repetition that crashed or timed out counts as one failed check
    crashed = sum(r is None for r in probes + reps)
    done = [r for r in reps if r is not None]
    started = [r for r in probes if r is not None] + done
    checks = [(name, ok, detail) for r in done for name, ok, detail in r["checks"]]
    attempted = len(checks) + crashed
    failed = sum(not ok for _, ok, _ in checks) + crashed

    if args.trace:
        timing = [r for r in done if r["mode"] == "traced"]
        memory = [r for r in done if r["mode"] == "memory"]
        plain = [r for r in done if r["mode"] == "plain"]
        if not (timing and memory and plain):
            sys.stderr.write("no complete traced, memory and untraced repetition\n")
            return 1
        values = {k: median_of(timing, k, "layers") for k in layers.LAYER_METRICS
                  if k != "trace.overhead_s"}
        values.update({k: median_of(memory, k, "layers") for k in layers.PEAK_METRICS})
        values["trace.overhead_s"] = median_of(timing, "wall_s") - median_of(plain, "wall_s")
        units = layers.LAYER_METRICS
        extra = {"largest_spans": largest_spans(timing[0]["layers"])}
    else:
        if not done:
            sys.stderr.write("no repetition completed\n")
            return 1
        values = {k: median_of(done, k) for k in END_TO_END if k != "setup_s"}
        values["setup_s"] = median_of(started, "setup_s")
        units = END_TO_END
        extra = {k: median_of(done, k) for k in PHASES}

    print(json.dumps({
        "workload": args.workload,
        "environment": environment(args.seed, started[0]["env"]),
        "repetitions": {m: sum(r["mode"] == m for r in done) for m in ("plain", "traced", "memory")},
        "setup_probes": len(probes),
        "rep_wall_s": [r["wall_s"] for r in done],
        "fail_ratio": failed / attempted,
        "failed_checks": sorted({f"{n}: {d}" for n, ok, d in checks if not ok}),
        **extra,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
