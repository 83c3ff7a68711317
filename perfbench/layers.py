"""Timing of phfem calls from outside the library.

A phfem function is replaced, in every phfem module that binds it, by a
wrapper that records the call.  That is where phfem looks the name up
(``from .mesh import incidence`` makes a second binding in the importing
module; ``cli`` imports lazily and so reads the defining module's binding
at call time), so nothing under ``src/phfem`` is edited and every call path
is seen.  ``patched`` undoes the replacement on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import pathlib
import sys
import time
import tracemalloc

#: functions timed per layer, by defining module
LAYER_FUNCS = {
    "mesh": ("build_rect_mesh", "build_interval_mesh", "partition_boundary", "incidence"),
    "whitney": ("assemble", "verify_structure"),
    "power_maps": ("build_2d_maps", "build_1d_maps", "power_residual"),
    "hodge": ("hodge_2d", "hodge_1d", "hodge_golo_1d"),
    "statespace": ("assemble_model", "power_balance_residual", "export_model", "load_model"),
    "sim": ("simulate", "write_energy_csv"),
    "analysis": ("spectrum", "build_1d_model", "build_golo_1d_model"),
    "cli": ("cmd_build", "cmd_simulate"),
}

#: spans whose tracemalloc peak is recorded in a memory repetition
MEMORY_SPANS = ("power_maps.build_2d_maps", "statespace.assemble_model")

#: per-layer metrics of the traced run: name -> unit.  Times of absent
#: layers and counts of work not done read 0.
LAYER_METRICS = {
    "mesh.build_s": "s",
    "mesh.self_s": "s",
    "whitney.assemble_s": "s",
    "whitney.verify_s": "s",
    "whitney.rank_checked": "count",
    "whitney.self_s": "s",
    "power_maps.build_2d_maps_s": "s",
    "power_maps.build_2d_maps_peak_mb": "MB",
    "power_maps.self_s": "s",
    "hodge.hodge_2d_s": "s",
    "hodge.self_s": "s",
    "statespace.assemble_model_s": "s",
    "statespace.assemble_model_peak_mb": "MB",
    "statespace.export_s": "s",
    "statespace.export_bytes": "bytes",
    "statespace.load_s": "s",
    "statespace.n_states": "count",
    "statespace.nnz_A": "count",
    "statespace.self_s": "s",
    "sim.simulate_s": "s",
    "sim.stepper_setup_s": "s",
    "sim.step_ms": "ms",
    "sim.write_csv_s": "s",
    "sim.steps": "count",
    "sim.self_s": "s",
    "analysis.spectrum_s": "s",
    "analysis.spectrum_calls": "count",
    "analysis.build_1d_s": "s",
    "analysis.self_s": "s",
    "cli.unattributed_s": "s",
    "trace.wall_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

#: metrics taken from the memory repetition rather than the timing ones
PEAK_METRICS = tuple(f"{name}_peak_mb" for name in MEMORY_SPANS)


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace each ``(module, name)`` function by ``make_wrapper(qualname,
    fn)`` in every loaded phfem module that binds it."""
    undo = []
    try:
        for module_name, fn_name in targets:
            fn = getattr(importlib.import_module(module_name), fn_name)
            wrapper = make_wrapper(f"{module_name.rsplit('.', 1)[-1]}.{fn_name}", fn)
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "phfem"]:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, fn))
        yield
    finally:
        for mod, attr, fn in reversed(undo):
            setattr(mod, attr, fn)


class BuildClock:
    """Sums the time spent in the outermost calls to the build functions."""

    def __init__(self):
        self.seconds = 0.0
        self._depth = 0

    def wrap(self, _qualname, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.seconds += time.perf_counter() - start

        return timed


class Tracer:
    """Records one span per call of a layer function: name, layer, start,
    end and the index of the enclosing span (None for the root).

    With ``memory`` set, the spans in MEMORY_SPANS also record their
    tracemalloc peak (numpy and Python allocations; SuperLU's C heap is not
    seen), which slows them, so memory and timing repetitions are separate.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[dict] = []
        self.counts = {"whitney.rank_checked": 0, "sim.steps": 0,
                       "statespace.export_bytes": 0, "statespace.n_states": 0,
                       "statespace.nnz_A": 0}
        self.last_simulate = None  # (fn, model, cfg) of the latest sim.simulate
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str | None):
        record = {"name": name, "layer": layer,
                  "parent": self._stack[-1] if self._stack else None}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        measure = self.memory and name in MEMORY_SPANS and not tracemalloc.is_tracing()
        if measure:
            tracemalloc.start()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            if measure:
                record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
            self._stack.pop()

    def wrap(self, qualname, fn):
        layer = qualname.split(".")[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(qualname, layer):
                result = fn(*args, **kwargs)
            self._count(qualname, fn, args, kwargs, result)
            return result

        return traced

    def _count(self, qualname, fn, args, kwargs, result):
        if qualname == "whitney.verify_structure":
            self.counts["whitney.rank_checked"] += result.ranks is not None
        elif qualname == "statespace.assemble_model":
            if result.n >= self.counts["statespace.n_states"]:
                self.counts["statespace.n_states"] = result.n
                self.counts["statespace.nnz_A"] = int(result.A().nnz)
        elif qualname == "statespace.export_model":
            self.counts["statespace.export_bytes"] += sum(
                p.stat().st_size for p in pathlib.Path(result).glob("*.mtx")
            )
        elif qualname == "sim.simulate":
            self.counts["sim.steps"] += len(result.t) - 1
            self.last_simulate = (fn, args[0], args[1])

    def installed(self):
        return patched(
            [(f"phfem.{layer}", fn) for layer, fns in LAYER_FUNCS.items() for fn in fns],
            self.wrap,
        )

    def stepper_setup_s(self) -> float:
        """Time of a one-step simulate on the latest simulated model: the
        cost of building and factoring the stepping matrix."""
        if self.last_simulate is None:
            return 0.0
        fn, model, cfg = self.last_simulate
        one_step = cfg._replace(T=cfg.dt, snapshot_times=())
        start = time.perf_counter()
        fn(model, one_step)
        return time.perf_counter() - start

    def metrics(self, wall_s: float, stepper_setup_s: float) -> dict:
        """Per-layer metrics of one repetition (all of LAYER_METRICS except
        the overhead, which needs an untraced repetition)."""
        spans = self.spans
        dur = [s["end"] - s["start"] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s["parent"] is not None:
                child[s["parent"]] += dur[i]

        def outer_total(names) -> float:
            """Summed duration of spans in ``names`` not nested in another."""
            total = 0.0
            for i, s in enumerate(spans):
                if s["name"] not in names:
                    continue
                p = s["parent"]
                while p is not None and spans[p]["name"] not in names:
                    p = spans[p]["parent"]
                if p is None:
                    total += dur[i]
            return total

        self_s = {layer: 0.0 for layer in LAYER_FUNCS}
        for i, s in enumerate(spans):
            if s["layer"] is not None:
                self_s[s["layer"]] += dur[i] - child[i]

        def layer_names(layer):
            return {f"{layer}.{fn}" for fn in LAYER_FUNCS[layer]}

        simulate_s = outer_total({"sim.simulate"})
        steps = self.counts["sim.steps"]
        m = {
            "mesh.build_s": outer_total(layer_names("mesh")),
            "whitney.assemble_s": outer_total({"whitney.assemble"}),
            "whitney.verify_s": outer_total({"whitney.verify_structure"}),
            "power_maps.build_2d_maps_s": outer_total({"power_maps.build_2d_maps"}),
            "hodge.hodge_2d_s": outer_total({"hodge.hodge_2d"}),
            "statespace.assemble_model_s": outer_total({"statespace.assemble_model"}),
            "statespace.export_s": outer_total({"statespace.export_model"}),
            "statespace.load_s": outer_total({"statespace.load_model"}),
            "sim.simulate_s": simulate_s,
            "sim.stepper_setup_s": stepper_setup_s,
            "sim.step_ms": (
                1e3 * (simulate_s - stepper_setup_s) / (steps - 1) if steps > 1 else 0.0
            ),
            "sim.write_csv_s": outer_total({"sim.write_energy_csv"}),
            "analysis.spectrum_s": outer_total({"analysis.spectrum"}),
            "analysis.spectrum_calls": sum(s["name"] == "analysis.spectrum" for s in spans),
            "analysis.build_1d_s": outer_total(
                {"analysis.build_1d_model", "analysis.build_golo_1d_model"}
            ),
            "cli.unattributed_s": self_s["cli"],
            "trace.wall_s": wall_s,
            "trace.coverage": sum(self_s.values()) / wall_s,
            "trace.spans": len(spans),
        }
        m.update(self.counts)
        m.update({f"{layer}.self_s": v for layer, v in self_s.items() if layer != "cli"})
        for name in MEMORY_SPANS:
            peaks = [s["peak_mb"] for s in spans if s["name"] == name and "peak_mb" in s]
            m[f"{name}_peak_mb"] = max(peaks, default=0.0)
        return m
