"""Spans around the library's public functions, recorded from outside.

A Tracer replaces each target function by a wrapper at every attribute
that resolves to it: the defining module, every other `hypergroups`
module that imported it by name, and the package namespace. So a call
from `cli` to `verify_axioms` is seen exactly as `cli` makes it. The
originals go back on `restore()`.

Spans are kept in memory (name, start, end, parent, operation id) and
written out once at the end. A span's self time is its duration minus
the time its direct children cover; calls are strictly nested in this
single-threaded library, so the children's durations add up to that
cover.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc

# (metric prefix, module, attribute path). The stats each target gets
# beyond calls and self time are added in _extra(). A metric name starts
# with a letter, so `hypergroups._util` reports as `util`.
TARGETS = [
    ("cli.run", "hypergroups.cli", "run"),
    ("core.standard_construction", "hypergroups.core", "standard_construction"),
    ("core.verify_axioms", "hypergroups.core", "verify_axioms"),
    ("core.hypergroup_from_json", "hypergroups.core", "hypergroup_from_json"),
    ("core.is_group_quasigroup", "hypergroups.core", "is_group_quasigroup"),
    ("groups.group_from_cayley_table", "hypergroups.groups", "group_from_cayley_table"),
    ("groups.group_isomorphisms", "hypergroups.groups", "group_isomorphisms"),
    ("groups.enumerate_subgroups", "hypergroups.groups", "enumerate_subgroups"),
    ("transversals.sample_transversals", "hypergroups.transversals", "sample_transversals"),
    ("transversals.make_transversal", "hypergroups.transversals", "make_transversal"),
    ("morphisms.find_isomorphism", "hypergroups.morphisms", "find_isomorphism"),
    ("morphisms.verify_morphism", "hypergroups.morphisms", "verify_morphism"),
    ("classify.sweep_standard", "hypergroups.classify", "sweep_standard"),
    ("classify.enumerate_abstract", "hypergroups.classify", "enumerate_abstract"),
    ("classify.Catalog.insert", "hypergroups.classify", "Catalog.insert"),
    ("classify.export_catalog", "hypergroups.classify", "export_catalog"),
    ("fields.make_extension_field", "hypergroups.fields", "make_extension_field"),
    ("fields.verify_field_axioms", "hypergroups.fields", "verify_field_axioms"),
    ("fields.check_field_tables", "hypergroups.fields", "check_field_tables"),
    ("fields.field_isomorphism", "hypergroups.fields", "field_isomorphism"),
    ("functors.functor_field", "hypergroups.functors", "functor_field"),
    ("functors.reconstruct_field", "hypergroups.functors", "reconstruct_field"),
    ("util.canonical_dumps", "hypergroups._util", "canonical_dumps"),
    ("json.loads", "json", "loads"),
]

# Per-layer metrics reported for every workload: "<prefix>.<stat>" -> unit.
PER_LAYER_UNITS = {
    **{f"{prefix}.{stat}": unit for prefix, _, _ in TARGETS
       for stat, unit in (("calls", "count"), ("s", "s"))},
    "core.verify_axioms.cells": "count",
    "core.verify_axioms.accept_ratio": "ratio",
    "core.verify_axioms.peak_mb": "MB",
    "groups.group_from_cayley_table.peak_mb": "MB",
    "morphisms.find_isomorphism.hit_ratio": "ratio",
    "util.canonical_dumps.bytes": "bytes",
    "json.loads.bytes": "bytes",
    "trace.overhead_s": "s",
}

# Counts that must repeat exactly for a fixed seed.
EXACT_COUNTS = (
    "core.verify_axioms.calls",
    "core.verify_axioms.cells",
    "morphisms.find_isomorphism.calls",
    "morphisms.find_isomorphism.hit_ratio",
    "util.canonical_dumps.bytes",
)

# Their tracemalloc peaks are reported. tracemalloc runs only inside
# these calls, and only in a pass whose times are not reported, because
# it slows every allocation. A call inside another one's measurement
# gets no peak of its own; the library never nests these two.
PEAK_TARGETS = ("core.verify_axioms", "groups.group_from_cayley_table")

MB = 1024.0 * 1024.0


def axiom_cells(m: int, h: int) -> int:
    """Relation instances verify_axioms checks, computed from |M| and |H|:
    P1 (m^2), P2 with A0 (m h^2), P3 (h), A1 (m h^2), A2 and A3 (m^2 h
    each), A4 and A5 (m^3 each)."""
    return m * m + 2 * m * h * h + h + 2 * m * m * h + 2 * m ** 3


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans of the TARGETS while an operation is open."""

    def __init__(self):
        self.spans: list[list] = []    # [name, start, end, parent, op]
        self.op = None                  # current operation id, None = off
        self.peaks = False              # measure PEAK_TARGETS' memory peaks
        self._stack: list[list] = []    # [span index, child time]
        self._patches: list[tuple] = []
        self.stats: dict[str, dict] = {}

    # installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hypergroups" or name.startswith("hypergroups.")]
        for prefix, module_name, path in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(prefix, original)
            self._patch(owner, attr, original, wrapper)
            if "." in path:   # a method: the class is the only owner
                continue
            for mod in modules:
                if mod is not owner and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # span recording ---------------------------------------------------

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _exit(self) -> float:
        """Close the innermost span; returns its self time."""
        end = time.perf_counter()
        index, child_time = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        if self._stack:
            self._stack[-1][1] += duration
        return duration - child_time

    def _account(self, name: str, calls: int, self_time: float,
                 peak_mb: float, extra: dict) -> None:
        st = self.stats.setdefault(name, {"calls": 0, "s": 0.0, "peak_mb": 0.0})
        st["calls"] += calls
        st["s"] += self_time
        st["peak_mb"] = max(st["peak_mb"], peak_mb)
        for key, value in extra.items():
            st[key] = st.get(key, 0) + value

    def _wrap(self, name: str, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # A generator works while it is resumed: time each resumption.
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                calls = 1
                while True:
                    traced = tracer.op is not None
                    if traced:
                        tracer._enter(name)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        if traced:
                            tracer._account(name, calls, tracer._exit(), 0.0, {})
                            calls = 0
                    yield value
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            # Peaks are measured over the call's own allocations only.
            measure_peak = (tracer.peaks and name in PEAK_TARGETS
                            and not tracemalloc.is_tracing())
            if measure_peak:
                tracemalloc.start()
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self_time = tracer._exit()
                peak_mb = 0.0
                if measure_peak:
                    peak_mb = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
            tracer._account(name, 1, self_time, peak_mb, _extra(name, args, result))
            return result
        return wrapper

    # results ----------------------------------------------------------

    def take_stats(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last call, then reset."""
        out: dict[str, float] = {}
        for prefix, _, _ in TARGETS:
            st = self.stats.get(prefix, {})
            out[prefix + ".calls"] = st.get("calls", 0)
            out[prefix + ".s"] = st.get("s", 0.0)
        va = self.stats.get("core.verify_axioms", {})
        out["core.verify_axioms.cells"] = va.get("cells", 0)
        out["core.verify_axioms.accept_ratio"] = _ratio(va.get("accepted", 0), va.get("calls", 0))
        out["core.verify_axioms.peak_mb"] = va.get("peak_mb", 0.0)
        out["groups.group_from_cayley_table.peak_mb"] = (
            self.stats.get("groups.group_from_cayley_table", {}).get("peak_mb", 0.0))
        fi = self.stats.get("morphisms.find_isomorphism", {})
        out["morphisms.find_isomorphism.hit_ratio"] = _ratio(fi.get("hits", 0), fi.get("calls", 0))
        out["util.canonical_dumps.bytes"] = self.stats.get("util.canonical_dumps", {}).get("bytes", 0)
        out["json.loads.bytes"] = self.stats.get("json.loads", {}).get("bytes", 0)
        self.stats = {}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _extra(name: str, args, result) -> dict:
    if name == "core.verify_axioms":
        hg = args[0]
        return {"cells": axiom_cells(hg.m_size, hg.h.order),
                "accepted": int(result.overall)}
    if name == "morphisms.find_isomorphism":
        return {"hits": int(result is not None)}
    if name == "util.canonical_dumps":
        return {"bytes": len(result.encode())}
    if name == "json.loads":
        text = args[0]
        return {"bytes": len(text.encode()) if isinstance(text, str) else len(text)}
    return {}
