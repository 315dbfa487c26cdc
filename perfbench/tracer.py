"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of the hemisys modules from the
outside: ``src/`` carries no tracing code.  Each call becomes a span
(id, name, start, end, parent, counts) kept in memory; self time and the
per-layer metrics are derived once the traced passes have ended.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("gf", "pg3", "curves", "groups", "hemisystem", "numbers", "cli")

# Per-element scalar helpers, called tens of thousands of times per
# operation (pack/unpack per file line, the generator scan per lambda).
# A span costs about as much as one of these calls, so their time is left
# in the self time of the caller, which is where an optimisation moves it.
SCALAR_HELPERS = {"pg3.pack", "pg3.unpack", "pg3.normalize",
                  "pg3.herm_form", "pg3.on_surface"}

# Spans whose tracemalloc peak is recorded, reset at span entry.  tracemalloc
# slows the orbit's set bookkeeping several times over, so a tracer records
# peaks only when asked to, in a pass whose times are not used.
MEMORY_SPANS = frozenset({"groups.orbit", "hemisystem.verify"})


def _verify_counts(args, kwargs, report):
    cand = args[0]
    threads = kwargs.get("threads", args[1] if len(args) > 1 else 1)
    return {"Mincidences": report.line_count * (cand.q ** 2 + 1) / 1e6,
            "threads": threads}


def _size_of(path):
    return os.path.getsize(path) / 1e6


# Counts taken from a call's arguments and result, keyed by span name.
COUNTERS = {
    "groups.orbit": lambda a, k, r: {"lines": len(r)},
    "groups.apply_to_keys": lambda a, k, r: {"images": len(r)},
    "pg3.line_points_batch": lambda a, k, r: {"Mpoints": r.size / 1e6},
    "hemisystem.verify": _verify_counts,
    "hemisystem.import_candidate": lambda a, k, r: {"MB": _size_of(a[0])},
    "hemisystem.export": lambda a, k, r: {"MB": _size_of(a[1])},
    "hemisystem.build_ft_verified": lambda a, k, r: {
        "fallbacks": int(r[0].provenance.get("m2_choice") != "rule")},
    "curves.ft_imaginary_chords": lambda a, k, r: {"chords": len(r)},
    "curves.cp_imaginary_chords": lambda a, k, r: {"chords": len(r)},
    "gf.vec_add": lambda a, k, r: {"Melems": r.size / 1e6},
    "gf.vec_mul": lambda a, k, r: {"Melems": r.size / 1e6},
}


class Tracer:
    """Records spans of wrapped calls; install() patches, uninstall() restores."""

    def __init__(self, modules, memory_spans=frozenset()):
        self.modules = modules
        self.memory_spans = memory_spans
        self.spans = []                 # (id, name, start, end, parent, counts)
        self._ids = itertools.count(1)
        self._main_stack = []
        self._local = threading.local()
        self._patched = []              # (module, attribute, original)

    def _stack(self):
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack):
        # A worker thread's first span belongs to the span that was open
        # on the main thread when the pool ran (the verifier's chunks).
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    @contextmanager
    def span(self, name, track_memory=False):
        """Record one span; yields the dict its counts go into."""
        stack = self._stack()
        sid, parent = next(self._ids), self._parent(stack)
        stack.append(sid)
        counts = {}
        started = track_memory and not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        if track_memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        start = perf_counter()
        try:
            yield counts
        finally:
            end = perf_counter()
            stack.pop()
            if track_memory:
                counts["peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 1e6
            if started:
                tracemalloc.stop()
            self.spans.append((sid, name, start, end, parent, counts))

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        track_memory = name in self.memory_spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, track_memory) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(args, kwargs, result))
                return result

        return traced

    def install(self):
        """Wrap every public function of the modules under every name it is bound to."""
        wrappers = {}
        for mod in self.modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SCALAR_HELPERS):
                    wrappers[obj] = self._wrap(name, obj)
        # `from .gf import vec_add` binds the function again in the importing
        # module, so every module namespace is patched, not only the defining one.
        for mod in self.modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- derived figures ----------------------------------------------------

    def self_times(self) -> dict:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for sid, _, start, end, _, _ in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (end - start) - covered
        return out


def summarise(tracer: Tracer, memory: Tracer, op_prefix: str, passes: int) -> dict:
    """Per-layer metrics per traced pass (names as in BENCHMARK.json).

    Times and counts are totals over the spans of `tracer` divided by
    `passes`; ratios and shares are taken over all of them; memory peaks
    are the highest over the spans of `memory`.
    """
    self_t = tracer.self_times()
    by_name = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0,
                                   "counts": defaultdict(float)})
    peaks = defaultdict(float)
    for _, name, _, _, _, counts in memory.spans:
        if "peak_mb" in counts:
            peaks[name] = max(peaks[name], counts["peak_mb"])
    verify_by_threads = defaultdict(float)
    op_total = op_self = 0.0
    for sid, name, start, end, _, counts in tracer.spans:
        if name.startswith(op_prefix):
            op_total += end - start
            op_self += self_t[sid]
            continue
        rec = by_name[name]
        rec["self"] += self_t[sid]
        rec["total"] += end - start
        rec["calls"] += 1
        for key, value in counts.items():
            if key == "threads":
                verify_by_threads[value] += end - start
            else:
                rec["counts"][key] += value

    def self_s(name):
        return by_name[name]["self"] / passes if name in by_name else 0.0

    def count(name, key):
        return by_name[name]["counts"][key] / passes if name in by_name else 0.0

    def calls(name):
        return by_name[name]["calls"] / passes if name in by_name else 0.0

    def share(*names):
        return sum(by_name[n]["total"] for n in names if n in by_name) / op_total

    images = count("groups.apply_to_keys", "images")
    t1, t2 = verify_by_threads.get(1, 0.0), verify_by_threads.get(2, 0.0)
    m = {
        "groups.orbit.s": self_s("groups.orbit"),
        "groups.orbit.lines": count("groups.orbit", "lines"),
        "groups.apply_to_keys.images": images,
        "groups.orbit.useful_ratio": count("groups.orbit", "lines") / images if images else 0.0,
        "groups.orbit.peak_mb": peaks["groups.orbit"],
        "groups.orbit.share": share("groups.orbit"),
        "pg3.line_points_batch.s": self_s("pg3.line_points_batch"),
        "pg3.line_points_batch.Mpoints": count("pg3.line_points_batch", "Mpoints"),
        "pg3.line_keys_batch.s": self_s("pg3.line_keys_batch"),
        "pg3.check_generators_batch.s": self_s("pg3.check_generators_batch"),
        "pg3.generators_through.s": self_s("pg3.generators_through"),
        "pg3.generators_through.calls": calls("pg3.generators_through"),
        "hemisystem.verify.s": self_s("hemisystem.verify"),
        "hemisystem.verify.Mincidences": count("hemisystem.verify", "Mincidences"),
        "hemisystem.verify.peak_mb": peaks["hemisystem.verify"],
        "hemisystem.verify.eff_2t": t1 / (2 * t2) if t1 and t2 else 0.0,
        "hemisystem.verify.share": share("hemisystem.verify"),
        "hemisystem.import_candidate.s": self_s("hemisystem.import_candidate"),
        "hemisystem.import_candidate.MB": count("hemisystem.import_candidate", "MB"),
        "hemisystem.export.s": self_s("hemisystem.export"),
        "hemisystem.export.MB": count("hemisystem.export", "MB"),
        "hemisystem.build_ft_verified.fallbacks":
            count("hemisystem.build_ft_verified", "fallbacks"),
        "curves.ft_frame_setup.s": self_s("curves.ft_frame_setup"),
        "curves.ft_imaginary_chords.s": self_s("curves.ft_imaginary_chords"),
        "curves.cp_imaginary_chords.s": self_s("curves.cp_imaginary_chords"),
        "curves.chords": (count("curves.ft_imaginary_chords", "chords")
                          + count("curves.cp_imaginary_chords", "chords")),
        "curves.chords.share": share("curves.ft_imaginary_chords", "curves.cp_imaginary_chords"),
        "gf.make_field.s": self_s("gf.make_field"),
        "gf.make_field.calls": calls("gf.make_field"),
        "gf.embed_subfield.s": self_s("gf.embed_subfield"),
        "numbers.condition_B_holds.s": self_s("numbers.condition_B_holds"),
        "trace.unattributed_frac": op_self / op_total,
    }
    for op in ("add", "mul"):
        melems = count(f"gf.vec_{op}", "Melems")
        m[f"gf.vec_{op}.s"] = self_s(f"gf.vec_{op}")
        m[f"gf.vec_{op}.Melems"] = melems
        # two int64 operands read and one int64 result written per element
        m[f"gf.vec_{op}.computed_MB"] = 24 * melems
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(r["self"] for n, r in by_name.items()
                                   if n.startswith(layer + ".")) / passes
    return m
