"""Spans recorded around calls into wzsim, and per-layer metrics from them.

A traced run replaces module attributes of wzsim with wrappers that record
one span per call: name, start, end, parent span and thread. Spans stay in
memory until the run ends. A span name is ``<layer>.<function>``; the layer
is one of the modules of ``src/wzsim``.

Self time is wall-clock time. A span's own intervals are its duration minus
the part its child spans cover. Where own intervals of spans in different
threads overlap, each instant is split evenly among them, so the self times
of all spans add up to the root span's duration even with worker threads.
"""

from __future__ import annotations

import fnmatch
import functools
import itertools
import json
import resource
import threading
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "experiments", "evolution", "kinetic", "potential", "grid", "analytic")

# Percentiles tried for a tail, highest first; the tail is the highest one
# with at least TAIL_MIN_BEYOND samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

PAGE_BYTES = resource.getpagesize()
MIB = 1024 * 1024


def current_rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


def peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    """Span recorder. Spans are lists ``[id, name, start, end, parent, thread, extra]``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.wrapped: set[str] = set()
        self._ids = itertools.count()
        self._stacks: dict[int, list] = {}
        self._main = threading.main_thread().ident
        self._lock = threading.Lock()

    def open(self, name: str, start: float | None = None) -> list:
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent = stack[-1][0]
        else:
            # A worker thread's outermost span belongs to the span the main
            # thread has open, which is waiting on the worker.
            main = self._stacks.get(self._main)
            parent = main[-1][0] if main else None
        span = [next(self._ids), name, time.perf_counter() if start is None else start, None, parent, thread, None]
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: list, end: float | None = None) -> None:
        span[3] = time.perf_counter() if end is None else end
        self._stacks[span[5]].pop()

    def wrap(self, owner, attr: str, name: str, extra=None, enter=None) -> bool:
        """Replace ``owner.attr`` with a wrapper that records a span per call.

        ``enter(args)`` runs before the call and its value is handed to
        ``extra(args, result, entered)``, whose value is stored on the span.
        Records ``name`` as missing when the attribute does not exist.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(name)
            return False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = enter(args) if enter is not None else None
            span = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if extra is not None:
                span[6] = extra(args, out, entered)
            return out

        setattr(owner, attr, wrapper)
        self.wrapped.add(name)
        return True

    def count_calls(self, owner, attr: str, key: str) -> bool:
        """Count calls of ``owner.attr`` under ``key`` without recording spans."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(key)
            return False

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        setattr(owner, attr, wrapper)
        return True


def self_times(spans) -> dict:
    """Wall-clock self time per span id, for spans ``(id, name, start, end, parent, ...)``."""
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
    pieces = []  # (start, end, span id): intervals no child of the span covers
    for s in spans:
        cursor = s[2]
        for c in sorted(children[s[0]], key=lambda c: c[2]):
            if c[2] > cursor:
                pieces.append((cursor, c[2], s[0]))
            cursor = max(cursor, c[3])
        if s[3] > cursor:
            pieces.append((cursor, s[3], s[0]))
    events = sorted(
        [(a, 1, sid) for a, b, sid in pieces] + [(b, 0, sid) for a, b, sid in pieces],
        key=lambda e: (e[0], e[1]),
    )
    out = {s[0]: 0.0 for s in spans}
    active: Counter = Counter()
    last = None
    for t, is_start, sid in events:
        if last is not None and active and t > last:
            share = (t - last) / sum(active.values())
            for a, k in active.items():
                out[a] += share * k
        last = t
        if is_start:
            active[sid] += 1
        else:
            active[sid] -= 1
            if not active[sid]:
                del active[sid]
    return out


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest tail percentile with enough samples
    beyond it; the median when there are too few samples for any."""
    n = len(values)
    if not n:
        return 0.0, 0.0
    p = next((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND), 50.0)
    return p, float(np.percentile(values, p))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run; None marks a metric whose wrapped name was missing."""
    spans = [s for s in tracer.spans if s[3] is not None]
    selfs = self_times(spans)
    by_name = defaultdict(list)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        by_name[s[1]].append(s)
        layer_self[s[1].split(".")[0]] += selfs[s[0]]

    def total(*names):
        return sum(s[3] - s[2] for n in names for s in by_name[n])

    def self_of(*names):
        return sum(selfs[s[0]] for n in names for s in by_name[n])

    def matching(prefix):
        return sorted(n for n in tracer.wrapped if n.startswith(prefix))

    applies = matching("kinetic.apply_")
    plans = matching("kinetic.make_")
    apply_spans = [s for n in applies for s in by_name[n]]
    apply_s = total(*applies)
    amps = sum(s[6]["amplitudes"] for s in apply_spans)
    moved = sum(2 * s[6]["bytes"] for s in apply_spans)
    step_ms = [1e3 * (s[3] - s[2]) for s in by_name["evolution.step"]]
    tail_pct, tail_ms = tail(step_ms)

    def peak_delta(name):
        return max((s[6] for s in by_name[name]), default=0) / MIB

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update(
        {
            "trace.wall_s": total("cli"),
            "trace.spans": len(spans),
            "kinetic.apply_s": apply_s,
            "kinetic.apply_calls": len(apply_spans),
            "kinetic.ns_per_amp_apply": 1e9 * apply_s / amps if amps else 0.0,
            "kinetic.gbps_computed": moved / apply_s / 1e9 if apply_s else 0.0,
            "kinetic.plan_s": total(*plans),
            "kinetic.plan_bytes": sum(s[6] for n in plans for s in by_name[n]),
            "potential.build_s": total("potential.composite_potential"),
            "potential.coulomb_s": total("potential.build_coulomb_diagonal"),
            "potential.rss_delta_mib": peak_delta("potential.composite_potential"),
            "evolution.prepare_s": total("evolution.prepare_operators"),
            "evolution.step_s": total("evolution.step"),
            "evolution.step_self_s": self_of("evolution.step"),
            "evolution.step_ms.p50": float(np.median(step_ms)) if step_ms else 0.0,
            "evolution.step_ms.tail": tail_ms,
            "evolution.step_ms.tail_pct": tail_pct,
            "evolution.loop_self_s": self_of("evolution.evolve"),
            "evolution.steps": len(step_ms),
            "grid.norm_s": total("grid.norm"),
            "grid.norm_calls": len(by_name["grid.norm"]),
            "grid.density_s": total("grid.density", "grid.marginal_density"),
            "grid.statevector_builds": tracer.counts["grid.statevector_builds"],
            "grid.codec_builds": tracer.counts["grid.codec_builds"],
            "analytic.series_s": total("analytic.box_exact_density"),
            "analytic.rss_delta_mib": peak_delta("analytic.box_exact_density"),
        }
    )
    for name in tracer.missing:
        layer = name.split(".")[0]
        for key in m:
            if key.startswith(layer + "."):
                m[key] = None
    return m


def _rss_at_entry(args) -> int:
    return current_rss_bytes()


def _peak_rise(args, out, entered) -> int:
    return max(0, peak_rss_bytes() - entered)


def _state_size(args, out, entered) -> dict:
    return {"amplitudes": args[0].dim, "bytes": args[0].amplitudes.nbytes}


def _plan_bytes(args, out, entered) -> int:
    return sum(v.nbytes for v in vars(out).values() if isinstance(v, np.ndarray))


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of each wzsim module, at the names their callers look up."""
    from wzsim import cli, evolution, experiments, grid, potential

    for attr in ("run_convergence", "run_molecule2d"):
        tracer.wrap(cli, attr, f"experiments.{attr}")
    tracer.wrap(experiments, "evolve", "evolution.evolve")
    tracer.wrap(experiments, "density", "grid.density")
    tracer.wrap(experiments, "marginal_density", "grid.marginal_density")
    tracer.wrap(
        experiments, "box_exact_density", "analytic.box_exact_density",
        enter=_rss_at_entry, extra=_peak_rise,
    )
    tracer.wrap(evolution, "prepare_operators", "evolution.prepare_operators")
    tracer.wrap(evolution, "step", "evolution.step")
    tracer.wrap(
        evolution, "composite_potential", "potential.composite_potential",
        enter=_rss_at_entry, extra=_peak_rise,
    )
    tracer.wrap(potential, "build_coulomb_diagonal", "potential.build_coulomb_diagonal")
    for pattern, extra in (("make_*_plan", _plan_bytes), ("apply_*_plan", _state_size)):
        attrs = sorted(a for a in vars(evolution) if fnmatch.fnmatchcase(a, pattern))
        if not attrs:
            tracer.missing.append(f"kinetic.{pattern}")
        for attr in attrs:
            tracer.wrap(evolution, attr, f"kinetic.{attr}", extra=extra)
    tracer.wrap(grid.StateVector, "norm", "grid.norm")
    tracer.count_calls(grid.StateVector, "__post_init__", "grid.statevector_builds")
    tracer.count_calls(grid.IndexCodec, "__post_init__", "grid.codec_builds")


def write_spans(tracer: Tracer, path, run_id: str) -> None:
    """Write every recorded span as one JSON object per line."""
    with open(path, "w") as fh:
        for sid, name, start, end, parent, thread, _ in tracer.spans:
            fh.write(json.dumps({"run": run_id, "id": sid, "name": name, "start": start,
                                 "end": end, "parent": parent, "thread": thread}) + "\n")
