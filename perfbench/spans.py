"""Span tracing for the traced benchmark run.

The tracer wraps public library functions by name from outside the
library: while installed, every binding of a wrapped function in a
``dpp_limits`` module (and in a dict held by one, such as the CLI's runner
table) points at a wrapper that records a span.  Nothing under ``src/`` is
edited.  Spans stay in memory and are reduced to per-layer metrics at the
end of each round.

A layer's self time is its span's duration minus the part of that interval
its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from dataclasses import dataclass
from importlib import import_module

# layer name -> (module, public names wrapped into that layer)
TARGETS: dict[str, tuple[str, tuple[str, ...]]] = {
    "kernel_builders.harmonic": (
        "dpp_limits.kernel_builders",
        ("harmonic_kernel", "harmonic_kernel_details", "harmonic_kernel_family"),
    ),
    "kernel_builders.ope": ("dpp_limits.kernel_builders", ("ope_kernel",)),
    "kernel_builders.orthonormalize": ("dpp_limits.kernel_builders", ("orthonormalize_columns",)),
    "kernel_builders.kde": ("dpp_limits.kernel_builders", ("kde_density",)),
    "kernel_builders.usvt": ("dpp_limits.kernel_builders", ("usvt_kernel", "usvt_retained_rank")),
    "kernel_builders.gram": ("dpp_limits.kernel_builders", ("gram_kernel",)),
    "kernel_builders.latent_graph": ("dpp_limits.kernel_builders", ("latent_graph",)),
    "linalg.eigh": ("numpy.linalg", ("eigh", "eigvalsh")),
    "dpp_engine.validate": ("dpp_limits.dpp_engine", ("validate_kernel",)),
    "dpp_engine.sample": ("dpp_limits.dpp_engine", ("sample_dpp", "sample_dpp_many")),
    "dpp_engine.enumerate_pmf": ("dpp_limits.dpp_engine", ("enumerate_pmf",)),
    "estimators.iid_draw": ("dpp_limits.estimators", ("draw_with_replacement",)),
    "estimators.sensitivity": ("dpp_limits.estimators", ("sensitivity_scores",)),
    "estimators.quantile": ("dpp_limits.estimators", ("quantile_relative_error",)),
    "statistics.det_bounds": ("dpp_limits.statistics", ("det_bound_max", "det_bound_frobenius")),
    "point_cloud.sample": (
        "dpp_limits.point_cloud",
        ("sample_uniform_cube", "sample_uniform_sphere"),
    ),
    "experiments": (
        "dpp_limits.experiments",
        ("run_coreset", "run_sphere", "run_usvt", "run_checks"),
    ),
}

LAYERS = tuple(TARGETS)
LIBRARY = "dpp_limits"
RUNNER_REQUEST = 1  # request id of the runner call; prefix waste is counted there


class TraceGuardError(RuntimeError):
    """A wrapped name is missing, or an expected layer recorded no span."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same trace
    request: int  # spans of one runner call or one probe share this id


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered_length(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.request = 0
        self._stack: list[int] = []
        self._ope_built: dict[int, tuple[object, int]] = {}
        self._hooks = {
            "dpp_engine.sample": self._count_draws,
            "kernel_builders.ope": self._count_ope_columns,
            "linalg.eigh": self._count_eigh,
        }

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self._ope_built.clear()

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    # -- counters computed from call arguments and results ------------------

    def _count_draws(self, args, kwargs, result) -> None:
        dpp = args[0] if args else kwargs["dpp"]
        draws = [result] if not isinstance(result, list) else result
        sizes = [len(s) for s in draws]
        self.add("dpp_engine.sample.draws", len(sizes))
        self.add("dpp_engine.sample.points", sum(sizes))
        # chain model: step t of a rank-r draw costs ~2 n t flops, n r^2 in all
        self.add("dpp_engine.sample.model_flops", float(sum(dpp.n * r * r for r in sizes)))

    def _count_ope_columns(self, args, kwargs, result) -> None:
        if self.request != RUNNER_REQUEST:
            return  # the probe rebuilds one kernel on purpose, to time it
        cloud = args[0] if args else kwargs["cloud"]
        m = int(args[1] if len(args) > 1 else kwargs["m"])
        # the cloud is held so its id cannot be reused within a round
        _, built = self._ope_built.get(id(cloud), (cloud, 0))
        self.add("kernel_builders.ope.columns", m)
        self.add("kernel_builders.ope.rebuilt", min(m, built))
        self._ope_built[id(cloud)] = (cloud, max(m, built))

    def _count_eigh(self, args, kwargs, result) -> None:
        a = args[0] if args else kwargs["a"]
        key = "linalg.eigh.max_n"
        self.counters[key] = max(self.counters.get(key, 0.0), float(a.shape[-1]))

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, layer: str, fn, library_callers_only: bool):
        hook = self._hooks.get(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if library_callers_only and not sys._getframe(1).f_globals.get(
                "__name__", ""
            ).startswith(LIBRARY):
                return fn(*args, **kwargs)
            if stack and spans[stack[-1]].name == layer:
                # one public entry point calling another of the same layer
                return fn(*args, **kwargs)
            span = Span(layer, time.perf_counter(), 0.0, stack[-1] if stack else None, self.request)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.add(f"{layer}.errors", 1)
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs; restore the originals after."""
        patches: list[tuple[object, str, object, object]] = []
        for layer, (module_name, names) in TARGETS.items():
            module = import_module(module_name)
            for name in names:
                if not hasattr(module, name):
                    raise TraceGuardError(f"{module_name}.{name} is missing; layer {layer} cannot be traced")
                orig = getattr(module, name)
                wrapper = self._wrap(layer, orig, library_callers_only=not module_name.startswith(LIBRARY))
                patches.extend((m, k, orig, wrapper) for m, k in _bindings(module, orig))
        try:
            for container, key, _, wrapper in patches:
                _set(container, key, wrapper)
            yield self
        finally:
            for container, key, orig, _ in reversed(patches):
                _set(container, key, orig)

    # -- reduction ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls, busy and self seconds, plus the derived counters."""
        selfs = self_times(self.spans)
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = 0.0
            out[f"{layer}.busy_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for span, own in zip(self.spans, selfs):
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.busy_s"] += span.end - span.start
            out[f"{span.name}.self_s"] += own
        c = self.counters
        draws = c.get("dpp_engine.sample.draws", 0.0)
        busy = out["dpp_engine.sample.busy_s"]
        columns = c.get("kernel_builders.ope.columns", 0.0)
        out.update({
            "kernel_builders.ope.prefix_waste": c.get("kernel_builders.ope.rebuilt", 0.0) / columns if columns else 0.0,
            "linalg.eigh.max_n": c.get("linalg.eigh.max_n", 0.0),
            "dpp_engine.validate.errors": c.get("dpp_engine.validate.errors", 0.0),
            "dpp_engine.sample.draws": draws,
            "dpp_engine.sample.points": c.get("dpp_engine.sample.points", 0.0),
            "dpp_engine.sample.errors": c.get("dpp_engine.sample.errors", 0.0),
            "dpp_engine.sample.us_per_draw": 1e6 * busy / draws if draws else 0.0,
            "dpp_engine.sample.gflops_computed": c.get("dpp_engine.sample.model_flops", 0.0) / busy / 1e9 if busy else 0.0,
        })
        return out

    def request_self_sum(self, request: int) -> float:
        """Total self time of the spans of one request."""
        return sum(
            own for span, own in zip(self.spans, self_times(self.spans)) if span.request == request
        )


def span_cost(calls: int = 20000, reps: int = 7) -> float:
    """Seconds one recorded span adds to a call.

    Times ``calls`` calls of a no-op, then as many of the same no-op behind
    a recording wrapper, ``reps`` times alternately, and returns the median
    of the per-call differences.
    """
    tracer = Tracer()

    def noop():
        return None

    wrapped = tracer._wrap("span_cost", noop, library_callers_only=False)
    costs = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _bindings(module, obj):
    """Every (container, key) bound to ``obj`` in the target and library modules."""
    found = {(id(module), name): (module, name) for name, v in vars(module).items() if v is obj}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == LIBRARY or mod_name.startswith(LIBRARY + ".")):
            continue
        for name, v in vars(mod).items():
            if v is obj:
                found[(id(mod), name)] = (mod, name)
            elif isinstance(v, dict):
                for key, item in v.items():
                    if item is obj:
                        found[(id(v), key)] = (v, key)
    return list(found.values())


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)
