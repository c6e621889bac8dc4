"""Span tracing of brownlab from outside the package.

``Tracer.install`` replaces, for the length of one traced pass:

* every function a brownlab module imports from another brownlab module
  (``brown.evaluate``, ``pseudospec.parallel_map``, ``cli.log_potential``,
  ``walks.haar_unitary``, ...) with a wrapper that records a span charged
  to the layer that defines the function;
* ``TailEstimate.from_samples``, the cross-module entry point that is
  reached through a class (``walks.det_tail_experiment`` calls it);
* the dense LAPACK entry points (``numpy.linalg.svd/eig/eigvals/qr`` and
  ``scipy.linalg.schur``), whose spans are charged to the innermost layer
  span open on the calling thread;
* ``numpy.linalg.det``, without a span, to count the index tuples a Delta
  scan visits.

``parallel_map`` gets a wrapper of its own: the call is a ``pool`` span on
the calling thread, and each task becomes a span of the calling layer on
whichever thread runs it. Span stacks are per thread, so work done on pool
threads is attributed to the layer that submitted it. Spans stay in memory
until the caller writes them out. ``uninstall`` restores every original
and checks that it did.

A span's self time is its duration minus the durations of its child spans
on the same thread. Its ``cpu_s`` is the CPU time its thread used meanwhile
(``time.thread_time``), which leaves out time spent waiting for a core.
"""

from __future__ import annotations

import inspect
import math
import sys
import threading
from collections import Counter, defaultdict, namedtuple
from time import perf_counter, thread_time

Span = namedtuple("Span", "layer name kind t0 t1 self_s cpu_s thread width")

LAYER_OF_MODULE = {
    "brownlab.ncpoly": "ncpoly",
    "brownlab.rmtcore": "rmtcore",
    "brownlab.linearize": "linearize",
    "brownlab.pseudospec": "pseudospec",
    "brownlab.brown": "brown",
    "brownlab.walks": "walks",
    "brownlab.cli": "cli",
    "brownlab._pool": "pool",
}

DECOMPOSITIONS = (
    ("numpy.linalg", "svd"),
    ("numpy.linalg", "eig"),
    ("numpy.linalg", "eigvals"),
    ("numpy.linalg", "qr"),
    ("scipy.linalg", "schur"),
)

SAMPLERS = frozenset({"rmtcore.stream", "rmtcore.ginibre_tuple",
                      "rmtcore.ginibre_matrix", "rmtcore.haar_unitary"})
SELF_LAYERS = ("brown", "pseudospec", "linearize", "cli")
# Time inside these calls, children included.
INCLUSIVE = {
    "walks.orthocomplement_basis": "walks.basis_s",
    "walks.delta_report": "walks.delta_s",
    "walks.det_tail_experiment": "walks.dettail_s",
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost(self):
        """(layer, name) of the innermost open span on this thread, or None."""
        stack = self._stack()
        return (stack[-1][0], stack[-1][1]) if stack else None

    def call(self, layer, name, kind, fn, args, kwargs, width=1):
        """Run fn(*args, **kwargs) inside a span and return its result."""
        stack = self._stack()
        frame = [layer, name, 0.0]
        stack.append(frame)
        c0 = thread_time()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            cpu = thread_time() - c0
            stack.pop()
            if stack:
                stack[-1][2] += t1 - t0
            self.spans.append(Span(layer, name, kind, t0, t1, t1 - t0 - frame[2], cpu,
                                   threading.get_ident(), width))

    def count(self, key, n):
        with self._lock:
            self.counts[key] += n

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(layer, name, "call", fn, args, kwargs)
        return wrapper

    def _log_potential(self, fn):
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            grid = bound["grid"]
            self.count("brown.node_samples", bound["trials"] * grid.nx * grid.ny)
            return self.call("brown", "brown.log_potential", "call", fn, args, kwargs)
        return wrapper

    def _parallel_map(self, caller, fn, default_threads):
        def wrapper(task, items, threads=None):
            items = list(items)
            want = default_threads() if threads is None else int(threads)
            width = min(want, len(items)) if want > 1 and len(items) > 1 else 1
            self.count("pool.tasks", len(items))

            def traced_task(item):
                return self.call(caller, f"{caller}.task", "task", task, (item,), {})
            return self.call("pool", "pool.parallel_map", "pool", fn,
                             (traced_task, items, threads), {}, width)
        return wrapper

    def _decompose(self, op, fn):
        def wrapper(*args, **kwargs):
            top = self.innermost()
            layer = top[0] if top else "unattributed"
            return self.call(layer, f"{layer}.decompose.{op}", "decompose", fn, args, kwargs)
        return wrapper

    def _det(self, fn):
        def det(a):
            top = self.innermost()
            shape = getattr(a, "shape", ())
            if top and top[1] == "walks.delta_report" and len(shape) > 2:
                self.count("walks.delta_tuples", math.prod(shape[:-2]))
            return fn(a)
        return det

    # -- install / uninstall ----------------------------------------------

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        import numpy.linalg
        import scipy.linalg

        import brownlab.cli  # noqa: F401  (imports every layer)
        from brownlab._pool import default_threads
        from brownlab.pseudospec import TailEstimate

        for modname, layer in LAYER_OF_MODULE.items():
            mod = sys.modules[modname]
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ == modname:
                    continue
                callee = LAYER_OF_MODULE.get(obj.__module__)
                if callee is None:
                    continue
                if obj.__name__ == "parallel_map":
                    wrapper = self._parallel_map(layer, obj, default_threads)
                elif obj.__name__ == "log_potential":
                    wrapper = self._log_potential(obj)
                else:
                    wrapper = self._span(callee, f"{callee}.{obj.__name__}", obj)
                self._patch(mod, attr, wrapper)
        self._patch(TailEstimate, "from_samples", staticmethod(self._span(
            "pseudospec", "pseudospec.TailEstimate.from_samples", TailEstimate.from_samples)))
        for modname, op in DECOMPOSITIONS:
            owner = sys.modules[modname]
            self._patch(owner, op, self._decompose(op, getattr(owner, op)))
        self._patch(numpy.linalg, "det", self._det(numpy.linalg.det))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")


COUNT_SUFFIXES = ("_calls", "_tuples", "node_samples", "fallback_svd", "tasks")


def layer_metrics(tracer):
    """Per-layer totals of one traced pass, keyed by metric name."""
    m = defaultdict(float)
    capacity = 0.0
    for s in tracer.spans:
        dur = s.t1 - s.t0
        if s.kind == "decompose":
            m[f"{s.layer}.decompose_s"] += dur
            m[f"{s.layer}.decompose_calls"] += 1
            if s.name == "brown.decompose.svd":
                m["brown.fallback_svd"] += 1
            continue
        if s.kind == "pool":
            m["pool.wall_s"] += dur
            capacity += s.width * dur
            continue
        if s.kind == "task":
            m["pool.busy_s"] += s.cpu_s
        if s.name in SAMPLERS:
            m["rmtcore.sample_s"] += s.self_s
            m["rmtcore.sample_calls"] += 1
        elif s.name == "ncpoly.evaluate":
            m["ncpoly.evaluate_s"] += s.self_s
            m["ncpoly.evaluate_calls"] += 1
        elif s.layer in SELF_LAYERS:
            m[f"{s.layer}.self_s"] += s.self_s
        if s.name in INCLUSIVE:
            m[INCLUSIVE[s.name]] += dur
    m.update(tracer.counts)
    nodes = m["brown.node_samples"]
    m["brown.fast_route_share"] = 1.0 - m["brown.fallback_svd"] / nodes if nodes else 0.0
    m["pool.efficiency"] = m["pool.busy_s"] / capacity if capacity else 0.0
    return {k: int(v) if k.endswith(COUNT_SUFFIXES) else v for k, v in m.items()}
