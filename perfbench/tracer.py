"""In-place span recorder around the public entry points of each layer.

The recorder wraps functions of the ``grasscodes`` modules from outside,
in every module namespace that binds them (``plucker`` is bound in both
``grassmann`` and ``codes``; ``linalg.rank`` is bound in ``exterior``
and ``codes`` as ``matrix_rank``).  Three kinds of wrapper:

* ``span``: each call is recorded as a span (name, start, end, parent
  span, job id) and aggregated;
* ``leaf``: hot functions (10^5 to 10^6 calls a job) are only
  aggregated, as a call count, total time and self time;
* ``gen``: generator functions are timed across each resume, not just at
  creation, and their yields are counted.

Self time is a frame's duration minus the durations of the wrapped
frames it encloses.  ``gf`` arithmetic is left unwrapped, so its time
falls into the self time of its callers; only field construction is
timed.  Spans stay in memory until ``report``.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter

# (module, attribute path, kind).  Internal helpers of a layer (the wedge
# and annihilator chain under check_functional, row_reduce under rank) are
# deliberately not wrapped: their time is the self time of the entry point.
WRAPPED = [
    ("gf", "GF.__init__", "span"),
    ("qcombin", "check_index_tuple", "leaf"),
    ("qcombin", "index_tuples", "leaf"),
    ("qcombin", "nabla_set", "leaf"),
    ("qcombin", "delta_set", "leaf"),
    ("qcombin", "complement", "leaf"),
    ("qcombin", "bruhat_leq", "leaf"),
    ("qcombin", "delta", "leaf"),
    ("qcombin", "gaussian_binomial", "leaf"),
    ("qcombin", "parse_index_tuple", "leaf"),
    ("qcombin", "verify_gaussian_identities", "leaf"),
    ("qcombin", "verify_e_inequalities", "leaf"),
    ("grassmann", "enumerate_cell", "gen"),
    ("grassmann", "enumerate_grassmannian", "gen"),
    ("grassmann", "enumerate_schubert_variety", "gen"),
    ("grassmann", "string_fiber", "gen"),
    ("grassmann", "plucker", "leaf"),
    ("grassmann", "determinant", "leaf"),
    ("exterior", "DualFunctional.from_vector", "leaf"),
    ("exterior", "DualFunctional.evaluate", "leaf"),
    ("exterior", "check_functional", "leaf"),
    ("exterior", "parse_functional", "leaf"),
    ("linalg", "rank", "leaf"),
    ("linalg", "kernel_basis", "leaf"),
    ("codes", "point_table", "span"),
    ("codes", "build_generator", "span"),
    ("codes", "GeneratorMatrix.full_rank", "span"),
    ("codes", "codeword_weight", "leaf"),
    ("codes", "class_weights", "gen"),
    ("codes", "weight_distribution", "span"),
    ("codes", "verify_nogin", "span"),
    ("codes", "verify_second_weight", "span"),
    ("codes", "verify_attained_family", "span"),
    ("codes", "verify_string_section", "span"),
    ("codes", "verify_zanella_incidence", "span"),
    ("codes", "verify_l2_dichotomy", "span"),
    ("macwilliams", "check_macwilliams", "span"),
    ("cli", "main", "span"),
]

OBSERVED = {"codes.point_table", "codes.weight_distribution",
            "exterior.check_functional"}


class Tracer:
    """Records spans and per-function aggregates; one per traced pass."""

    def __init__(self):
        self.clock = time.perf_counter
        # a frame is [child seconds, id of the nearest enclosing span]
        self.stack: list[list] = []
        self.agg: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.specs: set = set()  # distinct codes given to point_table
        self.job = None
        self._undo: list[tuple] = []

    # -- frames ---------------------------------------------------------------

    def _close(self, name: str, t0: float, frame: list) -> None:
        dt = self.clock() - t0
        self.stack.pop()
        a = self.agg[name]
        a[1] += dt
        a[2] += dt - frame[0]
        if self.stack:
            self.stack[-1][0] += dt

    def exclude(self, seconds: float) -> None:
        """Keep time spent on something else (a probe) out of self times."""
        if self.stack:
            self.stack[-1][0] += seconds

    @contextlib.contextmanager
    def span(self, name: str):
        """A root span, such as one job."""
        self.agg.setdefault(name, [0, 0.0, 0.0])
        t0, frame, sid = self._open_span(name)
        try:
            yield
        finally:
            self._close_span(name, t0, frame, sid)

    def _open_span(self, name: str):
        parent = self.stack[-1][1] if self.stack else None
        sid = len(self.spans)
        self.spans.append(None)
        frame = [0.0, sid]
        self.stack.append(frame)
        self.agg[name][0] += 1
        return self.clock(), frame, (sid, parent)

    def _close_span(self, name, t0, frame, sid_parent):
        self._close(name, t0, frame)
        sid, parent = sid_parent
        self.spans[sid] = (name, t0, self.clock(), parent, self.job)

    # -- wrappers -------------------------------------------------------------

    def _wrap_span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            t0, frame, sid = self._open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close_span(name, t0, frame, sid)
            self._observe(name, args, result)
            return result
        return wrapper

    def _wrap_leaf(self, name: str, fn):
        # _close inlined: this wrapper runs up to 10^6 times a job
        stack, clock, agg = self.stack, self.clock, self.agg[name]
        observe = self._observe if name in OBSERVED else None

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            agg[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                agg[1] += dt
                agg[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if observe:
                observe(name, args, result)
            return result
        return wrapper

    def _wrap_gen(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            tracer.agg[name][0] += 1
            return tracer._resume_timed(name, inner)
        return wrapper

    def _resume_timed(self, name: str, inner):
        stack, clock = self.stack, self.clock
        try:
            while True:
                frame = [0.0, stack[-1][1] if stack else None]
                stack.append(frame)
                t0 = clock()
                try:
                    value = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(name, t0, frame)
                self.counts[name + ".yields"] += 1
                yield value
        finally:
            inner.close()

    def _observe(self, name: str, args, result) -> None:
        """Counters that need an argument or a result."""
        if name == "codes.point_table":
            spec = args[0]
            self.specs.add((spec.field, spec.ell, spec.m, spec.alpha))
        elif name == "codes.weight_distribution":
            # q^k codewords; read off the result so that no wrapped
            # function runs here
            self.counts["sweep.codewords"] += result.total()
        elif name == "exterior.check_functional" and result:
            self.counts["check_functional.decomposable"] += 1

    # -- patching -------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every entry point of WRAPPED wherever ``package`` binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == package.__name__
                       or n.startswith(package.__name__ + "."))
                   and m is not None]
        for mod_name, path, kind in WRAPPED:
            owner = sys.modules[f"{package.__name__}.{mod_name}"]
            name = f"{mod_name}.{path.split('.')[-1]}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self._make(kind, name, fn)
                if isinstance(raw, staticmethod):
                    wrapped = staticmethod(wrapped)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, wrapped)
                continue
            fn = getattr(owner, path)
            wrapped = self._make(kind, name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapped)

    def _make(self, kind: str, name: str, fn):
        self.agg.setdefault(name, [0, 0.0, 0.0])
        return {"span": self._wrap_span, "leaf": self._wrap_leaf,
                "gen": self._wrap_gen}[kind](name, fn)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._undo):
            setattr(obj, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def report(self) -> dict:
        return {"agg": {n: a for n, a in self.agg.items() if a[0]},
                "counts": dict(self.counts),
                "distinct_specs": len(self.specs),
                "spans": [s for s in self.spans if s is not None]}
