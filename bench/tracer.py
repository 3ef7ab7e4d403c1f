"""Spans around the calls into each abeltrace layer, installed from the
benchmark's own files for the traced run only.

Each wrapped function is patched under every name a call can go through:
a ``from .x import f`` binds its own copy of ``f``, so every module
attribute that is the original function is replaced, and methods are
replaced on their class. ``uninstall`` puts every original back and
``assert_restored`` proves it.

A span records its name, start, end and parent. Coarse spans are kept one
by one; hot leaves (called per chart or per point) are aggregated per
(function, parent) pair. Self time is span time minus child spans.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, qualified name, hot, workloads on which it must be called)
TRACED = (
    ("multipoly", "MultiPoly.substitute", True, "tables verify extend inverse"),
    ("multipoly", "MultiPoly.evaluate", True, "tables verify extend inverse"),
    ("numeric", "poly_roots", True, "tables verify extend inverse"),
    ("numeric", "cauchy_derivative", False, "verify"),
    ("numeric", "polydisc_fit_grid", False, "extend"),
    ("numeric", "gauss_legendre_segment", True, "extend"),
    ("numeric", "PolydiscModel.__call__", True, "extend"),
    ("numeric", "poly_interpolate", True, "inverse"),
    ("geometry", "plane_substitute", True, "tables verify extend inverse"),
    ("geometry", "solve_fiber", True, "tables verify extend inverse"),
    ("geometry", "solve_bivariate", True, "tables"),
    ("geometry", "full_jacobian", True, "tables verify extend inverse"),
    ("residues", "trace", True, "extend"),
    ("residues", "trace_table", False, "tables verify extend inverse"),
    ("residues", "evaluate_chart", True, "tables verify extend inverse"),
    ("residues", "ChartEvaluation.value", True, "tables verify extend inverse"),
    ("residues", "TraceTable.value", True, "verify extend"),
    ("radon", "radon_coefficients", False, "tables verify"),
    ("radon", "verify_shock_relations", False, "verify"),
    ("radon", "verify_holomorphy", False, "verify"),
    ("radon", "reparametrize_check", False, "verify"),
    ("radon", "propagate_trace_extension", False, "extend"),
    ("reconstruct", "fit_minimal_polys", False, "inverse"),
    ("reconstruct", "reconstruct_numerator", False, "inverse"),
    ("reconstruct", "verify_traces_match", False, "inverse"),
    ("serialize", "encode_trace_table", False, "inverse"),
    ("serialize", "decode_trace_table", False, "inverse"),
    ("serialize", "encode_reconstruction", False, "inverse"),
    ("serialize", "dumps", False, "inverse"),
    ("serialize", "load_json", False, "inverse"),
    ("cli", "run", False, "inverse"),
)

# bindings made by ``from .x import f`` that calls go through; install
# must replace each one (checked, so a missed binding fails loudly)
REQUIRED_BINDINGS = (
    ("residues", "solve_fiber"),
    ("radon", "evaluate_chart"),
    ("radon", "cauchy_derivative"),
    ("radon", "gauss_legendre_segment"),
    ("radon", "polydisc_fit_grid"),
    ("geometry", "poly_roots"),
    ("reconstruct", "trace_table"),
    ("reconstruct", "poly_interpolate"),
    ("cli", "trace_table"),
)

PACKAGE = "abeltrace"


def span_name(module, qualname):
    return f"{module}.{qualname}"


def _library_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0])   # (name, parent) -> [calls, seconds]
        self.spans = []                              # (name, start, end, parent id, job)
        self.job = None
        self._stack = []
        self._next_id = 1
        self._patches = []                           # (owner, attribute, original)

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, hot):
        stack = self._stack
        calls, self_s, edges, spans = self.calls, self.self_s, self.edges, self.spans
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0.0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                if hot:
                    edge = edges[(name, parent[0] if parent else None)]
                    edge[0] += 1
                    edge[1] += dur
                else:
                    spans.append((name, start, end, parent[2] if parent else None,
                                  tracer.job))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper._bench_span = name
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every traced function under every binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m.__name__: m for m in _library_modules()}
        for mod_name, qualname, hot, _ in TRACED:
            name = span_name(mod_name, qualname)
            home = modules[f"{PACKAGE}.{mod_name}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(name, original, hot))
                continue
            original = getattr(home, qualname)
            wrapper = self._wrap(name, original, hot)
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, attr, original, wrapper)
        for mod_name, attr in REQUIRED_BINDINGS:
            val = getattr(modules[f"{PACKAGE}.{mod_name}"], attr)
            if not hasattr(val, "_bench_span"):
                self.uninstall()
                raise RuntimeError(f"binding {mod_name}.{attr} was not patched")

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def expected_calls(self, workload):
        """Names of the traced functions that recorded no call although
        ``workload`` is mapped to them."""
        return [span_name(m, q) for m, q, _, wls in TRACED
                if workload in wls.split() and not self.calls.get(span_name(m, q))]

    def dump(self):
        """Spans and aggregated edges as JSON-safe data."""
        return {
            "spans": [list(s) for s in self.spans],
            "edges": [[n, p, c, t] for (n, p), (c, t) in sorted(
                self.edges.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))],
        }


def assert_restored():
    """Raise if any library module or class still holds a wrapper."""
    left = []
    for mod in _library_modules():
        for attr, val in vars(mod).items():
            if hasattr(val, "_bench_span"):
                left.append(f"{mod.__name__}.{attr}")
            elif isinstance(val, type):
                left += [f"{mod.__name__}.{attr}.{a}" for a, v in vars(val).items()
                         if hasattr(v, "_bench_span")]
    if left:
        raise RuntimeError(f"library functions left patched: {left}")
