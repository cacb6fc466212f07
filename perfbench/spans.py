"""Span tracer for the traced run, installed from outside the package.

``install`` replaces every public function and public method of the
``golod_lab`` modules with a wrapper that records a span: its name, its
parent span, its duration and its self time (duration minus the time of its
direct child spans).  A wrapper goes at every name the function is bound to
inside the package, so ``homology_engine.kernel_basis`` and
``exact_linalg.kernel_basis`` both record ``exact_linalg.kernel_basis``.
Spans are aggregated per (parent, name) in memory and written once, at the
end of the process.

``Field`` and ``Monomial`` are value types whose methods are the scalar
arithmetic of the inner loops; they get no spans, so their time counts as
the self time of the layer that calls them.  ``MonomialIdeal.__hash__``
gets a counter, not a span.

Observers turn call arguments and results into work counts.  They run
after the span closes, and their time is taken out of the caller's self
time and booked as the benchmark's own time, so the layers' self times
plus that time add up to the traced pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
from math import comb

clock = time.perf_counter

PACKAGE = "golod_lab"
VALUE_TYPES = {"Field", "Monomial"}
SPARSE_SPANS = {"exact_linalg.sparse_reduce_columns", "exact_linalg.sparse_in_span"}
ELIMINATIONS = {
    "exact_linalg.rref",
    "exact_linalg.extend_independent",
    "exact_linalg.sparse_reduce_columns",
}
BOUNDARY_SPANS = {
    "taylor_dga.StrandComplex.boundary_matrix",
    "taylor_dga.reduced_boundary",
    "taylor_dga.boundary",
}


class Tracer:
    def __init__(self):
        self.stack = [[None, 0.0]]  # [span name, time of direct children]
        self.spans = {}  # (parent name, name) -> [count, total s, self s]
        self.counts = {}
        self.seen_keys = set()
        self.lattices = {}  # id -> every lattice object returned (kept alive)
        self.originals = {}

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, fn, name, observe=None):
        stack, spans = self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = spans.get((parent[0], name))
                if rec is None:
                    rec = spans[(parent[0], name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if observe is not None:
                t1 = clock()
                observe(self, args, kwargs, result)
                parent[1] += clock() - t1
            return result

        return wrapper

    def wrap_generator(self, fn, name):
        step = self.wrap(next, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = step(it)
                except StopIteration:
                    return
                yield item

        return wrapper

    def summary(self):
        """Per-span totals and the raw counters, as JSON-ready data."""
        spans = [[p, n, c, tot, slf] for (p, n), (c, tot, slf) in sorted(
            self.spans.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))]
        counts = dict(self.counts)
        counts["taylor_dga.lattice_elems"] = sum(len(x) for x in self.lattices.values())
        for key, fn in (("lattice", "taylor_dga.lcm_lattice"),
                        ("strand", "homology_engine._strand_homology")):
            cache_info = getattr(self.originals.get(fn), "cache_info", None)
            info = cache_info() if cache_info else None
            counts[f"cache.{key}.hits"] = info.hits if info else 0
            counts[f"cache.{key}.misses"] = info.misses if info else 0
        return {"spans": spans, "counts": counts}


# ---------------------------------------------------------------------------
# observers: work counts at the layer boundaries


def _eliminated(tr, key, entries, rank):
    tr.add("exact_linalg.entries", entries)
    tr.add("exact_linalg.rank", rank)
    h = hash(key)
    if h in tr.seen_keys:
        tr.add("exact_linalg.repeats")
    tr.seen_keys.add(h)


def _obs_rref(tr, args, kwargs, result):
    m = args[0]
    _eliminated(tr, ("rref", m.field.char, m.entries), m.rows * m.cols, result.rank)


def _obs_extend(tr, args, kwargs, result):
    field, base, candidates = args
    vecs = [tuple(v) for v in base] + [tuple(v) for v in candidates]
    width = len(vecs[0]) if vecs else 0
    key = ("extend", field.char, len(base), tuple(vecs))
    _eliminated(tr, key, len(vecs) * width, len(result))


def _obs_sparse(tr, args, kwargs, result):
    field, columns = args
    frozen = frozenset(tuple(sorted(c.items())) for c in columns)
    _eliminated(tr, ("sparse", field.char, frozen), sum(len(c) for c in columns), len(result))


def _obs_degree_basis(tr, args, kwargs, result):
    ideal, u, i = args[:3]
    below = args[3] if len(args) > 3 else kwargs.get("gens_below")
    if below is None:
        below = tr.originals["taylor_dga.lcm_lattice"](ideal).generators_below(u)
    tr.add("taylor_dga.subsets_scanned", comb(len(below), i))
    tr.add("taylor_dga.basis_masks", len(result))


def _obs_boundary(tr, args, kwargs, result):
    tr.add("taylor_dga.boundary_nnz", len(result))


def _obs_lattice(tr, args, kwargs, result):
    tr.lattices.setdefault(id(result), result)


def _obs_chain_product(tr, args, kwargs, result):
    tr.add("massey_golod.product_terms", len(args[2]) * len(args[3]))


def _obs_p_series(tr, args, kwargs, result):
    tr.add("series_engine.resolution_gens", sum(result[0].coeffs[1:]))


OBSERVERS = {
    "exact_linalg.rref": _obs_rref,
    "exact_linalg.extend_independent": _obs_extend,
    "exact_linalg.sparse_reduce_columns": _obs_sparse,
    "taylor_dga.strand_degree_basis": _obs_degree_basis,
    "taylor_dga.reduced_boundary": _obs_boundary,
    "taylor_dga.boundary": _obs_boundary,
    "taylor_dga.lcm_lattice": _obs_lattice,
    "massey_golod.chain_product": _obs_chain_product,
    "series_engine.p_series": _obs_p_series,
}


# ---------------------------------------------------------------------------
# installation


def _layer(module_name):
    return module_name.rsplit(".", 1)[-1]


def _defined_in(fn, module):
    code = getattr(inspect.unwrap(fn), "__code__", None)
    return code is not None and code.co_filename == module.__file__


def install(tracer):
    """Wrap the package's public functions and methods; returns the tracer."""
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__):
        importlib.import_module(f"{PACKAGE}.{info.name}")
    modules = [m for name, m in sorted(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    replaced = {}  # id(original function) -> wrapper
    for mod in modules:
        layer = _layer(mod.__name__)
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if attr not in VALUE_TYPES:
                    _wrap_class(tracer, obj, f"{layer}.{attr}", mod)
            elif callable(obj) and _defined_in(obj, mod):
                name = f"{layer}.{attr}"
                tracer.originals[name] = obj
                if inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = tracer.wrap_generator(obj, name)
                else:
                    replaced[id(obj)] = tracer.wrap(obj, name, OBSERVERS.get(name))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
    he = sys.modules[PACKAGE + ".homology_engine"]
    tracer.originals["homology_engine._strand_homology"] = getattr(he, "_strand_homology", None)
    ideal_cls = sys.modules[PACKAGE + ".monomial_core"].MonomialIdeal
    ideal_hash = ideal_cls.__hash__

    def counted_hash(self):
        tracer.add("monomial_core.ideal_hashes")
        return ideal_hash(self)

    ideal_cls.__hash__ = counted_hash
    return tracer


def _wrap_class(tracer, cls, prefix, mod):
    for attr, obj in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        if isinstance(obj, (classmethod, staticmethod)):
            fn = obj.__func__
            if _defined_in(fn, mod):
                setattr(cls, attr, type(obj)(tracer.wrap(fn, f"{prefix}.{attr}")))
        elif inspect.isfunction(obj) and _defined_in(obj, mod):
            name = f"{prefix}.{attr}"
            setattr(cls, attr, tracer.wrap(obj, name, OBSERVERS.get(name)))
