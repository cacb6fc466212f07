"""Per-layer metrics from the span aggregates of a traced pass.

A layer is one ``golod_lab`` module.  Its ``self_s`` is the self time of
its spans, so the layers' ``self_s`` plus ``bench.self_s`` (the time outside
every span: interpreter start and exit, set-up outside the package, the
checks) add up to ``trace.pass_s``.  Everything runs in one thread, so busy
time is self time and nothing waits on another layer.
"""

from __future__ import annotations

from spans import BOUNDARY_SPANS, ELIMINATIONS, SPARSE_SPANS

LAYERS = (
    "exact_linalg", "monomial_core", "simplicial", "taylor_dga", "homology_engine",
    "massey_golod", "series_engine", "counterexample_search", "cli",
)
SOLVES = {"exact_linalg." + n for n in (
    "kernel_basis", "extend_independent", "solve", "rank", "rref",
    "quotient_coordinates", "sparse_reduce_columns", "sparse_in_span")}

# (name, unit, better)
METRICS = [
    ("exact_linalg.self_s", "s", "lower"),
    ("exact_linalg.dense_s", "s", "lower"),
    ("exact_linalg.sparse_s", "s", "lower"),
    ("exact_linalg.calls", "count", "lower"),
    ("exact_linalg.entries", "count", "lower"),
    ("exact_linalg.rank", "count", "lower"),
    ("exact_linalg.repeat_frac", "ratio", "lower"),
    ("taylor_dga.self_s", "s", "lower"),
    ("taylor_dga.subsets_scanned", "count", "lower"),
    ("taylor_dga.basis_masks", "count", "lower"),
    ("taylor_dga.boundary_s", "s", "lower"),
    ("taylor_dga.boundary_nnz", "count", "lower"),
    ("taylor_dga.lattice_s", "s", "lower"),
    ("taylor_dga.lattice_elems", "count", "lower"),
    ("taylor_dga.lattice_hit_frac", "ratio", "higher"),
    ("taylor_dga.strands_built", "count", "lower"),
    ("homology_engine.self_s", "s", "lower"),
    ("homology_engine.lookups", "count", "lower"),
    ("homology_engine.strand_reuse_frac", "ratio", "higher"),
    ("homology_engine.betti_calls", "count", "lower"),
    ("homology_engine.sparse_membership_calls", "count", "lower"),
    ("massey_golod.self_s", "s", "lower"),
    ("massey_golod.chain_products", "count", "lower"),
    ("massey_golod.product_terms", "count", "lower"),
    ("massey_golod.triples", "count", "lower"),
    ("massey_golod.apt_calls", "count", "lower"),
    ("series_engine.self_s", "s", "lower"),
    ("series_engine.systems", "count", "lower"),
    ("series_engine.resolution_gens", "count", "lower"),
    ("monomial_core.self_s", "s", "lower"),
    ("monomial_core.ideal_hashes", "count", "lower"),
    ("counterexample_search.self_s", "s", "lower"),
    ("counterexample_search.candidates", "count", "higher"),
    ("counterexample_search.hit_frac", "ratio", "higher"),
    ("simplicial.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]
UNITS = {name: unit for name, unit, _ in METRICS}


def _merge(traces):
    spans, counts = {}, {}
    for tr in traces:
        for parent, name, count, total, self_s in tr["spans"]:
            rec = spans.setdefault((parent, name), [0, 0.0, 0.0])
            rec[0] += count
            rec[1] += total
            rec[2] += self_s
        for key, value in tr["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return spans, counts


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(traces, search_stats=None):
    """Every per-layer metric except the ``trace.*`` and ``bench.*`` ones."""
    spans, counts = _merge(traces)

    def self_time(pred):
        return sum(rec[2] for (_, name), rec in spans.items() if pred(name))

    def calls(pred, parent=lambda p: True):
        return sum(rec[0] for (p, name), rec in spans.items()
                   if pred(name) and parent(str(p)))

    m = {f"{layer}.self_s": self_time(lambda n, l=layer: n.startswith(l + "."))
         for layer in LAYERS}
    m["exact_linalg.sparse_s"] = self_time(lambda n: n in SPARSE_SPANS)
    m["exact_linalg.dense_s"] = m["exact_linalg.self_s"] - m["exact_linalg.sparse_s"]
    eliminations = calls(lambda n: n in ELIMINATIONS)
    m["exact_linalg.calls"] = eliminations
    m["exact_linalg.entries"] = counts.get("exact_linalg.entries", 0)
    m["exact_linalg.rank"] = counts.get("exact_linalg.rank", 0)
    m["exact_linalg.repeat_frac"] = _ratio(counts.get("exact_linalg.repeats", 0), eliminations)
    for key in ("subsets_scanned", "basis_masks", "boundary_nnz", "lattice_elems"):
        m[f"taylor_dga.{key}"] = counts.get(f"taylor_dga.{key}", 0)
    m["taylor_dga.boundary_s"] = self_time(lambda n: n in BOUNDARY_SPANS)
    m["taylor_dga.lattice_s"] = self_time(
        lambda n: n == "taylor_dga.lcm_lattice" or n.startswith("taylor_dga.LcmLattice."))
    hits, misses = counts["cache.lattice.hits"], counts["cache.lattice.misses"]
    m["taylor_dga.lattice_hit_frac"] = _ratio(hits, hits + misses)
    m["taylor_dga.strands_built"] = calls(lambda n: n == "taylor_dga.StrandComplex.__init__")
    hits, misses = counts["cache.strand.hits"], counts["cache.strand.misses"]
    m["homology_engine.lookups"] = hits + misses
    m["homology_engine.strand_reuse_frac"] = _ratio(hits, hits + misses)
    m["homology_engine.betti_calls"] = calls(lambda n: n == "homology_engine.betti")
    m["homology_engine.sparse_membership_calls"] = calls(
        lambda n: n == "exact_linalg.sparse_in_span",
        lambda p: p == "homology_engine.chain_is_boundary")
    m["massey_golod.chain_products"] = calls(lambda n: n == "massey_golod.chain_product")
    m["massey_golod.product_terms"] = counts.get("massey_golod.product_terms", 0)
    m["massey_golod.triples"] = calls(
        lambda n: n in ("massey_golod.ternary_massey", "massey_golod.ternary_massey_generators"))
    m["massey_golod.apt_calls"] = calls(lambda n: n == "massey_golod.all_products_trivial")
    m["series_engine.systems"] = calls(lambda n: n in SOLVES,
                                       lambda p: p.startswith("series_engine."))
    m["series_engine.resolution_gens"] = counts.get("series_engine.resolution_gens", 0)
    m["monomial_core.ideal_hashes"] = counts.get("monomial_core.ideal_hashes", 0)
    candidates, hits = search_stats[:2] if search_stats else (0, 0)
    m["counterexample_search.candidates"] = candidates
    m["counterexample_search.hit_frac"] = _ratio(hits, candidates)
    return m
