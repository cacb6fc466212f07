"""Workload inputs, the library calls the child runs, and the answer checks.

Seed 0 gives the canonical inputs.  Any other seed renames the variables of
the ``paper`` and ``skeleton`` ideals and shuffles the order of their
generators (``paper``) or variables (``skeleton``), see ``relabel``.  The
checks compare only what relabeling leaves unchanged: the coarse Betti table,
the series, the Golod verdict and route, the Massey degree and the sorted
Massey multidegree.  ``search`` is a fixed deterministic stream.
"""

from __future__ import annotations

import random

PAPER_TOTALS = [1, 8, 14, 8, 1]
PAPER_COARSE = {
    (0, 0): 1,
    (1, 3): 4, (1, 4): 3, (1, 5): 1,
    (2, 5): 10, (2, 6): 4,
    (3, 6): 2, (3, 7): 6,
    (4, 9): 1,
}
PAPER_P = [1, 5, 18, 64, 227, 805]
PAPER_Q = [1, 5, 18, 64, 227, 806]
PAPER_MASSEY_MDEG = [1, 1, 2, 2, 3]  # sorted (1, 2, 1, 2, 3)
PAPER_ROLES = ("m_a", "m_b", "m_c")
SKELETON_ROLES = (
    ("a", {"x1", "x2_1", "x2_2"}),
    ("b", {"y1", "y2_1", "y2_2"}),
    ("c", {"z_1", "z_2", "z_3"}),
)
SEARCH_ARGS = dict(n_vars=7, max_gens=9, budget=150)
SEARCH_STATS = [150, 16, 0, True]  # candidates, pattern hits, survivors, exhausted


def relabel(ideal, seed, shuffle):
    """The ideal with renamed variables and one order shuffled.

    ``shuffle`` is ``"generators"`` or ``"variables"``: the order the seed
    permutes.  Each workload shuffles the order its run time does not depend
    on, so that seeds change the input but not the amount of work: the
    generator order fixes the masks, and so the sparse elimination order, of
    ``skeleton`` (reordering moved one pass between 27 s and 40 s), and the
    variable order changes the pivots of the resolution over Q (4% more
    field operations on one seed).  Returns ``(ideal, order)`` where generator
    ``k`` of the result is generator ``order[k]`` of the input.  Seed 0
    returns the input unchanged.
    """
    from golod_lab.monomial_core import MonomialIdeal

    n, g = ideal.n_vars, ideal.n_gens
    if seed == 0:
        return ideal, list(range(g))
    rng = random.Random(seed)
    perm = list(range(n))  # variable j of the result is variable perm[j]
    order = list(range(g))
    rng.shuffle(order if shuffle == "generators" else perm)
    names = [f"w{j}_{rng.randrange(1000)}" for j in range(n)]
    rows = [[ideal.gens[k].exps[perm[j]] for j in range(n)] for k in order]
    return MonomialIdeal.from_exponents(names, rows), order


# ---------------------------------------------------------------------------
# paper-q and paper-f2: five golod-lab commands, each in a fresh interpreter


def paper_commands(field, seed, ideal_path):
    """(name, argv, expected exit code, check) for each command of one pass.

    For seed 0 the preset is used by name; otherwise the relabeled ideal is
    written to ``ideal_path`` and the Massey roles are passed as indices.
    """
    from golod_lab.monomial_core import (
        counterexample_generator_index,
        counterexample_ideal,
        format_ideal,
    )

    if seed == 0:
        source = ["--example", "paper"]
        gens = ",".join(PAPER_ROLES)
    else:
        ideal, order = relabel(counterexample_ideal(), seed, "generators")
        with open(ideal_path, "w") as fh:
            fh.write(format_ideal(ideal))
        source = ["--ideal", ideal_path]
        gens = ",".join(str(order.index(counterexample_generator_index(r)))
                        for r in PAPER_ROLES)
    common = source + ["--field", field, "--format", "json"]
    return [
        ("betti", ["betti"] + common, 0, _check_betti),
        ("products", ["products"] + common, 0, _check_products),
        ("massey3", ["massey3", "--gens", gens] + common, 1, _check_massey3),
        ("golod", ["golod"] + common, 1, _check_golod),
        ("series", ["series", "--trunc", "5"] + common, 1, _check_series),
    ]


def _expect(out, what, got, want):
    if got != want:
        out.append(f"{what}: got {got!r}, want {want!r}")


def _check_betti(p):
    out = []
    _expect(out, "totals", p["totals"], PAPER_TOTALS)
    coarse = {(c["i"], c["j"]): c["dim"] for c in p["coarse"]}
    _expect(out, "coarse table", coarse, PAPER_COARSE)
    return out


def _check_products(p):
    out = []
    _expect(out, "trivial", p["trivial"], True)
    return out


def _check_massey3(p):
    out = []
    m = p["massey"]
    for key, want in (("defined", True), ("unique", True), ("zero", False),
                      ("homological_degree", 4)):
        _expect(out, f"massey.{key}", m[key], want)
    _expect(out, "sorted multidegree", sorted(m["multidegree"] or []), PAPER_MASSEY_MDEG)
    _expect(out, "routes_agree", p.get("routes_agree"), True)
    return out


def _check_golod(p):
    out = []
    _expect(out, "status", p["status"], "NotGolod")
    _expect(out, "route", p["route"], "massey-arity-3")
    return out


def _check_series(p):
    out = []
    _expect(out, "p", p["p"], PAPER_P)
    _expect(out, "q", p["q"], PAPER_Q)
    _expect(out, "first_divergence", p["first_divergence"], 5)
    return out


# ---------------------------------------------------------------------------
# skeleton and search: library calls in a fresh interpreter


def library_inputs(workload, seed):
    """Inputs built during set-up, before the first timed operation."""
    if workload == "search":
        return None
    from golod_lab import complex_of, counterexample_ideal, polarize, skeleton
    from golod_lab import stanley_reisner_ideal

    pol, _ = polarize(counterexample_ideal())
    gamma = stanley_reisner_ideal(skeleton(complex_of(pol), 4))
    roles = {}
    for name, support in SKELETON_ROLES:
        for k, g in enumerate(gamma.gens):
            if {gamma.variables[j] for j in g.support} == support:
                roles[name] = k
    gamma, order = relabel(gamma, seed, "variables")
    return gamma, [order.index(roles[name]) for name, _ in SKELETON_ROLES]


def library_operations(workload, inputs):
    """(name, thunk) per operation; each thunk returns JSON-ready data."""
    import golod_lab as gl

    if workload == "search":
        from golod_lab.counterexample_search import SearchStats, search

        def run_search():
            stats = SearchStats()
            hits = list(search(SEARCH_ARGS["n_vars"], SEARCH_ARGS["max_gens"],
                               budget=SEARCH_ARGS["budget"], seeds=[], stats=stats))
            return {
                "stats": [stats.candidates, stats.pattern_hits, stats.survivors,
                          stats.budget_exhausted],
                "hits": len(hits),
                "counterexamples": sum(h.is_counterexample for h in hits),
            }

        return [("search", run_search)]

    from golod_lab.homology_engine import homology_basis

    gamma, (a, b, c) = inputs

    def massey(res):
        return {
            "defined": res.defined,
            "zero": res.value_is_zero,
            "hom_degree": res.hom_degree,
            "multidegree": sorted(res.multidegree or []),
        }

    def generator_class(k):
        return homology_basis(gamma, gl.QQ, tuple(gamma.gens[k].exps), 1)[0]

    return [
        ("all_products_trivial",
         lambda: {"trivial": gl.all_products_trivial(gamma, gl.QQ)[0]}),
        ("ternary_massey_generators",
         lambda: massey(gl.ternary_massey_generators(gamma, gl.QQ, a, b, c,
                                                     b2_certified=True))),
        ("ternary_massey",
         lambda: massey(gl.ternary_massey(gamma, gl.QQ, generator_class(a),
                                          generator_class(b), generator_class(c),
                                          b2_certified=True))),
    ]


SKELETON_MASSEY = {"defined": True, "zero": False, "hom_degree": 4, "multidegree": [1] * 9}
LIBRARY_EXPECTED = {
    "search": {"search": {"stats": SEARCH_STATS, "hits": 16, "counterexamples": 0}},
    "skeleton": {
        "all_products_trivial": {"trivial": True},
        "ternary_massey_generators": SKELETON_MASSEY,
        "ternary_massey": SKELETON_MASSEY,
    },
}


def check_library(workload, name, result):
    out = [result["error"]] if "error" in result else []
    want = LIBRARY_EXPECTED[workload][name]
    for key, value in want.items():
        _expect(out, key, result.get(key), value)
    return out
