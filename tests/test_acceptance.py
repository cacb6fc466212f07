"""Acceptance suite: one test per criterion, each printing a PASS line.

All arithmetic is exact, so every comparison below is equality (tolerance
zero).  Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import json
from itertools import combinations

from conftest import (
    expand_rational,
    homology_product,
    ideal_corpus,
    positional_columns,
    product_reduced,
    reduced_boundary,
    reduced_cohomology_dims,
    ref_coprime,
)
from golod_lab.cli import main
from golod_lab.exact_linalg import GF2, GF3, QQ
from golod_lab.homology_engine import betti, homology_basis, strand
from golod_lab.massey_golod import (
    all_products_trivial,
    chain_product,
    golod_decide,
    pair_criterion,
    ternary_massey,
    ternary_massey_generators,
)
from golod_lab.monomial_core import counterexample_ideal, polarize
from golod_lab.series_engine import p_series, q_series, series_compare
from golod_lab.simplicial import complex_of, skeleton, stanley_reisner_ideal
from golod_lab.counterexample_search import SearchStats, search
from golod_lab.taylor_dga import fiber_complex, generators_below, lcm_lattice

EXPECTED_COARSE = {
    (0, 0): 1,
    (1, 3): 4,
    (1, 4): 3, (2, 5): 10, (3, 6): 2,
    (1, 5): 1, (2, 6): 4, (3, 7): 6,
    (4, 9): 1,
}


def _gen_class(ideal, field, idx):
    classes = homology_basis(ideal, field, tuple(ideal.gens[idx].exps), 1)
    assert len(classes) == 1
    return classes[0]


def test_criterion_01_betti_table():
    ideal = counterexample_ideal()
    for field in (QQ, GF2, GF3):
        bd = betti(ideal, field)
        assert bd.coarse == EXPECTED_COARSE
        assert bd.totals == (1, 8, 14, 8, 1)
    print("ACCEPTANCE 1: PASS - Betti diagram reproduced exactly over Q, F_2, F_3")


def test_criterion_02_trivial_products():
    ideal = counterexample_ideal()
    for field in (QQ, GF2):
        ok, witness = all_products_trivial(ideal, field)
        assert ok and witness is None
    print("ACCEPTANCE 2: PASS - every product of positive-degree classes vanishes over Q and F_2")


def test_criterion_03_nonzero_ternary_massey(capsys):
    code = main(["massey3", "--example", "paper", "--gens", "m_a,m_b,m_c", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    m = payload["massey"]
    assert m["defined"] is True and m["unique"] is True and m["zero"] is False
    assert m["multidegree"] == [1, 2, 1, 2, 3]
    assert m["homological_degree"] == 4
    assert len(m["value"]["coordinates"]) == 1  # one-dimensional homology group
    assert payload["routes_agree"] is True
    with capsys.disabled():
        print(
            "\nACCEPTANCE 3: PASS - ternary Massey product defined, unique, nonzero; "
            "defining-system and combinatorial representatives agree in the "
            "one-dimensional group at multidegree (1,2,1,2,3), degree 4"
        )


def test_criterion_04_golod_verdict():
    ideal = counterexample_ideal()
    for field in (QQ, GF2):
        verdict = golod_decide(ideal, field)
        assert verdict.status == "NotGolod"
        assert verdict.route == "massey-arity-3"
        assert "regularity 5" in verdict.reason
        assert verdict.witness is not None
    print("ACCEPTANCE 4: PASS - NotGolod via the regularity route with a ternary Massey witness, over Q and F_2")


def test_criterion_05_series_discrepancy():
    ideal = counterexample_ideal()
    q = q_series(ideal, QQ, 5)
    assert q.coeffs == (1, 5, 18, 64, 227, 806)
    p, _ = p_series(ideal, QQ, 5)
    assert p.coeffs == (1, 5, 18, 64, 227, 805)
    assert series_compare(p, q) == (5, -1)
    print("ACCEPTANCE 5: PASS - series (1,5,18,64,227,805) vs (1,5,18,64,227,806), first divergence at 5, caps certified")


def test_criterion_06_rational_cross_check():
    out = expand_rational([1, 5, 10, 10, 5, 1], [1, 0, -8, -14, -8, 0, 1], 5)
    assert out.coeffs == (1, 5, 18, 64, 227, 805)
    print("ACCEPTANCE 6: PASS - printed rational form expands to (1,5,18,64,227,805)")


def test_criterion_07_golod_positive_control():
    from golod_lab.monomial_core import MonomialIdeal

    m2 = MonomialIdeal.from_strings(("x", "y"), ["x^2", "x*y", "y^2"])
    verdict = golod_decide(m2, QQ)
    assert verdict.status == "Golod"
    q = q_series(m2, QQ, 6)
    p, _ = p_series(m2, QQ, 6)
    assert p.coeffs == q.coeffs == expand_rational([1, 2, 1], [1, 0, -3, -2], 6).coeffs
    print("ACCEPTANCE 7: PASS - square of the maximal ideal: Golod, with matching series to order 6")


def _check_boundary_squared(ideal, field):
    for u in lcm_lattice(ideal):
        s = strand(ideal, QQ, tuple(u))
        for i in s.degrees():
            lower = positional_columns(s, i)
            for col in positional_columns(s, i + 1):
                acc = {}
                for r, x in col.items():
                    for q, y in lower[r].items():
                        acc[q] = field.of(acc.get(q, 0) + x * y)
                assert all(v == 0 for v in acc.values())


def _check_leibniz(ideal, field):
    g = ideal.n_gens
    for maskI in range(1, 1 << g):
        for maskJ in range(maskI + 1, 1 << g):
            if maskI & maskJ:
                continue
            lhs = {}
            pr = product_reduced(ideal, maskI, maskJ)
            if pr is not None:
                sgn, union = pr
                for rest, sb in reduced_boundary(ideal, union).items():
                    lhs[rest] = lhs.get(rest, 0) + sgn * sb
            rhs = {}
            for rest, sb in reduced_boundary(ideal, maskI).items():
                p = product_reduced(ideal, rest, maskJ)
                if p is not None:
                    rhs[p[1]] = rhs.get(p[1], 0) + sb * p[0]
            sign = -1 if bin(maskI).count("1") % 2 else 1
            for rest, sb in reduced_boundary(ideal, maskJ).items():
                p = product_reduced(ideal, maskI, rest)
                if p is not None:
                    rhs[p[1]] = rhs.get(p[1], 0) + sign * sb * p[0]
            assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


def _classes_of(ideal, field):
    lat = lcm_lattice(ideal)
    out = []
    for u in lat:
        for i in range(1, len(generators_below(ideal, u)) + 1):
            out.extend(homology_basis(ideal, field, tuple(u), i))
    return out


def _check_commutativity(ideal, field, classes):
    for a in classes:
        for b in classes:
            ab = chain_product(ideal, field, a.chain(), b.chain(), a.multidegree, b.multidegree)
            ba = chain_product(ideal, field, b.chain(), a.chain(), b.multidegree, a.multidegree)
            sign = (-1) ** (a.hom_degree * b.hom_degree)
            assert ab == {m: field.of(sign) * c for m, c in ba.items()}


def _check_pair_criterion(ideal, field):
    for i, j in combinations(range(ideal.n_gens), 2):
        if not ref_coprime(ideal.gens[i].exps, ideal.gens[j].exps):
            continue
        a = _gen_class(ideal, field, i)
        b = _gen_class(ideal, field, j)
        vanish = not any(homology_product(ideal, field, a, b).coordinates)
        assert pair_criterion(ideal, i, j) == vanish


def _check_duality(ideal, field):
    lat = lcm_lattice(ideal)
    for u in lat:
        below = generators_below(ideal, u)
        dims = reduced_cohomology_dims(fiber_complex(ideal, tuple(u)), field)
        for i in range(1, len(below) + 1):
            assert strand(ideal, field, tuple(u)).dimension(i) == dims.get(
                len(below) - i - 1, 0
            )


def test_criterion_08_property_suites():
    corpus = [counterexample_ideal()] + ideal_corpus(100, seed=20260811)
    serre_checked = 0
    field_checked = 0
    for k, ideal in enumerate(corpus):
        _check_boundary_squared(ideal, QQ)
        _check_leibniz(ideal, QQ)
        classes = _classes_of(ideal, QQ)
        _check_commutativity(ideal, QQ, classes)
        _check_pair_criterion(ideal, QQ)
        _check_duality(ideal, QQ)
        if k % 7 == 0 and k > 0:
            q = q_series(ideal, QQ, 4)
            p, _ = p_series(ideal, QQ, 4)
            assert all(a <= b for a, b in zip(p.coeffs, q.coeffs))
            serre_checked += 1
        if ideal.n_gens <= 5:
            # fiber complexes on at most five vertices carry no torsion
            mq = betti(ideal, QQ).multigraded
            m2 = betti(ideal, GF2).multigraded
            assert mq == m2
            field_checked += 1
    assert len(corpus) >= 101 and serre_checked >= 10 and field_checked >= 40
    print(
        f"ACCEPTANCE 8: PASS - property battery on {len(corpus)} ideals "
        f"(series inequality on {serre_checked}, field independence on {field_checked}), zero failures"
    )


def test_criterion_09_skeleton_example():
    pol, _ = polarize(counterexample_ideal())
    gamma = stanley_reisner_ideal(skeleton(complex_of(pol), 4))
    assert gamma.n_vars == 9
    ok, witness = all_products_trivial(gamma, QQ)
    assert ok and witness is None
    roles = {}
    for name, sup in (("a", {"x1", "x2_1", "x2_2"}), ("b", {"y1", "y2_1", "y2_2"}),
                      ("c", {"z_1", "z_2", "z_3"})):
        for i, g in enumerate(gamma.gens):
            if {gamma.variables[j] for j in g.support} == sup:
                roles[name] = i
    res = ternary_massey_generators(gamma, QQ, roles["a"], roles["b"], roles["c"],
                                    b2_certified=True)
    assert res.defined and res.value_is_zero is False
    general = ternary_massey(
        gamma,
        QQ,
        _gen_class(gamma, QQ, roles["a"]),
        _gen_class(gamma, QQ, roles["b"]),
        _gen_class(gamma, QQ, roles["c"]),
        b2_certified=True,
    )
    assert general.defined and general.value_is_zero is False
    print(
        "ACCEPTANCE 9: PASS - 4-skeleton ring has trivial products and a nonzero "
        "ternary Massey class of the generator images"
    )


def test_criterion_10_search_negative_controls():
    stats4 = SearchStats()
    assert list(search(4, 8, budget=5000, stats=stats4)) == []
    assert not stats4.budget_exhausted
    stats7 = SearchStats()
    assert list(search(6, 7, budget=5000, stats=stats7)) == []
    stats97 = SearchStats()
    assert list(search(9, 7, budget=2000, stats=stats97)) == []
    # non-vacuous control: candidates do get generated and evaluated at seven
    # variables, but none survives the full product verification (squarefree
    # rings on at most eight variables cannot be counterexamples)
    stats_small = SearchStats()
    hits = list(search(7, 9, budget=150, seeds=[], stats=stats_small))
    assert stats_small.candidates > 0
    assert all(not h.is_counterexample for h in hits)
    total = stats4.candidates + stats7.candidates + stats97.candidates + stats_small.candidates
    print(
        "ACCEPTANCE 10: PASS - no survivors with <= 4 variables or <= 7 generators; "
        f"of {stats_small.candidates} seven-variable candidates, "
        f"{len(hits)} reached full verification and none survived it "
        f"({total} candidates in total)"
    )
