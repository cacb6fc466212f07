import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import (
    absorbed_columns,
    homology_product,
    ideal_corpus,
    product_reduced,
    random_squarefree_ideal,
    ref_coprime,
    ref_lcm,
)
from golod_lab import counterexample_search, homology_engine, massey_golod
from golod_lab.counterexample_search import search, seed_pattern
from golod_lab.exact_linalg import GF2, GF3, QQ
from golod_lab.homology_engine import BettiData, betti, homology_basis, strand
from golod_lab.massey_golod import (
    ProductWitness,
    _box_deficit,
    _massey_arity_bound,
    all_products_trivial,
    chain_product,
    golod_decide,
    pair_criterion,
    ternary_massey,
    ternary_massey_generators,
    ternary_products_vanish,
)
from golod_lab.monomial_core import (
    MonomialIdeal,
    counterexample_ideal,
    lcm_of,
    polarize,
)
from golod_lab.series_engine import _box_product, box_series, p_series, q_series
from golod_lab.simplicial import complex_of, skeleton, stanley_reisner_ideal
from golod_lab.taylor_dga import (
    generators_below,
    lcm_lattice,
    mask_of,
    product_sign,
    support_mask,
)

CI = MonomialIdeal.from_strings(("x", "y"), ["x^2", "y^2"])
M2 = MonomialIdeal.from_strings(("x", "y"), ["x^2", "x*y", "y^2"])
# the boundary of a 7-simplex plus an isolated vertex (reg 7, pd 8)
_V9 = tuple(f"x{i}" for i in range(1, 10))
SPHERE_AND_POINT = MonomialIdeal.from_strings(
    _V9, ["*".join(_V9[:8])] + [f"x9*x{i}" for i in range(1, 9)]
)


def generator_class(ideal, field, idx):
    classes = homology_basis(ideal, field, tuple(ideal.gens[idx].exps), 1)
    assert len(classes) == 1
    return classes[0]


def test_generator_product_vanishes(example_ideal):
    a = generator_class(example_ideal, QQ, 0)
    b = generator_class(example_ideal, QQ, 3)
    assert not any(homology_product(example_ideal, QQ, a, b).coordinates)


def test_complete_intersection_product_nonzero():
    a = generator_class(CI, QQ, 0)
    b = generator_class(CI, QQ, 1)
    assert any(homology_product(CI, QQ, a, b).coordinates)


def test_overlapping_multidegrees_vanish_for_squarefree():
    ideal = MonomialIdeal.from_strings(("x", "y", "z"), ["x*y", "y*z"])
    a = generator_class(ideal, QQ, 0)
    b = generator_class(ideal, QQ, 1)
    # by the definition: the coefficient x*y * y*z / (x*y*z) = y is not constant
    assert product_reduced(ideal, mask_of([0]), mask_of([1])) is None
    assert chain_product(ideal, QQ, a.chain(), b.chain(), a.multidegree, b.multidegree) == {}


def _per_term_product(ideal, field, ca, cb):
    """The product of two chains by the definition: ``product_reduced`` on
    every pair of terms, summed."""
    out = {}
    for mi, x in ca.items():
        for mj, y in cb.items():
            if (r := product_reduced(ideal, mi, mj)) is not None:
                sign, union = r
                out[union] = field.of(out.get(union, 0) + sign * x * y)
    return {m: c for m, c in out.items() if c}


def _paper_beside_its_copy():
    """The paper's ideal and a copy of it in disjoint variables, with the
    multidegrees of the two-term degree-3 class at (1, 2, 0, 2, 2) and of
    its copy."""
    paper = counterexample_ideal()
    pad = [0] * paper.n_vars
    rows = [list(g.exps) + pad for g in paper.gens] + [pad + list(g.exps) for g in paper.gens]
    names = paper.variables + tuple(f"{v}_copy" for v in paper.variables)
    u = (1, 2, 0, 2, 2)
    return MonomialIdeal.from_exponents(names, rows), [u + tuple(pad), tuple(pad) + u]


def test_chain_product_matches_the_per_term_reference():
    """chain_product tests the multidegrees of its two strands once; it
    agrees with the per-term reference on every ordered pair of homology
    basis classes of the paper's ideal and the 100 corpus ideals, and of the
    two strands of the paper beside its copy whose two-term classes multiply
    to four terms, over Q, F_2 and F_3; both are empty on non-coprime pairs,
    and some product has more than one term."""
    pairs = Counter()
    doubled, strands = _paper_beside_its_copy()
    for field in (QQ, GF2, GF3):
        inputs = [(ideal, lcm_lattice(ideal)) for ideal in [counterexample_ideal()] + ideal_corpus()]
        for ideal, lattice in inputs + [(doubled, strands)]:
            classes = [c for u in lattice for i in strand(ideal, field, u).degrees()
                       for c in strand(ideal, field, u).classes(i)]
            for a in classes:
                for b in classes:
                    want = _per_term_product(ideal, field, a.chain(), b.chain())
                    got = chain_product(
                        ideal, field, a.chain(), b.chain(), a.multidegree, b.multidegree
                    )
                    assert got == want
                    coprime = not support_mask(a.multidegree) & support_mask(b.multidegree)
                    assert coprime or not want
                    pairs[coprime] += 1
                    pairs["several terms"] += len(want) > 1
    assert pairs[True] and pairs[False] and pairs["several terms"]


def test_all_products_trivial_verdicts(example_ideal):
    ok, witness = all_products_trivial(example_ideal, QQ)
    assert ok and witness is None
    ok2, _ = all_products_trivial(example_ideal, GF2)
    assert ok2
    bad, witness = all_products_trivial(CI, QQ)
    assert not bad
    assert isinstance(witness, ProductWitness)
    assert witness.alpha.hom_degree == 1 and witness.beta.hom_degree == 1
    okm2, _ = all_products_trivial(M2, QQ)
    assert okm2


def test_pair_criterion_examples(example_ideal):
    assert pair_criterion(example_ideal, 0, 3)  # a third generator divides the lcm
    assert not pair_criterion(CI, 0, 1)
    with pytest.raises(ValueError):
        pair_criterion(example_ideal, 0, 1)  # not coprime


def test_pair_criterion_matches_linear_algebra():
    for ideal in ideal_corpus(40, seed=71):
        for i, j in combinations(range(ideal.n_gens), 2):
            if not ref_coprime(ideal.gens[i].exps, ideal.gens[j].exps):
                continue
            a = generator_class(ideal, QQ, i)
            b = generator_class(ideal, QQ, j)
            vanish = not any(homology_product(ideal, QQ, a, b).coordinates)
            assert pair_criterion(ideal, i, j) == vanish


def test_ternary_massey_counterexample(example_ideal):
    a = generator_class(example_ideal, QQ, 0)
    b = generator_class(example_ideal, QQ, 3)
    c = generator_class(example_ideal, QQ, 6)
    res = ternary_massey(example_ideal, QQ, a, b, c, b2_certified=True)
    assert res.defined and res.unique
    assert res.value_is_zero is False
    assert res.multidegree == (1, 2, 1, 2, 3)
    assert res.hom_degree == 4
    assert len(res.value.coordinates) == 1


def test_ternary_massey_undefined_for_complete_intersection():
    a = generator_class(CI, QQ, 0)
    b = generator_class(CI, QQ, 1)
    res = ternary_massey(CI, QQ, a, b, a)
    assert not res.defined
    assert "nonzero" in res.obstruction


def test_ternary_massey_zero_for_square_of_maximal_ideal():
    a = generator_class(M2, QQ, 0)
    b = generator_class(M2, QQ, 1)
    c = generator_class(M2, QQ, 2)
    res = ternary_massey(M2, QQ, a, b, c, b2_certified=True)
    assert res.defined and res.value_is_zero


def test_combinatorial_representative_counterexample(example_ideal):
    res = ternary_massey_generators(example_ideal, QQ, 0, 3, 6)
    assert res.defined
    assert dict(res.value_chain) == {
        mask_of([0, 1, 3, 6]): QQ.of(-1),
        mask_of([0, 3, 4, 6]): QQ.of(-1),
    }
    assert res.value_is_zero is False
    # the defining system is made of single subsets
    s, t = res.system
    assert dict(s) == {mask_of([0, 1, 3]): QQ.of(-1)}
    assert dict(t) == {mask_of([3, 4, 6]): QQ.of(-1)}


def test_combinatorial_route_agrees_with_defining_system(example_ideal):
    comb = ternary_massey_generators(example_ideal, QQ, 0, 3, 6)
    a = generator_class(example_ideal, QQ, 0)
    b = generator_class(example_ideal, QQ, 3)
    c = generator_class(example_ideal, QQ, 6)
    gen = ternary_massey(example_ideal, QQ, a, b, c)
    assert comb.value.coordinates == gen.value.coordinates


def test_combinatorial_route_precondition_reports():
    res = ternary_massey_generators(counterexample_ideal(), QQ, 0, 1, 3)
    assert not res.defined
    assert "coprime" in res.obstruction
    res2 = ternary_massey_generators(CI, QQ, 0, 1, 1)
    assert not res2.defined


def _ref_triple_filler(ideal, field, i, mid, j):
    """The filler as the strand at lcm(g_i, g_j) solves it: the boundary of
    {i, mid, j} there is sigma * e_{i, j}, and sigma^2 = 1."""
    triple = mask_of([i, mid, j])
    pair = mask_of([i, j])
    bnd = strand(ideal, field, ref_lcm(ideal.gens[i].exps, ideal.gens[j].exps)).boundary(triple)
    if set(bnd) != {pair}:
        raise AssertionError("filler boundary has unexpected support")
    sign = product_sign(mask_of([i]), mask_of([j]))
    return {triple: field.of(sign * bnd[pair])}


def test_triple_filler_is_the_strands_solution(monkeypatch):
    """The written-down filler is the one the strand's differential solves,
    on every (a, ab, b) and (b, bc, c) the combinatorial route reaches: on
    the paper's ideal, its polarization, reorderings of both (where the
    bridge also falls outside its pair), the 4-skeleton ideal with roles
    0, 2, 3 and the 150 candidates of the pattern search, over Q, F_2, F_3."""
    reached = []
    ring = []
    real_generators = massey_golod.ternary_massey_generators
    real_filler = massey_golod._triple_filler

    def generators(ideal, field, a, b, c, b2_certified=False):
        ring[:] = [ideal]
        return real_generators(ideal, field, a, b, c, b2_certified)

    def filler(field, i, mid, j):
        reached.append((ring[0], i, mid, j))
        return real_filler(field, i, mid, j)

    monkeypatch.setattr(massey_golod, "_triple_filler", filler)
    monkeypatch.setattr(counterexample_search, "ternary_massey_generators", generators)
    pol, roles = seed_pattern()
    cases = [(counterexample_ideal(), (0, 3, 6)), (pol, (roles.a, roles.b, roles.c))]
    for ideal, abc in list(cases):
        for seed in range(4):
            perm = list(range(ideal.n_gens))
            random.Random(seed).shuffle(perm)
            shuffled = MonomialIdeal(ideal.variables, tuple(ideal.gens[k] for k in perm))
            cases.append((shuffled, tuple(perm.index(k) for k in abc)))
    cases.append((stanley_reisner_ideal(skeleton(complex_of(pol), 4)), (0, 2, 3)))
    for ideal, abc in cases:
        assert generators(ideal, QQ, *abc).value_is_zero is False
    assert len(list(counterexample_search.search(7, 9, budget=150, seeds=[]))) == 16
    assert len(reached) > 2 * len(cases)
    assert {min(i, j) < mid < max(i, j) for _, i, mid, j in reached} == {True, False}
    for field in (QQ, GF2, GF3):
        for ideal, i, mid, j in reached:
            assert real_filler(field, i, mid, j) == _ref_triple_filler(ideal, field, i, mid, j)


def test_combinatorial_route_asks_one_strand(monkeypatch):
    """The fillers are written down, so the combinatorial route asks a strand
    only for its value's boundary test: once, where it asked three times
    while each filler read its sign off a strand."""
    asked = []
    real = homology_engine.strand

    def counted(ideal, field, u):
        asked.append(u)
        return real(ideal, field, u)

    monkeypatch.setattr(homology_engine, "strand", counted)
    monkeypatch.setattr(massey_golod, "strand", counted)
    res = ternary_massey_generators(counterexample_ideal(), QQ, 0, 3, 6)
    assert res.value_is_zero is False
    assert asked == [(1, 2, 1, 2, 3)]


def test_massey_stable_under_generator_reordering(example_ideal):
    rng = random.Random(81)
    perm = list(range(8))
    rng.shuffle(perm)
    inv = {g: i for i, g in enumerate(perm)}
    reordered = MonomialIdeal(
        example_ideal.variables, tuple(example_ideal.gens[i] for i in perm)
    )
    res = ternary_massey_generators(reordered, QQ, inv[0], inv[3], inv[6])
    assert res.defined and res.value_is_zero is False
    assert len(res.value.coordinates) == 1


def test_massey_grading(example_ideal):
    res = ternary_massey_generators(example_ideal, QQ, 0, 3, 6)
    degs = [tuple(example_ideal.gens[i].exps) for i in (0, 3, 6)]
    assert res.multidegree == tuple(sum(c) for c in zip(*degs))
    assert res.hom_degree == 1 + 1 + 1 + 1


def test_two_linear_strand_exclusion(example_ideal):
    # a nonzero ternary value forces every factor at least two above linear
    res = ternary_massey_generators(example_ideal, QQ, 0, 3, 6)
    assert res.value_is_zero is False
    for idx in (0, 3, 6):
        assert example_ideal.gens[idx].degree >= 1 + 2


def test_satisfies_B(example_ideal):
    # property B up to arity 3: trivial products, then vanishing ternary ones
    ok2, _ = all_products_trivial(example_ideal, QQ)
    assert ok2
    ok3, witness = ternary_products_vanish(example_ideal, QQ)
    assert not ok3
    alpha, beta, gamma, res = witness
    assert {alpha.multidegree, beta.multidegree, gamma.multidegree} == {
        (1, 2, 0, 0, 0),
        (0, 0, 1, 2, 0),
        (0, 0, 0, 0, 3),
    }
    assert res.value_is_zero is False
    principal = MonomialIdeal.from_strings(("x", "y"), ["x*y"])
    ok2, _ = all_products_trivial(principal, QQ)
    ok3, _ = ternary_products_vanish(principal, QQ)
    assert ok2 and ok3


def test_graded_commutativity_random():
    for ideal in ideal_corpus(12, seed=91, max_gens=4):
        lat = lcm_lattice(ideal)
        classes = []
        for u in lat:
            for i in range(1, len(generators_below(ideal, u)) + 1):
                classes.extend(homology_basis(ideal, QQ, tuple(u), i))
        for a in classes:
            for b in classes:
                ab = chain_product(ideal, QQ, a.chain(), b.chain(), a.multidegree, b.multidegree)
                ba = chain_product(ideal, QQ, b.chain(), a.chain(), b.multidegree, a.multidegree)
                sign = (-1) ** (a.hom_degree * b.hom_degree)
                want = {m: QQ.of(sign) * c for m, c in ba.items()}
                assert ab == want


def test_coprime_loops_match_brute_force():
    """The product and ternary loops run only coprime multidegrees; over Q and
    F_2 they answer as brute force over every pair and triple of classes.

    On the paper's ideal, ideal_corpus(30) and 20 random squarefree ideals:
    chain_product of two basis classes is nonzero exactly when their
    multidegrees are coprime; all_products_trivial agrees with
    homology_product over every ordered pair, and its witness product is
    nonzero; where products are trivial, ternary_products_vanish agrees with
    ternary_massey over every ordered triple (the paper's 31 classes over Q
    only, for time).
    """
    rng = random.Random(20261018)
    paper = counterexample_ideal()
    ideals = [paper] + ideal_corpus(30) + [random_squarefree_ideal(rng) for _ in range(20)]
    verdicts = Counter()
    for field in (QQ, GF2):
        for ideal in ideals:
            classes = [c for u in lcm_lattice(ideal) for i in strand(ideal, field, u).degrees()
                       for c in strand(ideal, field, u).classes(i)]
            for a in classes:
                for b in classes:
                    coprime = ref_coprime(a.multidegree, b.multidegree)
                    prod = chain_product(
                        ideal, field, a.chain(), b.chain(), a.multidegree, b.multidegree
                    )
                    assert bool(prod) == coprime
            trivial = all(not any(homology_product(ideal, field, a, b).coordinates)
                          for a in classes for b in classes)
            ok, witness = all_products_trivial(ideal, field)
            assert ok == trivial
            if not ok:
                assert any(homology_product(ideal, field, witness.alpha, witness.beta).coordinates)
                verdicts["binary"] += 1
                continue
            if ideal is paper and field != QQ:
                continue
            values = [ternary_massey(ideal, field, a, b, c, b2_certified=True)
                      for a in classes for b in classes for c in classes]
            assert all(res.defined for res in values)
            ok3, _ = ternary_products_vanish(ideal, field)
            assert ok3 == all(res.value_is_zero for res in values)
            verdicts["ternary" if ok3 else "nonzero ternary"] += 1
    assert verdicts["binary"] > 10 and verdicts["ternary"] > 10
    assert verdicts["nonzero ternary"] == 1  # the paper's ideal


def arity_bound(ideal, field):
    return _massey_arity_bound(ideal, betti(ideal, field))


def test_massey_arity_bound_takes_the_least(example_ideal):
    # the square of the maximal ideal in four variables: regularity alone
    m2 = MonomialIdeal.from_strings(
        ("a", "b", "c", "d"),
        ["a^2", "a*b", "a*c", "a*d", "b^2", "b*c", "b*d", "c^2", "c*d", "d^2"],
    )
    assert arity_bound(m2, QQ) == (2, "regularity 1 needs Massey arity <= 2")
    # a principal ideal of high degree: projective dimension alone
    principal = MonomialIdeal.from_strings(("x",), ["x^7"])
    assert arity_bound(principal, QQ) == (
        1, "projective dimension 1 caps Massey arity at 1"
    )
    # a variable generator sits in a multidegree with |σ| = 1: no squarefree bound
    variable = MonomialIdeal.from_strings(("x",), ["x"])
    assert arity_bound(variable, QQ) == (
        1, "projective dimension 1 caps Massey arity at 1"
    )
    # the boundary of a 7-simplex plus an isolated vertex: the squarefree
    # vertex count alone
    assert arity_bound(SPHERE_AND_POINT, QQ) == (
        4, "squarefree on 9 variables without variable generators caps Massey arity at 4"
    )
    # paper: regularity 5 and projective dimension 4 both give 3; regularity names it
    for field in (QQ, GF2):
        assert arity_bound(example_ideal, field) == (
            3, "regularity 5 needs Massey arity <= 3"
        )


def test_golod_verdicts_by_arity_bound_on_corpus(example_ideal):
    rng = random.Random(1)
    squarefree = [random_squarefree_ideal(rng, max_vars=7) for _ in range(60)]
    groups = {"paper": [example_ideal], "corpus": ideal_corpus(100), "squarefree": squarefree}
    # (Golod, NotGolod) per group, the same over both fields
    want = {"paper": (0, 1), "corpus": (50, 50), "squarefree": (35, 25)}
    for field in (QQ, GF2):
        for name, ideals in groups.items():
            verdicts = [golod_decide(ideal, field) for ideal in ideals]
            statuses = Counter(v.status for v in verdicts)
            assert (statuses["Golod"], statuses["NotGolod"]) == want[name], (name, field)
            for ideal, v in zip(ideals, verdicts):
                assert v.route in ("binary-product", "massey-arity-2", "massey-arity-3")
                if v.route == "massey-arity-2":
                    assert ternary_products_vanish(ideal, field) == (True, None)


def test_golod_decide_counterexample(example_ideal):
    for field in (QQ, GF2):
        verdict = golod_decide(example_ideal, field)
        assert verdict.status == "NotGolod"
        assert verdict.route == "massey-arity-3"
        assert "regularity 5" in verdict.reason
        assert verdict.witness is not None


def test_golod_decide_checks_products_once(monkeypatch):
    # the arity-3 route follows the product check without repeating it
    calls = []
    real = massey_golod.all_products_trivial

    def counted(ideal, field):
        calls.append(ideal)
        return real(ideal, field)

    monkeypatch.setattr(massey_golod, "all_products_trivial", counted)
    verdict = golod_decide(counterexample_ideal(), QQ)
    assert (verdict.status, verdict.route) == ("NotGolod", "massey-arity-3")
    assert len(calls) == 1


def test_massey_checks_bound_without_the_homology_basis(monkeypatch):
    """The Massey value's boundary test reads only the critical cells of the
    apex cone, 7 of its 18 columns, and absorbs all 7, since the value is
    nonzero; the homology basis and its coordinates are eliminated only when
    ``value`` is read.
    The pattern search, which reads only ``value_is_zero``, halves its
    tagged eliminations (1,000 before the membership test was shared), and
    makes 442 images, 158 of them on an empty cone, which build nothing.
    Its 299 membership tests, 267 of which bound, stop at their answers:
    drawing from each cone's largest mask down, they absorb 3,286 columns
    and the class tables 7 more, 3,293 of the 5,952 columns of the other
    284 images, all of which were spanned before (6,049 counted once per
    test)."""
    relations = []
    real_relations = homology_engine.column_relations

    def counted_relations(field, columns, nrows):
        relations.append(len(columns))
        return real_relations(field, columns, nrows)

    monkeypatch.setattr(homology_engine, "column_relations", counted_relations)
    images = absorbed_columns(monkeypatch)
    pol, roles = seed_pattern()
    res = ternary_massey_generators(pol, QQ, roles.a, roles.b, roles.c, b2_certified=True)
    assert res.defined and res.value_is_zero is False
    assert relations == [] and images == [[7, 7]]
    assert res.value.coordinates == (Fraction(-1),)
    assert relations
    relations.clear()
    images.clear()
    hits = list(search(7, 9, budget=150, seeds=[]))
    assert len(hits) == 16
    assert len(relations) <= 500
    assert len(images) == 442 and sum(not n for n, _ in images) == 158
    assert sum(n for n, _ in images) == 5952
    assert sum(drawn for _, drawn in images) == 3293


def test_golod_decide_controls():
    principal = MonomialIdeal.from_strings(("x", "y"), ["x*y"])
    assert golod_decide(principal, QQ).status == "Golod"
    ci = golod_decide(CI, QQ)
    assert ci.status == "NotGolod" and ci.route == "binary-product"
    assert golod_decide(M2, QQ).status == "Golod"


def test_golod_decide_sphere_and_point_is_golod_on_the_box():
    # products are trivial and the arity bound is 4, so the lcm box decides:
    # b_R = D there, so P = Q, and the series agree at every order
    # (over F_2 through the CLI, in test_cli)
    verdict = golod_decide(SPHERE_AND_POINT, QQ)
    assert (verdict.status, verdict.route, verdict.witness) == ("Golod", "box-agree", None)
    p, _ = p_series(SPHERE_AND_POINT, QQ, 5)
    assert p.coeffs == q_series(SPHERE_AND_POINT, QQ, 5).coeffs == (1, 9, 45, 194, 848, 3751)


def test_box_deficit_on_paper_is_the_massey_witness(monkeypatch, example_ideal):
    # with the ternary route skipped, the box finds the least deficit at the
    # Massey witness's multidegree, at t^(degree + 1): 10 generators against 11
    massey = golod_decide(example_ideal, QQ).witness[3]
    assert (massey.multidegree, massey.hom_degree) == ((1, 2, 1, 2, 3), 4)
    monkeypatch.setattr(massey_golod, "_massey_arity_bound", lambda ideal, bd: (4, "forced"))
    for field in (QQ, GF2, GF3):
        verdict = golod_decide(example_ideal, field)
        assert (verdict.status, verdict.route) == ("NotGolod", "box-deficit")
        assert verdict.witness == ((1, 2, 1, 2, 3), 5, 10, 11)
        assert verdict.reason == "P < Q at (1, 2, 1, 2, 3), t^5: 10 against 11"


def test_box_deficit_rejects_p_above_q():
    # dropping beta_(1, x^2) from M2's Betti numbers raises D above b_R at
    # x^2 t^2, so P would exceed its Koszul bound there
    bd = betti(M2, QQ)
    assert _box_deficit(M2, QQ, bd) is None
    doctored = BettiData(QQ, tuple(e for e in bd.multigraded if e[0] != (1, (2, 0))))
    with pytest.raises(AssertionError, match=r"P > Q at \(2, 0\), t\^2"):
        _box_deficit(M2, QQ, doctored)


def least_box_difference(ideal, field, bd):
    """The least (u, j, P_u, Q_u) in (j, u) order with P_u != Q_u, reading Q_B
    off D by division in the box, Q_B = N * D^-1, and P_B off the resolution."""
    w = lcm_of(ideal.gens, ideal.n_vars).exps
    n = sum(w) + 1
    levels, _ = box_series(ideal, field, n)
    d = [{} for _ in range(n + 1)]
    for (i, u), beta in bd.multigraded:
        if i:
            d[i + 1][u] = -beta
    support = [v for v in range(ideal.n_vars) if w[v]]
    q = []
    for j in range(n + 1):
        qj = {tuple(int(v in pick) for v in range(ideal.n_vars)): 1
              for pick in combinations(support, j)}
        for i in range(1, j + 1):
            for u, c in _box_product(d[i], q[j - i], w).items():
                qj[u] = qj.get(u, 0) - c
        q.append(qj)
    for j in range(n + 1):
        if differ := [u for u in levels[j].keys() | q[j].keys()
                      if levels[j].get(u, 0) != q[j].get(u, 0)]:
            u = min(differ)
            return u, j, levels[j].get(u, 0), q[j].get(u, 0)
    return None


def test_box_agrees_exactly_on_golod_corpus_ideals():
    # the exceptions are the polynomial rings presented with a variable
    # generator, k[x, y]/(x) and the like: Golod, but their Q counts the
    # variable generator's exterior factor, so the box shows a deficit
    corpus = ideal_corpus(100)
    for field in (QQ, GF2):
        odd = set()
        for k, ideal in enumerate(corpus):
            bd = betti(ideal, field)
            deficit = _box_deficit(ideal, field, bd)
            if (deficit is None) != (golod_decide(ideal, field).status == "Golod"):
                odd.add(k)
            if field == QQ:
                assert deficit == least_box_difference(ideal, field, bd), k
        assert odd == {65, 80, 86, 98}, field


def test_ternary_products_vanish_names_its_precondition():
    # corpus ideal 30 has the variable generator v2, whose class multiplies
    # nontrivially, so some ternary product is undefined
    ideal = ideal_corpus(100, seed=20260811)[30]
    assert not all_products_trivial(ideal, QQ)[0]
    with pytest.raises(ValueError, match="needs every binary product to vanish"):
        ternary_products_vanish(ideal, QQ)


def test_golod_field_consistency(example_ideal):
    from golod_lab.exact_linalg import GF3

    statuses = {golod_decide(example_ideal, f).status for f in (QQ, GF2, GF3)}
    assert statuses == {"NotGolod"}
