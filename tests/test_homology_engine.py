import random
from collections import Counter
from itertools import combinations, product

import pytest

from conftest import (
    apply_columns,
    basis_chain,
    chain_basis_vector,
    chain_degrees,
    chain_is_boundary,
    class_of,
    ideal_corpus,
    positional_columns,
    ref_extend,
    ref_kernel,
    ref_quotient,
    ref_solve,
    reduced_boundary,
    rows_of,
)
from golod_lab import homology_engine, taylor_dga
from golod_lab.exact_linalg import GF2, GF3, QQ, span
from golod_lab.homology_engine import (
    StrandHomology,
    betti,
    homology_basis,
    strand,
)
from golod_lab.massey_golod import (
    all_products_trivial,
    chain_product,
    golod_decide,
    ternary_massey,
    ternary_massey_generators,
)
from golod_lab.monomial_core import MonomialIdeal, counterexample_ideal, polarize
from golod_lab.simplicial import (
    complex_of,
    reduced_cohomology_dims,
    skeleton,
    stanley_reisner_ideal,
)
from golod_lab.taylor_dga import (
    fiber_complex,
    generators_below,
    lcm_lattice,
    mask_of,
)

EDGES = MonomialIdeal.from_strings(("x", "y", "z"), ["x*y", "y*z", "z*x"])


def test_three_edges_strand_homology():
    # oracle: every pair has vanishing reduced boundary, so the kernel is all
    # of degree two; the triple maps onto a single line, leaving dimension 2
    for pair in ([0, 1], [1, 2], [0, 2]):
        assert reduced_boundary(EDGES, mask_of(pair)) == {}
    assert len(reduced_boundary(EDGES, mask_of([0, 1, 2]))) == 3
    sh = strand(EDGES, QQ, (1, 1, 1))
    dim, classes = sh.dimension(2), sh.classes(2)
    assert dim == 2 and len(classes) == 2
    for cls in classes:
        assert any(cls.coordinates)


def test_minimal_generator_strand_class(example_ideal):
    sh = strand(example_ideal, QQ, tuple(example_ideal.gens[0].exps))
    dim, classes = sh.dimension(1), sh.classes(1)
    assert dim == 1
    assert dict(classes[0].representative) == {mask_of([0]): 1}


def test_top_strand_degree_four(example_ideal):
    assert strand(example_ideal, QQ, (1, 2, 1, 2, 3)).dimension(4) == 1


def test_betti_counterexample_table(example_ideal):
    bd = betti(example_ideal, QQ)
    coarse = bd.coarse
    assert coarse[(0, 0)] == 1
    assert coarse[(1, 3)] == 4
    assert coarse[(1, 4)] == 3
    assert coarse[(2, 5)] == 10
    assert coarse[(3, 6)] == 2
    assert coarse[(1, 5)] == 1
    assert coarse[(2, 6)] == 4
    assert coarse[(3, 7)] == 6
    assert coarse[(4, 9)] == 1
    assert sum(coarse.values()) == 1 + 8 + 14 + 8 + 1
    assert bd.totals == (1, 8, 14, 8, 1)
    assert bd.regularity == 5
    assert bd.projective_dimension == 4


def test_betti_field_independence(example_ideal):
    mq = betti(example_ideal, QQ).multigraded
    m2 = betti(example_ideal, GF2).multigraded
    m3 = betti(example_ideal, GF3).multigraded
    assert mq == m2 == m3


def test_betti_principal_ideal():
    ideal = MonomialIdeal.from_strings(("x", "y"), ["x*y"])
    bd = betti(ideal, QQ)
    assert bd.totals == (1, 1)
    assert bd.regularity == 1
    assert bd.projective_dimension == 1


def test_betti_table_render(example_ideal):
    text = betti(example_ideal, QQ).table_str()
    lines = text.splitlines()
    assert lines[1].split() == ["0:", "1", ".", ".", ".", "."]
    assert lines[4].split() == ["3:", ".", "3", "10", "2", "."]
    assert lines[6].split() == ["5:", ".", ".", ".", ".", "1"]
    assert lines[7].split() == ["tot:", "1", "8", "14", "8", "1"]


def test_betti_generator_positions(example_ideal):
    md = dict(betti(example_ideal, QQ).multigraded)
    gen_degrees = {tuple(g.exps) for g in example_ideal.gens}
    found = {u for (i, u) in md if i == 1}
    assert found == gen_degrees
    for u in found:
        assert md[(1, u)] == 1


def test_class_of_boundary_is_zero(example_ideal):
    chain = {m: QQ.of(s) for m, s in reduced_boundary(example_ideal, mask_of([0, 1, 3])).items()}
    cls = class_of(example_ideal, QQ, chain)
    assert not any(cls.coordinates)
    assert chain_is_boundary(example_ideal, QQ, chain)


def test_class_of_generator_nonzero(example_ideal):
    cls = class_of(example_ideal, QQ, {mask_of([2]): 1})
    assert any(cls.coordinates)


def test_class_of_massey_representative_nonzero(example_ideal):
    chain = {mask_of([0, 1, 3, 6]): -1, mask_of([0, 3, 4, 6]): -1}
    cls = class_of(example_ideal, QQ, chain)
    assert any(cls.coordinates)
    assert cls.hom_degree == 4
    assert cls.multidegree == (1, 2, 1, 2, 3)
    assert len(cls.coordinates) == 1


def test_class_of_rejects_non_cycle(example_ideal):
    with pytest.raises(ValueError):
        class_of(example_ideal, QQ, {mask_of([0, 1, 3]): 1})


def test_class_of_rejects_mixed_chain(example_ideal):
    with pytest.raises(ValueError):
        class_of(example_ideal, QQ, {mask_of([0]): 1, mask_of([0, 3]): 1})


def test_wrong_degrees_raise_instead_of_being_rederived(example_ideal):
    """A strand takes a chain at the (u, i) its caller states and never
    re-derives them: the generator chain e_0 asked in the strand of g_1, or in
    its own strand at degree 2, raises for both class_of and is_boundary."""
    g0, g1 = (tuple(g.exps) for g in example_ideal.gens[:2])
    chain = {mask_of([0]): 1}
    for u, i in ((g1, 1), (g0, 2)):
        sh = strand(example_ideal, QQ, u)
        for ask in (sh.class_of, sh.is_boundary):
            with pytest.raises(ValueError, match=f"not a degree-{i} basis element"):
                ask(i, chain)
    assert any(strand(example_ideal, QQ, g0).class_of(1, chain).coordinates)


def test_multigraded_sums_match_coarse(example_ideal):
    bd = betti(example_ideal, QQ)
    for i in range(bd.projective_dimension + 1):
        assert bd.total(i) == sum(
            d for (ii, j), d in bd.coarse.items() if ii == i
        )


def test_euler_characteristic_per_strand():
    ideals = [counterexample_ideal()] + ideal_corpus(20, seed=61)
    for ideal in ideals:
        for u in lcm_lattice(ideal):
            s = strand(ideal, QQ, tuple(u))
            chi_basis = sum((-1) ** i * s.dim(i) for i in s.degrees())
            chi_hom = sum(
                (-1) ** i * strand(ideal, QQ, tuple(u)).dimension(i)
                for i in s.degrees()
            )
            assert chi_basis == chi_hom


def test_strand_homology_matches_fiber_cohomology(example_ideal):
    # dimension duality between the strand and its fiber complex
    lat = lcm_lattice(example_ideal)
    for u in lat:
        below = generators_below(example_ideal, u)
        fib = fiber_complex(example_ideal, tuple(u))
        dims = reduced_cohomology_dims(fib, QQ)
        for i in range(1, len(below) + 1):
            want = dims.get(len(below) - i - 1, 0)
            assert strand(example_ideal, QQ, tuple(u)).dimension(i) == want


def test_zero_ideal_betti():
    ideal = MonomialIdeal(("x", "y"), ())
    bd = betti(ideal, QQ)
    assert bd.multigraded == (((0, (0, 0)), 1),)
    assert bd.projective_dimension == 0
    assert bd.regularity == 0


def test_strand_homology_matches_separate_eliminations():
    """The one echelon per degree agrees with separate dense eliminations.

    Chains go in and out of ``coordinates`` and ``bounding_chain``; the dense
    reference works on vectors over the strand basis.  Every bounding chain
    has the input as its boundary, and a mask outside the degree-i basis is
    rejected.
    """
    rng = random.Random(71)
    ideals = [counterexample_ideal()] + ideal_corpus(12, seed=72)
    for field in (QQ, GF2):
        for ideal in ideals:
            for u in lcm_lattice(ideal):
                sh = StrandHomology(ideal, tuple(u), field)
                for i in sh.degrees():
                    n, up_cols = sh.dim(i), positional_columns(sh, i + 1)
                    basis, up_basis = sh.basis[i], sh.basis.get(i + 1, [])
                    up = rows_of(up_cols, n)
                    down = rows_of(positional_columns(sh, i), sh.dim(i - 1))
                    kernel = ref_kernel(field, down, n)
                    image = [tuple(field.of(c.get(r, 0)) for r in range(n)) for c in up_cols]
                    reps = [kernel[j] for j in ref_extend(field, image, kernel, n)]
                    want = [tuple(sorted(basis_chain(basis, r).items())) for r in reps]
                    assert [c.representative for c in sh.classes(i)] == want
                    for _ in range(4):
                        coeffs = [rng.randint(-2, 2) for _ in kernel]
                        cycle = tuple(field.of(sum(c * kv[k] for c, kv in zip(coeffs, kernel)))
                                      for k in range(n))
                        assert sh.coordinates(i, basis_chain(basis, cycle)) == ref_quotient(
                            field, kernel, image, cycle)
                        x = tuple(field.of(rng.randint(-2, 2)) for _ in up_cols)
                        bnd = apply_columns(field, up_cols, x, n)
                        for v in (bnd, cycle) if up_cols else (bnd,):
                            got = sh.bounding_chain(i, basis_chain(basis, v))
                            if got is not None:
                                got = chain_basis_vector(field, up_basis, got)
                                assert apply_columns(field, up_cols, got, n) == v
                            assert got == ref_solve(field, up, len(up_cols), v)
                    strays = [1 << ideal.n_gens] + [sh.basis[j][0] for j in sh.degrees() if j != i]
                    for mask in strays:
                        with pytest.raises(ValueError, match="basis element"):
                            sh.coordinates(i, {mask: 1})
                        with pytest.raises(ValueError, match="basis element"):
                            sh.bounding_chain(i, {mask: 1})


def test_degree_limited_membership_agrees_with_whole_strands(monkeypatch):
    """Whole strands, with the cap in force, give the wanted answers.  Then,
    with the strand cap at 0, every membership query on a fresh twin of the
    ideal takes the route for strands past the cap; it must agree, and a
    second query at the same (u, i) must reuse the span kept on the twin."""
    real = StrandHomology.cells
    enumerated = []

    def counted(self, i, apex=None):
        enumerated.append((self.u, i))
        return real(self, i, apex)

    monkeypatch.setattr(StrandHomology, "cells", counted)
    answers = set()
    for field in (QQ, GF2, GF3):
        for ideal in [counterexample_ideal()] + ideal_corpus(10, seed=20260811):
            classes = [c for u in lcm_lattice(ideal) for i in range(1, ideal.n_gens + 1)
                       for c in homology_basis(ideal, field, tuple(u), i)]
            wanted = []
            for a in classes:
                for b in classes:
                    prod = chain_product(
                        ideal, field, a.chain(), b.chain(), a.multidegree, b.multidegree
                    )
                    if prod:
                        wanted.append((prod, not any(class_of(ideal, field, prod).coordinates)))
            twin = MonomialIdeal(ideal.variables, ideal.gens)
            enumerated.clear()
            with monkeypatch.context() as capped:
                capped.setattr(homology_engine, "_FULL_STRAND_LIMIT", 0)
                for prod, want in wanted:
                    assert chain_is_boundary(twin, field, prod) == want
                    seen = len(enumerated)
                    assert chain_is_boundary(twin, field, prod) == want
                    assert len(enumerated) == seen
                    answers.add(want)
            assert len(enumerated) == len(set(enumerated))
    assert answers == {True, False}


def test_cone_membership_agrees_with_coordinates_inside_the_cap():
    """Inside the cap is_boundary (the apex cone) and coordinates (the homology
    basis) are two routes to one answer, on every nonzero product of two basis
    classes and every defined Massey value of the triples that
    ternary_products_vanish runs over the first 6 classes.  A non-cycle, or
    a mask outside the strand, raises on both sides of the cap."""
    answers = set()
    for field in (QQ, GF2, GF3):
        for ideal in [counterexample_ideal()] + ideal_corpus(10, seed=20260811):
            lattice = lcm_lattice(ideal)
            classes = [c for u in lattice for i in strand(ideal, field, u).degrees()
                       for c in strand(ideal, field, u).classes(i)]
            cycles = [p for a in classes for b in classes
                      if (p := chain_product(ideal, field, a.chain(), b.chain(),
                                             a.multidegree, b.multidegree))]
            for a, b, c in product(classes[:6], repeat=3):
                u = tuple(map(sum, zip(a.multidegree, b.multidegree, c.multidegree)))
                i = a.hom_degree + b.hom_degree + c.hom_degree + 1
                if u not in lattice or strand(ideal, field, u).dimension(i) == 0:
                    continue
                res = ternary_massey(ideal, field, a, b, c)
                if res.defined and res.value_chain:
                    cycles.append(dict(res.value_chain))
            for z in cycles:
                u, i = chain_degrees(ideal, z)
                sh = strand(ideal, field, u)
                assert sh.whole
                want = not any(sh.coordinates(i, z))
                assert sh.is_boundary(i, z) == want
                answers.add(want)
    assert answers == {True, False}
    paper = counterexample_ideal()
    top = (1, 2, 1, 2, 3)
    gamma, _ = _skeleton_ideal()
    for ideal, u, i in ((paper, top, 5), (gamma, (1,) * gamma.n_vars, 4)):
        sh = strand(ideal, QQ, u)
        mask = next(m for m in sh.cells(i) if reduced_boundary(ideal, m))
        with pytest.raises(ValueError, match="not a cycle"):
            sh.is_boundary(i, {mask: 1})
        with pytest.raises(ValueError, match="basis element"):
            sh.is_boundary(i, {1 << ideal.n_gens: 1})
    assert strand(paper, QQ, top).whole and not sh.whole


def _boundary_rank(ideal, field, masks):
    return len(span(field, [reduced_boundary(ideal, m) for m in masks]).rows)


def _assert_cone_spans(ideal, field, u, i, apexes):
    """For each apex, the degree-i masks with lcm u that contain it are exactly
    the ones enumerated with that apex, and their boundaries span the image
    of d_i.  Returns how many apexes left out some mask."""
    sh = strand(ideal, field, u)
    full = sh.cells(i)
    want = _boundary_rank(ideal, field, full)
    smaller = 0
    for g in apexes:
        cone = sh.cells(i, apex=g)
        assert cone == [m for m in full if m >> g & 1]
        assert _boundary_rank(ideal, field, cone) == want
        smaller += len(cone) < len(full)
    return smaller


def _skeleton_ideal():
    """The 4-skeleton ideal and its generators a, b, c of the Massey product."""
    pol, _ = polarize(counterexample_ideal())
    gamma = stanley_reisner_ideal(skeleton(complex_of(pol), 4))
    roles = []
    for sup in ({"x1", "x2_1", "x2_2"}, {"y1", "y2_1", "y2_2"}, {"z_1", "z_2", "z_3"}):
        roles += [k for k, g in enumerate(gamma.gens)
                  if {gamma.variables[j] for j in g.support} == sup]
    return gamma, roles


def test_apex_cone_spans_the_boundary_image():
    """Past the strand cap is_boundary spans only the boundaries of the
    masks containing one apex generator.  Within the cap, for every strand,
    degree and apex, that cone must span what all boundaries of the degree
    span; and in the top strand of the 4-skeleton in degree 2."""
    smaller = 0
    for field in (QQ, GF2, GF3):
        for ideal in [counterexample_ideal()] + ideal_corpus(10, seed=20260811):
            for u in lcm_lattice(ideal):
                below = generators_below(ideal, u)
                for i in range(2, len(below) + 1):
                    smaller += _assert_cone_spans(ideal, field, tuple(u), i, below)
        gamma, _ = _skeleton_ideal()
        top = (1,) * gamma.n_vars
        assert len(strand(gamma, field, top).cells(3)) == 498
        smaller += _assert_cone_spans(gamma, field, top, 3, generators_below(gamma, top))
    assert smaller == 471  # cases where the cone leaves some mask out


def test_skeleton_massey_spans_only_the_cone(monkeypatch):
    """The Massey value of the 4-skeleton bounds or not in a strand past the
    cap; its membership test eliminates only the apex cone's boundaries
    (3,386 columns; all 14,169 boundaries of that degree span the same)."""
    gamma, (a, b, c) = _skeleton_ideal()
    columns = []
    real = homology_engine.span

    def counted(field, cols):
        columns.append(len(cols))
        return real(field, cols)

    monkeypatch.setattr(homology_engine, "span", counted)
    res = ternary_massey_generators(gamma, QQ, a, b, c, b2_certified=True)
    assert res.defined and res.value_is_zero is False
    assert 0 < sum(columns) <= 3386


def test_skeleton_top_strand_answers_membership_past_the_cap():
    """After the product check and both Massey routes on the 4-skeleton ideal,
    its top strand (20 generators, past the cap) answers is_boundary, its
    13 classes in degree 4 (beta_4 of the totals (1, 20, 50, 44, 13)), equal
    nonzero coordinates for both Massey values and bounding chains, all from
    the apex cones; only the questions that walk every degree raise the
    strand cap error.  The ideal keeps one strand entry per (field, u)."""
    gamma, (a, b, c) = _skeleton_ideal()
    assert all_products_trivial(gamma, QQ)[0]
    gens = [homology_basis(gamma, QQ, tuple(gamma.gens[k].exps), 1)[0] for k in (a, b, c)]
    results = [ternary_massey_generators(gamma, QQ, a, b, c, b2_certified=True),
               ternary_massey(gamma, QQ, *gens, b2_certified=True)]
    top = (1,) * gamma.n_vars
    sh = strand(gamma, QQ, top)
    assert not sh.whole and len(sh.gens_below) == 20
    assert len(sh.classes(4)) == 13
    for res in results:
        assert res.multidegree == top and res.value_is_zero is False
        assert sh.is_boundary(4, dict(res.value_chain)) is False
        assert len(res.value.coordinates) == 13 and any(res.value.coordinates)
    assert results[0].value.coordinates == results[1].value.coordinates
    mask = next(m for m in sh.cells(5) if reduced_boundary(gamma, m))
    target = {m: QQ.of(x) for m, x in reduced_boundary(gamma, mask).items()}
    assert sh.is_boundary(4, target)
    assert not any(sh.coordinates(4, target))
    chain = sh.bounding_chain(4, target)
    got = {}
    for m, x in chain.items():
        assert bin(m).count("1") == 5
        for face, sign in sh.boundary(m).items():
            got[face] = got.get(face, 0) + sign * x
    assert {m: x for m, x in got.items() if x} == target
    assert sh.bounding_chain(4, dict(results[0].value_chain)) is None
    for question in (lambda: sh.dimension(4), sh.degrees):
        with pytest.raises(ValueError, match="has 20 generators below it"):
            question()
    keys = [k for k in gamma.derived if k != "lattice"]
    assert keys and all(k[0] == "strand" and len(k) == 3 for k in keys)


def _boundary_of(sh, chain):
    """The boundary of a chain (mask -> scalar) of the strand, without zeros."""
    out = {}
    for m, x in chain.items():
        for face, sign in sh.boundary(m).items():
            out[face] = sh.field.of(out.get(face, 0) + sign * x)
    return {m: x for m, x in out.items() if x}


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
def test_bounding_chain_answers_as_is_boundary(field):
    """A cycle bounds exactly when ``bounding_chain`` finds a chain, and that
    chain's boundary is the cycle: on every class representative and up to
    six boundaries per (strand, degree) of the paper's ideal and 10 corpus
    ideals, and on the 4-skeleton's degree-4 Massey value at (1, ..., 1),
    past the cap.  A chain that is not a cycle raises in both."""
    rng = random.Random(24)
    answers = Counter()

    def ask(sh, i, z):
        chain = sh.bounding_chain(i, z)
        assert sh.is_boundary(i, z) == (chain is not None)
        if chain is not None:
            assert _boundary_of(sh, chain) == {m: x for m, c in z.items() if (x := field.of(c))}
        answers[chain is not None] += 1

    for ideal in [counterexample_ideal()] + ideal_corpus(10):
        for u in lcm_lattice(ideal):
            sh = strand(ideal, field, u)
            for i in sh.degrees():
                for c in sh.classes(i):
                    ask(sh, i, c.chain())
                above = sh.basis.get(i + 1, [])
                for _ in range(6 if above else 0):
                    if z := _boundary_of(sh, {m: rng.randint(-2, 2) for m in above}):
                        ask(sh, i, z)
    gamma, (a, b, c) = _skeleton_ideal()
    res = ternary_massey_generators(gamma, field, a, b, c, b2_certified=True)
    top = (1,) * gamma.n_vars
    sh = strand(gamma, field, top)
    assert (res.multidegree, res.hom_degree, sh.whole) == (top, 4, False)
    ask(sh, 4, dict(res.value_chain))
    assert answers[True] and answers[False]
    mask = next(m for m in sh.cells(4) if reduced_boundary(gamma, m))
    for question in (sh.is_boundary, sh.bounding_chain):
        with pytest.raises(ValueError, match="not a cycle"):
            question(4, {mask: 1})


def test_lattice_test_runs_once_per_field_and_multidegree(monkeypatch):
    """The strand accessor is the one place the package tests a strand's
    lattice membership: once per (field, u), counted as the generators below
    u, in taylor_dga and homology_engine together, however often a strand
    is asked."""
    calls = Counter()
    real = taylor_dga.generators_below

    def counted(ideal, u):
        calls[tuple(u)] += 1
        return real(ideal, u)

    for module in (taylor_dga, homology_engine):
        monkeypatch.setattr(module, "generators_below", counted)
    gamma, (a, b, c) = _skeleton_ideal()
    paper = counterexample_ideal()
    for field in (QQ, GF2):
        calls.clear()
        assert all_products_trivial(gamma, field)[0]
        gens = [homology_basis(gamma, field, tuple(gamma.gens[k].exps), 1)[0] for k in (a, b, c)]
        ternary_massey_generators(gamma, field, a, b, c, b2_certified=True)
        ternary_massey(gamma, field, *gens, b2_certified=True)
        assert golod_decide(paper, field).status == "NotGolod"
        assert betti(paper, field).totals == (1, 8, 14, 8, 1)
        assert strand(paper, field, (9,) * 5) is None
        assert strand(paper, field, (9,) * 5) is None
        assert calls and set(calls.values()) == {1}


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
def test_dimension_from_cone_ranks_counts_the_classes(field):
    """dim C_i - rank d_i - rank d_{i+1}, with both ranks read off the apex
    cones, is the number of representatives ``classes(i)`` finds, whichever
    of the two is asked first."""
    for ideal in [counterexample_ideal()] + ideal_corpus(10):
        for u in lcm_lattice(ideal):
            ranks_first = StrandHomology(ideal, tuple(u), field)
            classes_first = StrandHomology(ideal, tuple(u), field)
            for i in ranks_first.degrees():
                d = ranks_first.dimension(i)
                assert d == len(ranks_first.classes(i))
                assert len(classes_first.classes(i)) == classes_first.dimension(i) == d


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
def test_is_boundary_unchanged_by_building_classes(field):
    """The homology echelon extends a shallow copy of the image echelon, so
    building a strand's classes and coordinates leaves ``is_boundary`` as it
    was.  Every nonzero product of two classes is asked on a fresh copy of the
    ideal before and after, and bounds exactly when its coordinates vanish."""
    outcomes = Counter()
    for ideal in [counterexample_ideal()] + ideal_corpus(10):
        lattice = lcm_lattice(ideal)
        classes = [[c for i in strand(ideal, field, u).degrees()
                    for c in strand(ideal, field, u).classes(i)] for u in lattice]
        products = []
        for a, b in combinations(range(len(lattice)), 2):
            for alpha, beta in product(classes[a], classes[b]):
                if prod := chain_product(ideal, field, alpha.chain(), beta.chain(),
                                         alpha.multidegree, beta.multidegree):
                    products.append((*chain_degrees(ideal, prod), prod))
        fresh = MonomialIdeal(ideal.variables, ideal.gens)
        before = [strand(fresh, field, w).is_boundary(i, prod) for w, i, prod in products]
        for (w, i, prod), was in zip(products, before):
            sh = strand(fresh, field, w)
            sh.classes(i)
            coords = sh.coordinates(i, prod)
            assert sh.is_boundary(i, prod) == was == (not any(coords))
            outcomes[was] += 1
    assert outcomes[True] and outcomes[False]


def test_each_differential_eliminated_once_and_each_cone_spanned_once(monkeypatch):
    """``betti`` reads both ranks off the apex cones and eliminates no
    differential.  ``golod_decide`` on the paper's ideal eliminates each d_j
    it asks once for its kernel and its boundary solves, on the apex cone:
    18 eliminations over 18 columns, since the ternary check builds classes
    only in the triples it runs.  The class tables of every strand take 82
    eliminations over 180 columns (255 on all cells).  No cone is kept: each
    (strand, degree) cone is enumerated once per echelon built from it, once
    for the image it spans and once for the elimination it tags."""
    columns, differentials, cones = [], Counter(), Counter()
    real_relations = homology_engine.column_relations
    real_elimination = StrandHomology._elimination
    real_cells = StrandHomology.cells

    def relations(field, cols, nrows):
        columns.append(len(cols))
        return real_relations(field, cols, nrows)

    def elimination(self, j):
        differentials[self.u, j] += j not in self._eliminations
        return real_elimination(self, j)

    def cells(self, i, apex=None):
        if apex is not None:
            cones[self.u, i] += 1
        return real_cells(self, i, apex)

    def enumerations(ideal):
        """How many cones were enumerated once and twice, each count checked
        against the echelons its strand built from the cone."""
        for (u, i), n in cones.items():
            sh = strand(ideal, QQ, u)
            assert n == (i - 1 in sh._images) + (i in sh._eliminations), (u, i)
        return sorted(Counter(cones.values()).items())

    monkeypatch.setattr(homology_engine, "column_relations", relations)
    monkeypatch.setattr(StrandHomology, "_elimination", elimination)
    monkeypatch.setattr(StrandHomology, "cells", cells)
    paper = counterexample_ideal()
    assert betti(paper, QQ).totals == (1, 8, 14, 8, 1)
    assert columns == [] and enumerations(paper) == [(1, 125)]
    cones.clear()
    paper = counterexample_ideal()
    assert golod_decide(paper, QQ).route == "massey-arity-3"
    assert (len(columns), sum(columns)) == (18, 18)
    assert len(differentials) == 18 and set(differentials.values()) == {1}
    assert enumerations(paper) == [(1, 107), (2, 18)]
    for counts in (columns, differentials, cones):
        counts.clear()
    paper = counterexample_ideal()
    for u in lcm_lattice(paper):
        sh = strand(paper, QQ, u)
        for i in sh.degrees():
            sh.classes(i)
    assert (len(columns), sum(columns)) == (82, 180)
    assert len(differentials) == 82 and set(differentials.values()) == {1}
    assert enumerations(paper) == [(1, 86), (2, 39)]
