import random
from collections import Counter
from itertools import combinations, product
from math import comb

import pytest

from conftest import (
    EagerStrand,
    absorbed_columns,
    apply_columns,
    basis_chain,
    chain_basis_vector,
    chain_degrees,
    chain_is_boundary,
    class_of,
    cone_cells,
    ideal_corpus,
    positional_columns,
    ref_extend,
    ref_kernel,
    ref_quotient,
    ref_solve,
    reduced_boundary,
    reduced_cohomology_dims,
    skeleton_ideal,
    rows_of,
    span,
    strand_cells,
)
from golod_lab import homology_engine, taylor_dga
from golod_lab.exact_linalg import GF2, GF3, QQ, Echelon
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
from golod_lab.monomial_core import MonomialIdeal, TooLarge, counterexample_ideal
from golod_lab.simplicial import SimplicialComplex, stanley_reisner_ideal
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


def test_betti_table_bound_counts_rows(example_ideal, monkeypatch):
    """The paper's table has 6 rows (regularity 5): it renders with the
    bound at 6 and raises ``TooLarge`` at 5, naming the JSON format."""
    bd = betti(example_ideal, QQ)
    monkeypatch.setattr(homology_engine, "_TABLE_BOUND", 6)
    assert len(bd.table_str().splitlines()) == 8
    monkeypatch.setattr(homology_engine, "_TABLE_BOUND", 5)
    with pytest.raises(TooLarge, match="6 rows, past 5; --format json"):
        bd.table_str()


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
            chi_basis = sum((-1) ** i * len(strand_cells(s, i)) for i in s.degrees())
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
                    basis, up_basis = strand_cells(sh, i), strand_cells(sh, i + 1)
                    n, up_cols = len(basis), positional_columns(sh, i + 1)
                    up = rows_of(up_cols, n)
                    down = rows_of(positional_columns(sh, i), len(strand_cells(sh, i - 1)))
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
                    strays = [1 << ideal.n_gens] + [
                        cells[0] for j in sh.degrees() if j != i and (cells := strand_cells(sh, j))]
                    for mask in strays:
                        with pytest.raises(ValueError, match="basis element"):
                            sh.coordinates(i, {mask: 1})
                        with pytest.raises(ValueError, match="basis element"):
                            sh.bounding_chain(i, {mask: 1})


def test_degree_limited_membership_agrees_with_whole_strands(monkeypatch):
    """The homology bases of every degree give the wanted answers.  Then,
    with ``degrees`` raising, every membership query on a fresh twin of the
    ideal must answer without walking a strand's degrees and agree, and a
    second query at the same (u, i) must reuse the span kept on the twin."""
    real = StrandHomology._cone
    enumerated = []

    def counted(self, j):
        enumerated.append((self.u, j))
        return real(self, j)

    monkeypatch.setattr(StrandHomology, "_cone", counted)
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
                capped.setattr(StrandHomology, "degrees", _no_degree_walk)
                for prod, want in wanted:
                    assert chain_is_boundary(twin, field, prod) == want
                    seen = len(enumerated)
                    assert chain_is_boundary(twin, field, prod) == want
                    assert len(enumerated) == seen
                    answers.add(want)
            assert len(enumerated) == len(set(enumerated))
    assert answers == {True, False}


def _no_degree_walk(self):
    raise AssertionError("a membership query walked every degree of a strand")


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
                assert len(sh.gens_below) <= 18
                want = not any(sh.coordinates(i, z))
                assert sh.is_boundary(i, z) == want
                answers.add(want)
    assert answers == {True, False}
    paper = counterexample_ideal()
    top = (1, 2, 1, 2, 3)
    gamma, _ = _skeleton_ideal()
    for ideal, u, i in ((paper, top, 5), (gamma, (1,) * gamma.n_vars, 4)):
        sh = strand(ideal, QQ, u)
        mask = next(m for m in strand_cells(sh, i) if reduced_boundary(ideal, m))
        with pytest.raises(ValueError, match="not a cycle"):
            sh.is_boundary(i, {mask: 1})
        with pytest.raises(ValueError, match="basis element"):
            sh.is_boundary(i, {1 << ideal.n_gens: 1})
    assert len(strand(paper, QQ, top).gens_below) <= 18 < len(sh.gens_below)


def _boundary_rank(ideal, field, masks):
    return len(span(field, [reduced_boundary(ideal, m) for m in masks]).rows)


def _assert_cone_spans(ideal, field, u, i, apexes):
    """For each apex, the degree-i masks with lcm u that contain it are exactly
    the ones enumerated with that apex, and their boundaries span the image
    of d_i.  Returns how many apexes left out some mask."""
    sh = strand(ideal, field, u)
    full = strand_cells(sh, i)
    want = _boundary_rank(ideal, field, full)
    smaller = 0
    for g in apexes:
        cone = cone_cells(sh, i, g)
        assert cone == [m for m in full if m >> g & 1]
        assert _boundary_rank(ideal, field, cone) == want
        smaller += len(cone) < len(full)
    return smaller


def _skeleton_ideal():
    """The 4-skeleton ideal and its generators a, b, c of the Massey product."""
    gamma = skeleton_ideal()
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
        assert len(strand_cells(strand(gamma, field, top), 3)) == 498
        smaller += _assert_cone_spans(gamma, field, top, 3, generators_below(gamma, top))
    assert smaller == 471  # cases where the cone leaves some mask out


def test_skeleton_massey_spans_only_the_cone(monkeypatch):
    """The Massey value of the 4-skeleton bounds or not in a strand past the
    cap; its membership test eliminates only the apex cone's boundaries
    (3,386 columns; all 14,169 boundaries of that degree span the same), and
    of those only the critical ones.  The value is nonzero, so its test
    absorbs every one of them: 333 in the one image it makes."""
    gamma, (a, b, c) = _skeleton_ideal()
    images = absorbed_columns(monkeypatch)
    res = ternary_massey_generators(gamma, QQ, a, b, c, b2_certified=True)
    assert res.defined and res.value_is_zero is False
    critical = len(strand(gamma, QQ, res.multidegree)._cone(5))
    assert images == [[critical, critical]] and 0 < critical == 333 <= 3386


def test_betti_raises_at_the_top_strand_before_making_another():
    """``betti`` walks the lcm lattice from its top, whose strand holds every
    generator below any u, so on the 4-skeleton ideal the size rule raises
    there first: the ideal keeps the top strand alone, where walking the
    lattice upwards kept 78 strands before it raised."""
    gamma, _ = _skeleton_ideal()
    with pytest.raises(TooLarge, match="generators below it"):
        betti(gamma, QQ)
    kept = [key for key in gamma.derived if key[0] == "strand"]
    assert kept == [("strand", QQ, (1,) * gamma.n_vars)]


def test_skeleton_top_strand_answers_membership_past_the_cap():
    """After the product check and both Massey routes on the 4-skeleton ideal,
    its top strand (20 generators, past the cap) answers is_boundary, its
    13 classes in degree 4 (beta_4 of the totals (1, 20, 50, 44, 13)), equal
    nonzero coordinates for both Massey values and bounding chains, all from
    the apex cones, and dimension(4) counts the same 13 off the cones; only
    the walk over every degree, as for Betti numbers and the class tables,
    raises the strand bound's error, in degree 6, whose ranks need the 27,132
    subsets of degree 7.  The ideal keeps one strand entry per (field, u)."""
    gamma, (a, b, c) = _skeleton_ideal()
    assert all_products_trivial(gamma, QQ)[0]
    gens = [homology_basis(gamma, QQ, tuple(gamma.gens[k].exps), 1)[0] for k in (a, b, c)]
    results = [ternary_massey_generators(gamma, QQ, a, b, c, b2_certified=True),
               ternary_massey(gamma, QQ, *gens, b2_certified=True)]
    top = (1,) * gamma.n_vars
    sh = strand(gamma, QQ, top)
    assert len(sh.gens_below) == 20 > 18
    assert len(sh.classes(4)) == 13
    for res in results:
        assert res.multidegree == top and res.value_is_zero is False
        assert sh.is_boundary(4, dict(res.value_chain)) is False
        assert len(res.value.coordinates) == 13 and any(res.value.coordinates)
    assert results[0].value.coordinates == results[1].value.coordinates
    mask = next(m for m in strand_cells(sh, 5) if reduced_boundary(gamma, m))
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
    assert sh.dimension(4) == len(sh.classes(4)) == 13
    assert sh.degrees() == list(range(1, 21))
    with pytest.raises(TooLarge, match="has 20 generators below it; degree 7 "):
        [sh.dimension(i) for i in sh.degrees()]
    keys = [k for k in gamma.derived if k != "lattice"]
    assert keys and all(k[0] == "strand" and len(k) == 3 for k in keys)


def _star(n):
    """<x_i * y : i < n>.  Its top strand has n generators below it and one
    cell, all of them, so its degree-j cells are the scan alone."""
    names = tuple(f"x{i}" for i in range(n)) + ("y",)
    return MonomialIdeal.from_exponents(names, [[int(k == i) for k in range(n)] + [1]
                                                for i in range(n)])


def test_oversized_strand_raises_before_it_enumerates(monkeypatch):
    """A middle-degree question on a strand past the bound raises before the
    cell enumeration draws one subset: ``dimension(12)`` with 24 generators
    below u would scan C(23, 11) = 1,352,078 of them."""
    draws = 0
    real = homology_engine.combinations

    def counted(items, r):
        nonlocal draws
        for c in real(items, r):
            draws += 1
            yield c

    monkeypatch.setattr(homology_engine, "combinations", counted)
    sh = strand(_star(24), QQ, (1,) * 25)
    with pytest.raises(TooLarge, match="has 24 generators below it; degree 12 would "
                                       "scan 1,352,078 subsets, past 24,310"):
        sh.dimension(12)
    assert draws == 0
    assert sh.dimension(24) == 1 and draws == 1


def test_strand_bound_admits_every_degree_of_18_generators():
    """The bound is C(17, 8) = 24,310, the largest degree of a strand with 18
    generators below u: such a strand answers every degree.  A 19-generator
    strand answers each degree whose scan C(18, j - 1) is within the bound,
    and raises from the first past it, degree 8 (31,824 subsets), through
    degree 12."""
    sh = strand(_star(18), QQ, (1,) * 19)
    assert max(comb(17, j - 1) for j in sh.degrees()) == homology_engine._CONE_BOUND == 24310
    assert [sh.dimension(j) for j in sh.degrees()] == [0] * 17 + [1]
    sh = strand(_star(19), QQ, (1,) * 20)
    answered, raised = [], []
    for j in sh.degrees():
        try:
            answered.append(len(sh.classes(j)))
        except TooLarge as exc:
            assert f"degree {j} would scan {comb(18, j - 1):,} subsets" in str(exc)
            raised.append(j)
    assert raised == [8, 9, 10, 11, 12]
    assert answered == [0] * 13 + [1]


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
                above = strand_cells(sh, i + 1)
                for _ in range(6 if above else 0):
                    if z := _boundary_of(sh, {m: rng.randint(-2, 2) for m in above}):
                        ask(sh, i, z)
    gamma, (a, b, c) = _skeleton_ideal()
    res = ternary_massey_generators(gamma, field, a, b, c, b2_certified=True)
    top = (1,) * gamma.n_vars
    sh = strand(gamma, field, top)
    assert (res.multidegree, res.hom_degree, len(sh.gens_below)) == (top, 4, 20)
    ask(sh, 4, dict(res.value_chain))
    assert answers[True] and answers[False]
    mask = next(m for m in strand_cells(sh, 4) if reduced_boundary(gamma, m))
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
    """``betti`` reads both ranks off the critical cells and eliminates no
    differential.  ``golod_decide`` on the paper's ideal eliminates each d_j
    it asks once for its kernel and its boundary solves, on the critical
    cells: 18 columns, since the ternary check builds classes only in the
    triples it runs.  The class tables of every strand eliminate 105
    critical columns (180 on the whole apex cones, 255 on all cells).  A
    degree with no critical cell has no kernel and is not eliminated: 66
    eliminations where eliminating every degree took 127, 49 of them on no
    column, and 18 where ``golod_decide`` took 27, 9 on no column.  Each
    (strand, degree) enumerates its critical cells once and keeps them, and
    every elimination reads a kept list: 170 lists under ``betti`` and
    ``golod_decide`` (297 enumerations and 324 when each echelon and each
    ``dimension`` enumerated its own cone), 149 for the class tables (177).
    ``betti`` makes 170 images, 104 of them on an empty cone, which build
    nothing, and absorbs every column of the other 66, 105 in all."""
    columns, differentials, cones = [], Counter(), Counter()
    images = absorbed_columns(monkeypatch)  # wraps _cone before it is read below
    real_relations = homology_engine.column_relations
    real_elimination = StrandHomology._elimination
    real_cone = StrandHomology._cone

    def relations(field, cols, nrows):
        columns.append(len(cols))
        return real_relations(field, cols, nrows)

    def elimination(self, j):
        differentials[self.u, j] += j not in self._eliminations
        return real_elimination(self, j)

    def cone(self, j):
        cones[self.u, j] += j not in self._cones
        return real_cone(self, j)

    def enumerated(ideal):
        """How many (strand, degree) lists were enumerated, each once, with
        every eliminated degree's list kept on its strand."""
        assert set(cones.values()) <= {1}
        assert all(j in strand(ideal, QQ, u)._cones for u, j in differentials)
        return len(cones)

    monkeypatch.setattr(homology_engine, "column_relations", relations)
    monkeypatch.setattr(StrandHomology, "_elimination", elimination)
    monkeypatch.setattr(StrandHomology, "_cone", cone)
    paper = counterexample_ideal()
    assert betti(paper, QQ).totals == (1, 8, 14, 8, 1)
    assert columns == [] and enumerated(paper) == 170
    assert len(images) == 170 and sum(not n for n, _ in images) == 104
    assert all(n == drawn for n, drawn in images) and sum(n for n, _ in images) == 105
    cones.clear()
    paper = counterexample_ideal()
    assert golod_decide(paper, QQ).route == "massey-arity-3"
    assert (len(columns), columns.count(0), sum(columns)) == (18, 0, 18)
    assert len(differentials) == 18 and set(differentials.values()) == {1}
    assert enumerated(paper) == 170
    for counts in (columns, differentials, cones):
        counts.clear()
    paper = counterexample_ideal()
    for u in lcm_lattice(paper):
        sh = strand(paper, QQ, u)
        for i in sh.degrees():
            sh.classes(i)
    assert (len(columns), columns.count(0), sum(columns)) == (66, 0, 105)
    assert len(differentials) == 66 and set(differentials.values()) == {1}
    assert enumerated(paper) == 149


def _unreduced_row(field, column):
    """A column as ``Echelon.insert`` stores it unreduced: scaled to 1 at its
    lead, every entry in the format of ``Field.of``."""
    sign = column[min(column)]
    return {k: field.of(sign * x) for k, x in column.items()}


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
def test_cone_columns_lead_at_their_private_faces(field):
    """In every strand and degree, each cone column d(K) whose face K - g0 is
    a cell, a matched cell, sits in the image echelon and in the tagged
    elimination of the whole cone (``EagerStrand``) unreduced, led by the key
    of K - g0 (below zero, under every cone mask), with sign +1 in d(K) since
    g0 is K's least member; no other row leads below zero, and the other
    rows are exactly the library's, which spans only the critical cells, the
    cone cells that are not matched.  A u below no generator still gives no
    strand."""
    private = 0
    for ideal in [counterexample_ideal()] + ideal_corpus(10):
        assert strand(ideal, field, (0,) * ideal.n_vars) is None
        for u in lcm_lattice(ideal):
            sh = strand(ideal, field, tuple(u))
            ref = EagerStrand(sh)
            assert sh.apex == 1 << sh.gens_below[0]
            for j in range(1, len(sh.gens_below) + 1):
                image, elimination = ref.image(j - 1), ref.elimination(j)[0]
                critical = set(sh._cone(j))
                leads = set()
                for k in ref.cone(j):
                    col = sh.boundary(k)
                    if k ^ sh.apex not in col:
                        assert k in critical
                        continue
                    assert k not in critical and col[k ^ sh.apex] == 1  # the first face
                    lead = (k ^ sh.apex) - sh.top
                    keyed = {lead if f == k ^ sh.apex else f: x for f, x in col.items()}
                    untagged = {x: field.of(y) for x, y in image.rows[lead].items()}
                    tagged = {x: field.of(y) for x, y in elimination.rows[lead].items()}
                    assert untagged == _unreduced_row(field, keyed)
                    assert tagged == _unreduced_row(field, {**keyed, sh.top + k: 1})
                    leads.add(lead)
                lazy = (sh._image(j - 1), sh._elimination(j)[0])
                for ech, rows in zip((image, elimination), lazy):
                    assert {k for k in ech.rows if k < 0} == leads
                    assert {k: r for k, r in ech.rows.items() if k >= 0} == rows.rows
                private += len(leads)
    assert private > 0


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
def test_each_cell_off_the_cone_leads_one_image_row(field):
    """The count behind ``dimension``: in every strand and degree of the
    paper's ideal and 10 corpus ideals, each degree-i cell J without g0 leads
    exactly one row of the whole cone's image of d_{i+1} (``EagerStrand``),
    at its key J - top, and no other row leads below zero; the others are
    the library's critical rows.  So dimension(i), read off the critical
    cells, is dim C_i - rank d_i - rank d_{i+1} with dim C_i counted over
    the whole degree.  The 75 cells off the cone are all the paper's: the
    corpus strands have none."""
    off = 0
    for ideal in [counterexample_ideal()] + ideal_corpus(10):
        for u in lcm_lattice(ideal):
            sh = strand(ideal, field, tuple(u))
            ref = EagerStrand(sh)
            for i in sh.degrees():
                cells, image = strand_cells(sh, i), ref.image(i)
                negative = sorted(k + sh.top for k in image.rows if k < 0)
                assert negative == [m for m in cells if not m & sh.apex]
                assert len(image.rows) - len(negative) == len(sh._image(i).rows)
                off += len(negative)
                ranks = len(ref.image(i - 1).rows) + len(image.rows)
                assert sh.dimension(i) == len(cells) - ranks
    assert off == 75


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
@pytest.mark.parametrize("dimension_first", [False, True], ids=["asked-first", "after-dimension"])
def test_early_exit_membership_agrees_with_the_full_span(field, dimension_first, monkeypatch):
    """``is_boundary`` absorbs image columns only until its answer is known,
    and agrees with membership in the whole apex cone's span
    (``EagerStrand``), on every strand and degree of the paper's ideal and 10
    corpus ideals: for each kernel vector of d_i, each boundary of a degree
    i + 1 cell, and their sums.  Asked first, the queries of some degrees
    leave columns pending; asked after ``dimension``, they find the image
    drained.  Either way the completed ``_image(i)`` is ``span`` of the
    critical columns row for row, in the same order."""
    outcomes, images, pending = Counter(), absorbed_columns(monkeypatch), 0
    for ideal in [counterexample_ideal()] + ideal_corpus(10):
        fresh = MonomialIdeal(ideal.variables, ideal.gens)  # no strand kept yet
        for u in lcm_lattice(fresh):
            sh = strand(fresh, field, tuple(u))
            ref = EagerStrand(sh)
            for i in sh.degrees():
                if dimension_first:
                    sh.dimension(i)
                cycles = sh._elimination(i)[1] if sh._cone(i) else []
                bounding = [sh.boundary(m) for m in strand_cells(sh, i + 1)]
                sums = [{m: cycle.get(m, 0) + b.get(m, 0) for m in {*cycle, *b}}
                        for cycle, b in zip(cycles, bounding)]
                made = len(images)
                for chain in cycles + bounding + sums:
                    if any(chain.values()):
                        answer = sh.is_boundary(i, chain)
                        assert answer == ref.is_boundary(i, chain)
                        outcomes[answer] += 1
                pending += sum(n - drawn for n, drawn in images[made:])
                full = span(field, [sh.boundary(m) for m in sh._cone(i + 1)[::-1]])
                assert list(sh._image(i).rows.items()) == list(full.rows.items())
                assert sh.dimension(i) == ref.dimension(i)
    assert outcomes[True] and outcomes[False]
    assert (pending == 0) == dimension_first


class _CountingRows(dict):
    """Echelon rows that count each row ``Echelon.reduce`` subtracts, and the
    entries of those rows."""

    subtracted = entries = 0

    def get(self, key, default=None):
        row = super().get(key, default)
        if row is not None:
            _CountingRows.subtracted += 1
            _CountingRows.entries += len(row)
        return row


def _count_rows(monkeypatch):
    """Make every echelon count into ``_CountingRows``, from zero."""
    real_init = Echelon.__init__

    def init(self, field):
        real_init(self, field)
        self.rows = _CountingRows()

    monkeypatch.setattr(Echelon, "__init__", init)
    monkeypatch.setattr(_CountingRows, "subtracted", 0)
    monkeypatch.setattr(_CountingRows, "entries", 0)


def test_sr16_betti_enters_most_image_columns_unreduced(monkeypatch):
    """Each image absorbs its cone from the largest mask down, so a column's
    least key mostly lies below every lead so far and the column enters
    unreduced.  ``betti`` over Q on the SR ideal of the 8-vertex complex
    (16 generators) makes 12,852 row subtractions touching 63,399 row
    entries; sorting each image's columns sparse first took 35,595 and
    623,316."""
    facets = ["0126", "0345", "0347", "0367", "1237", "2345"]
    ideal = stanley_reisner_ideal(SimplicialComplex.from_facets("01234567", facets))
    assert (ideal.n_gens, ideal.n_vars) == (16, 8)
    _count_rows(monkeypatch)
    assert betti(ideal, QQ).totals == (1, 16, 44, 52, 31, 9, 1)
    assert _CountingRows.entries <= 100_000


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
def test_skeleton_top_strand_eliminates_only_the_columns_without_private_faces(
        field, monkeypatch):
    """On the 4-skeleton's top strand, 3,053 of the 3,386 cone columns of d_5
    lead at their private faces, out of rank 3,191, so the image of d_5 and
    its tagged elimination span, reduce and keep only the other 333, the
    critical cells: over Q, 3,408 row subtractions over both, the image
    absorbing from its largest mask down (4,356 when it sorted its columns
    sparse first), against 219,925 when each column led at its least face."""
    gamma, _ = _skeleton_ideal()
    sh = strand(gamma, field, (1,) * gamma.n_vars)
    ref = EagerStrand(sh)
    cone, whole = ref.cone(5), ref.image(4)
    matched = sum(k < 0 for k in whole.rows)
    _count_rows(monkeypatch)
    image = sh._image(4)
    sh._elimination(5)
    assert len(cone) == 3386 and len(whole.rows) == 3191 and matched == 3053
    assert len(sh._cone(5)) == 333 == len(cone) - matched
    assert len(image.rows) == 3191 - 3053
    assert _CountingRows.subtracted <= 5000
    assert _CountingRows.entries <= 30000


def _combination(field, chains, rng):
    """A sum of the chains with random nonzero scalars up to +-2, without zeros."""
    out = {}
    for chain in chains:
        s = rng.choice((-2, -1, 1, 2))
        for m, x in chain.items():
            out[m] = field.of(out.get(m, 0) + s * x)
    return {m: x for m, x in out.items() if x}


@pytest.mark.parametrize("field", [QQ, GF2, GF3], ids=str)
def test_critical_cells_answer_as_the_eager_cone(field):
    """The library spans only the critical cells and clears each cell of a
    chain that misses g0 with its matched row, tag included, when the chain
    is asked about; ``EagerStrand`` spans every cone column with
    the matched rows built.  ``dimension``, the representatives,
    ``is_boundary``, ``coordinates`` and ``bounding_chain`` agree on every
    strand and degree of the paper's ideal and 10 corpus ideals, asked about
    each representative, the boundary of each cell of the degree above and
    random sums of them, and on the 4-skeleton's top strand in degree 4,
    past the cap, asked about its Massey value, its 13 representatives and
    the boundaries of 40 degree-5 cells, half of them without g0.  That
    strand has 3,386 cone cells in degree 5: 3,053 matched, 333 critical."""
    rng = random.Random(28)
    seen = Counter()

    def agree(sh, ref, i, probes):
        assert sh.dimension(i) == ref.dimension(i)
        assert [c.representative for c in sh.classes(i)] == ref.representatives(i)
        for z in probes + [_combination(sh.field, rng.sample(probes, 3), rng) for _ in range(4)
                           if len(probes) >= 3]:
            if not z:
                continue
            want = ref.bounding_chain(i, z)
            assert sh.bounding_chain(i, z) == want
            assert sh.is_boundary(i, z) == ref.is_boundary(i, z) == (want is not None)
            assert sh.coordinates(i, z) == ref.coordinates(i, z)
            seen[want is not None, all(m & sh.apex for m in z)] += 1

    for ideal in [counterexample_ideal()] + ideal_corpus(10):
        for u in lcm_lattice(ideal):
            sh = strand(ideal, field, u)
            ref = EagerStrand(sh)
            for i in sh.degrees():
                reps = [dict(r) for r in ref.representatives(i)]
                agree(sh, ref, i, reps + [_boundary_of(sh, {m: 1})
                                          for m in strand_cells(sh, i + 1)])
    assert all(seen[key] for key in product((True, False), repeat=2))
    gamma, (a, b, c) = _skeleton_ideal()
    res = ternary_massey_generators(gamma, field, a, b, c, b2_certified=True)
    sh = strand(gamma, field, (1,) * gamma.n_vars)
    ref = EagerStrand(sh)
    assert len(ref.cone(5)) == 3386 and len(sh._cone(5)) == 333
    assert sum(k < 0 for k in ref.image(4).rows) == 3053
    above = strand_cells(sh, 5)
    off = [m for m in above if not m & sh.apex]
    cells = rng.sample(off, 20) + rng.sample([m for m in above if m & sh.apex], 20)
    reps = [dict(r) for r in ref.representatives(4)]
    assert len(reps) == 13
    agree(sh, ref, 4, [dict(res.value_chain)] + reps + [_boundary_of(sh, {m: 1}) for m in cells])
