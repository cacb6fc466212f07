import random
from functools import partial
from itertools import combinations
from itertools import product as cartesian_product

import pytest

from conftest import (
    apply_columns,
    chain_to_cochain,
    cochain_vector,
    cone_cells,
    ideal_corpus,
    monomial_quotient,
    positional_columns,
    product_reduced,
    reduced_boundary,
    ref_generators_below,
    ref_lcm_lattice,
    ref_product,
    skeleton_ideal,
    strand_cells,
    subset_lcm,
    subset_multidegree,
)
from golod_lab.exact_linalg import GF2, QQ
from golod_lab.homology_engine import StrandHomology, homology_basis, strand
from golod_lab.monomial_core import (
    AmbientMismatchError,
    Monomial,
    MonomialIdeal,
    counterexample_ideal,
    lcm_of,
    parse_monomial,
    polarize,
)
from golod_lab.simplicial import (
    complex_of,
    reduced_cochain_complex,
    skeleton,
    stanley_reisner_ideal,
)
from golod_lab.taylor_dga import (
    fiber_complex,
    generators_below,
    lcm_lattice,
    mask_members,
    mask_of,
    product_sign,
)

EDGES = MonomialIdeal.from_strings(("x", "y", "z"), ["x*y", "y*z", "z*x"])


# Test-only references: the full-coefficient Taylor differential and product.
# The lcm-comparison definition of the field-reduced differential is
# conftest's reduced_boundary.


def boundary(ideal, mask):
    """Taylor differential of a basis subset, over the full Taylor complex.

    Returns a map ``smaller_mask -> (sign, monomial coefficient)``.  The empty
    subset has zero boundary.
    """
    out = {}
    m_I = subset_lcm(ideal, mask)
    sign = 1
    for i in mask_members(mask):
        rest = mask & ~(1 << i)
        out[rest] = (sign, monomial_quotient(m_I, subset_lcm(ideal, rest)))
        sign = -sign
    return out


def product(ideal, maskI, maskJ):
    """DGA product <I> * <J> in the full Taylor complex.

    Returns ``(sign, monomial coefficient, union mask)`` or None when the
    subsets intersect.
    """
    if maskI & maskJ:
        return None
    union = maskI | maskJ
    coeff = Monomial(ref_product(subset_lcm(ideal, maskI).exps, subset_lcm(ideal, maskJ).exps))
    coeff = monomial_quotient(coeff, subset_lcm(ideal, union))
    return (product_sign(maskI, maskJ), coeff, union)


def test_boundary_two_edges():
    # m_I = xyz: dropping xy leaves coefficient x, dropping yz leaves z
    out = boundary(EDGES, mask_of([0, 1]))
    x = parse_monomial("x", EDGES.variables)
    z = parse_monomial("z", EDGES.variables)
    assert out == {mask_of([1]): (1, x), mask_of([0]): (-1, z)}


def test_boundary_singleton():
    out = boundary(EDGES, mask_of([0]))
    assert out == {0: (1, EDGES.gens[0])}


def _full_boundary_of_chain(ideal, chain):
    """Apply the full Taylor differential to a chain with monomial coefficients."""
    acc = {}
    for mask, (sign, mono) in chain.items():
        for rest, (s2, m2) in boundary(ideal, mask).items():
            key = (rest, ref_product(mono.exps, m2.exps))
            acc[key] = acc.get(key, 0) + sign * s2
    return {k: v for k, v in acc.items() if v}


def test_boundary_squared_zero_counterexample():
    ideal = counterexample_ideal()
    for mask in range(1, 1 << ideal.n_gens):
        first = {m: (s, mono) for m, (s, mono) in boundary(ideal, mask).items()}
        assert _full_boundary_of_chain(ideal, first) == {}


def _strand_boundary(ideal, mask):
    """StrandHomology.boundary of a mask, read in the strand at its own lcm."""
    return strand(ideal, QQ, subset_multidegree(ideal, mask)).boundary(mask)


def test_reduced_boundary_all_edges():
    want = {mask_of([1, 2]): 1, mask_of([0, 2]): -1, mask_of([0, 1]): 1}
    assert _strand_boundary(EDGES, mask_of([0, 1, 2])) == want
    assert reduced_boundary(EDGES, mask_of([0, 1, 2])) == want


def test_reduced_boundary_two_edges_vanishes():
    assert _strand_boundary(EDGES, mask_of([0, 1])) == {}
    assert reduced_boundary(EDGES, mask_of([0, 1])) == {}


def test_reduced_boundary_filler_sign():
    # indices: a=0, ab=1, b=3; dropping ab keeps the lcm and carries one sign
    ideal = counterexample_ideal()
    assert _strand_boundary(ideal, mask_of([0, 1, 3])) == {mask_of([0, 3]): -1}
    assert reduced_boundary(ideal, mask_of([0, 1, 3])) == {mask_of([0, 3]): -1}


def test_reduced_boundary_matches_lcm_reference():
    """StrandHomology.boundary, the package's one differential, is the lcm
    comparison term for term on every strand basis mask, and on random masks
    of the 4-skeleton ideal, read in the strand at their lcm (mostly past the
    cap); the strand of any other lcm answers None."""
    ideals = [counterexample_ideal()] + ideal_corpus(20, seed=61)
    for ideal in ideals:
        for u in lcm_lattice(ideal):
            s = strand(ideal, QQ, u)
            for i in s.degrees():
                for mask in strand_cells(s, i):
                    assert s.boundary(mask) == reduced_boundary(ideal, mask)
    pol, _ = polarize(counterexample_ideal())
    gamma = stanley_reisner_ideal(skeleton(complex_of(pol), 4))
    assert gamma.n_gens == 20
    top = strand(gamma, QQ, (1,) * gamma.n_vars)
    rng = random.Random(62)
    for _ in range(200):
        mask = rng.randrange(1, 1 << gamma.n_gens)
        assert _strand_boundary(gamma, mask) == reduced_boundary(gamma, mask)
        if subset_multidegree(gamma, mask) != top.u:
            assert top.boundary(mask) is None


def test_product_self_zero():
    assert product(EDGES, mask_of([0]), mask_of([0])) is None
    assert product_reduced(EDGES, mask_of([0, 1]), mask_of([1])) is None


def test_product_coprime_generators():
    ideal = counterexample_ideal()
    sign, mono, union = product(ideal, mask_of([0]), mask_of([3]))
    assert (sign, union) == (1, mask_of([0, 3]))
    assert mono.is_constant
    assert product_reduced(ideal, mask_of([0]), mask_of([3])) == (1, mask_of([0, 3]))


def test_product_non_coprime_dies_in_reduction():
    ideal = counterexample_ideal()
    assert product_reduced(ideal, mask_of([0]), mask_of([1])) is None
    sign, mono, union = product(ideal, mask_of([0]), mask_of([1]))
    assert not mono.is_constant


def test_product_sign_order():
    # swapping disjoint singletons flips nothing for (0,3) but counts pairs
    ideal = counterexample_ideal()
    s1, _ = product_reduced(ideal, mask_of([0]), mask_of([3]))
    s2, _ = product_reduced(ideal, mask_of([3]), mask_of([0]))
    assert (s1, s2) == (1, -1)


def test_lcm_lattice_three_edges():
    lat = lcm_lattice(EDGES)
    # oracle: enumerate all nonempty subsets directly
    want = set()
    for r in range(1, 4):
        for c in combinations(range(3), r):
            want.add(tuple(lcm_of([EDGES.gens[i] for i in c], 3).exps))
    assert lat == tuple(sorted(want, key=lambda u: (sum(u), u)))
    assert len(lat) == 4


def test_lcm_lattice_single_generator():
    ideal = MonomialIdeal.from_strings(("x",), ["x^2"])
    assert len(lcm_lattice(ideal)) == 1


def test_lcm_lattice_contains_top_multidegree(example_ideal):
    lat = lcm_lattice(example_ideal)
    assert (1, 2, 1, 2, 3) in lat
    assert lcm_of(example_ideal.gens, example_ideal.n_vars).exps == (1, 2, 1, 2, 3)


def test_lattice_closure_matches_subset_enumeration_random():
    for ideal in ideal_corpus(15, seed=77):
        want = set()
        for r in range(1, ideal.n_gens + 1):
            for c in combinations(range(ideal.n_gens), r):
                want.add(tuple(lcm_of([ideal.gens[i] for i in c], ideal.n_vars).exps))
        assert frozenset(lcm_lattice(ideal)) == frozenset(want)


def test_lattice_and_generators_below_match_their_definitions():
    """The closure joined on codes is the pairwise-join closure on exponent
    tuples, the same tuple in the same order; the generators below each of
    its elements, and below multidegrees past the box or with a negative
    entry, are the ones that divide them: on the paper's ideal, its
    polarization, the 4-skeleton ideal and the corpus."""
    paper = counterexample_ideal()
    rng = random.Random(20261022)
    for ideal in [paper, polarize(paper)[0], skeleton_ideal(), *ideal_corpus()]:
        lattice = lcm_lattice(ideal)
        assert lattice == ref_lcm_lattice(ideal)
        for u in lattice:
            assert generators_below(ideal, u) == ref_generators_below(ideal, u)
            k = rng.randrange(ideal.n_vars)
            for e in (u[k] + 1 + rng.randint(0, 2), -1):
                v = u[:k] + (e,) + u[k + 1:]
                assert generators_below(ideal, v) == ref_generators_below(ideal, v)
            past = tuple(e + rng.randint(0, 2) for e in u)
            assert generators_below(ideal, past) == ref_generators_below(ideal, past)


def test_a_multidegree_of_the_wrong_length_raises():
    """A multidegree with fewer or more components than the ideal has
    variables is rejected by the code, and so by every question asked at
    it, before any strand is made; ``fiber --mdeg`` checks its length first."""
    paper = counterexample_ideal()
    for u in [(1, 2), (1, 2, 1, 2, 3, 0), ()]:
        for ask in (paper.code, paper.tops, partial(generators_below, paper),
                    partial(strand, paper, QQ), partial(homology_basis, paper, QQ, i=1)):
            with pytest.raises(AmbientMismatchError, match="does not match 5 variables"):
                ask(u)
    assert not any(key[0] == "strand" for key in paper.derived)


def test_strand_is_none_past_the_box():
    """A multidegree past the box, where no generator can attain it, is
    outside the lcm lattice even though generators lie below it; the fiber
    model agrees."""
    paper = counterexample_ideal()
    top = paper.box
    for k in range(paper.n_vars):
        u = top[:k] + (top[k] + 1,) + top[k + 1:]
        assert generators_below(paper, u) == list(range(paper.n_gens))
        assert strand(paper, QQ, u) is None
        with pytest.raises(ValueError, match="not in the lcm lattice"):
            fiber_complex(paper, u)
    assert strand(paper, QQ, top) is not None


def _subset_lcms(ideal):
    """The lcm exponents of every nonempty generator subset, by brute force."""
    lcm = {0: (0,) * ideal.n_vars}  # subset mask -> lcm exponents
    for mask in range(1, 1 << ideal.n_gens):
        low = (mask & -mask).bit_length() - 1
        rest = lcm[mask & (mask - 1)]
        lcm[mask] = tuple(max(a, b) for a, b in zip(rest, ideal.gens[low].exps))
    del lcm[0]
    return frozenset(lcm.values())


def test_lattice_closure_is_every_subset_lcm():
    """Joining the frontier with single generators reaches the lcm of every
    nonempty generator subset and nothing else: on the paper's ideal, its
    polarization and every corpus ideal with at most 12 generators."""
    paper = counterexample_ideal()
    ideals = [paper, polarize(paper)[0]] + [i for i in ideal_corpus() if i.n_gens <= 12]
    for ideal in ideals:
        assert frozenset(lcm_lattice(ideal)) == _subset_lcms(ideal)


def test_strand_lattice_test_matches_every_subset_lcm():
    """``strand`` reads lattice membership off the attain masks: on every
    multidegree of the box from 0 to the lcm of all generators (144 for the
    paper's ideal), it is None exactly when u is the lcm of no nonempty
    generator subset.  ``fiber_complex``, with its own lcm test, rejects
    the same multidegrees."""
    paper = counterexample_ideal()
    for ideal in [paper] + ideal_corpus(10):
        lcms = _subset_lcms(ideal)
        box = list(cartesian_product(*(range(e + 1) for e in lcm_of(ideal.gens, ideal.n_vars).exps)))
        assert len(box) == 144 or ideal is not paper
        for u in box:
            assert (strand(ideal, QQ, u) is None) == (u not in lcms)
            if u in lcms:
                fiber_complex(ideal, u)
            else:
                with pytest.raises(ValueError, match="not in the lcm lattice"):
                    fiber_complex(ideal, u)


def test_strand_three_edges():
    s = strand(EDGES, QQ, (1, 1, 1))
    assert len(strand_cells(s, 2)) == 3 and len(strand_cells(s, 3)) == 1
    assert len(strand_cells(s, 1)) == 0


def test_strand_minimal_generator():
    ideal = counterexample_ideal()
    s = strand(ideal, QQ, tuple(ideal.gens[0].exps))
    assert s.degrees() == [1]
    assert len(strand_cells(s, 1)) == 1


def test_strand_top_contains_all_generators(example_ideal):
    s = strand(example_ideal, QQ, (1, 2, 1, 2, 3))
    assert s.gens_below == list(range(8))


def test_strand_rejects_non_lattice_degree():
    assert strand(EDGES, QQ, (2, 0, 0)) is None


def test_strand_matrices_compose_to_zero(example_ideal):
    for u in lcm_lattice(example_ideal):
        s = strand(example_ideal, QQ, u)
        for i in s.degrees():
            lower = positional_columns(s, i)
            for col in positional_columns(s, i + 1):
                acc = {}
                for r, x in col.items():
                    for q, y in lower[r].items():
                        acc[q] = acc.get(q, 0) + x * y
                assert all(v == 0 for v in acc.values())


def test_strand_basis_sizes_invariant_under_reordering():
    rng = random.Random(21)
    ideal = counterexample_ideal()
    perm = list(range(8))
    rng.shuffle(perm)
    reordered = MonomialIdeal(ideal.variables, tuple(ideal.gens[i] for i in perm))
    for u in lcm_lattice(ideal):
        a = strand(ideal, QQ, u)
        b = strand(reordered, QQ, tuple(u))
        assert ({i: len(strand_cells(a, i)) for i in a.degrees()}
                == {i: len(strand_cells(b, i)) for i in b.degrees()})


def test_fiber_single_generator_strand():
    ideal = MonomialIdeal.from_strings(("x", "y"), ["x*y"])
    cx = fiber_complex(ideal, (1, 1))
    assert cx.facets == (frozenset(),)
    assert cx.ghost_vertices == ("g0",)


def test_fiber_three_edges():
    cx = fiber_complex(EDGES, (1, 1, 1))
    # oracle: all 8 subsets checked by hand; complement must still reach xyz
    faces = {frozenset(), frozenset(["g0"]), frozenset(["g1"]), frozenset(["g2"])}
    got = {f for k in range(-1, cx.dim + 1) for f in cx.faces_of_dim(k)}
    assert got == faces


def test_leibniz_rule_random():
    field = QQ
    for ideal in ideal_corpus(25, seed=31):
        g = ideal.n_gens
        rng = random.Random(g * 1000 + ideal.n_vars)
        for _ in range(10):
            maskI = rng.randrange(1, 1 << g)
            maskJ = rng.randrange(1, 1 << g)
            if maskI & maskJ:
                continue
            lhs = {}
            pr = product_reduced(ideal, maskI, maskJ)
            if pr is not None:
                s, union = pr
                for rest, sb in reduced_boundary(ideal, union).items():
                    lhs[rest] = lhs.get(rest, 0) + s * sb
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
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            assert lhs == rhs


def test_nonzero_reduced_products_have_multiplicative_lcm():
    for ideal in ideal_corpus(20, seed=41):
        g = ideal.n_gens
        for maskI in range(1, 1 << g):
            for maskJ in range(1, 1 << g):
                r = product_reduced(ideal, maskI, maskJ)
                if r is None:
                    continue
                assert ref_product(subset_multidegree(ideal, maskI),
                                   subset_multidegree(ideal, maskJ)) == subset_multidegree(ideal, r[1])
                assert bin(r[1]).count("1") == bin(maskI).count("1") + bin(maskJ).count("1")


def test_chain_to_cochain_full_subset(example_ideal):
    u = (1, 2, 1, 2, 3)
    full = mask_of(range(8))
    cochain = chain_to_cochain(example_ideal, u, {full: 1})
    assert list(cochain) == [frozenset()]


def test_chain_to_cochain_zero_chain(example_ideal):
    assert chain_to_cochain(example_ideal, (1, 2, 1, 2, 3), {}) == {}


def test_chain_to_cochain_massey_representative(example_ideal):
    u = (1, 2, 1, 2, 3)
    chain = {mask_of([0, 1, 3, 6]): -1, mask_of([0, 3, 4, 6]): -1}
    cochain = chain_to_cochain(example_ideal, u, chain)
    supports = {frozenset({"g2", "g4", "g5", "g7"}), frozenset({"g1", "g2", "g5", "g7"})}
    assert set(cochain) == supports
    assert {abs(c) for c in cochain.values()} == {1}


def test_chain_to_cochain_rejects_mixed_chains(example_ideal):
    with pytest.raises(ValueError):
        chain_to_cochain(
            example_ideal, (1, 2, 1, 2, 3), {mask_of([0, 1, 3, 6]): 1, mask_of(range(8)): 1}
        )


def _intertwining_holds(ideal, u, field):
    """chain_to_cochain must carry the strand differential to the coboundary."""
    s = strand(ideal, QQ, u)
    fib = fiber_complex(ideal, u)
    cc = reduced_cochain_complex(fib)
    n_below = len(s.gens_below)
    for i in s.degrees():
        for mask in strand_cells(s, i):
            image = chain_to_cochain(ideal, u, dict(reduced_boundary(ideal, mask)))
            cdim = n_below - i - 1
            phi = chain_to_cochain(ideal, u, {mask: 1})
            vec = cochain_vector(field, cc, cdim, phi)
            image_vec = apply_columns(field, cc.delta(cdim), vec, cc.n_faces(cdim + 1))
            want = {f: c for f, c in zip(cc.faces(cdim + 1), image_vec) if c != 0}
            got = {f: field.of(c) for f, c in image.items() if c != 0}
            if got != want:
                return False
    return True


def test_chain_to_cochain_intertwines_counterexample(example_ideal):
    for u in lcm_lattice(example_ideal):
        assert _intertwining_holds(example_ideal, tuple(u), QQ)


def test_chain_to_cochain_intertwines_random():
    for ideal in ideal_corpus(10, seed=51, max_gens=5):
        for u in lcm_lattice(ideal):
            assert _intertwining_holds(ideal, tuple(u), QQ)


def test_strand_degree_basis_matches_full_strand(example_ideal):
    """The critical cells of a fresh strand are the part of each whole degree
    that contains g0 and whose face without g0 is no cell."""
    for u in list(lcm_lattice(example_ideal))[:10]:
        u = tuple(u)
        s = strand(example_ideal, QQ, u)
        for i in s.degrees():
            lower = set(strand_cells(s, i - 1))
            want = [m for m in strand_cells(s, i) if m & s.apex and m ^ s.apex not in lower]
            assert StrandHomology(example_ideal, u, QQ)._cone(i) == want


def _ref_strand_degree_basis(ideal, u, i, apex=None):
    """Degree-i masks with lcm u, from the componentwise maximum of the
    exponent vectors of each combination: an independent check of the
    attain-mask rule."""
    below = generators_below(ideal, u)
    if apex is None:
        start, bit, pool, size = (0,) * len(u), 0, below, i
    else:
        start, bit, size = ideal.gens[apex].exps, 1 << apex, i - 1
        pool = [gi for gi in below if gi != apex]
    masks = []
    for c in combinations(pool, size):
        acc = list(start)
        for gi in c:
            for k, e in enumerate(ideal.gens[gi].exps):
                if e > acc[k]:
                    acc[k] = e
        if tuple(acc) == u:
            masks.append(mask_of(c) | bit)
    return sorted(masks)


def _basis_test_ideals():
    paper = counterexample_ideal()
    ideals = [paper, polarize(paper)[0]] + ideal_corpus(20, seed=20260811)
    assert sum(not ideal.is_squarefree for ideal in ideals) >= 10
    assert any(ideal.is_squarefree for ideal in ideals)
    return ideals


def test_strand_degree_basis_matches_exponent_reference():
    masks = 0
    for ideal in _basis_test_ideals():
        for u in lcm_lattice(ideal):
            u = tuple(u)
            s = strand(ideal, QQ, u)
            for i in range(len(s.gens_below) + 1):
                want = _ref_strand_degree_basis(ideal, u, i)
                assert strand_cells(s, i) == want
                masks += len(want)
                for g in s.gens_below if i else ():
                    assert cone_cells(s, i, g) == _ref_strand_degree_basis(ideal, u, i, apex=g)
                if i:
                    apex = s.gens_below[0]
                    lower = set(_ref_strand_degree_basis(ideal, u, i - 1))
                    cone = _ref_strand_degree_basis(ideal, u, i, apex=apex)
                    assert s._cone(i) == [m for m in cone if m ^ 1 << apex not in lower]
    assert masks > 400


def test_strand_degree_basis_skeleton_counts():
    """The 4-skeleton's top strand (20 generators): 498 masks in degree 3 and
    the 3,386-mask apex cone in degree 5 that its Massey value is tested
    against, 333 of them critical (their face without g0 is not in degree 4),
    all as the exponent reference enumerates them."""
    pol, _ = polarize(counterexample_ideal())
    gamma = stanley_reisner_ideal(skeleton(complex_of(pol), 4))
    top = (1,) * gamma.n_vars
    s = strand(gamma, QQ, top)
    below = s.gens_below
    assert len(below) == 20
    three = strand_cells(s, 3)
    assert len(three) == 498 and three == _ref_strand_degree_basis(gamma, top, 3)
    cone = _ref_strand_degree_basis(gamma, top, 5, below[0])
    assert len(cone) == 3386 and cone == cone_cells(s, 5, below[0])
    four = set(_ref_strand_degree_basis(gamma, top, 4))
    assert s._cone(5) == [m for m in cone if m ^ s.apex not in four] and len(s._cone(5)) == 333


def test_boundary_columns_match_reduced_boundary():
    """StrandHomology.boundary and the positional columns built from it keep
    a face exactly when it is a basis element one degree down; that must be
    reduced_boundary's lcm comparison, term for term and sign for sign, so
    no surviving term ever leaves its strand."""
    nonzero = 0
    for field in (QQ, GF2):
        for ideal in _basis_test_ideals():
            for u in lcm_lattice(ideal):
                s = strand(ideal, QQ, tuple(u))
                for i in range(1, max(s.degrees()) + 2):
                    rows = {m: r for r, m in enumerate(strand_cells(s, i - 1))}
                    want = []
                    for mask in strand_cells(s, i):
                        terms = reduced_boundary(ideal, mask)
                        assert s.boundary(mask) == terms
                        assert set(terms) <= set(rows)
                        want.append({rows[m]: sign for m, sign in terms.items()})
                    got = positional_columns(s, i)
                    assert got == want
                    nonzero += sum(map(len, got))
    assert nonzero > 1000


def test_mask_helpers():
    assert mask_members(0b1011) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
