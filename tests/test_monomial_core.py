import random
import re
from itertools import product

import pytest

from conftest import (
    ideal_corpus,
    ref_coprime,
    ref_divides,
    ref_divisor,
    ref_generators_below,
    ref_lcm,
    ref_lcm_lattice,
    ref_product,
    skeleton_ideal,
)
from golod_lab.monomial_core import (
    AmbientMismatchError,
    Monomial,
    MonomialIdeal,
    counterexample_generator_index,
    counterexample_ideal,
    format_ideal,
    format_monomial,
    lcm_of,
    minimalize,
    parse_ideal,
    parse_monomial,
    polarize,
)

V5 = ("x1", "x2", "y1", "y2", "z")


def m5(text):
    return parse_monomial(text, V5)


def test_lcm_disjoint_supports_multiply():
    """m_a and m_b of the paper's ideal have disjoint codes, and the OR of
    their codes decodes to their product, the lcm of coprime monomials."""
    ideal = counterexample_ideal()
    (a, b), (ea, eb) = (ideal.codes[0], ideal.codes[3]), (ideal.gens[0].exps, ideal.gens[3].exps)
    assert not a & b
    assert ideal.decode(a | b) == ref_product(ea, eb) == m5("x1*x2^2*y1*y2^2").exps


def test_lcm_idempotent():
    """The OR of a lattice element's code with itself decodes to the element;
    off the lattice, code rounds each exponent down to the largest exponent
    of that variable among the generators, and the rounding is idempotent,
    past the box too."""
    ideal = counterexample_ideal()
    for u in ref_lcm_lattice(ideal):
        assert ideal.decode(ideal.code(u) | ideal.code(u)) == u
    rng = random.Random(11)
    for _ in range(200):
        u = tuple(rng.randint(0, 4) for _ in range(ideal.n_vars))
        low = ideal.decode(ideal.code(u))
        assert low == tuple(max((g.exps[k] for g in ideal.gens if g.exps[k] <= u[k]), default=0)
                            for k in range(ideal.n_vars))
        assert ideal.code(low) == ideal.code(u)


def test_lcm_example_generators():
    ideal = counterexample_ideal()
    assert ideal.decode(ideal.codes[0] | ideal.codes[1]) == m5("x1*x2^2*y1*y2").exps


def test_lcm_properties_random():
    """On random ideals in 4 variables, the OR of two lattice codes is the code
    of their lcm, so joins chain on codes: decoding the OR of three codes
    gives the lcm in either bracketing, and each operand divides it."""
    rng = random.Random(10)
    for _ in range(50):
        pool = [Monomial(tuple(rng.randint(0, 3) for _ in range(4))) for _ in range(4)]
        gens = minimalize([g for g in pool if not g.is_constant])
        ideal = MonomialIdeal(("x", "y", "z", "w"), tuple(gens))
        lattice = ref_lcm_lattice(ideal)
        for _ in range(10):
            a, b, c = (rng.choice(lattice) for _ in range(3))
            ca, cb, cc = map(ideal.code, (a, b, c))
            assert ideal.code(ref_lcm(a, b)) == ca | cb
            assert ideal.decode(ca | cb | cc) == ref_lcm(a, ref_lcm(b, c)) == ref_lcm(ref_lcm(a, b), c)
            assert ref_divides(a, ideal.decode(ca | cb))


def test_coprime_and_divides():
    """On the paper's ideal: m_a and m_b have disjoint codes, m_a and m_ab do
    not; the code of m_ab#c lies inside the box's, and that of x2^2 not
    inside x2's."""
    ideal = counterexample_ideal()
    g = ideal.codes
    assert not g[0] & g[3]
    assert g[0] & g[1]
    assert not g[2] & ~ideal.code(m5("x1*x2^2*y1*y2^2*z^3").exps)
    assert ideal.code(m5("x2^2").exps) & ~ideal.code(m5("x2").exps)


def test_ambient_mismatch():
    """code and tops reject a multidegree of the wrong length, and the
    constructor a generator of the wrong length, with their messages."""
    ideal = counterexample_ideal()
    for u in ((1, 0), (1, 0, 0, 0, 0, 0)):
        for op in (ideal.code, ideal.tops):
            with pytest.raises(AmbientMismatchError,
                               match=re.escape(f"multidegree {u} does not match 5 variables")):
                op(u)
    with pytest.raises(AmbientMismatchError, match=r"^generator \(1, 0, 0\) does not match 2"):
        MonomialIdeal(("x", "y"), (Monomial((1, 0, 0)),))


def test_monomial_kernels_match_their_definitions():
    """On seeded exponent vectors a, b with many zeros, each exponent of a
    and b an exponent of the generators (a, 1, 0) and (b, 0, 1): the codes
    of a and b answer divides, lcm and coprime as the exponent tuples do,
    with both answers of each test drawn; code rejects a multidegree of the
    wrong length and a negative exponent still raises, with their messages."""
    rng = random.Random(20261019)
    seen = set()
    for _ in range(2000):
        n = rng.randint(0, 6)
        a = tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n))
        b = tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n))
        if rng.random() < 0.3:  # a multiple of a, so that a divides b
            b = ref_product(a, b)
        ideal = MonomialIdeal.from_exponents([f"x{k}" for k in range(n + 2)],
                                             [a + (1, 0), b + (0, 1)])
        divides, coprime = _assert_codes_answer(ideal, a + (0, 0), b + (0, 0))
        seen.update({("divides", divides), ("coprime", coprime)})
        with pytest.raises(AmbientMismatchError,
                           match=re.escape(f"multidegree {b + (0, 0, 0)} does not match {n + 2} ")):
            ideal.code(b + (0, 0, 0))
        if n:
            neg = list(a)
            neg[rng.randrange(n)] = -rng.randint(1, 3)
            with pytest.raises(ValueError, match=r"^negative exponent in \("):
                Monomial(tuple(neg))
    assert seen == {(k, v) for k in ("divides", "coprime") for v in (True, False)}


def test_minimalize_rejects_mixed_lengths():
    """The first generator whose length differs from the first one's is named
    against it, whatever the order of divisibility."""
    x, xy, z = Monomial((1, 0)), Monomial((1, 1)), Monomial((0, 0, 1))
    for gens in ([x, z], [xy, x, z], [x, xy, z, Monomial((1,))]):
        with pytest.raises(AmbientMismatchError, match="^monomials over 3 and 2 variables$"):
            minimalize(gens)
    with pytest.raises(AmbientMismatchError, match="^monomials over 2 and 3 variables$"):
        minimalize([z, x])
    with pytest.raises(ValueError, match="constant monomial"):
        minimalize([x, z, Monomial((0, 0))])


def test_support_and_degree():
    m = m5("x2^2*y2^2*z")
    assert m.degree == 5
    assert m.support == {1, 3, 4}


def test_minimalize():
    x, xy = Monomial((1, 0)), Monomial((1, 1))
    assert minimalize([x, xy]) == [x]
    sq = Monomial((2, 0))
    y = Monomial((0, 1))
    assert minimalize([sq, sq, y]) == [sq, y]
    gens = counterexample_ideal().gens
    assert minimalize(list(gens)) == list(gens)
    assert minimalize(minimalize([x, xy, y])) == minimalize([x, xy, y])


def test_minimalize_rejects_constant():
    with pytest.raises(ValueError):
        minimalize([Monomial((0, 0))])


def test_ideal_requires_minimal_generators():
    with pytest.raises(ValueError):
        MonomialIdeal.from_strings(("x", "y"), ["x", "x*y"])


def test_ideal_and_minimalize_share_one_minimality_rule():
    """The constructor rejects exactly the lists minimalize shortens, naming
    the first redundant generator and its first divisor; of equal
    generators the first is kept."""
    with pytest.raises(ValueError, match=r"not minimal: x divides x\*y;"):
        MonomialIdeal.from_strings(("x", "y"), ["x*y", "y^2", "x"])
    with pytest.raises(ValueError, match="not minimal: y divides y;"):
        MonomialIdeal.from_strings(("x", "y"), ["y", "x", "y"])
    rng = random.Random(7)
    for _ in range(300):
        gens = [Monomial(tuple(rng.randint(0, 2) for _ in range(3))) for _ in range(5)]
        gens = [g for g in gens if not g.is_constant]
        kept = minimalize(gens)
        assert MonomialIdeal(("x", "y", "z"), tuple(kept)).gens == tuple(kept)
        assert kept == [g for k, g in enumerate(gens) if g not in gens[:k]
                        and not any(ref_divides(h.exps, g.exps) and h != g for h in gens)]
        if kept != gens:
            with pytest.raises(ValueError, match="not minimal"):
                MonomialIdeal(("x", "y", "z"), tuple(gens))


def test_counterexample_ideal_shape():
    ideal = counterexample_ideal()
    assert ideal.n_gens == 8
    assert ideal.n_vars == 5
    assert ideal.format_monomial(ideal.gens[5]) == "x2^2*y2^2*z"
    assert counterexample_generator_index("m_bc#a") == 5
    assert counterexample_generator_index("a") == 0


def test_polarize_pure_power():
    ideal = MonomialIdeal.from_strings(("x",), ["x^2"])
    pol, vm = polarize(ideal)
    assert pol.variables == ("x_1", "x_2")
    assert [pol.format_monomial(g) for g in pol.gens] == ["x_1*x_2"]


def test_polarize_counterexample_counts():
    # per-variable maximal exponents 1,2,1,2,3 add up to nine variables
    pol, vm = polarize(counterexample_ideal())
    assert pol.n_vars == 9
    assert pol.n_gens == 8
    assert pol.is_squarefree


def test_polarize_squarefree_identity():
    ideal = MonomialIdeal.from_strings(("x", "y", "z"), ["x*y", "y*z"])
    pol, vm = polarize(ideal)
    assert pol == ideal
    assert vm.new_to_old == (0, 1, 2)


def test_polarize_roundtrip_and_idempotence():
    ideal = counterexample_ideal()
    pol, vm = polarize(ideal)
    back = []
    for g in pol.gens:
        exps = [0] * ideal.n_vars
        for i, e in enumerate(g.exps):
            exps[vm.new_to_old[i]] += e
        back.append(Monomial(tuple(exps)))
    assert MonomialIdeal(ideal.variables, tuple(back)) == ideal
    pol2, vm2 = polarize(pol)
    assert pol2 == pol


def test_polarize_preserves_order():
    ideal = counterexample_ideal()
    pol, vm = polarize(ideal)
    for g, p in zip(ideal.gens, pol.gens):
        assert p.degree == g.degree


def test_ideal_text_roundtrip():
    ideal = counterexample_ideal()
    text = format_ideal(ideal)
    assert parse_ideal(text) == ideal


def test_ideal_text_comments_and_errors():
    ideal = parse_ideal("# header\nvars: x y\n x^2 # tail comment\n\ny^2\n")
    assert [format_monomial(g, ideal.variables) for g in ideal.gens] == ["x^2", "y^2"]
    with pytest.raises(ValueError):
        parse_ideal("x^2\n")
    with pytest.raises(ValueError):
        parse_ideal("vars: x\nq^2\n")


def test_parse_monomial_forms():
    assert parse_monomial("1", ("x",)) == Monomial((0,))
    assert parse_monomial("x*x", ("x",)) == Monomial((2,))
    with pytest.raises(ValueError):
        parse_monomial("x$2", ("x",))


def _assert_codes_answer(ideal, a, b):
    """Subset, OR and disjointness of the codes of lattice elements a, b
    answer divides, lcm and coprime as the exponent tuples do."""
    ca, cb = ideal.code(a), ideal.code(b)
    assert (not ca & ~cb) is ref_divides(a, b)
    assert ideal.decode(ca | cb) == ref_lcm(a, b)
    assert (not ca & cb) is ref_coprime(a, b)
    return ref_divides(a, b), ref_coprime(a, b)


def test_codes_answer_divides_lcm_and_coprime_on_generator_pairs():
    """On every generator pair of the paper's ideal, its polarization, the
    4-skeleton ideal and the 100-ideal corpus: the box is the lcm of the
    generators, each code is the generator's and decodes back to it, and
    the codes answer divides, lcm and coprime."""
    paper = counterexample_ideal()
    seen = set()
    for ideal in [paper, polarize(paper)[0], skeleton_ideal(), *ideal_corpus()]:
        assert ideal.box == lcm_of(ideal.gens, ideal.n_vars).exps
        assert len(ideal.codes) == ideal.n_gens
        for g, c in zip(ideal.gens, ideal.codes):
            assert ideal.code(g.exps) == c and ideal.decode(c) == g.exps
        for g, h in product(ideal.gens, repeat=2):
            seen.add(_assert_codes_answer(ideal, g.exps, h.exps))
    assert seen == {(False, False), (False, True), (True, False)}


def test_codes_answer_on_random_monomials_up_to_exponent_5():
    """Ideals of random non-squarefree monomials with exponents up to 5, a
    variable of width 0 among them: on every pair of lattice elements and
    the constant, the codes answer divides, lcm and coprime and decode
    inverts code; at random multidegrees, past the box too, a code lies
    below exactly the generators that divide it, and code clamps to the box."""
    rng = random.Random(20261020)
    seen = set()
    for _ in range(150):
        n = rng.randint(1, 5)
        pool = [Monomial(tuple(rng.choice((0, 0, 1, 2, 3, 4, 5)) if k else 0 for k in range(n)))
                for _ in range(rng.randint(1, 6))]
        gens = minimalize([g for g in pool if not g.is_constant])
        if not gens:
            continue
        ideal = MonomialIdeal(tuple(f"x{k}" for k in range(n)), tuple(gens))
        elements = [(0,) * n, *ref_lcm_lattice(ideal)]
        for a, b in product(elements, repeat=2):
            seen.add(_assert_codes_answer(ideal, a, b))
        assert all(ideal.decode(ideal.code(a)) == a for a in elements)
        for _ in range(10):
            u = tuple(rng.randint(0, 7) for _ in range(n))
            outside = ~ideal.code(u)
            assert [i for i, c in enumerate(ideal.codes) if not c & outside] == \
                ref_generators_below(ideal, u)
            assert ideal.code(u) == ideal.code(tuple(map(min, u, ideal.box)))
    assert seen == {(d, c) for d in (True, False) for c in (True, False)}


def test_codes_stay_narrow_however_large_the_exponents():
    """A code has one bit per distinct positive exponent of each variable,
    so exponents of 10^12 cost no more than exponents of 1, and the order
    tests on them still answer as the exponent tuples do."""
    big = 10**12
    ideal = MonomialIdeal.from_exponents(
        ("x", "y", "z"), [(big, 0, 0), (1, 1, 0), (0, big, big + 1), (3, 0, big // 2)])
    assert max(ideal.codes).bit_length() <= ideal.n_vars * ideal.n_gens
    assert ideal.box == (big, big, big + 1)
    for a, b in product(ref_lcm_lattice(ideal), repeat=2):
        _assert_codes_answer(ideal, a, b)
    assert ideal.code((big, big, big)).bit_length() <= ideal.n_vars * ideal.n_gens


def test_minimality_matches_the_exponent_reference():
    """minimalize keeps exactly the generators the exponent-tuple rule keeps,
    and the constructor names the same first redundant generator and its
    first divisor, on random lists with duplicates and multiples."""
    rng = random.Random(20261021)
    rejected = 0
    for _ in range(500):
        n = rng.randint(1, 4)
        pool = [Monomial(tuple(rng.randint(0, 5) for _ in range(n))) for _ in range(4)]
        pool = [g for g in pool if not g.is_constant]
        if not pool:
            continue
        gens = pool + rng.choices(pool, k=2)
        gens += [Monomial(ref_product(g.exps, tuple(rng.randint(0, 1) for _ in range(n))))
                 for g in pool[:2]]
        rng.shuffle(gens)
        assert minimalize(gens) == [g for i, g in enumerate(gens) if ref_divisor(gens, i) is None]
        variables = tuple(f"x{k}" for k in range(n))
        first = next((i for i in range(len(gens)) if ref_divisor(gens, i) is not None), None)
        if first is None:
            assert MonomialIdeal(variables, tuple(gens)).gens == tuple(gens)
            continue
        rejected += 1
        j = ref_divisor(gens, first)
        with pytest.raises(ValueError) as info:
            MonomialIdeal(variables, tuple(gens))
        assert str(info.value) == (
            f"generators are not minimal: {format_monomial(gens[j], variables)} "
            f"divides {format_monomial(gens[first], variables)}; run minimalize first"
        )
    assert rejected > 400
