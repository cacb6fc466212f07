import random
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
    assert m5("x1*x2^2").lcm(m5("y1*y2^2")) == m5("x1*x2^2*y1*y2^2")


def test_lcm_idempotent():
    m = m5("x1*x2*y1")
    assert m.lcm(m) == m


def test_lcm_example_generators():
    assert m5("x1*x2^2").lcm(m5("x1*x2*y1*y2")) == m5("x1*x2^2*y1*y2")


def test_lcm_properties_random():
    rng = random.Random(10)
    for _ in range(50):
        a, b, c = (
            Monomial(tuple(rng.randint(0, 3) for _ in range(4))) for _ in range(3)
        )
        assert a.lcm(b) == b.lcm(a)
        assert a.lcm(b.lcm(c)) == a.lcm(b).lcm(c)
        assert a.divides(a.lcm(b))


def test_coprime_and_divides():
    assert m5("x1*x2^2").coprime(m5("y1*y2^2"))
    assert not m5("x1*x2^2").coprime(m5("x1*x2*y1*y2"))
    assert m5("x1*y1*z").divides(m5("x1*x2^2*y1*y2^2*z^3"))
    assert not m5("x1^2").divides(m5("x1"))


def test_ambient_mismatch():
    with pytest.raises(AmbientMismatchError):
        Monomial((1, 0)).lcm(Monomial((1, 0, 0)))


def test_monomial_kernels_match_their_definitions():
    """lcm, divides, coprime and the product agree with their pairwise
    definitions on seeded exponent vectors with many zeros, with both
    answers of each test drawn; operands of different lengths and negative
    exponents still raise, with their messages."""
    rng = random.Random(20261019)
    seen = set()
    for _ in range(2000):
        n = rng.randint(0, 6)
        a = tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n))
        b = tuple(rng.choice((0, 0, 0, 1, 2, 3)) for _ in range(n))
        if rng.random() < 0.3:  # a multiple of a, so that a divides b
            b = ref_product(a, b)
        ma, mb = Monomial(a), Monomial(b)
        assert ma.lcm(mb) == Monomial(ref_lcm(a, b))
        assert (ma * mb) == Monomial(ref_product(a, b))
        assert ma.divides(mb) is ref_divides(a, b)
        assert ma.coprime(mb) is ref_coprime(a, b)
        seen.update({("divides", ma.divides(mb)), ("coprime", ma.coprime(mb))})
        longer = Monomial(b + (rng.randint(0, 2),))
        for op in (ma.lcm, ma.divides, ma.coprime, ma.__mul__):
            with pytest.raises(AmbientMismatchError,
                               match=f"^monomials over {n} and {n + 1} variables$"):
                op(longer)
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
                        and not any(h.divides(g) and h != g for h in gens)]
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
        gens += [g * Monomial(tuple(rng.randint(0, 1) for _ in range(n))) for g in pool[:2]]
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
