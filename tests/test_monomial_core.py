import random

import pytest

from golod_lab.monomial_core import (
    AmbientMismatchError,
    Monomial,
    MonomialIdeal,
    counterexample_generator_index,
    counterexample_ideal,
    format_ideal,
    format_monomial,
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
