import random
from fractions import Fraction
from functools import cache

import pytest

from conftest import ideal_corpus
from golod_lab import series_engine
from golod_lab.exact_linalg import GF2, GF3, QQ, Echelon, column_relations
from golod_lab.homology_engine import betti
from golod_lab.massey_golod import golod_decide
from golod_lab.monomial_core import Monomial, MonomialIdeal
from golod_lab.series_engine import (
    SeriesTrunc,
    _bar_columns,
    bar_homology_dim,
    expand_rational,
    p_series,
    q_series,
    series_compare,
)

M2 = MonomialIdeal.from_strings(("x", "y"), ["x^2", "x*y", "y^2"])


def test_expand_rational_trivial():
    assert expand_rational([1], [1], 4).coeffs == (1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        expand_rational([1], [0, 1], 2)


def test_expand_rational_geometric():
    assert expand_rational([1], [1, -2], 6).coeffs == (1, 2, 4, 8, 16, 32, 64)


def test_expand_rational_fractional_result():
    out = expand_rational([1], [2, 1], 2)
    assert out.coeffs == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8))


def test_printed_formula_expansion():
    # numerator (1+t)^5, denominator 1 - 8t^2 - 14t^3 - 8t^4 + t^6
    out = expand_rational([1, 5, 10, 10, 5, 1], [1, 0, -8, -14, -8, 0, 1], 5)
    assert out.coeffs == (1, 5, 18, 64, 227, 805)


def test_series_compare():
    p = SeriesTrunc((1, 2, 3), 2)
    q = SeriesTrunc((1, 2, 4), 2)
    assert series_compare(p, q) == (2, -1)
    assert series_compare(q, p) == (2, 1)
    assert series_compare(p, p) is None


def test_q_series_counterexample(example_ideal):
    assert q_series(example_ideal, QQ, 5).coeffs == (1, 5, 18, 64, 227, 806)


def test_q_series_principal():
    ideal = MonomialIdeal.from_strings(("x", "y"), ["x*y"])
    # (1+t)^2 / (1 - t^2) expanded by hand
    assert q_series(ideal, QQ, 3).coeffs == (1, 2, 2, 2)


def test_q_series_zero_ideal():
    ideal = MonomialIdeal(("x", "y", "z"), ())
    assert q_series(ideal, QQ, 4).coeffs == (1, 3, 3, 1, 0)


def test_p_series_zero_ideal_is_koszul():
    ideal = MonomialIdeal(("x", "y", "z"), ())
    p, _ = p_series(ideal, QQ, 3)
    assert p.coeffs == (1, 3, 3, 1)


def test_p_series_m2_equals_q_series():
    q = q_series(M2, QQ, 6)
    p, _ = p_series(M2, QQ, 6)
    assert p.coeffs == q.coeffs == (1, 2, 4, 8, 16, 32, 64)
    assert expand_rational([1, 2, 1], [1, 0, -3, -2], 6).coeffs == p.coeffs
    assert golod_decide(M2, QQ).status == "Golod"


def test_p_series_windowed_policy_m2():
    p, report = p_series(M2, QQ, 5, degree_cap_policy="windowed")
    assert p.coeffs == (1, 2, 4, 8, 16, 32)
    assert report.policy == "windowed"


def test_p_series_counterexample(example_ideal):
    p, _ = p_series(example_ideal, QQ, 5)
    assert p.coeffs == (1, 5, 18, 64, 227, 805)
    q = q_series(example_ideal, QQ, 5)
    assert series_compare(p, q) == (5, -1)


def test_p_series_unknown_policy():
    with pytest.raises(ValueError):
        p_series(M2, QQ, 2, degree_cap_policy="bogus")


def test_p_series_field_choice():
    p2, _ = p_series(M2, GF2, 4)
    assert p2.coeffs == (1, 2, 4, 8, 16)


def test_cap_report_contents(example_ideal):
    _, report = p_series(example_ideal, QQ, 2)
    assert report.policy == "serre"
    assert [s.step for s in report.steps] == [1, 2]
    assert "cap" in report.describe()


def test_bar_differential_squares_to_zero():
    # compose the sparse differentials explicitly on a small ring
    for (j, d) in ((3, 3), (3, 4), (4, 4)):
        cols_j = _bar_columns(M2, QQ, j, d)
        lower_cols = _bar_columns(M2, QQ, j - 1, d)
        for col in cols_j:
            acc = {}
            for r, c in col.items():
                for r2, c2 in lower_cols[r].items():
                    acc[r2] = acc.get(r2, 0) + c * c2
            assert all(v == 0 for v in acc.values())


def test_bar_dimensions_small():
    assert bar_homology_dim(M2, QQ, 0, 0) == 1
    assert bar_homology_dim(M2, QQ, 0, 1) == 0
    assert bar_homology_dim(M2, QQ, 1, 1) == 2
    # the square of the maximal ideal is zero, so Tor_2 sits in degree 2 only
    assert bar_homology_dim(M2, QQ, 2, 3) == 0
    assert sum(bar_homology_dim(M2, QQ, 2, d) for d in range(2, 5)) == 4


def test_bar_agrees_with_resolution_small_ideals():
    ideals = [
        MonomialIdeal.from_strings(("x", "y"), ["x*y"]),
        M2,
        MonomialIdeal.from_strings(("x", "y", "z"), ["x*y", "y*z"]),
        MonomialIdeal.from_strings(("x", "y"), ["x^2", "y^3"]),
        MonomialIdeal.from_strings(("x", "y", "z"), ["x*y*z"]),
    ]
    for ideal in ideals:
        p, _ = p_series(ideal, QQ, 3)
        for j in range(4):
            total = sum(bar_homology_dim(ideal, QQ, j, d) for d in range(j, 3 * j + 2))
            assert total == p.coeffs[j], ideal


def test_bar_counterexample_tor_two(example_ideal):
    total = sum(bar_homology_dim(example_ideal, QQ, 2, d) for d in range(2, 7))
    assert total == 18


def test_serre_inequality_on_corpus():
    # resolution side never exceeds the bound side, coefficient by coefficient
    corpus = ideal_corpus(100, seed=20260811)
    for ideal in corpus[::7]:
        q = q_series(ideal, QQ, 4)
        p, _ = p_series(ideal, QQ, 4)
        assert all(a <= b for a, b in zip(p.coeffs, q.coeffs))


def test_golod_verdict_implies_series_equality():
    ideals = [
        MonomialIdeal.from_strings(("x", "y"), ["x*y"]),
        M2,
        MonomialIdeal.from_strings(("x", "y", "z"), ["x*y", "y*z"]),
    ]
    for ideal in ideals:
        if golod_decide(ideal, QQ).status != "Golod":
            continue
        q = q_series(ideal, QQ, 5)
        p, _ = p_series(ideal, QQ, 5)
        assert p.coeffs == q.coeffs


def test_negative_truncation_order_is_rejected():
    calls = (
        lambda: p_series(M2, QQ, -1),
        lambda: p_series(M2, QQ, -1, degree_cap_policy="windowed"),
        lambda: q_series(M2, QQ, -1),
        lambda: expand_rational([1], [1], -1),
    )
    for call in calls:
        with pytest.raises(ValueError, match="truncation order must be non-negative"):
            call()


# ---------------------------------------------------------------------------
# the resolution step against a from-scratch reference


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _reference_step(ideal, field, gens, phi, cap):
    """The resolution step with no shortcut: standard monomials by enumeration
    and a divisibility test, kernels from column_relations, and every lift
    x_v K(u - e_v) absorbed before the kernel vectors at u are tried."""

    @cache
    def is_std(exps):
        return not any(g.divides(Monomial(exps)) for g in ideal.gens)

    @cache
    def std_monomials(d):
        return sorted(e for e in _compositions(d, ideal.n_vars) if is_std(e))

    by_u = {}
    for gi, dg in enumerate(gens):
        for d in range(cap - sum(dg) + 1):
            for m in std_monomials(d):
                by_u.setdefault(tuple(a + b for a, b in zip(dg, m)), []).append(gi)
    kernels, new_gens, new_phi, counts = {}, [], [], {}
    for u in sorted(by_u, key=lambda t: (sum(t), t)):
        basis = by_u[u]
        columns, row_keys = [], {}
        for gi in basis:
            col = {}
            for (pj, me), c in phi[gi].items():
                if is_std(tuple(a + b - g for a, b, g in zip(u, me, gens[gi]))):
                    col[row_keys.setdefault(pj, len(row_keys))] = c
            columns.append(col)
        _, _, relations = column_relations(field, columns, len(row_keys))
        kern = [{basis[k]: c for k, c in rel.items()} for rel in relations.values()]
        lifted = Echelon(field)
        for v in range(ideal.n_vars):
            prev_u = tuple(a - (k == v) for k, a in enumerate(u))
            for kv in kernels.get(prev_u, ()):
                lifted.absorb({
                    gi: c for gi, c in kv.items()
                    if is_std(tuple(a - b for a, b in zip(u, gens[gi])))
                })
        kernels[u] = kern
        for vec in kern:
            if lifted.absorb(vec):
                new_gens.append(u)
                new_phi.append({(gi, tuple(a - b for a, b in zip(u, gens[gi]))): c
                                for gi, c in vec.items()})
                counts[sum(u)] = counts.get(sum(u), 0) + 1
    dims = {u: len(kern) for u, kern in kernels.items() if kern}
    return new_gens, new_phi, counts, dims


def test_resolution_step_matches_reference(monkeypatch, example_ideal):
    rng = random.Random(20261018)
    corpus = [
        i for i in ideal_corpus(100, seed=20260811)
        if i.n_gens >= 2 and i.n_vars * max(g.degree for g in i.gens) <= 20
    ]
    cases = [
        (example_ideal, QQ, 5, "serre"),
        (example_ideal, GF2, 4, "serre"),
        (example_ideal, GF3, 3, "serre"),
        (example_ideal, GF2, 2, "windowed"),
    ]
    for k, ideal in enumerate(rng.sample(corpus, 12)):
        field = (QQ, GF2, GF3)[k % 3]
        cases += [(ideal, field, 4, "serre"), (ideal, field, 2, "windowed")]
    for ideal, field, n, policy in cases:
        got = p_series(ideal, field, n, degree_cap_policy=policy)
        with monkeypatch.context() as m:
            m.setattr(
                series_engine,
                "_resolution_step",
                lambda f, std, gens, phi, cap, known: _reference_step(ideal, f, gens, phi, cap),
            )
            want = p_series(ideal, field, n, degree_cap_policy=policy)
        assert got == want, (ideal, field, n, policy)


def test_p_series_eliminates_only_where_generators_appear(monkeypatch, example_ideal):
    # The resolution to order 5 visits 6,574 multidegrees; at all but these
    # the kernel dimension comes from exactness and the lifts span the kernel.
    eliminated = []
    kernel_at = series_engine._kernel_at

    def counting(field, u, *rest):
        eliminated.append(u)
        return kernel_at(field, u, *rest)

    monkeypatch.setattr(series_engine, "_kernel_at", counting)
    p, _ = p_series(example_ideal, GF2, 5)
    assert p.coeffs == (1, 5, 18, 64, 227, 805)
    assert len(eliminated) == 491


def test_resolution_step_checks_known_dimensions(monkeypatch):
    calls = []
    step = series_engine._resolution_step

    def recording(field, std, gens, phi, cap, known):
        prev, upto = known
        calls.append((field, std, gens, phi, cap, None if prev is None else dict(prev), upto))
        return step(field, std, gens, phi, cap, known)

    monkeypatch.setattr(series_engine, "_resolution_step", recording)
    assert p_series(M2, QQ, 3)[0].coeffs == (1, 2, 4, 8)
    field, std, gens, phi, cap, prev, upto = calls[1]  # step 3, after K_2's dimensions
    assert step(field, std, gens, phi, cap, (dict(prev), upto))[0].count((1, 2)) == 3
    # three new generators at (1, 2): raising dim K_2 there by 1 claims one
    # kernel dimension too few, which still leaves the lifts short, so the
    # kernel is eliminated there and contradicts it
    wrong = dict(prev)
    wrong[(1, 2)] = wrong.get((1, 2), 0) + 1
    with pytest.raises(AssertionError, match=r"kernel at \(1, 2\)"):
        step(field, std, gens, phi, cap, (wrong, upto))


def test_p_series_does_not_hash_the_ideal(monkeypatch, example_ideal):
    betti(example_ideal, GF2)  # strand homology is memoized per (ideal, field, u)
    calls = []
    plain_hash = MonomialIdeal.__hash__

    def counting_hash(self):
        calls.append(1)
        return plain_hash(self)

    monkeypatch.setattr(MonomialIdeal, "__hash__", counting_hash)
    p, _ = p_series(example_ideal, GF2, 5)
    assert p.coeffs == (1, 5, 18, 64, 227, 805)
    assert len(calls) <= 100
