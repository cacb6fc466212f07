import random
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb
from operator import add, le

import pytest

from conftest import (
    BarComplex,
    expand_rational,
    ideal_corpus,
    q_bigraded,
    ref_divides,
    reference_p_series,
    std_table,
    step_codec,
)
from golod_lab import homology_engine, series_engine
from golod_lab.exact_linalg import GF2, GF3, QQ, Echelon, column_relations
from golod_lab.homology_engine import betti
from golod_lab.massey_golod import golod_decide
from golod_lab.monomial_core import Monomial, MonomialIdeal, TooLarge, counterexample_ideal, lcm_of, polarize
from golod_lab.simplicial import complex_of, skeleton, stanley_reisner_ideal
from golod_lab.series_engine import (
    SeriesTrunc,
    _std_table,
    p_series,
    q_series,
    series_compare,
)

M2 = MonomialIdeal.from_strings(("x", "y"), ["x^2", "x*y", "y^2"])
# lcm boxes whose exponents sit at the edges of the packed field widths
EDGE_IDEALS = [
    MonomialIdeal.from_strings(tuple("xyzwv"), ["x*y^3", "y^2*z^4", "z*w^7", "w^2*v^8"]),
    MonomialIdeal.from_strings(tuple("xyz"), ["x^3*y", "y^4*z", "x*z^7"]),
    MonomialIdeal.from_strings(tuple("xy"), ["x^8", "x*y^3", "y^4"]),
    MonomialIdeal.from_strings(tuple("xyzw"), ["x^7*y", "y^8", "z*w", "x^4*w^3"]),
    MonomialIdeal.from_strings(tuple("xyz"), ["x^8*y", "y^7*z^3", "x*z^4"]),
]


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


def test_q_series_matches_rational_expansion(example_ideal):
    # q_series must equal the rational function
    # (1+t)^vars / (1 - sum_i b_i t^(i+1)), and so must the column sums of
    # the bigraded bound the resolution's steps are checked against
    cases = [(example_ideal, field) for field in (QQ, GF2, GF3)]
    cases += [
        (ideal, (QQ, GF2, GF3)[k % 3])
        for k, ideal in enumerate(ideal_corpus(100, seed=20260811))
    ]
    checked = 0
    for ideal, field in cases:
        bd = betti(ideal, field)
        num = [comb(ideal.n_vars, k) for k in range(ideal.n_vars + 1)]
        den = [1, 0] + [-bd.total(i) for i in range(1, bd.projective_dimension + 1)]
        for n in range(7):
            want = expand_rational(num, den, n)
            assert q_series(ideal, field, n) == want, (ideal, field, n)
            table = q_bigraded(ideal, field, n)
            assert tuple(sum(table.get(j, {}).values()) for j in range(n + 1)) == want.coeffs
            checked += 1
    assert checked == 721


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


def test_p_series_counterexample(example_ideal):
    p, _ = p_series(example_ideal, QQ, 5)
    assert p.coeffs == (1, 5, 18, 64, 227, 805)
    q = q_series(example_ideal, QQ, 5)
    assert series_compare(p, q) == (5, -1)


def test_box_bound_counts_multidegrees(example_ideal, monkeypatch):
    """The paper's lcm box (1, 2, 1, 2, 3) holds 2 * 3 * 2 * 3 * 4 = 144
    multidegrees: the series answers with the bound at 144 and raises
    ``TooLarge`` at 143, before it enumerates the box."""
    monkeypatch.setattr(series_engine, "_BOX_BOUND", 144)
    assert p_series(example_ideal, QQ, 5)[0].coeffs[-1] == 805
    monkeypatch.setattr(series_engine, "_BOX_BOUND", 143)

    def unreachable(*args):
        raise AssertionError("the box was enumerated")

    monkeypatch.setattr(series_engine, "_std_table", unreachable)
    with pytest.raises(TooLarge, match=r"lcm box \(1, 2, 1, 2, 3\) has 144 multidegrees, past 143"):
        p_series(example_ideal, QQ, 5)


def test_p_series_field_choice():
    p2, _ = p_series(M2, GF2, 4)
    assert p2.coeffs == (1, 2, 4, 8, 16)


def test_p_series_matches_the_unboxed_resolution(example_ideal):
    # the box resolution and the division give the unboxed resolution's
    # coefficients and report, on the whole corpus and past order 5
    for ideal in ideal_corpus(100, seed=20260811):
        got, want = p_series(ideal, QQ, 4), reference_p_series(ideal, QQ, 4)
        assert got == want and got[1].describe() == want[1].describe(), ideal
    for field in (QQ, GF2):
        got, want = p_series(example_ideal, field, 6), reference_p_series(example_ideal, field, 6)
        assert got == want and got[1].describe() == want[1].describe(), field
        assert got[0].coeffs == (1, 5, 18, 64, 227, 805, 2855)
    # box exponents at the edges of the packed fields' widths (1, 3 | 4, 7 | 8)
    for ideal, n in ((EDGE_IDEALS[0], 4), *((i, 5) for i in EDGE_IDEALS[1:])):
        assert set(ideal.box) <= {1, 3, 4, 7, 8}, ideal.box
        got, want = p_series(ideal, QQ, n), reference_p_series(ideal, QQ, n)
        assert got == want and got[1].describe() == want[1].describe(), ideal


@pytest.mark.parametrize("box", [(1, 3, 4), (8, 0, 7), (7, 1, 8, 3), (4, 0, 1)])
def test_packed_multidegrees_keep_order_and_divisibility(box):
    # every u <= box: int order is tuple order, unpack inverts pack, the
    # guard-bit test of m <= room is the componentwise one on every pair,
    # and u - e_v is taken exactly where u_v > 0
    pk = series_engine._Packing(box)
    box_tuples = list(product(*(range(w + 1) for w in box)))
    packed = list(map(pk.pack, box_tuples))
    assert packed == sorted(packed) and len(set(packed)) == len(packed)
    assert list(map(pk.unpack, packed)) == box_tuples
    for room, r in zip(box_tuples, packed):
        for m, x in zip(box_tuples, packed):
            assert (((r | pk.guard) - x) & pk.guard == pk.guard) == all(map(le, m, room))
    support = [v for v, w in enumerate(box) if w]
    for u, x in zip(box_tuples, packed):
        down = [pk.unpack(x - unit) for mask, unit in pk.steps if x & mask]
        assert down == [u[:v] + (u[v] - 1,) + u[v + 1:] for v in support if u[v]]


def test_std_table_grows_only_inside_the_box(example_ideal):
    """The box series reads standard monomials only inside the lcm box, and
    grows only those: per degree, the unboxed table cut to the box, on the
    paper's ideal (56 of its 519 standard monomials of degree <= 9) and the
    corpus."""
    sizes = []
    for ideal in [example_ideal] + ideal_corpus(100, seed=20260811):
        box = lcm_of(ideal.gens, ideal.n_vars).exps
        by_degree, is_std = _std_table(ideal, box)
        every, _ = std_table(ideal, sum(box))
        assert by_degree == [[m for m in ms if all(map(le, m, box))] for ms in every]
        assert is_std == {m for ms in by_degree for m in ms}
        sizes.append((len(is_std), sum(map(len, every))))
    assert sizes[0] == (56, 519)


def test_resolution_report_contents(example_ideal):
    _, report = p_series(example_ideal, QQ, 2)
    assert [(s.step, s.generators, s.degrees) for s in report.steps] == [
        (1, 5, ((1, 5),)),
        (2, 18, ((2, 10), (3, 4), (4, 3), (5, 1))),
    ]
    assert report.describe().splitlines() == [
        "minimal resolution of the residue field:",
        "  step 1: 5 generators (by degree 1:5)",
        "  step 2: 18 generators (by degree 2:10, 3:4, 4:3, 5:1)",
    ]
    assert "cap" not in report.describe()
    # k[x, y]/(x) = k[y] is regular: its resolution ends after step 1
    _, report = p_series(MonomialIdeal.from_strings(("x", "y"), ["x"]), QQ, 3)
    assert report.describe().splitlines()[1:] == [
        "  step 1: 1 generators (by degree 1:1)",
        "  step 2: 0 generators (by degree -)",
        "  step 3: 0 generators (by degree -)",
    ]


def test_bar_differential_squares_to_zero():
    # compose the sparse differentials explicitly on a small ring
    bar = BarComplex(M2, QQ)
    for (j, d) in ((3, 3), (3, 4), (4, 4)):
        cols_j = bar.columns(j, d)
        lower_cols = bar.columns(j - 1, d)
        for col in cols_j:
            acc = {}
            for r, c in col.items():
                for r2, c2 in lower_cols[r].items():
                    acc[r2] = acc.get(r2, 0) + c * c2
            assert all(v == 0 for v in acc.values())


def test_bar_dimensions_small():
    bar = BarComplex(M2, QQ)
    assert bar.homology_dim(0, 0) == 1
    assert bar.homology_dim(0, 1) == 0
    assert bar.homology_dim(1, 1) == 2
    # the square of the maximal ideal is zero, so Tor_2 sits in degree 2 only
    assert bar.homology_dim(2, 3) == 0
    assert sum(bar.homology_dim(2, d) for d in range(2, 5)) == 4


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
        bar = BarComplex(ideal, QQ)
        for j in range(4):
            total = sum(bar.homology_dim(j, d) for d in range(j, 3 * j + 2))
            assert total == p.coeffs[j], ideal


def test_bar_counterexample_tor_two(example_ideal):
    bar = BarComplex(example_ideal, QQ)
    total = sum(bar.homology_dim(2, d) for d in range(2, 7))
    assert total == 18


def test_serre_inequality_on_corpus(example_ideal):
    # the resolution never has more step-j generators in internal degree d
    # than the bigraded bound's (j, d) coefficient, so never more than Q at t^j
    checked = 0
    for ideal in ideal_corpus(100, seed=20260811) + [example_ideal]:
        for field in (QQ, GF2):
            table = q_bigraded(ideal, field, 5)
            p, report = p_series(ideal, field, 5)
            for s in report.steps:
                bound = table.get(s.step, {})
                for d, c in s.degrees:
                    assert c <= bound.get(d, 0), (ideal, field, s)
                    checked += 1
            assert all(a <= b for a, b in zip(p.coeffs, q_series(ideal, field, 5).coeffs))
    assert checked > 1000


def test_p_series_reads_no_koszul_homology(monkeypatch):
    # the box resolution needs no Betti numbers, so it answers where the
    # strand cap stops them: the 4-skeleton ideal has 20 generators below
    # its top multidegree
    def no_strand(*args):
        raise AssertionError("p_series asked for a strand")

    monkeypatch.setattr(homology_engine, "strand", no_strand)
    p, _ = p_series(counterexample_ideal(), GF2, 5)
    assert p.coeffs == (1, 5, 18, 64, 227, 805)
    pol, _ = polarize(counterexample_ideal())
    gamma = stanley_reisner_ideal(skeleton(complex_of(pol), 4))
    assert gamma.n_gens == 20
    p, _ = p_series(gamma, QQ, 5)
    assert p.coeffs == (1, 9, 56, 314, 1740, 9614)


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


def _reference_step(ideal, field, box, gens, phi):
    """The resolution step with no shortcut: standard monomials by enumeration
    and a divisibility test, kernels from column_relations, and every lift
    x_v K(u - e_v) absorbed before the kernel vectors at u are tried, at every
    multidegree u <= box."""

    @cache
    def is_std(exps):
        return not any(ref_divides(g.exps, exps) for g in ideal.gens)

    @cache
    def std_monomials(d):
        return sorted(e for e in _compositions(d, ideal.n_vars) if is_std(e))

    by_u = {}
    for gi, dg in enumerate(gens):
        for d in range(sum(box) - sum(dg) + 1):
            for m in std_monomials(d):
                u = tuple(a + b for a, b in zip(dg, m))
                if all(a <= b for a, b in zip(u, box)):
                    by_u.setdefault(u, []).append(gi)
    kernels, new_gens, new_phi = {}, [], []
    for u in sorted(by_u, key=lambda t: (sum(t), t)):
        basis = by_u[u]
        columns, row_keys = [], {}
        for gi in basis:
            col = {}
            for (pj, me), c in phi[gi].items():
                if is_std(tuple(a + b - g for a, b, g in zip(u, me, gens[gi]))):
                    col[row_keys.setdefault(pj, len(row_keys))] = c
            columns.append(col)
        _, relations = column_relations(field, dict(enumerate(columns)), len(row_keys))
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
    dims = {u: len(kern) for u, kern in kernels.items() if kern}
    return new_gens, new_phi, dims


def test_resolution_step_matches_reference(monkeypatch, example_ideal):
    # every step's new generators and their images equal the reference
    # step's on the same inputs and box, and so do the series and report
    rng = random.Random(20261018)
    corpus = [
        i for i in ideal_corpus(100, seed=20260811)
        if i.n_gens >= 2 and i.n_vars * max(g.degree for g in i.gens) <= 20
    ]
    cases = [(example_ideal, QQ, 5), (example_ideal, GF2, 4), (example_ideal, GF3, 3)]
    picked = rng.sample(corpus, 12)
    for k, ideal in enumerate(picked):
        cases.append((ideal, (QQ, GF2, GF3)[k % 3], 4))
    for k, ideal in enumerate(rng.sample([i for i in corpus if i not in picked], 13)):
        cases.append((ideal, (QQ, GF2, GF3)[k % 3], 3))
    assert len(cases) == 28
    step = series_engine._resolution_step
    for ideal, field, n in cases:
        steps = []

        def checked(f, pk, std, box, gens, phi, prev):
            out = step(f, pk, std, box, gens, phi, prev)
            ref = _reference_step(ideal, f, pk.unpack(box), *step_codec(pk, gens, phi, None, pk.unpack)[:2])
            assert step_codec(pk, *out, pk.unpack)[:2] == ref[:2], (ideal, field, n, len(steps) + 2)
            steps.append(step_codec(pk, *ref, pk.pack))
            return out

        with monkeypatch.context() as m:
            m.setattr(series_engine, "_resolution_step", checked)
            got = p_series(ideal, field, n)
        # step j runs, up to n, exactly when step j - 1 found generators in the
        # box; step 1's are the variables of the box that are not generators
        box = lcm_of(ideal.gens, ideal.n_vars).exps
        nv = ideal.n_vars
        found = [any(box[v] and Monomial(tuple(int(k == v) for k in range(nv))) not in ideal.gens
                     for v in range(nv))]
        found += [bool(s[0]) for s in steps]
        assert all(found[:len(steps)]), (ideal, field, n)
        assert len(steps) == n - 1 or not found[len(steps)], (ideal, field, n)
        # the reference's steps, in order, are the reference resolution
        replay = iter(steps)
        with monkeypatch.context() as m:
            m.setattr(series_engine, "_resolution_step", lambda *args: next(replay))
            want = p_series(ideal, field, n)
        assert got == want, (ideal, field, n)


def test_p_series_eliminates_only_where_generators_appear(monkeypatch, example_ideal):
    # A multidegree is visited when a step walks it; at all but
    # the eliminated ones the kernel dimension comes from exactness and the
    # lifts span the kernel.  Most take K(u) from rows whose lead survives
    # x_v, with no reduction; absorbing every lift in turn until the rank is
    # reached needs 60,036 reductions without the box.  The box (1, 2, 1, 2, 3)
    # holds 144 multidegrees, so each step visits at most that many; the
    # reference walks each step up to the degree its Serre bound reaches,
    # inside the box of its multigraded Serre bound.
    betti(example_ideal, GF2)  # only the resolution's reductions are counted
    eliminated = []
    reductions = []
    visited = []
    kernel_at = series_engine._kernel_at
    reduce = Echelon.reduce
    step = series_engine._resolution_step

    def counting(*args):
        eliminated.append(1)
        return kernel_at(*args)

    def counting_reduce(self, vec):
        reductions.append(1)
        return reduce(self, vec)

    def visiting(field, pk, std, box, gens, phi, prev):
        # every u = g + m in the box and within the table's degrees, m a
        # standard monomial
        top = pk.unpack(box)
        table = [list(map(pk.unpack, ms)) for ms in std[0]]
        visited.append(len({
            u for g in map(pk.unpack, gens) for ms in table for m in ms
            if all(map(le, u := tuple(map(add, g, m)), top)) and sum(u) < len(table)
        }))
        return step(field, pk, std, box, gens, phi, prev)

    monkeypatch.setattr(series_engine, "_kernel_at", counting)
    monkeypatch.setattr(Echelon, "reduce", counting_reduce)
    monkeypatch.setattr(series_engine, "_resolution_step", visiting)
    counted = {}
    for name, series in (("box", p_series), ("unboxed", reference_p_series)):
        eliminated.clear(), reductions.clear(), visited.clear()
        p, _ = series(example_ideal, GF2, 5)
        assert p.coeffs == (1, 5, 18, 64, 227, 805)
        counted[name] = (len(eliminated), len(reductions), sum(visited))
    assert counted == {"box": (128, 2124, 413), "unboxed": (491, 12065, 3280)}


def test_resolution_step_checks_known_dimensions(monkeypatch):
    calls = []
    step = series_engine._resolution_step

    def recording(field, pk, std, box, gens, phi, prev):
        calls.append((field, pk, std, box, gens, phi, None if prev is None else dict(prev)))
        return step(field, pk, std, box, gens, phi, prev)

    monkeypatch.setattr(series_engine, "_resolution_step", recording)
    assert p_series(M2, QQ, 3)[0].coeffs == (1, 2, 4, 8)
    field, pk, std, box, gens, phi, prev = calls[1]  # step 3, after K_2's dimensions
    assert pk.unpack(box) == (2, 2)
    u = pk.pack((1, 2))
    assert step(field, pk, std, box, gens, phi, dict(prev))[0].count(u) == 3
    # three new generators at (1, 2): raising dim K_2 there by 1 claims one
    # kernel dimension too few, which still leaves the lifts short, so the
    # kernel is eliminated there and contradicts it
    wrong = dict(prev)
    wrong[u] = wrong.get(u, 0) + 1
    with pytest.raises(AssertionError, match=r"kernel at \(1, 2\)"):
        step(field, pk, std, box, gens, phi, wrong)


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
