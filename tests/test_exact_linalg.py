import random
from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct

import pytest

from conftest import (
    apply_columns,
    basis_chain,
    columns_of,
    ideal_corpus,
    in_span,
    positional_columns,
    ref_extend,
    ref_kernel,
    ref_quotient,
    ref_rref,
    ref_solve,
    rows_of,
    span,
    strand_cells,
)
from golod_lab.exact_linalg import (
    GF2,
    GF3,
    QQ,
    Field,
    LinAlgError,
    column_relations,
    parse_field,
)
from golod_lab.homology_engine import StrandHomology
from golod_lab.monomial_core import counterexample_ideal
from golod_lab.taylor_dga import lcm_lattice


def test_field_elements_canonical():
    assert GF2.of(5) == 1
    assert GF3.of(-1) == 2
    assert QQ.of(2) == Fraction(2)
    x = QQ.of(Fraction(4, -6))
    assert (x.numerator, x.denominator) == (-2, 3)
    assert GF3.of(Fraction(1, 2)) == 2  # inverse of 2 mod 3
    # the one format: an int when integral, a Fraction otherwise, residues mod p
    assert type(QQ.of(Fraction(4, 2))) is int and QQ.of(Fraction(4, 2)) == 2
    assert type(QQ.of(Fraction(1, 2))) is Fraction
    assert type(QQ.inv(Fraction(1, 2))) is int and type(QQ.inv(-1)) is int
    for field in (QQ, GF2, GF3, Field(7)):
        for x in (0, 1, -1, 5, -12, Fraction(1, 5), Fraction(-4, 10), Fraction(8, 4)):
            y = field.of(x)
            assert field.of(y) == y and type(field.of(y)) is type(y)
    with pytest.raises(LinAlgError):
        GF3.of(Fraction(1, 3))
    with pytest.raises(TypeError):  # never rounded: all arithmetic is exact
        QQ.of(0.5)


def test_field_inverse_is_exact():
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(2)) is Fraction
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    assert GF3.inv(2) == 2


def test_field_requires_prime():
    with pytest.raises(ValueError):
        Field(6)


def test_parse_field():
    assert parse_field("q") == QQ
    assert parse_field("qq") == parse_field("0") == QQ
    assert parse_field("fp:7").char == 7
    with pytest.raises(ValueError):
        parse_field("r")
    # fp:<n> names a prime field; Field(0) would silently be the rationals
    with pytest.raises(ValueError, match="no prime field"):
        parse_field("fp:0")


# ---------------------------------------------------------------------------
# the elimination surface on dense row lists (see the reference in conftest)


def _rank(field, rows, ncols):
    return len(span(field, columns_of(field, rows, ncols)).rows)


def _relations(field, rows, ncols):
    """(pivots, kernel basis as dense tuples) from column_relations; the
    pivots are the column keys without a relation."""
    columns = dict(enumerate(columns_of(field, rows, ncols)))
    _, relations = column_relations(field, columns, len(rows))
    pivots = [k for k in columns if k not in relations]
    return pivots, [tuple(rel.get(k, 0) for k in range(ncols)) for rel in relations.values()]


def _pivot_solution(field, rows, ncols, rhs):
    """The solution read off the column tags of column_relations' echelon, or None."""
    n = len(rows)
    ech, _ = column_relations(field, dict(enumerate(columns_of(field, rows, ncols))), n)
    w = ech.reduce({k: y for k, x in enumerate(rhs) if (y := field.of(x))})
    if w and min(w) < n:
        return None
    x = [0] * ncols
    for k, c in w.items():
        x[k - n] = field.of(-c)
    return tuple(x)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_rref_duplicate_rows_f2():
    rows = [[1, 1], [1, 1]]
    assert _rank(GF2, rows, 2) == 1
    assert _relations(GF2, rows, 2)[0] == [0]


def test_rref_zero_and_identity():
    assert _rank(QQ, [[0] * 3] * 3, 3) == 0
    assert _relations(QQ, [[0] * 3] * 3, 3)[0] == []
    assert _rank(QQ, _identity(4), 4) == 4
    assert _relations(QQ, _identity(4), 4)[0] == [0, 1, 2, 3]


def test_kernel_single_row():
    basis = _relations(QQ, [[1, 1]], 2)[1]
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] and v[1] != 0


def test_kernel_identity_empty():
    assert _relations(QQ, _identity(3), 3)[1] == []


def test_kernel_f2_all_ones_vs_enumeration():
    basis = _relations(GF2, [[1, 1, 1]], 3)[1]
    assert len(basis) == 2
    # oracle: enumerate the whole space and compare the solution sets
    solutions = {v for v in iproduct((0, 1), repeat=3) if sum(v) % 2 == 0}
    spanned = set()
    for c0, c1 in iproduct((0, 1), repeat=2):
        spanned.add(tuple((c0 * a + c1 * b) % 2 for a, b in zip(basis[0], basis[1])))
    assert spanned == solutions


def test_solve_identity_and_zero():
    assert in_span(span(QQ, columns_of(QQ, _identity(3), 3)), {0: 1, 1: 2, 2: 3})
    assert _pivot_solution(QQ, _identity(3), 3, (1, 2, 3)) == (1, 2, 3)
    zero = [[0, 0], [0, 0]]
    assert not in_span(span(QQ, columns_of(QQ, zero, 2)), {0: 1})
    assert _pivot_solution(QQ, zero, 2, (1, 0)) is None
    assert in_span(span(QQ, columns_of(QQ, zero, 2)), {})
    assert _pivot_solution(QQ, zero, 2, (0, 0)) == (Fraction(0), Fraction(0))


def test_solve_pivot_convention():
    assert _pivot_solution(QQ, [[1, 1]], 2, (2,)) == (2, 0)


def test_quotient_coordinates_boundary_is_zero():
    cycles = [(1, 0), (0, 1)]
    boundaries = [(1, 1)]
    assert ref_quotient(QQ, cycles, boundaries, (2, 2)) == (0,)
    assert in_span(span(QQ, [dict(enumerate(b)) for b in boundaries]), {0: 2, 1: 2})


def test_quotient_coordinates_no_boundaries():
    # without boundaries the coordinates solve cycles * x = v
    assert _pivot_solution(QQ, _identity(3), 3, (3, 5, 7)) == (3, 5, 7)


def test_quotient_coordinates_one_dimensional():
    # rank count: span(cycles)=2, span(boundaries)=1, quotient is a line
    cycles = [{0: 1}, {1: 1}]
    boundaries = [{0: 1, 1: 1}]
    assert len(span(QQ, cycles + boundaries).rows) - len(span(QQ, boundaries).rows) == 1
    assert not in_span(span(QQ, boundaries), {0: 1})


def test_quotient_coordinates_outside_span():
    assert not in_span(span(QQ, [{0: 1}]), {1: 1})


def _random_rows(rng, rows, cols, lo=-4, hi=4):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_kernel_and_rank_nullity_random():
    rng = random.Random(1)
    for field in (QQ, GF2, GF3, Field(7)):
        for _ in range(25):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = _random_rows(rng, rows, cols)
            basis = _relations(field, m, cols)[1]
            assert _rank(field, m, cols) + len(basis) == cols
            columns = columns_of(field, m, cols)
            for v in basis:
                assert all(x == 0 for x in apply_columns(field, columns, v, rows))


def test_solve_agrees_with_rank_test_random():
    rng = random.Random(2)
    for field in (QQ, GF3):
        for _ in range(30):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = _random_rows(rng, rows, cols)
            rhs = tuple(field.of(rng.randint(-3, 3)) for _ in range(rows))
            aug = [list(r) + [b] for r, b in zip(m, rhs)]
            x = _pivot_solution(field, m, cols, rhs)
            inside = in_span(span(field, columns_of(field, m, cols)), dict(enumerate(rhs)))
            if _rank(field, aug, cols + 1) == _rank(field, m, cols):
                assert inside
                assert x is not None
                assert apply_columns(field, columns_of(field, m, cols), x, rows) == rhs
            else:
                assert not inside and x is None


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def _minor_rank_fp(field, rows, ncols):
    """Rank as the largest k with a k x k minor nonzero mod p (tiny matrices only)."""
    for k in range(min(len(rows), ncols), 0, -1):
        for rs in combinations(range(len(rows)), k):
            for cs in combinations(range(ncols), k):
                if _det([[rows[i][j] for j in cs] for i in rs]) % field.char:
                    return k
    return 0


def test_rank_q_vs_fp_brute_force():
    # integer matrices with entries below p: elimination never divides by p,
    # and a minor (|det| <= 41, Hadamard's bound) is 0 mod 101 only when it is 0
    rng = random.Random(3)
    fp = Field(101)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        ints = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        canonical = [[fp.of(x) for x in r] for r in ints]
        assert _rank(QQ, ints, cols) == _rank(fp, ints, cols) == _minor_rank_fp(fp, canonical, cols)


def test_sparse_in_span_matches_dense():
    rng = random.Random(4)
    for field in (QQ, GF2):
        for _ in range(30):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            cols = []
            for _ in range(ncols):
                col = {}
                for r in range(nrows):
                    v = rng.choice([0, 0, 1, -1, 2])
                    if v:
                        col[r] = field.of(v)
                cols.append(col)
            rhs = {}
            for r in range(nrows):
                v = rng.choice([0, 0, 1, -1])
                if v:
                    rhs[r] = field.of(v)
            want = ref_solve(field, rows_of(cols, nrows), ncols, [rhs.get(r, 0) for r in range(nrows)])
            assert in_span(span(field, cols), rhs) == (want is not None)


# ---------------------------------------------------------------------------
# column_relations and span against the dense reference


def _random_low_rank(rng, rows, cols):
    """Random integer rows of random rank, sometimes with a zero row or column."""
    r = rng.randint(0, min(rows, cols))
    left = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rows)]
    right = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(r)]
    ent = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(cols)]
           for i in range(rows)]
    if rows and rng.random() < 0.3:
        ent[rng.randrange(rows)] = [0] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in ent:
            row[j] = 0
    return ent


def test_kernel_matches_dense_reference_random():
    rng = random.Random(5)
    for field in (QQ, GF2, GF3, Field(7)):
        for _ in range(60):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            m = _random_low_rank(rng, rows, cols)
            ref_rank, ref_pivots, _ = ref_rref(field, m, cols)
            pivots, kernel = _relations(field, m, cols)
            assert tuple(pivots) == ref_pivots
            assert _rank(field, m, cols) == ref_rank
            assert kernel == ref_kernel(field, m, cols)
            columns = columns_of(field, m, cols)
            ech = span(field, columns)
            rhs = apply_columns(field, columns, tuple(rng.randint(-2, 2) for _ in range(cols)), rows)
            other = tuple(field.of(rng.randint(-2, 2)) for _ in range(rows))
            for b in (rhs, other):
                want = ref_solve(field, m, cols, b)
                assert in_span(ech, dict(enumerate(b))) == (want is not None)
                assert _pivot_solution(field, m, cols, b) == want
            dense = [tuple(c.get(i, 0) for i in range(rows)) for c in columns]
            split = rng.randint(0, cols)
            base, candidates = dense[:split], dense[split:]
            assert [p - split for p in pivots if p >= split] == ref_extend(
                field, base, candidates, rows
            )
            # the quotient of span(candidates) by span(base): zero coordinates
            # exactly on span(base), none outside span(base + candidates)
            in_base = span(field, columns[:split])
            for v in (rhs, other):
                want = ref_quotient(field, candidates, base, v)
                assert in_span(ech, dict(enumerate(v))) == (want is not None)
                assert in_span(in_base, dict(enumerate(v))) == (
                    want is not None and not any(want))


def test_column_relations_answers_in_the_callers_keys():
    """Columns under the non-contiguous keys 3, 5, 6, 9 are reduced in dict
    order and tagged ``nrows + key``: the relations, the pivots (the keys
    without a relation) and the pivot solutions read off the tags are the
    dense reference's, with position p renamed to keys[p]."""
    rng = random.Random(24)
    keys = (3, 5, 6, 9)
    for field in (QQ, GF2):
        solved = 0
        for _ in range(40):
            rows = rng.randint(0, 5)
            m = _random_low_rank(rng, rows, len(keys))
            columns = dict(zip(keys, columns_of(field, m, len(keys))))
            ech, relations = column_relations(field, columns, rows)
            _, ref_pivots, _ = ref_rref(field, m, len(keys))
            assert [k for k in keys if k not in relations] == [keys[p] for p in ref_pivots]
            assert [tuple(rel.get(k, 0) for k in keys) for rel in relations.values()] == (
                ref_kernel(field, m, len(keys)))
            assert all(rel.keys() <= set(keys) for rel in relations.values())
            inside = apply_columns(field, list(columns.values()),
                                   [rng.randint(-2, 2) for _ in keys], rows)
            other = tuple(field.of(rng.randint(-2, 2)) for _ in range(rows))
            for b in (inside, other):
                w = ech.reduce({r: x for r, x in enumerate(b) if x})
                want = ref_solve(field, m, len(keys), b)
                if w and min(w) < rows:
                    assert want is None
                else:
                    assert tuple(field.of(-w.get(rows + k, 0)) for k in keys) == want
                    solved += 1
        assert solved


# ---------------------------------------------------------------------------
# scalars at the API boundary: the one format of Field.of, ints when integral
# and Fractions otherwise over Q, canonical residues over F_p


def _relation_scalars(field, ints):
    """Every scalar in the relations column_relations returns for the integer
    rows ints, its columns handed over the way strand boundaries are: signs
    as raw ints, other entries as field elements."""
    raw = [{i: row[j] if row[j] in (1, -1) else field.of(row[j])
            for i, row in enumerate(ints) if field.of(row[j])} for j in range(len(ints[0]))]
    _, relations = column_relations(field, dict(enumerate(raw)), len(ints))
    return [x for rel in relations.values() for x in rel.values()]


def _strand_scalars(field, ideal, rng):
    """Every scalar that StrandHomology.coordinates and bounding_chain
    return for random cycles and boundaries of every strand of the ideal."""
    out = []
    for u in lcm_lattice(ideal):
        sh = StrandHomology(ideal, tuple(u), field)
        for i in sh.degrees():
            basis = strand_cells(sh, i)
            down = rows_of(positional_columns(sh, i), len(strand_cells(sh, i - 1)))
            _, kernel = _relations(field, down, len(basis))
            up = positional_columns(sh, i + 1)
            for _ in range(2):
                coeffs = [rng.randint(-2, 2) for _ in kernel]
                cycle = tuple(field.of(sum(c * kv[k] for c, kv in zip(coeffs, kernel)))
                              for k in range(len(basis)))
                out += sh.coordinates(i, basis_chain(basis, cycle))
                x = tuple(field.of(rng.randint(-2, 2)) for _ in up)
                bnd = apply_columns(field, up, x, len(basis))
                out += sh.bounding_chain(i, basis_chain(basis, bnd)).values()
    return out


def test_scalars_at_the_api_boundary():
    rng = random.Random(9)
    non_integral = 0
    ideals = [counterexample_ideal()] + ideal_corpus(4, seed=9)
    for field in (QQ, GF2, GF3, Field(7)):
        scalars = []
        for _ in range(40):
            rows, cols = rng.randint(1, 6), rng.randint(1, 7)
            signs = [[rng.choice((-1, 0, 0, 1)) for _ in range(cols)] for _ in range(rows)]
            seeded = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            for ints in (signs, seeded):
                scalars += _relation_scalars(field, ints)
        for ideal in ideals:
            scalars += _strand_scalars(field, ideal, rng)
        for x in scalars:
            if field.char:
                assert type(x) is int and 0 <= x < field.char
            elif type(x) is not int:
                assert type(x) is Fraction and x.denominator > 1
                non_integral += 1
    assert non_integral  # the seeded matrices force non-unit pivots
