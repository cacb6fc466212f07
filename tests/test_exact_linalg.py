import random
from fractions import Fraction
from itertools import combinations
from itertools import product as iproduct

import pytest

from golod_lab.exact_linalg import (
    Field,
    GF2,
    GF3,
    LinAlgError,
    Matrix,
    QQ,
    column_relations,
    extend_independent,
    kernel_basis,
    parse_field,
    quotient_coordinates,
    rank,
    rref,
    solve,
    sparse_in_span,
)


def test_field_elements_canonical():
    assert GF2.of(5) == 1
    assert GF3.of(-1) == 2
    assert QQ.of(2) == Fraction(2)
    x = QQ.of(Fraction(4, -6))
    assert (x.numerator, x.denominator) == (-2, 3)
    assert GF3.of(Fraction(1, 2)) == 2  # inverse of 2 mod 3


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
    assert parse_field("fp:7").char == 7
    with pytest.raises(ValueError):
        parse_field("r")


def test_rref_duplicate_rows_f2():
    m = Matrix.from_rows(GF2, [[1, 1], [1, 1]])
    res = rref(m)
    assert res.rank == 1
    assert res.pivots == (0,)


def test_rref_zero_and_identity():
    assert rref(Matrix.zero(QQ, 3, 3)).rank == 0
    res = rref(Matrix.identity(QQ, 4))
    assert res.rank == 4
    assert res.pivots == (0, 1, 2, 3)


def test_kernel_single_row():
    m = Matrix.from_rows(QQ, [[1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == -v[1] and v[1] != 0


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []


def test_kernel_f2_all_ones_vs_enumeration():
    m = Matrix.from_rows(GF2, [[1, 1, 1]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    # oracle: enumerate the whole space and compare the solution sets
    solutions = {v for v in iproduct((0, 1), repeat=3) if sum(v) % 2 == 0}
    spanned = set()
    for c0, c1 in iproduct((0, 1), repeat=2):
        spanned.add(tuple((c0 * a + c1 * b) % 2 for a, b in zip(basis[0], basis[1])))
    assert spanned == solutions


def test_solve_identity_and_zero():
    m = Matrix.identity(QQ, 3)
    assert solve(m, (1, 2, 3)) == (1, 2, 3)
    z = Matrix.zero(QQ, 2, 2)
    assert solve(z, (1, 0)) is None
    assert solve(z, (0, 0)) == (Fraction(0), Fraction(0))


def test_solve_pivot_convention():
    m = Matrix.from_rows(QQ, [[1, 1]])
    assert solve(m, (2,)) == (2, 0)


def test_solve_dimension_mismatch():
    with pytest.raises(LinAlgError):
        solve(Matrix.identity(QQ, 2), (1, 2, 3))


def test_quotient_coordinates_boundary_is_zero():
    cycles = [(1, 0), (0, 1)]
    boundaries = [(1, 1)]
    assert quotient_coordinates(QQ, cycles, boundaries, (2, 2)) == (0,)


def test_quotient_coordinates_no_boundaries():
    cycles = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    coords = quotient_coordinates(QQ, cycles, [], (3, 5, 7))
    assert coords == (3, 5, 7)


def test_quotient_coordinates_one_dimensional():
    # rank count: span(cycles)=2, span(boundaries)=1, quotient is a line
    cycles = [(1, 0), (0, 1)]
    boundaries = [(1, 1)]
    coords = quotient_coordinates(QQ, cycles, boundaries, (1, 0))
    assert len(coords) == 1 and coords[0] != 0


def test_quotient_coordinates_outside_span():
    with pytest.raises(LinAlgError):
        quotient_coordinates(QQ, [(1, 0, 0)], [], (0, 1, 0))


def _random_matrix(rng, field, rows, cols, lo=-4, hi=4):
    return Matrix.from_rows(
        field, [[field.of(rng.randint(lo, hi)) for _ in range(cols)] for _ in range(rows)]
    )


def test_kernel_and_rank_nullity_random():
    rng = random.Random(1)
    for field in (QQ, GF2, GF3, Field(7)):
        for _ in range(25):
            m = _random_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
            basis = kernel_basis(m)
            assert rank(m) + len(basis) == m.cols
            for v in basis:
                assert all(x == 0 for x in m.apply(v))


def test_solve_agrees_with_rank_test_random():
    rng = random.Random(2)
    for field in (QQ, GF3):
        for _ in range(30):
            m = _random_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 4))
            rhs = tuple(field.of(rng.randint(-3, 3)) for _ in range(m.rows))
            aug = Matrix.from_rows(field, [list(r) + [b] for r, b in zip(m.entries, rhs)])
            x = solve(m, rhs)
            if rank(aug) == rank(m):
                assert x is not None and m.apply(x) == rhs
            else:
                assert x is None


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum((-1) ** j * a * _det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j, a in enumerate(rows[0]) if a)


def _minor_rank_fp(field, m):
    """Rank as the largest k with a k x k minor nonzero mod p (tiny matrices only)."""
    ents = [list(r) for r in m.entries]
    for k in range(min(m.rows, m.cols), 0, -1):
        for rs in combinations(range(m.rows), k):
            for cs in combinations(range(m.cols), k):
                if _det([[ents[i][j] for j in cs] for i in rs]) % field.char:
                    return k
    return 0


def test_rank_q_vs_fp_brute_force():
    # integer matrices with entries below p: elimination never divides by p,
    # and a minor (|det| <= 41, Hadamard's bound) is 0 mod 101 only when it is 0
    rng = random.Random(3)
    for _ in range(20):
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        ints = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        mq = Matrix.from_rows(QQ, ints)
        mp = Matrix.from_rows(Field(101), ints)
        assert rank(mq) == rank(mp) == _minor_rank_fp(Field(101), mp)


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
            dense = Matrix.from_rows(field, [[c.get(r, 0) for c in cols] for r in range(nrows)])
            want = _ref_solve(dense, tuple(field.of(rhs.get(r, 0)) for r in range(nrows)))
            assert sparse_in_span(field, cols, rhs) == (want is not None)


# ---------------------------------------------------------------------------
# dense Gauss-Jordan reference: every basis choice of the library must match it


def _ref_rref(m):
    """(rank, pivots, reduced rows); the first nonzero entry from the top wins."""
    f = m.field
    R = [list(r) for r in m.entries]
    pivots = []
    pr = 0
    for c in range(m.cols):
        pv = next((r for r in range(pr, m.rows) if R[r][c] != 0), None)
        if pv is None:
            continue
        R[pr], R[pv] = R[pv], R[pr]
        inv = f.inv(R[pr][c])
        R[pr] = [f.mul(inv, x) for x in R[pr]]
        for r in range(m.rows):
            if r != pr and R[r][c] != 0:
                fac = R[r][c]
                R[r] = [f.add(x, f.neg(f.mul(fac, y))) for x, y in zip(R[r], R[pr])]
        pivots.append(c)
        pr += 1
    return len(pivots), tuple(pivots), tuple(tuple(r) for r in R)


def _ref_kernel(m):
    f = m.field
    _, pivots, R = _ref_rref(m)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        v = [f.zero()] * m.cols
        v[free] = f.one()
        for i, p in enumerate(pivots):
            v[p] = f.neg(R[i][free])
        basis.append(tuple(v))
    return basis


def _ref_solve(m, rhs):
    f = m.field
    rows = [list(r) + [b] for r, b in zip(m.entries, rhs)]
    aug = Matrix.from_rows(f, rows) if rows else Matrix.zero(f, 0, m.cols + 1)
    _, pivots, R = _ref_rref(aug)
    if m.cols in pivots:
        return None
    x = [f.zero()] * m.cols
    for i, p in enumerate(pivots):
        x[p] = R[i][m.cols]
    return tuple(x)


def _columns_matrix(field, columns, n):
    if n == 0:
        return Matrix.zero(field, 0, len(columns))
    return Matrix.from_rows(field, [[c[i] for c in columns] for i in range(n)])


def _ref_extend(field, base, candidates, n):
    _, pivots, _ = _ref_rref(_columns_matrix(field, list(base) + list(candidates), n))
    return [p - len(base) for p in pivots if p >= len(base)]


def _ref_quotient(field, cycles, boundaries, v):
    rep = [cycles[i] for i in _ref_extend(field, boundaries, cycles, len(v))]
    x = _ref_solve(_columns_matrix(field, list(boundaries) + rep, len(v)), v)
    return None if x is None else x[len(boundaries):]


def _random_low_rank(rng, field, rows, cols):
    """Random integer matrix of random rank, sometimes with a zero row or column."""
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
    if rows == 0:
        return Matrix.zero(field, 0, cols)
    return Matrix.from_rows(field, ent)


def test_kernel_matches_dense_reference_random():
    rng = random.Random(5)
    for field in (QQ, GF2, GF3, Field(7)):
        for _ in range(60):
            rows, cols = rng.randint(0, 6), rng.randint(0, 6)
            m = _random_low_rank(rng, field, rows, cols)
            ref_rank, ref_pivots, ref_reduced = _ref_rref(m)
            res = rref(m)
            assert (res.rank, res.pivots, res.reduced.entries) == (ref_rank, ref_pivots, ref_reduced)
            assert rank(m) == ref_rank
            assert kernel_basis(m) == _ref_kernel(m)
            rhs = tuple(field.of(x) for x in m.apply(tuple(rng.randint(-2, 2) for _ in range(cols))))
            other = tuple(field.of(rng.randint(-2, 2)) for _ in range(rows))
            for b in (rhs, other):
                assert solve(m, b) == _ref_solve(m, b)
            columns = [m.column(j) for j in range(cols)]
            split = rng.randint(0, cols)
            base, candidates = columns[:split], columns[split:]
            assert extend_independent(field, base, candidates) == _ref_extend(
                field, base, candidates, rows
            )
            for v in (rhs, other):
                want = _ref_quotient(field, candidates, base, v)
                if want is None:
                    with pytest.raises(LinAlgError):
                        quotient_coordinates(field, candidates, base, v)
                else:
                    assert quotient_coordinates(field, candidates, base, v) == want


# ---------------------------------------------------------------------------
# scalars at the API boundary: Fractions over Q, canonical residues over F_p


def _returned_scalars(field, ints, rng):
    """Every scalar that rref, kernel_basis, solve, quotient_coordinates and
    column_relations return for the integer matrix ints (a list of rows)."""
    m = Matrix.from_rows(field, ints)
    out = [x for row in rref(m).reduced.entries for x in row]
    out += [x for v in kernel_basis(m) for x in v]
    columns = [m.column(j) for j in range(m.cols)]
    rhs = m.apply(tuple(field.of(rng.randint(-2, 2)) for _ in range(m.cols)))
    out += solve(m, rhs)
    split = rng.randint(0, m.cols)
    out += quotient_coordinates(field, columns, columns[:split], rhs)
    # signs as raw ints, the way strand boundaries hand them over
    raw = [{i: row[j] if row[j] in (1, -1) else field.of(row[j])
            for i, row in enumerate(ints) if field.of(row[j])} for j in range(m.cols)]
    _, _, relations = column_relations(field, raw, m.rows)
    out += [x for rel in relations.values() for x in rel.values()]
    return out


def test_scalars_at_the_api_boundary():
    rng = random.Random(9)
    non_integral = 0
    for field in (QQ, GF2, GF3, Field(7)):
        for _ in range(40):
            rows, cols = rng.randint(1, 6), rng.randint(1, 7)
            signs = [[rng.choice((-1, 0, 0, 1)) for _ in range(cols)] for _ in range(rows)]
            seeded = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            for ints in (signs, seeded):
                for x in _returned_scalars(field, ints, rng):
                    if field.char:
                        assert type(x) is int and 0 <= x < field.char
                    else:
                        assert type(x) is Fraction
                        non_integral += x.denominator != 1
    assert non_integral  # the seeded matrices force non-unit pivots
