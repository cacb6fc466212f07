import random

import pytest

from golod_lab.exact_linalg import QQ
from golod_lab.monomial_core import Monomial, MonomialIdeal, counterexample_ideal, minimalize


@pytest.fixture(scope="session")
def example_ideal():
    return counterexample_ideal()


@pytest.fixture(scope="session")
def field_q():
    return QQ


def random_ideal(rng, max_vars=5, max_gens=6, max_exp=3):
    """One random monomial ideal; may return None for degenerate draws."""
    n = rng.randint(2, max_vars)
    k = rng.randint(1, max_gens)
    cands = []
    for _ in range(k):
        exps = [0] * n
        for _ in range(rng.randint(1, 4)):
            exps[rng.randrange(n)] += rng.randint(1, max_exp)
        exps = [min(e, max_exp) for e in exps]
        if any(exps):
            cands.append(Monomial(tuple(exps)))
    if not cands:
        return None
    gens = minimalize(cands)
    return MonomialIdeal(tuple(f"v{i}" for i in range(n)), tuple(gens))


def random_squarefree_ideal(rng, max_vars=6, max_gens=6):
    n = rng.randint(3, max_vars)
    k = rng.randint(1, max_gens)
    cands = []
    for _ in range(k):
        size = rng.randint(1, max(1, n - 1))
        sup = rng.sample(range(n), size)
        cands.append(Monomial(tuple(1 if i in sup else 0 for i in range(n))))
    gens = minimalize(cands)
    return MonomialIdeal(tuple(f"v{i}" for i in range(n)), tuple(gens))


def ideal_corpus(count=100, seed=20260811, **kwargs):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ideal = random_ideal(rng, **kwargs)
        if ideal is not None:
            out.append(ideal)
    return out


def apply_columns(field, columns, vec, nrows):
    """Dense image of vec under the map whose sparse columns are given."""
    out = [field.zero()] * nrows
    for col, x in zip(columns, vec):
        for r, c in col.items():
            out[r] = field.add(out[r], field.mul(field.of(c), x))
    return tuple(out)


# ---------------------------------------------------------------------------
# dense Gauss-Jordan reference: every basis choice of the library must match it
#
# A dense matrix is a list of rows (ints or field elements); its column count
# is passed along, so that it may have no rows.


def columns_of(field, rows, ncols):
    """The sparse columns (dicts row -> nonzero field element) of a row list."""
    return [{i: x for i, r in enumerate(rows) if (x := field.of(r[j]))} for j in range(ncols)]


def rows_of(columns, nrows):
    """The row list of sparse columns (dicts row -> coeff) with nrows rows."""
    return [[c.get(r, 0) for c in columns] for r in range(nrows)]


def ref_rref(field, rows, ncols):
    """(rank, pivots, reduced rows); the first nonzero entry from the top wins."""
    R = [[field.of(x) for x in r] for r in rows]
    pivots = []
    pr = 0
    for c in range(ncols):
        pv = next((r for r in range(pr, len(R)) if R[r][c] != 0), None)
        if pv is None:
            continue
        R[pr], R[pv] = R[pv], R[pr]
        inv = field.inv(R[pr][c])
        R[pr] = [field.mul(inv, x) for x in R[pr]]
        for r in range(len(R)):
            if r != pr and R[r][c] != 0:
                fac = R[r][c]
                R[r] = [field.add(x, field.neg(field.mul(fac, y))) for x, y in zip(R[r], R[pr])]
        pivots.append(c)
        pr += 1
    return len(pivots), tuple(pivots), tuple(tuple(r) for r in R)


def ref_kernel(field, rows, ncols):
    """Kernel basis, one vector per free column, from the reduced rows."""
    _, pivots, R = ref_rref(field, rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [field.zero()] * ncols
        v[free] = field.one()
        for i, p in enumerate(pivots):
            v[p] = field.neg(R[i][free])
        basis.append(tuple(v))
    return basis


def ref_solve(field, rows, ncols, rhs):
    """The pivot solution x of rows * x = rhs (free variables zero), or None."""
    _, pivots, R = ref_rref(field, [list(r) + [b] for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    x = [field.zero()] * ncols
    for i, p in enumerate(pivots):
        x[p] = R[i][ncols]
    return tuple(x)


def ref_extend(field, base, candidates, n):
    """Indices of the dense candidates that greedily extend span(base)."""
    cols = list(base) + list(candidates)
    _, pivots, _ = ref_rref(field, rows_of([dict(enumerate(c)) for c in cols], n), len(cols))
    return [p - len(base) for p in pivots if p >= len(base)]


def ref_quotient(field, cycles, boundaries, v):
    """Coordinates of v in span(cycles)/span(boundaries), against the cycles
    that greedily extend the boundaries; None when v is outside span(cycles)."""
    cols = list(boundaries) + [cycles[i] for i in ref_extend(field, boundaries, cycles, len(v))]
    x = ref_solve(field, rows_of([dict(enumerate(c)) for c in cols], len(v)), len(cols), v)
    return None if x is None else x[len(boundaries):]
