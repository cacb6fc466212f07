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
