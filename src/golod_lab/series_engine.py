"""Truncated Poincare-Betti series: the Koszul-side bound and the resolution side.

The bound series comes straight from the Betti numbers.  The resolution side
is computed honestly: a minimal graded free resolution of the residue field
over the quotient ring is built step by step, splitting every kernel by
multidegree (each multidegree piece involves at most one standard monomial per
free generator, which keeps the exact linear algebra tiny).

Each ``p_series`` call builds one table of the ring's standard monomials, per
degree and as a set, up to the largest degree any step reaches; every step
reads it, and nothing is cached between calls.  At a multidegree u the
kernel K(u) of the current map is lifted from below: x_v K(u - e_v) lies in
K(u) for every variable v, and the kernel vectors outside the span of these
lifts are the new generators.  Lifting stops as soon as the lifts span all of
K(u), since then u has no new generator.

No a-priori internal-degree bound exists in general, so each step runs under a
cap policy.  The default policy derives a certified cap for step j from the
coefficientwise inequality between the two series: internal degrees where the
bound series vanishes cannot support resolution generators.  The alternative
"windowed" policy uses the cap (max generator degree) * j + n and re-extends
by one window, failing loudly if new generators show up there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .exact_linalg import Echelon, sparse_reduce_columns
from .homology_engine import betti


class CapInsufficientError(RuntimeError):
    """A resolution step found generators at its cap boundary; results unusable."""


@dataclass(frozen=True)
class SeriesTrunc:
    """Truncated power series in one variable with exact coefficients."""

    coeffs: tuple
    order: int

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count does not match the order")

    def __getitem__(self, i):
        return self.coeffs[i]

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coeffs) + ")"


def expand_rational(numerator, denominator, n):
    """Exact expansion of numerator/denominator to order n (constant term != 0)."""
    if n < 0:
        raise ValueError("truncation order must be non-negative")
    den = [Fraction(c) for c in denominator]
    num = [Fraction(c) for c in numerator]
    if not den or den[0] == 0:
        raise ValueError("denominator has zero constant term")
    coeffs = []
    for k in range(n + 1):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * coeffs[k - j]
        coeffs.append(acc / den[0])
    if all(c.denominator == 1 for c in coeffs):
        coeffs = [int(c) for c in coeffs]
    return SeriesTrunc(tuple(coeffs), n)


def series_compare(p, q):
    """First index (up to the common order) where coefficients differ, with sign.

    Returns None on agreement, else ``(index, -1)`` when p is smaller there
    and ``(index, +1)`` when p is larger.
    """
    upto = min(p.order, q.order)
    for k in range(upto + 1):
        if p[k] != q[k]:
            return (k, -1 if p[k] < q[k] else 1)
    return None


def q_series(ideal, field, n):
    """Series bound from Koszul homology: (1+t)^vars over 1 - sum b_i t^(i+1)."""
    bd = betti(ideal, field)
    nv = ideal.n_vars
    num = [0] * (nv + 1)
    binom = 1
    for k in range(nv + 1):
        num[k] = binom
        binom = binom * (nv - k) // (k + 1)
    pd = bd.projective_dimension
    den = [0] * (pd + 2)
    den[0] = 1
    for i in range(1, pd + 1):
        den[i + 1] = -bd.total(i)
    return expand_rational(num, den, n)


# ---------------------------------------------------------------------------
# standard monomials of the quotient ring


def _std_table(ideal, top):
    """Standard monomials of degree 0..top: a list of sorted exponent tuples per
    degree, and the set of them all.

    Degree d is grown from degree d-1 (every divisor of a standard monomial is
    standard), so monomials inside the ideal are never enumerated in bulk.
    """
    gens = [g.exps for g in ideal.gens]
    n = ideal.n_vars
    layer = [(0,) * n]
    by_degree = [layer]
    for _ in range(top):
        grown = {m[:v] + (m[v] + 1,) + m[v + 1:] for m in layer for v in range(n)}
        layer = sorted(
            m for m in grown if not any(all(a <= b for a, b in zip(g, m)) for g in gens)
        )
        by_degree.append(layer)
    return by_degree, {m for ms in by_degree for m in ms}


# ---------------------------------------------------------------------------
# the resolution engine


@dataclass(frozen=True)
class StepReport:
    step: int
    cap: int
    generators: int
    degrees: tuple  # (internal degree, count) pairs
    note: str


@dataclass(frozen=True)
class CapReport:
    policy: str
    steps: tuple
    passed: bool

    def describe(self):
        lines = [f"cap policy: {self.policy} ({'passed' if self.passed else 'FAILED'})"]
        for s in self.steps:
            degs = ", ".join(f"{d}:{c}" for d, c in s.degrees) or "-"
            lines.append(
                f"  step {s.step}: cap {s.cap}, {s.generators} generators (by degree {degs}); {s.note}"
            )
        return "\n".join(lines)


def _q_bigraded(ideal, field, n):
    """Coefficients of the bound series refined by internal degree: j -> {d: coeff}."""
    bd = betti(ideal, field)
    den_terms = {}
    for (i, u), dim in bd.multigraded:
        if i >= 1:
            key = (i + 1, sum(u))
            den_terms[key] = den_terms.get(key, 0) + dim
    inv = {(0, 0): 1}
    layer = {(0, 0): 1}
    while True:
        nxt = {}
        for (tj, yd), c in layer.items():
            for (ti, yi), b in den_terms.items():
                t2 = tj + ti
                if t2 > n:
                    continue
                key = (t2, yd + yi)
                nxt[key] = nxt.get(key, 0) + c * b
        if not nxt:
            break
        for k, c in nxt.items():
            inv[k] = inv.get(k, 0) + c
        layer = nxt
    nv = ideal.n_vars
    out = {}
    binom = 1
    num = []
    for k in range(nv + 1):
        num.append(binom)
        binom = binom * (nv - k) // (k + 1)
    for (tj, yd), c in inv.items():
        for k in range(nv + 1):
            if tj + k > n:
                continue
            key = (tj + k, yd + k)
            out[key] = out.get(key, 0) + c * num[k]
    table = {}
    for (tj, yd), c in out.items():
        if c:
            table.setdefault(tj, {})[yd] = c
    return table


def _resolution_step(field, std, gens, phi, cap):
    """One minimal-resolution step, multidegree by multidegree.

    ``std``: the ``_std_table`` of the ring, through degree ``cap`` at least.
    ``gens``: multidegrees of the current free module's generators.
    ``phi``: per generator, the image as a map (previous gen index, exps) -> coeff.
    Returns (new generator multidegrees, new phi, counts per internal degree).
    """
    by_degree, is_std = std
    by_u = {}  # multidegree -> {generator index: its standard monomial there}
    for gi, dg in enumerate(gens):
        for d in range(cap - sum(dg) + 1):
            for m in by_degree[d]:
                by_u.setdefault(tuple(map(add, dg, m)), {})[gi] = m
    kernels = {}  # multidegree -> kernel vectors, keyed by generator index
    new_gens = []
    new_phi = []
    counts = {}
    for u in sorted(by_u, key=lambda t: (sum(t), t)):
        here = by_u.pop(u)  # each multidegree is visited once; popping lowers peak memory
        columns = []
        row_keys = {}
        for gi, m in here.items():
            col = {}
            for (pj, me), c in phi[gi].items():
                # m * me is u - prev_degrees[pj]; dead when it leaves the ring
                if tuple(map(add, m, me)) in is_std:
                    col[row_keys.setdefault(pj, len(row_keys))] = c
            columns.append(col)
        # Generator gi's column carries the tag nrows + gi; a column that
        # reduces to tags alone is a kernel vector in the echelon's scalars.
        nrows = len(row_keys)
        ech = Echelon(field)
        kern = []
        for gi, col in zip(here, columns):
            v = ech.reduce({**col, nrows + gi: 1})
            if min(v) < nrows:
                ech.insert(v)
            else:
                kern.append({k - nrows: x for k, x in v.items()})
        kernels[u] = kern
        if not kern:
            continue
        lifts = (
            {gi: c for gi, c in kv.items() if gi in here}
            for v in range(len(u))
            for kv in kernels.get(u[:v] + (u[v] - 1,) + u[v + 1:], ())
        )
        lifted = Echelon(field)
        for w in lifts:
            # x_v K(u - e_v) lies in K(u): once the lifts span it, u has no new generator
            if lifted.absorb(w) and len(lifted.rows) == len(kern):
                break
        else:
            for vec in kern:
                if lifted.absorb(vec):
                    new_gens.append(u)
                    new_phi.append({(gi, here[gi]): c for gi, c in vec.items()})
                    counts[sum(u)] = counts.get(sum(u), 0) + 1
    return new_gens, new_phi, counts


def p_series(ideal, field, n, degree_cap_policy="serre"):
    """Coefficients of the resolution-side series to order n, with a cap report.

    Builds the minimal graded free resolution of the residue field over the
    quotient ring; the coefficient of t^j is the rank of the j-th free module.
    """
    if n < 0:
        raise ValueError("truncation order must be non-negative")
    if degree_cap_policy not in ("serre", "windowed"):
        raise ValueError(f"unknown cap policy {degree_cap_policy!r}")
    coeffs = [1]
    steps = []
    if n == 0:
        return SeriesTrunc((1,), 0), CapReport(degree_cap_policy, (), True)
    qtable = _q_bigraded(ideal, field, n) if degree_cap_policy == "serre" else None
    maxgen = max((g.degree for g in ideal.gens), default=1)
    nv = ideal.n_vars
    # the table reaches the largest cap any step searches
    if degree_cap_policy == "serre":
        top = max(max(bound) for bound in qtable.values())
    else:
        top = maxgen * (n + 1) + nv
    std = _std_table(ideal, top)
    # first syzygy module of the residue field is the irrelevant ideal
    gens = []
    phi = []
    for v in range(nv):
        e = tuple(1 if k == v else 0 for k in range(nv))
        if e in std[1]:  # the set of every standard monomial
            gens.append(e)
            phi.append({(0, e): field.one()})
    coeffs.append(len(gens))
    steps.append(StepReport(1, 1, len(gens), ((1, len(gens)),), "ring variables"))
    for j in range(2, n + 1):
        if not gens:
            coeffs.append(0)
            steps.append(StepReport(j, 0, 0, (), "resolution already finished"))
            continue
        if degree_cap_policy == "serre":
            bound = qtable.get(j, {})
            cap = max(bound) if bound else 0
            note = "series-bound cap"
        else:
            cap = maxgen * j + nv
            note = f"windowed cap, stability window +{maxgen}"
        search_cap = cap if degree_cap_policy == "serre" else cap + maxgen
        new_gens, new_phi, counts = _resolution_step(field, std, gens, phi, search_cap)
        if degree_cap_policy == "serre":
            for d, c in counts.items():
                if c > qtable.get(j, {}).get(d, 0):
                    raise AssertionError(
                        f"step {j} found {c} generators in degree {d}, above the series bound"
                    )
        else:
            offenders = {d: c for d, c in counts.items() if d > cap}
            if offenders:
                raise CapInsufficientError(
                    f"step {j}: generators appeared inside the stability window "
                    f"beyond cap {cap}: {sorted(offenders.items())}"
                )
        coeffs.append(len(new_gens))
        steps.append(
            StepReport(j, cap, len(new_gens), tuple(sorted(counts.items())), note)
        )
        gens, phi = new_gens, new_phi
    return SeriesTrunc(tuple(coeffs), n), CapReport(degree_cap_policy, tuple(steps), True)


# ---------------------------------------------------------------------------
# bar-complex oracle


def _bar_basis(ideal, j, d):
    """Tuples of j standard monomials of positive degree with total degree d."""
    if j == 0:
        return [()] if d == 0 else []
    by_degree = _std_table(ideal, d)[0]
    out = []

    def rec(parts, remaining, slots):
        if slots == 1:
            for m in by_degree[remaining]:
                out.append(parts + (m,))
            return
        for first in range(1, remaining - slots + 2):
            for m in by_degree[first]:
                rec(parts + (m,), remaining - first, slots - 1)

    if d >= j:
        rec((), d, j)
    return out


def _bar_columns(ideal, field, j, d):
    """Sparse columns of the bar differential from (j, d) into (j-1, d)."""
    std = _std_table(ideal, d)[1]
    lower = {t: k for k, t in enumerate(_bar_basis(ideal, j - 1, d))}
    cols = []
    for t in _bar_basis(ideal, j, d):
        col = {}
        sign = 1
        for i in range(j - 1):
            prod = tuple(a + b for a, b in zip(t[i], t[i + 1]))
            if prod in std:
                r = lower[t[:i] + (prod,) + t[i + 2:]]
                col[r] = col.get(r, 0) + sign
            sign = -sign
        cols.append({r: c for r, c in col.items() if field.of(c) != 0})
    return cols


def bar_homology_dim(ideal, field, j, d):
    """Dimension of the degree-d piece of the j-th bar homology of the residue field.

    An independent oracle for the resolution engine; intended for small j, d.
    """
    if j == 0:
        return 1 if d == 0 else 0
    if d < j:
        return 0
    dim = len(_bar_basis(ideal, j, d))
    if dim == 0:
        return 0
    cols_j = _bar_columns(ideal, field, j, d)
    rank_j = len(sparse_reduce_columns(field, [c for c in cols_j if c]))
    cols_up = _bar_columns(ideal, field, j + 1, d)
    rank_up = len(sparse_reduce_columns(field, [c for c in cols_up if c]))
    return dim - rank_j - rank_up
