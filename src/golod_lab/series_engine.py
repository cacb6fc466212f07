"""Truncated Poincare-Betti series: the Koszul-side bound and the resolution side.

The bound series comes straight from the Betti numbers.  The resolution side
is computed honestly: a minimal graded free resolution of the residue field
over the quotient ring is built step by step, splitting every kernel by
multidegree (each multidegree piece involves at most one standard monomial per
free generator, which keeps the exact linear algebra tiny).

Each ``p_series`` call builds one table of the ring's standard monomials, per
degree and as a set, up to the largest degree any step reaches; every step
reads it, and nothing is cached between calls.  A step walks its multidegrees
one internal degree at a time and keeps only the current and the previous
degree.  At a multidegree u the kernel K(u) of the current map is lifted
from below: x_v K(u - e_v) lies in K(u) for every variable v, and the kernel
vectors outside the span of these lifts are the new generators.

Its dimension comes from exactness, not elimination.  Where the current map
F_{j-1} -> F_{j-2} is onto the previous kernel K_{j-1} at u,
dim K_j(u) = dim (F_{j-1})_u - dim K_{j-1}(u), and K_1 = m has dimension 1 at
each nonzero standard monomial.  By construction this holds through the
previous step's search cap, where that step's generators and lifts spanned
its kernel.  Under the serre policy it holds through the largest cap of all:
the series bound leaves no generator above a step's cap (the same fact the
cap itself rests on), so each step also counts its kernel's dimensions above
its cap for the next one.  Under "windowed" a multidegree above the previous
search cap has no known dimension and is eliminated.  Where the dimension is
0 nothing is built; elsewhere lifts are absorbed until they reach it, and
only where they fall short, that is where new generators appear, is the
kernel eliminated, with its dimension checked against exactness.

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

from .exact_linalg import Echelon, span
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

    def describe(self):
        lines = [f"cap policy: {self.policy} (passed)"]
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


def _kernel_at(field, u, here, phi, is_std, dim):
    """Kernel of the current map at multidegree u, by tagged reduction.

    ``here``: generator index -> its standard monomial at u.  Returns the
    kernel vectors, keyed by generator index, in the echelon's scalars.
    ``dim`` is dim K(u) by exactness, or None where it is not known; a known
    dimension the elimination does not confirm is an ``AssertionError``.
    """
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
    if dim is not None and len(kern) != dim:
        raise AssertionError(
            f"kernel at {u} has dimension {len(kern)}, exactness gives {dim}"
        )
    return kern


def _resolution_step(field, std, gens, phi, cap, known):
    """One minimal-resolution step, multidegree by multidegree.

    ``std``: the ``_std_table`` of the ring, through ``max(cap, upto)``.
    ``gens``: multidegrees of the current free module F's generators.
    ``phi``: per generator, the image as a map (previous gen index, exps) -> coeff.
    ``known``: ``(prev, upto)``, the nonzero dimensions of the previous
    kernel K' by multidegree (None for K' = m), consumed here, and the degree
    through which F is onto K': the previous search cap, by construction, or
    under serre the largest cap, on the series bound.  Through ``upto``,
    dim K(u) = dim F_u - dim K'(u); past it (windowed only) the kernel is
    eliminated.  Lifts reach dim K(u) except where new generators appear,
    and only there does ``_kernel_at`` eliminate.  Past ``cap``, through
    ``upto``, dimensions are only counted.

    Returns (new generator multidegrees, new phi, counts per internal degree,
    the nonzero dimensions of K by multidegree).
    """
    by_degree, is_std = std
    prev, upto = known
    degrees = [sum(dg) for dg in gens]

    def dim_prev(u):
        return (u in is_std) if prev is None else prev.pop(u, 0)

    dims = {}
    kernels = {}  # multidegree of the current degree -> a basis of K(u)
    new_gens = []
    new_phi = []
    counts = {}
    for d in range(min(degrees), max(cap, upto) + 1):
        layer = {}  # multidegree -> {generator index: its standard monomial there}
        for gi, dg in enumerate(gens):
            if degrees[gi] <= d:
                for m in by_degree[d - degrees[gi]]:
                    layer.setdefault(tuple(map(add, dg, m)), {})[gi] = m
        below, kernels = kernels, {}  # lifts come from one degree down only
        for u in sorted(layer):
            here = layer.pop(u)  # popping lowers peak memory
            kern = None
            if d <= upto:
                dim = len(here) - dim_prev(u)
            else:
                kern = _kernel_at(field, u, here, phi, is_std, None)
                dim = len(kern)
            if not dim:
                continue
            dims[u] = dim
            if d > cap:
                continue  # counted, not visited
            lifts = (
                {gi: c for gi, c in kv.items() if gi in here}
                for v in range(len(u))
                for kv in below.get(u[:v] + (u[v] - 1,) + u[v + 1:], ())
            )
            lifted = Echelon(field)
            basis = []
            for w in lifts:
                # once the lifts span K(u), u has no new generator
                if lifted.absorb(w):
                    basis.append(w)
                    if len(basis) == dim:
                        break
            else:
                if kern is None:
                    kern = _kernel_at(field, u, here, phi, is_std, dim)
                for vec in kern:
                    if lifted.absorb(vec):
                        new_gens.append(u)
                        new_phi.append({(gi, here[gi]): c for gi, c in vec.items()})
                        counts[d] = counts.get(d, 0) + 1
                basis = kern
            kernels[u] = basis
    return new_gens, new_phi, counts, dims


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
        return SeriesTrunc((1,), 0), CapReport(degree_cap_policy, ())
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
    dims = None  # K_1 = m: dimension 1 at each nonzero standard monomial
    onto = top  # the variables generate m, so d_1 is onto K_1 everywhere
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
        # The current map is onto the previous kernel through the last search
        # cap; under serre the bound leaves no generator past any cap, so it
        # is onto through top, and each step counts its dimensions up to there.
        upto = top if degree_cap_policy == "serre" else min(onto, search_cap)
        new_gens, new_phi, counts, dims = _resolution_step(
            field, std, gens, phi, search_cap, (dims, upto)
        )
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
        onto = search_cap
    return SeriesTrunc(tuple(coeffs), n), CapReport(degree_cap_policy, tuple(steps))


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
    p = field.char
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
        # the signs are ints: zero in the field means zero, or zero mod p
        cols.append({r: c for r, c in col.items() if (c % p if p else c)})
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
    rank_j = len(span(field, cols_j).rows)
    cols_up = _bar_columns(ideal, field, j + 1, d)
    rank_up = len(span(field, cols_up).rows)
    return dim - rank_j - rank_up
