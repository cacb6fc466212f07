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
each nonzero standard monomial.  The map is onto everywhere the table
reaches: the series bound leaves no generator above a step's cap (the same
fact the cap itself rests on), so each step also counts its kernel's
dimensions above its cap for the next one.  Where the dimension is 0 nothing
is built; elsewhere lifts are absorbed until they reach it, and only where
they fall short, that is where new generators appear, is the kernel
eliminated, with its dimension checked against exactness.

No a-priori internal-degree bound exists in general, so each step's cap is
read off the coefficientwise inequality between the two series: internal
degrees where the bound series vanishes cannot support resolution
generators.  ``q_series`` is the same bound summed over internal degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

from .exact_linalg import Echelon, column_relations
from .homology_engine import betti


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
    """Series bound from Koszul homology: (1+t)^vars over 1 - sum b_i t^(i+1),
    as the column sums of ``_q_bigraded``."""
    if n < 0:
        raise ValueError("truncation order must be non-negative")
    table = _q_bigraded(ideal, field, n)
    return SeriesTrunc(tuple(sum(table.get(j, {}).values()) for j in range(n + 1)), n)


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
    steps: tuple

    def describe(self):
        lines = ["cap policy: serre (passed)"]
        for s in self.steps:
            degs = ", ".join(f"{d}:{c}" for d, c in s.degrees) or "-"
            lines.append(
                f"  step {s.step}: cap {s.cap}, {s.generators} generators (by degree {degs}); {s.note}"
            )
        return "\n".join(lines)


def _q_bigraded(ideal, field, n):
    """Coefficients of the bound series refined by internal degree: j -> {d: coeff}."""
    coarse = betti(ideal, field).coarse
    den_terms = {(i + 1, j): dim for (i, j), dim in coarse.items() if i >= 1}
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
    """Kernel of the current map at multidegree u, from ``column_relations``.

    ``here``: generator index -> its standard monomial at u.  Returns the
    kernel vectors keyed by generator index, their scalars in ``Field.of``'s
    format as the next eliminations read them.  ``dim`` is dim K(u) by
    exactness; an elimination that does not confirm it is an
    ``AssertionError``.
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
    _, _, relations = column_relations(field, columns, len(row_keys))
    if len(relations) != dim:
        raise AssertionError(
            f"kernel at {u} has dimension {len(relations)}, exactness gives {dim}"
        )
    gens = list(here)
    return [{gens[k]: x for k, x in rel.items()} for rel in relations.values()]


def _resolution_step(field, std, gens, phi, cap, prev):
    """One minimal-resolution step, multidegree by multidegree.

    ``std``: the ``_std_table`` of the ring, through the largest cap of any
    step, and the step walks all of it.  ``gens``: multidegrees of the
    current free module F's generators.  ``phi``: per generator, the image
    as a map (previous gen index, exps) -> coeff.  ``prev``: the nonzero
    dimensions of the previous kernel K' by multidegree (None for K' = m),
    consumed here.  F is onto K' throughout, so dim K(u) = dim F_u - dim K'(u).
    Lifts reach dim K(u) except where new generators appear, and only there
    does ``_kernel_at`` eliminate.  Past ``cap`` dimensions are only counted.

    Returns (new generator multidegrees, new phi, counts per internal degree,
    the nonzero dimensions of K by multidegree).
    """
    by_degree, is_std = std
    degrees = [sum(dg) for dg in gens]

    def dim_prev(u):
        return (u in is_std) if prev is None else prev.pop(u, 0)

    dims = {}
    kernels = {}  # multidegree of the current degree -> a basis of K(u)
    new_gens = []
    new_phi = []
    counts = {}
    for d in range(min(degrees), len(by_degree)):
        layer = {}  # multidegree -> {generator index: its standard monomial there}
        for gi, dg in enumerate(gens):
            if degrees[gi] <= d:
                for m in by_degree[d - degrees[gi]]:
                    layer.setdefault(tuple(map(add, dg, m)), {})[gi] = m
        below, kernels = kernels, {}  # lifts come from one degree down only
        for u in sorted(layer):
            here = layer.pop(u)  # popping lowers peak memory
            dim = len(here) - dim_prev(u)
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
                basis = _kernel_at(field, u, here, phi, is_std, dim)
                for vec in basis:
                    if lifted.absorb(vec):
                        new_gens.append(u)
                        new_phi.append({(gi, here[gi]): c for gi, c in vec.items()})
                        counts[d] = counts.get(d, 0) + 1
            kernels[u] = basis
    return new_gens, new_phi, counts, dims


def p_series(ideal, field, n):
    """Coefficients of the resolution-side series to order n, with a cap report.

    Builds the minimal graded free resolution of the residue field over the
    quotient ring; the coefficient of t^j is the rank of the j-th free module.
    """
    if n < 0:
        raise ValueError("truncation order must be non-negative")
    coeffs = [1]
    steps = []
    if n == 0:
        return SeriesTrunc((1,), 0), CapReport(())
    qtable = _q_bigraded(ideal, field, n)
    nv = ideal.n_vars
    # the table reaches the largest cap of any step
    std = _std_table(ideal, max(max(bound) for bound in qtable.values()))
    # first syzygy module of the residue field is the irrelevant ideal
    gens = []
    phi = []
    for v in range(nv):
        e = tuple(1 if k == v else 0 for k in range(nv))
        if e in std[1]:  # the set of every standard monomial
            gens.append(e)
            phi.append({(0, e): 1})
    coeffs.append(len(gens))
    steps.append(StepReport(1, 1, len(gens), ((1, len(gens)),), "ring variables"))
    dims = None  # K_1 = m: dimension 1 at each nonzero standard monomial
    for j in range(2, n + 1):
        if not gens:
            coeffs.append(0)
            steps.append(StepReport(j, 0, 0, (), "resolution already finished"))
            continue
        bound = qtable.get(j, {})
        cap = max(bound) if bound else 0
        new_gens, new_phi, counts, dims = _resolution_step(field, std, gens, phi, cap, dims)
        for d, c in counts.items():
            if c > bound.get(d, 0):
                raise AssertionError(
                    f"step {j} found {c} generators in degree {d}, above the series bound"
                )
        coeffs.append(len(new_gens))
        steps.append(
            StepReport(j, cap, len(new_gens), tuple(sorted(counts.items())), "series-bound cap")
        )
        gens, phi = new_gens, new_phi
    return SeriesTrunc(tuple(coeffs), n), CapReport(tuple(steps))
