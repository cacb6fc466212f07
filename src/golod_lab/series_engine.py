"""Truncated Poincare-Betti series: the Koszul-side bound and the resolution side.

The bound series comes straight from the Betti totals.  The resolution side
is computed honestly: a minimal graded free resolution of the residue field
over the quotient ring is built step by step, splitting every kernel by
multidegree (each multidegree piece involves at most one standard monomial per
free generator, which keeps the exact linear algebra tiny).

Only the multidegrees u <= w are resolved, w the lcm of the generators:
``box_series`` gives P_B, P truncated to that box, and b_R = N * P_B^-1, from
which ``p_series`` reads all of P (Berglund, "Poincare series of monomial
rings", J. Algebra 295, 2006; ``p_series`` spells this out).

Each ``box_series`` call builds one table of the ring's standard monomials in
the box, per degree and as a set; every step reads it, and nothing is cached
between calls.  A step walks its box
multidegrees one internal degree at a time and keeps only the current and
the previous degree.  At a multidegree u the kernel K(u) of the current map
is lifted from below: x_v K(u - e_v) lies in K(u) for every variable v, and
the kernel vectors outside the span of these lifts are the new generators.
K(u) is kept as echelon rows.  Multiplying by x_v only drops the generators
whose monomial leaves the ring, so a row whose lead survives keeps its
leading structure and enters K(u) unreduced; most multidegrees take all of
K(u) that way.

Its dimension comes from exactness, not elimination.  Where the current map
F_{j-1} -> F_{j-2} is onto the previous kernel K_{j-1} at u,
dim K_j(u) = dim (F_{j-1})_u - dim K_{j-1}(u), and K_1 = m has dimension 1 at
each nonzero standard monomial.  The map is onto in the box by construction:
every step walks every multidegree of the box and takes new generators
wherever the lifts fall short of its kernel.  Where the dimension is 0
nothing is built; elsewhere the unreduced rows, then the other lifts, are
taken until they reach it, and only where they fall short, that is where new
generators appear, is the kernel eliminated, with its dimension checked
against exactness.  The box is finite, so no internal-degree bound is needed;
the steps stop at the order asked.  Its size is bounded instead: past
``_BOX_BOUND`` multidegrees ``box_series`` raises ``TooLarge``.

The steps see every multidegree u <= w as one int (``_Packing``): variable
k owns a field of w_k.bit_length() + 1 bits, variable 0 the highest, so int
order is tuple order, the order generators are numbered in.  The top bit of
each field is a guard bit, 0 in a packed multidegree, and G is their mask.
Then g + m is one addition, m <= room is ((room | G) - m) & G == G (where
m_k > room_k the field's own guard bit absorbs the borrow), and u - e_v is
one subtraction, taken where v's field is nonzero.  The standard-monomial
table is packed once per call; what ``box_series`` returns is on tuples.
"""

from __future__ import annotations

from itertools import chain, combinations
from math import comb, prod
from operator import add, le

from .exact_linalg import Echelon, column_relations
from .homology_engine import betti
from .monomial_core import TooLarge
from .record import Record

_BOX_BOUND = 2**18  # most multidegrees an lcm box may hold: 262,144


class SeriesTrunc(Record):
    """Truncated power series in one variable with exact coefficients."""

    __slots__ = _fields = ("coeffs", "order")

    def __init__(self, coeffs, order):
        if len(coeffs) != order + 1:
            raise ValueError("coefficient count does not match the order")
        self._fill(coeffs, order)

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
    b_i the Betti totals of the ring for i >= 1."""
    if n < 0:
        raise ValueError("truncation order must be non-negative")
    totals = betti(ideal, field).totals
    q = []
    for j in range(n + 1):
        q.append(comb(ideal.n_vars, j) + sum(
            totals[i] * q[j - i - 1] for i in range(1, min(len(totals), j))
        ))
    return SeriesTrunc(tuple(q), n)


# ---------------------------------------------------------------------------
# standard monomials of the quotient ring


def _std_table(ideal, box):
    """Standard monomials m <= box: a list of sorted exponent tuples per degree
    0..|box|, and the set of them all.

    Degree d is grown from degree d-1 inside the box (closed under m - e_v),
    so monomials inside the ideal are never enumerated in bulk.  A monomial m
    is standard exactly when it is not a generator and every m - e_v with
    m_v > 0 is standard (a generator dividing m properly divides one of
    them), that is when it is grown from as many standard monomials as its
    support has variables.
    """
    gens = {g.exps for g in ideal.gens}
    n = ideal.n_vars
    layer = [(0,) * n]
    by_degree = [layer]
    for _ in range(sum(box)):
        grown = {}
        for m in layer:
            for v in range(n):
                if m[v] < box[v]:
                    g = m[:v] + (m[v] + 1,) + m[v + 1:]
                    grown[g] = grown.get(g, 0) + 1
        layer = sorted(m for m, k in grown.items() if k == n - m.count(0) and m not in gens)
        by_degree.append(layer)
    return by_degree, {m for ms in by_degree for m in ms}


# ---------------------------------------------------------------------------
# the resolution engine


class _Packing:
    """Multidegrees u <= w packed into one int each.

    Variable k owns a field of ``w_k.bit_length() + 1`` bits whose top bit,
    its guard bit, is 0 in every packed multidegree; variable 0 owns the
    highest field, so int order is tuple order.  ``guard`` is the mask of
    the guard bits, and ``steps`` holds, per variable v with w_v > 0, the
    mask of v's value bits and e_v packed, so u - e_v is taken only where
    u_v > 0.
    """

    def __init__(self, w):
        self.widths = [x.bit_length() for x in w]
        self.shifts = [sum(self.widths[k + 1:]) + len(w) - k - 1 for k in range(len(w))]
        self.guard = sum(1 << (s + b) for s, b in zip(self.shifts, self.widths))
        self.steps = [((1 << (s + b)) - (1 << s), 1 << s)
                      for s, b in zip(self.shifts, self.widths) if b]

    def pack(self, u):
        return sum(x << s for x, s in zip(u, self.shifts))

    def unpack(self, p):
        return tuple((p >> s) & ((1 << b) - 1) for s, b in zip(self.shifts, self.widths))


class StepReport(Record):
    """The generators one resolution step found, with ``degrees`` their
    (internal degree, count) pairs."""

    __slots__ = _fields = ("step", "generators", "degrees")

    def __init__(self, step, generators, degrees):
        self._fill(step, generators, degrees)


class ResolutionReport(Record):
    __slots__ = _fields = ("steps",)

    def __init__(self, steps):
        self._fill(steps)

    def describe(self):
        lines = ["minimal resolution of the residue field:"]
        for s in self.steps:
            degs = ", ".join(f"{d}:{c}" for d, c in s.degrees) or "-"
            lines.append(f"  step {s.step}: {s.generators} generators (by degree {degs})")
        return "\n".join(lines)


def _kernel_at(field, here, phi, is_std):
    """Kernel of the current map at one multidegree, from ``column_relations``.

    ``here``: generator index -> its standard monomial there.  Returns the
    kernel vectors keyed by generator index, their scalars in ``Field.of``'s
    format as the next eliminations read them.
    """
    columns = {}
    row_keys = {}
    for gi, m in here.items():
        col = columns[gi] = {}
        for (pj, me), c in phi[gi].items():
            # m * me is u - prev_degrees[pj]; dead when it leaves the ring
            if m + me in is_std:
                col[row_keys.setdefault(pj, len(row_keys))] = c
    _, relations = column_relations(field, columns, len(row_keys))
    return list(relations.values())


def _lift(field, here, dim, belows):
    """The echelon of the lifts x_v K(u - e_v) in K(u), stopped at ``dim`` rows.

    ``belows``: the echelon rows of each nonzero K(u - e_v).  A row whose lead
    survives x_v (lies in ``here``) restricts to an echelon row of K(u) with
    the same lead, so such rows go in unreduced, from the directions that keep
    the most leads first, and a row none of whose keys dies is shared, not
    copied.  Only when they fall short are the other lifts reduced; the
    result is then short only if every lift has entered.
    """
    lifted = Echelon(field)
    rows = lifted.rows
    kept = sorted(((b.keys() & here.keys(), b) for b in belows), key=lambda t: -len(t[0]))
    placed = []
    for leads, b in kept:
        fresh = leads - rows.keys()
        for lead in fresh:
            row = b[lead]
            rows[lead] = row if row.keys() <= here.keys() else {
                gi: c for gi, c in row.items() if gi in here
            }
            if len(rows) == dim:
                return lifted
        placed.append(fresh)
    for (_, b), fresh in zip(kept, placed):
        for lead, row in b.items():
            if lead not in fresh:
                w = {gi: c for gi, c in row.items() if gi in here}
                if w and lifted.absorb(w) and len(rows) == dim:
                    return lifted
    return lifted


def _resolution_step(field, pk, std, box, gens, phi, prev):
    """One minimal-resolution step, multidegree by multidegree, inside the box.

    Every multidegree here is packed by ``pk`` (``_Packing``).  ``std``: a
    table of the ring's standard monomials, per degree and as a set, through
    the degree of ``box``; the step walks all of it but keeps only the
    multidegrees u <= ``box``, which holds every generator.
    ``gens``: multidegrees of the current free module F's generators.
    ``phi``: per generator, the image as a map (previous gen index, exps) ->
    coeff.  ``prev``: the nonzero dimensions of the previous kernel K' by
    multidegree (None for K' = m), consumed here.  F is onto K' throughout
    the box, so dim K(u) = dim F_u - dim K'(u).  Lifts (``_lift``) reach
    dim K(u) except where new generators appear, and only there does
    ``_kernel_at`` eliminate; a kernel whose dimension is not dim K(u) is an
    ``AssertionError``.

    Returns (new generator multidegrees, new phi, the nonzero dimensions of
    K by multidegree).
    """
    by_degree, is_std = std
    guard = pk.guard
    degrees = [sum(pk.unpack(g)) for g in gens]
    rooms = [(box - g) | guard for g in gens]  # m fits when room - m keeps every guard bit

    def dim_prev(u):
        return (u in is_std) if prev is None else prev.pop(u, 0)

    dims = {}
    kernels = {}  # multidegree of the current degree -> the echelon rows of K(u)
    new_gens = []
    new_phi = []
    for d in range(min(degrees), len(by_degree)):
        layer = {}  # multidegree -> {generator index: its standard monomial there}
        for gi, g in enumerate(gens):
            if degrees[gi] <= d:
                room = rooms[gi]
                for m in by_degree[d - degrees[gi]]:
                    if (room - m) & guard == guard:
                        layer.setdefault(g + m, {})[gi] = m
        below, kernels = kernels, {}  # lifts come from one degree down only
        for u in sorted(layer):
            here = layer.pop(u)  # popping lowers peak memory
            dim = len(here) - dim_prev(u)
            if not dim:
                continue
            dims[u] = dim
            lifted = _lift(field, here, dim, [
                b for bits, unit in pk.steps if u & bits and (b := below.get(u - unit))
            ])
            if len(lifted.rows) < dim:  # new generators at u
                kernel = _kernel_at(field, here, phi, is_std)
                if len(kernel) != dim:
                    raise AssertionError(f"kernel at {pk.unpack(u)} has dimension "
                                         f"{len(kernel)}, exactness gives {dim}")
                for vec in kernel:
                    if lifted.absorb(vec):
                        new_gens.append(u)
                        new_phi.append({(gi, here[gi]): c for gi, c in vec.items()})
                        if len(lifted.rows) == dim:
                            break
            kernels[u] = lifted.rows
    return new_gens, new_phi, dims


def _box_product(a, b, box):
    """The product of two polynomials in x (multidegree -> coefficient),
    truncated to the multidegrees u <= ``box``."""
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            s = tuple(map(add, u, v))
            if all(map(le, s, box)):
                out[s] = out.get(s, 0) + x * y
    return out


def box_series(ideal, field, n):
    """P_B and b_R = N * P_B^-1 to order n, each a list over t^j of
    {u: nonzero coefficient} for the u <= w, w the lcm of the generators
    (``p_series`` gives the argument).  Past ``_BOX_BOUND`` multidegrees in
    the box it raises ``TooLarge`` before it enumerates any."""
    nv = ideal.n_vars
    box = ideal.box
    if (size := prod(w + 1 for w in box)) > _BOX_BOUND:
        raise TooLarge(f"lcm box {box} has {size:,} multidegrees, past {_BOX_BOUND:,}")
    pk = _Packing(box)
    by_degree = [list(map(pk.pack, ms)) for ms in _std_table(ideal, box)[0]]
    std = by_degree, set(chain.from_iterable(by_degree))
    # first syzygy module of the residue field is the irrelevant ideal
    support = [v for v in range(nv) if box[v]]
    gens = [e for v in support if (e := 1 << pk.shifts[v]) in std[1]]
    phi = [{(0, e): 1} for e in gens]
    levels = [{(0,) * nv: 1}, dict.fromkeys(map(pk.unpack, gens), 1)][: n + 1]  # P_B: t^j -> {u: count}
    dims = None  # K_1 = m: dimension 1 at each nonzero standard monomial
    for j in range(2, n + 1):
        if not gens:
            break
        gens, phi, dims = _resolution_step(field, pk, std, pk.pack(box), gens, phi, dims)
        level = {}
        for u in map(pk.unpack, gens):
            level[u] = level.get(u, 0) + 1
        levels.append(level)
    levels += [{}] * (n + 1 - len(levels))
    b = []  # b_R = N * P_B^-1 in the box: t^j -> {u: coefficient}
    for j in range(n + 1):
        # N = prod over the box's variables of (1 + x_v t): the j-subsets at t^j
        bj = {tuple(int(v in pick) for v in range(nv)): 1 for pick in combinations(support, j)}
        for i in range(1, j + 1):
            for u, c in _box_product(levels[i], b[j - i], box).items():
                bj[u] = bj.get(u, 0) - c
        b.append({u: c for u, c in bj.items() if c})
    return levels, b


def p_series(ideal, field, n):
    """Coefficients of the resolution-side series to order n, with a report of
    each step's generators by internal degree.

    The coefficient of t^j is the rank of the j-th free module in the minimal
    graded free resolution of the residue field over R = S/I.  Only the
    resolution's piece in the box B = {u <= w}, w the lcm of the generators,
    is built; the rest of P follows by one division (Berglund, "Poincare
    series of monomial rings", J. Algebra 295, 2006):

    * P = prod_i (1 + x_i t) / b_R(x, t), where every monomial of the
      polynomial b_R is an lcm of generators, so lies in B.
    * P_u for u <= w reads only monomials dividing u: the resolution's
      generators, kernels and lifts at u all sit at multidegrees <= u.  So
      the box resolution gives P_B, the truncation of P to B, exactly.
    * Truncation to B (the quotient by x_i^(w_i + 1)) and truncation mod
      t^(n+1) are both ring maps, so P_B * b_R = N in the truncated ring,
      with N = prod over w_i > 0 of (1 + x_i t); the other factors are 1
      there.
    * P_B has constant term 1, so it is a unit, and b_R has only box
      monomials, so b_R = N * P_B^-1 there, by the t-graded recursion
      b_j = N_j - sum_{i=1..j} P_i * b_(j-i).

    Grading x^u by its total degree y^|u| is a ring map too, so
    P(y, t) = (1 + y t)^vars / b_R(y, t) mod t^(n+1), and its coefficient of
    y^d t^j counts the step-j generators in internal degree d.  The steps
    stop at n; each is onto its predecessor's kernel in the box by
    construction (see the module docstring), so no internal-degree cap and
    no Koszul homology enter.
    """
    if n < 0:
        raise ValueError("truncation order must be non-negative")
    nv = ideal.n_vars
    _, b = box_series(ideal, field, n)
    den = []  # b_R(y, t): t^j -> {total degree: coefficient}
    for bj in b:
        dj = {}
        for u, c in bj.items():
            dj[sum(u)] = dj.get(sum(u), 0) + c
        den.append(dj)
    by_t = []  # P(y, t) = (1 + y t)^vars / b_R(y, t): t^j -> {internal degree: count}
    for j in range(n + 1):
        pj = {j: comb(nv, j)}
        for i in range(1, j + 1):
            for d, c in den[i].items():
                for e, x in by_t[j - i].items():
                    pj[d + e] = pj.get(d + e, 0) - c * x
        by_t.append({d: c for d, c in pj.items() if c})
    steps = tuple(
        StepReport(j, sum(by_t[j].values()), tuple(sorted(by_t[j].items())))
        for j in range(1, n + 1)
    )
    return SeriesTrunc(tuple(sum(pj.values()) for pj in by_t), n), ResolutionReport(steps)
