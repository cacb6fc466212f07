"""Strand homology with explicit representatives, and Betti data derived from it.

Each differential d_j is read on the *critical* cells of its apex cone: the
degree-j masks K that contain g0, the first generator below u, whose face
K - g0 has lcm below u, enumerated once per degree and kept.  The image of
d_{i+1} has one untagged echelon of their boundaries, each built and
absorbed when drawn, largest mask first: a column's least key then mostly
lies below every lead so far, so it enters unreduced; no answer depends on
the row basis.  ``dimension`` reads its rank, drained to the rows ``span``
builds.  ``is_boundary`` absorbs columns only while the chain's residual is
nonzero, reducing it again when a new row leads at its least key: that key
is never a lead, and only a new row can make it one, so a residual nonzero
after the last column is outside the span (each nonzero vector there has a
lead as least key).  Each d_j is eliminated at most once more, on the same
columns tagged ``top + m`` in ascending order, for its kernel and the
printed pivot solutions of d_j x = z, which so come out as chains.  The
representatives are the kernel vectors of d_i that greedily extend a
shallow copy of the image echelon, and that extended echelon gives a
cycle's coordinates.

A cone cell K = J + g0 whose face J has lcm u is *matched* (the Morse
matching K <-> K - g0 of Batzies & Welker 2002; the algebraic Morse complex
of Joellenbeck & Welker keeps the critical cells), and its row is never
built.  With each J without g0 keyed below every cone mask, an echelon of
the whole cone holds d(J + g0) unreduced as the one row leading at J: J is
its only face without g0, its first, of sign +1, as g0 is the least
generator below u.  No row has another key without g0, so a critical column
only ever meets critical rows: they are the echelon of the critical columns
alone.  Reducing a chain clears its keys without g0 first, each coefficient
x of J untouched by the others, by subtracting x * d(J + g0), and x at the
tag ``top + (J + g0)`` in a tagged solve; ``_vector`` does that, and the
critical rows reduce the rest.  Residuals are unique, so every pivot,
relation, representative, coordinate and solution is the full cone's.  On
the 4-skeleton's top strand 333 of the 3,386 degree-5 cone cells are critical.

The cone loses nothing.  A mask J with lcm u that misses g0 is a face of
K = J + {g0}, also of lcm u, and d(K) = +-J + sum +-(K - m); each K - m
drops some m > g0 for the least bit g0, a cone mask below J.  So d(d(K)) = 0
writes d(J) through cone columns below J, and in ascending mask order the
cone spans the image of d_j; no other column is a pivot, so the pivot
solutions are the ones all columns give; and the relation of J is +-d(K), a
boundary, plus a cycle on earlier columns, so the greedy extension never
picks it and the representatives and coordinates are unchanged too.

``StrandHomology`` is the one object per (field, u): it owns the strand's
cones and boundaries as well as its homology.  Every generator below u
divides u, so a set of them has lcm u exactly when the OR of their *attain
masks* (the variables k with exps[k] == u[k] > 0) is ``full``: on unary
codes (``monomial_core``) ``ideal.tops(u)``, the bit of each u_k's rank,
and an attain mask is ``code(g) & full``; a u_k no generator has, as past
the box, gets a bit no code has, so u is outside the lattice.  The strand
makes these masks once and reads off them its critical cells (``_cone``),
the lattice test and ``boundary(mask)``, the package's one differential.
One accessor, ``strand(ideal, field, u)``, runs the lattice test once per
(field, u), the only place a strand is tested, and keeps the
``StrandHomology`` (None outside the lcm lattice) in ``ideal.derived``,
freed with the ideal.  Callers ask the strand at the (u, i) they already
hold; a mask that is not a degree-i cell with lcm u raises.

The strand layer's one size rule sits on its one exponential loop:
``_cone(j)`` scans C(|G_u| - 1, j - 1) subsets and, past ``_CONE_BOUND`` =
C(17, 8) = 24,310 (the most any degree of an 18-generator strand scans),
raises ``TooLarge`` before it scans one.  Each question scans only its own
degrees: i and i + 1, or every degree for ``betti`` and the class tables,
which so raise on each strand with 19 or more generators below u.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_

from .exact_linalg import Echelon, column_relations
from .monomial_core import TooLarge
from .taylor_dga import generators_below, lcm_lattice, mask_members

_CONE_BOUND = comb(17, 8)  # most subsets one degree's cells may scan: 24,310
_TABLE_BOUND = 2**22  # most rows a text Betti table may have: 4,194,304


@dataclass(frozen=True)
class HomologyClass:
    """A strand homology element: representative chain plus basis coordinates."""

    ideal: object
    field: object
    multidegree: tuple
    hom_degree: int
    representative: tuple  # sorted ((mask, coeff), ...) pairs
    coordinates: tuple

    def chain(self):
        return dict(self.representative)

    def describe(self):
        parts = []
        for m, c in self.representative:
            coeff = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            prefix = "+ " if parts and not str(coeff).startswith("-") else ""
            parts.append(f"{prefix}{coeff}e{{{','.join(map(str, mask_members(m)))}}}")
        return " ".join(parts) if parts else "0"


def _freeze_chain(chain):
    return tuple(sorted((m, c) for m, c in chain.items() if c != 0))


class StrandHomology:
    """The strand at u over a field: boundaries, homology, coordinates and
    boundary membership, all read off the critical cells of the apex cones.

    ``full`` is ``ideal.tops(u)`` and ``attain`` maps each generator below
    u, as its bit, to its attain mask, cut from its code.  Boundary entries
    are +-1, so the complex is the same over every field.  Echelon rows are
    keyed by mask; tags start at ``top``.
    """

    def __init__(self, ideal, u, field):
        self.ideal, self.u, self.field = ideal, tuple(u), field
        self.gens_below = generators_below(ideal, self.u)
        self.full = ideal.tops(self.u)
        self.attain = {1 << gi: ideal.codes[gi] & self.full for gi in self.gens_below}
        self.top = 1 << ideal.n_gens
        self.apex = 1 << self.gens_below[0] if self.gens_below else 0
        self._cones = {}  # degree j -> sorted critical degree-j masks
        self._images = {}  # degree i -> (echelon of the image of d_{i+1}, its new rows to come)
        self._eliminations = {}  # j -> (tagged echelon of d_j, kernel vectors of d_j)
        self._homologies = {}  # degree i -> (image echelon extended by representatives, reps)

    def degrees(self):
        """The homological degrees 1 ... |G_u| a cell can have, for the questions
        that walk every degree (``betti`` and the class tables)."""
        return list(range(1, len(self.gens_below) + 1))

    def _cone(self, j):
        """Sorted critical degree-j masks K: g0 in K, lcm(K) = u, lcm(K - g0) != u.
        C(|G_u| - 1, j - 1) subsets, one OR of attain masks per member; the
        strand's one enumeration of cells, kept for the columns of d_j and
        for ``dimension``, and its one size test: past ``_CONE_BOUND`` subsets
        it raises ``TooLarge`` before it scans any."""
        if j not in self._cones:
            n = len(self.gens_below)
            if (subsets := comb(n - 1, j - 1)) > _CONE_BOUND:
                raise TooLarge(f"strand at {self.u} has {n} generators below it; degree {j} "
                               f"would scan {subsets:,} subsets, past {_CONE_BOUND:,}")
            att, full, bit = self.attain, self.full, self.apex
            apex = att[bit]
            masks = []
            for c in combinations([b for b in att if b != bit], j - 1):
                acc = 0
                for b in c:
                    acc |= att[b]
                if acc != full and acc | apex == full:
                    masks.append(sum(c) | bit)
            masks.sort()
            self._cones[j] = masks
        return self._cones[j]

    def _pending(self, i):
        """(echelon, new rows) of the image of d_{i+1}, the span of the boundaries
        of ``_cone(i + 1)``, untagged for rank and membership.  The strand's one
        absorb point: drawing a new row builds and absorbs the boundaries, largest
        mask first, up to the next independent one.  ``_image(0)`` is empty (d_1 = 0)."""
        if i not in self._images:
            ech = Echelon(self.field)
            cols = map(self.boundary, reversed(self._cone(i + 1)))
            self._images[i] = ech, (ech.insert(r) for c in cols if (r := ech.reduce(c)))
        return self._images[i]

    def _image(self, i):
        """The critical image rows of d_{i+1}: ``span`` of the cone, largest mask first."""
        ech, new_rows = self._pending(i)
        for _ in new_rows:
            pass
        return ech

    def _elimination(self, j):
        """(tagged echelon, kernel vectors) of d_j on the critical cells, from
        its one tagged elimination: the critical mask m carries the tag
        ``top + m``, so each kernel vector comes back as a chain (mask -> scalar)."""
        if j not in self._eliminations:
            ech, relations = column_relations(
                self.field, {m: self.boundary(m) for m in self._cone(j)}, self.top)
            self._eliminations[j] = ech, list(relations.values())
        return self._eliminations[j]

    def _homology(self, i):
        """(echelon, representatives) in degree i: a shallow copy of the image
        echelon, extended by each kernel vector of d_i independent of it under
        the tag ``top + k`` of the k-th representative.  Rows are only ever
        added, never changed, so the copy shares them safely.  A degree with
        no critical cell is not eliminated."""
        if i not in self._homologies:
            kernel = self._elimination(i)[1] if self._cone(i) else []
            ech = Echelon(self.field)
            if kernel:  # no cycles, no classes: the image is not spanned
                ech.rows = dict(self._image(i).rows)
            reps = []
            for kv in kernel:
                w = ech.reduce({**kv, self.top + len(reps): 1})
                if min(w) < self.top:
                    ech.insert(w)
                    reps.append(kv)
            self._homologies[i] = ech, reps
        return self._homologies[i]

    def dimension(self, i):
        """dim C_i - rank d_i - rank d_{i+1}.

        Degree i has the critical cells, the matched cone cells M_i and the
        cells without g0, one per cell of M_{i+1}.  Each matched cell is one
        row of its image (module docstring), so rank d_i = |M_i| + critical
        rank d_i and rank d_{i+1} = |M_{i+1}| + critical rank d_{i+1}: the
        matched counts cancel."""
        return len(self._cone(i)) - len(self._image(i - 1).rows) - len(self._image(i).rows)

    def classes(self, i):
        reps = self._homology(i)[1]
        out = []
        for k, rep in enumerate(reps):
            coords = tuple(int(j == k) for j in range(len(reps)))
            out.append(
                HomologyClass(self.ideal, self.field, self.u, i, _freeze_chain(rep), coords)
            )
        return out

    def _vector(self, i, chain, tagged=False):
        """(a degree-i chain, its cells without g0 cleared, whether it is a cycle).

        The one cell rule: a mask is a degree-i cell when it has i members and
        ``boundary`` is not None (its lcm is u); any other mask raises.  A
        cell J without g0 is cleared by its matched row (module docstring),
        tagged ``top + (J + g0)`` when ``tagged``.
        """
        of, apex = self.field.of, self.apex
        vec, d = {}, {}
        for mask, c in chain.items():
            if c == 0:
                continue
            faces = self.boundary(mask) if bin(mask).count("1") == i else None
            if faces is None:
                raise ValueError(f"mask {mask:b} is not a degree-{i} basis element")
            if x := of(c):
                vec[mask] = x
                for face, sign in faces.items():
                    d[face] = d.get(face, 0) + (x if sign > 0 else -x)
        for mask in [m for m in vec if not m & apex]:
            x = vec[mask]
            for face, sign in self.boundary(mask | apex).items():
                vec[face] = vec.get(face, 0) - (x if sign > 0 else -x)
            if tagged:
                vec[self.top + (mask | apex)] = -x
        return {k: y for k, x in vec.items() if (y := of(x))}, not any(of(y) for y in d.values())

    def class_of(self, i, chain):
        """The homology class of a degree-i cycle (mask -> scalar)."""
        return HomologyClass(
            self.ideal, self.field, self.u, i, _freeze_chain(chain), self.coordinates(i, chain)
        )

    def coordinates(self, i, chain):
        """Coordinates of a degree-i cycle (mask -> scalar) in the homology basis."""
        vec, cycle = self._vector(i, chain)
        if not cycle:
            raise ValueError("chain is not a cycle")
        ech, reps = self._homology(i)
        w = ech.reduce(vec)
        return tuple(self.field.of(-w.get(self.top + k, 0)) for k in range(len(reps)))

    def bounding_chain(self, i, chain):
        """A degree-(i+1) chain whose boundary is the degree-i cycle, or None
        when the cycle does not bound; a chain that is not a cycle raises.

        The pivot solution: it is supported on the cone masks whose columns
        of d_{i+1} are independent of the columns before them.
        """
        vec, cycle = self._vector(i, chain, tagged=True)
        if not cycle:
            raise ValueError("chain is not a cycle")
        w = self._elimination(i + 1)[0].reduce(vec)
        if w and min(w) < self.top:
            return None
        return {k - self.top: self.field.of(-c) for k, c in sorted(w.items())}

    def boundary(self, mask):
        """The differential of the field-reduced Taylor complex on a mask with
        lcm u, ``face -> sign`` with signs +-1, or None when the mask's lcm is
        not u; the package's one differential.

        A face keeps lcm u unless the dropped member is the sole one attaining
        some variable, so the whole boundary costs two passes over the members.
        """
        att = self.attain
        once = twice = 0
        bits = []
        rest = mask
        while rest:
            bit = rest & -rest
            a = att.get(bit)
            if a is None:
                return None
            twice |= once & a
            once |= a
            bits.append(bit)
            rest ^= bit
        if once != self.full:
            return None
        sole = once & ~twice
        out = {}
        sign = 1
        for bit in bits:
            if not att[bit] & sole:
                out[mask ^ bit] = sign
            sign = -sign
        return out

    def is_boundary(self, i, chain):
        """Whether a degree-i cycle (mask -> scalar) bounds.

        Absorbs image columns only until its residual empties or none is left;
        no homology basis is built.  A chain that is not a cycle raises.
        """
        vec, cycle = self._vector(i, chain)
        if not cycle:
            raise ValueError("chain is not a cycle")
        ech, new_rows = self._pending(i)
        w = ech.reduce(vec)
        while w and (row := next(new_rows, None)) is not None:
            if min(row) == min(w):  # the residual's least key became a lead
                w = ech.reduce(w)
        return not w


def strand(ideal, field, u):
    """The strand at u (a tuple) over the field, made once per (field, u) and
    kept on the ideal; None when u is outside the lcm lattice, that is, when
    no generator is below u or their attain masks miss part of u's support."""
    key = ("strand", field, tuple(u))
    if key not in ideal.derived:
        sh = StrandHomology(ideal, u, field)
        reached = sh.gens_below and reduce(or_, sh.attain.values()) == sh.full
        ideal.derived[key] = sh if reached else None
    return ideal.derived[key]


def homology_basis(ideal, field, u, i):
    sh = strand(ideal, field, u)
    return sh.classes(i) if sh else []


@dataclass(frozen=True)
class BettiData:
    """Multigraded and coarse Betti numbers of the quotient ring."""

    field: object
    n_vars: int
    multigraded: tuple  # sorted ((i, multidegree), dim) pairs, nonzero only

    @property
    def coarse(self):
        out = {}
        for (i, u), d in self.multigraded:
            key = (i, sum(u))
            out[key] = out.get(key, 0) + d
        return out

    def total(self, i):
        return sum(d for (j, _), d in self.multigraded if j == i)

    @property
    def totals(self):
        pd = self.projective_dimension
        return tuple(self.total(i) for i in range(pd + 1))

    @property
    def projective_dimension(self):
        return max(i for (i, _), _ in self.multigraded)

    @property
    def regularity(self):
        return max(j - i for (i, j) in self.coarse)

    def table_str(self):
        """Betti diagram with rows indexed by (internal - homological) degree,
        one per degree up to the regularity; past ``_TABLE_BOUND`` rows it
        raises ``TooLarge`` before it builds any."""
        coarse = self.coarse
        pd = self.projective_dimension
        maxrow = self.regularity
        if maxrow + 1 > _TABLE_BOUND:
            raise TooLarge(f"the Betti table would have {maxrow + 1:,} rows, past "
                           f"{_TABLE_BOUND:,}; --format json lists the nonzero entries")
        lines = ["    " + "".join(f"{i:>6}" for i in range(pd + 1))]
        for row in range(maxrow + 1):
            cells = []
            for i in range(pd + 1):
                v = coarse.get((i, row + i), 0)
                cells.append(f"{v if v else '.':>6}")
            lines.append(f"{row:>3}:" + "".join(cells))
        lines.append("tot:" + "".join(f"{self.total(i):>6}" for i in range(pd + 1)))
        return "\n".join(lines)


def betti(ideal, field):
    """Betti numbers from strand homology over every lcm-lattice multidegree,
    from the top w down: each G_u lies in G_w, so a too-large input raises
    ``TooLarge`` at the top strand, before any other strand is made."""
    entries = {(0, (0,) * ideal.n_vars): 1}
    for u in reversed(lcm_lattice(ideal)):
        sh = strand(ideal, field, u)
        for i in sh.degrees():
            d = sh.dimension(i)
            if d:
                entries[(i, tuple(u))] = d
    ordered = tuple(sorted(entries.items(), key=lambda kv: (kv[0][0], kv[0][1])))
    return BettiData(field, ideal.n_vars, ordered)

