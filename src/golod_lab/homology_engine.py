"""Strand homology with explicit representatives, and Betti data derived from it.

Each differential d_j is read on one column set, its apex cone: the degree-j
masks that contain g0, the first generator below u, enumerated for each
echelon built from them and not kept.  The image of d_{i+1} has one untagged
echelon of the cone's boundaries; it answers boundary membership and, with
the image of d_i, the dimension dim C_i - rank d_i - rank d_{i+1}.  Each d_j
is eliminated at most once more, on the same columns tagged, for its kernel
and the pivot solutions of d_j x = z.  The representatives are the kernel
vectors of d_i that greedily extend a shallow copy of the image echelon, and
that extended echelon gives a cycle's coordinates.  Echelons are keyed by
mask and the cone mask m is tagged ``top + m``, above every mask, so chains
(mask -> scalar) go in and come out as is.

The cone loses nothing.  A mask J with lcm u that misses g0 is a face of
K = J + {g0}, also of lcm u, and d(K) = +-J + sum +-(K - m); each K - m
drops some m > g0 for the least bit g0, a cone mask below J.  So d(d(K)) = 0
writes d(J) through cone columns below J, and in ascending mask order the
cone spans the image of d_j; no other column is a pivot, so the pivot
solutions are the ones all columns give; and the relation of J is +-d(K), a
boundary, plus a cycle on earlier columns, so the greedy extension never
picks it and the representatives and coordinates are unchanged too.  On
the 4-skeleton's top strand the cone is a quarter of the boundaries.

``StrandHomology`` is the one object per (field, u): it owns the strand's
cells, bases and boundaries as well as its homology.  Every generator below u
divides u, so a set of them has lcm u exactly when the OR of their *attain
masks* (the variables k with exps[k] == u[k] > 0) is ``full``, the support
mask of u.  The strand makes these masks once and reads off them its cells
(``cells``), the lattice test and ``boundary(mask)``, the package's one
differential.  One accessor, ``strand(ideal, field, u)``, runs the lattice
test and reads the cap once per (field, u), the only place a strand is
tested either way, and keeps the ``StrandHomology`` (None outside the lcm
lattice) in ``ideal.derived``, freed with the ideal.  Callers ask the strand
at the (u, i) they already hold; a mask that is not a degree-i cell with
lcm u raises.  Classes, coordinates, bounding chains and membership read
only the cones, so they answer on every strand.  The cap guards only what
walks every degree: a strand with at most ``_FULL_STRAND_LIMIT`` generators
below u is ``whole`` and has ``basis``, so ``degrees``, ``dim`` and
``dimension`` (and ``betti``); past the cap these raise ``StrandTooLarge``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import combinations
from operator import or_

from .exact_linalg import Echelon, column_relations, span
from .taylor_dga import (
    _FULL_STRAND_LIMIT,
    StrandTooLarge,
    generators_below,
    lcm_lattice,
    mask_of,
    support_mask,
)


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
            idx = [i for i in range(m.bit_length()) if m >> i & 1]
            coeff = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            prefix = "+ " if parts and not str(coeff).startswith("-") else ""
            parts.append(f"{prefix}{coeff}e{{{','.join(map(str, idx))}}}")
        return " ".join(parts) if parts else "0"


def _freeze_chain(chain):
    return tuple(sorted((m, c) for m, c in chain.items() if c != 0))


class StrandHomology:
    """The strand at u over a field: bases, boundaries, homology, coordinates
    and boundary membership.

    ``full`` is the support mask of u and ``attain`` maps each generator
    below u, as its bit, to its attain mask.  Bases per homological degree
    are mask lists sorted ascending, built on first use and only for a whole
    strand; homology, coordinates, boundary solves and ``is_boundary`` read
    only the apex cones and need none.  Boundary entries are +-1, so the
    complex is the same over every field.  Echelons are keyed by mask; their
    tags start at ``top``, above every mask.
    """

    def __init__(self, ideal, u, field):
        self.ideal, self.u, self.field = ideal, tuple(u), field
        self.gens_below = generators_below(ideal, self.u)
        self.whole = len(self.gens_below) <= _FULL_STRAND_LIMIT
        self.full = support_mask(self.u)
        self.attain = {}
        for gi in self.gens_below:
            exps = ideal.gens[gi].exps
            self.attain[1 << gi] = mask_of(k for k, e in enumerate(self.u) if e and exps[k] == e)
        self.top = 1 << ideal.n_gens
        self._images = {}  # degree i -> span of the apex cone's boundaries, image of d_{i+1}
        self._eliminations = {}  # j -> (tagged echelon of d_j, kernel vectors of d_j)
        self._homologies = {}  # degree i -> (image echelon extended by representatives, reps)

    @cached_property
    def basis(self):
        if not self.whole:
            raise StrandTooLarge(
                f"strand at {self.u} has {len(self.gens_below)} generators below it; "
                "past the cap nothing that needs every degree is answered "
                "(Betti numbers, the class tables)"
            )
        out = {}
        for i in range(1, len(self.gens_below) + 1):
            if masks := self.cells(i):
                out[i] = masks
        return out

    def cells(self, i, apex=None):
        """Sorted masks of the i-element sets of generators below u with lcm u,
        one OR of attain masks per member.

        With ``apex``, a generator below u, only the masks that contain it are
        enumerated: C(|G_u| - 1, i - 1) subsets instead of C(|G_u|, i).
        """
        att, full = self.attain, self.full
        if apex is None:
            start, bit, pool, size = 0, 0, list(att), i
        else:
            bit = 1 << apex
            start, size = att[bit], i - 1
            pool = [b for b in att if b != bit]
        masks = []
        for c in combinations(pool, size):
            acc = start
            for b in c:
                acc |= att[b]
            if acc == full:
                masks.append(sum(c) | bit)
        masks.sort()
        return masks

    def degrees(self):
        return sorted(self.basis)

    def dim(self, i):
        return len(self.basis.get(i, ()))

    def _cone(self, j):
        """Sorted degree-j masks that contain the apex g0, the first generator
        below u: the columns of d_j that ``_image(j - 1)`` and
        ``_elimination(j)`` read, enumerated by each when it is built."""
        return self.cells(j, apex=self.gens_below[0])

    def _image(self, i):
        """Echelon of the image of d_{i+1}, spanned from the boundaries of the
        apex cone ``_cone(i + 1)``, which span it (module docstring), untagged
        since its callers need only rank and membership; built once per degree.
        ``_image(0)`` is empty, since d_1 = 0."""
        if i not in self._images:
            self._images[i] = span(self.field, [self.boundary(m) for m in self._cone(i + 1)])
        return self._images[i]

    def _elimination(self, j):
        """(tagged echelon, kernel vectors) of d_j on the apex cone, from its
        one tagged elimination: the cone mask m carries the tag ``top + m``,
        so each kernel vector comes back as a chain (mask -> scalar)."""
        if j not in self._eliminations:
            ech, relations = column_relations(
                self.field, {m: self.boundary(m) for m in self._cone(j)}, self.top)
            self._eliminations[j] = ech, list(relations.values())
        return self._eliminations[j]

    def _homology(self, i):
        """(echelon, representatives) in degree i: a shallow copy of the image
        echelon, extended by each kernel vector of d_i independent of it under
        the tag ``top + k`` of the k-th representative.  Rows are only ever
        added, never changed, so the copy shares them safely."""
        if i not in self._homologies:
            ech = Echelon(self.field)
            ech.rows = dict(self._image(i).rows)
            reps = []
            for kv in self._elimination(i)[1]:
                w = ech.reduce({**kv, self.top + len(reps): 1})
                if min(w) < self.top:
                    ech.insert(w)
                    reps.append(kv)
            self._homologies[i] = ech, reps
        return self._homologies[i]

    def dimension(self, i):
        """dim C_i - rank d_i - rank d_{i+1}, both ranks read off the cones."""
        return self.dim(i) - len(self._image(i - 1).rows) - len(self._image(i).rows)

    def classes(self, i):
        reps = self._homology(i)[1]
        out = []
        for k, rep in enumerate(reps):
            coords = tuple(int(j == k) for j in range(len(reps)))
            out.append(
                HomologyClass(self.ideal, self.field, self.u, i, _freeze_chain(rep), coords)
            )
        return out

    def _vector(self, i, chain):
        """(the nonzero field entries of a degree-i chain, whether it is a cycle).

        The one cell rule: a mask is a degree-i cell when it has i members and
        ``boundary`` is not None (its lcm is u); any other mask raises.
        """
        of = self.field.of
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
        return vec, not any(of(y) for y in d.values())

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
        vec, cycle = self._vector(i, chain)
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
        """Whether a degree-i cycle (mask -> scalar) bounds, on either side of the cap.

        Reads the image echelon ``_image(i)``; no homology basis is built.
        The chain's own boundary must vanish, or this raises.
        """
        vec, cycle = self._vector(i, chain)
        if not cycle:
            raise ValueError("chain is not a cycle")
        return not self._image(i).reduce(vec)


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
        """Betti diagram with rows indexed by (internal - homological) degree."""
        coarse = self.coarse
        pd = self.projective_dimension
        maxrow = self.regularity
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
    """Betti numbers from strand homology over every lcm-lattice multidegree."""
    entries = {(0, (0,) * ideal.n_vars): 1}
    for u in lcm_lattice(ideal):
        sh = strand(ideal, field, u)
        for i in sh.degrees():
            d = sh.dimension(i)
            if d:
                entries[(i, tuple(u))] = d
    ordered = tuple(sorted(entries.items(), key=lambda kv: (kv[0][0], kv[0][1])))
    return BettiData(field, ideal.n_vars, ordered)

