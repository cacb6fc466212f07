"""Strand homology with explicit representatives, and Betti data derived from it.

Each boundary d_j of a strand is eliminated once, as tagged sparse columns:
the elimination yields the kernel of d_j (one vector per free column) and an
echelon of the image of d_j.  In degree i the echelon of the image of d_{i+1}
is extended by the kernel vectors of d_i that are independent of it, taken
greedily in order; they are the homology representatives.  That one echelon
per (strand, degree) answers every question about the homology basis: the
dimension, the coordinates of a cycle against the fixed basis (all zero
exactly when it is a boundary), and the pivot solution of d_{i+1} x = z.
Chains (mask -> scalar) go in and come out; the basis positions the
elimination runs on stay inside ``StrandHomology``.

``StrandHomology`` is the one object per (field, u): it holds the strand's
bases and boundaries as well as its homology.  One accessor,
``strand(ideal, field, u)``, runs the lattice test and reads the cap once per
(field, u), the only place a strand is tested either way, and keeps the
``StrandHomology`` (None outside the lcm lattice) in ``ideal.derived``, freed
with the ideal.  A strand with at most ``_FULL_STRAND_LIMIT`` generators below
u is ``whole``: its bases are built on first use and it answers dimensions,
classes, coordinates and bounding chains.  Past the cap those questions raise
the cap error of ``StrandHomology.basis``.

Whether a cycle bounds is answered one way on both sides of the cap, without
the homology basis: ``is_boundary`` reads the span of the boundaries of one
degree, kept per degree, with columns read off the attain masks of
``taylor_dga.attain_masks``.  That span needs only the boundaries of the
masks that contain one apex generator g0 below u, a cone on g0.  A mask J
with lcm u that misses g0 is a face of K = J + {g0}, which has lcm u too, and
d(d(K)) = 0 writes d(J) through the boundaries of the other faces of K,
which all contain g0.  On the 4-skeleton's top strand the cone is a quarter
of the boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .exact_linalg import Echelon, column_relations, span
from .taylor_dga import (
    _FULL_STRAND_LIMIT,
    attain_masks,
    chain_degrees,
    generators_below,
    in_lattice,
    lcm_lattice,
    strand_degree_basis,
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

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coordinates)

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

    Bases per homological degree are mask lists sorted ascending, and
    ``index[i]`` maps each mask of ``basis[i]`` to its position; both are
    built on first use, and only for a whole strand.  ``is_boundary`` needs
    neither.  Boundary entries are +-1, so the complex is the same over
    every field.
    """

    def __init__(self, ideal, u, field):
        self.ideal, self.u, self.field = ideal, tuple(u), field
        self.gens_below = generators_below(ideal, self.u)
        self.whole = len(self.gens_below) <= _FULL_STRAND_LIMIT
        self._pending = {}
        self._data = {}
        self._images = {}  # degree -> span of the apex cone's boundaries

    @cached_property
    def basis(self):
        if not self.whole:
            raise ValueError(
                f"strand at {self.u} has {len(self.gens_below)} generators below it; "
                "use strand_degree_basis for degree-limited access"
            )
        out = {}
        for i in range(1, len(self.gens_below) + 1):
            if masks := strand_degree_basis(self.ideal, self.u, i, self.gens_below):
                out[i] = masks
        return out

    @cached_property
    def index(self):
        return {i: {m: k for k, m in enumerate(b)} for i, b in self.basis.items()}

    def degrees(self):
        return sorted(self.basis)

    def dim(self, i):
        return len(self.basis.get(i, ()))

    def boundary_columns(self, i):
        """Sparse columns of the differential from degree i to degree i-1.

        Column j is the boundary of the j-th degree-i basis element, a map
        ``row index -> sign`` with int signs +-1 over every field.  A face
        keeps its term exactly when it is a degree-(i-1) basis element: its
        lcm is then still u.  Built afresh on each call: homology eliminates
        each differential once.
        """
        dst_index = self.index.get(i - 1, {})
        columns = []
        for mask in self.basis.get(i, []):
            col = {}
            sign = 1
            rest = mask
            while rest:
                bit = rest & -rest
                r = dst_index.get(mask ^ bit)
                if r is not None:
                    col[r] = sign
                sign = -sign
                rest ^= bit
            columns.append(col)
        return columns

    def _take(self, part, j):
        """The ``"kernel"`` relations or the ``"image"`` echelon of d_j.

        One column_relations call yields both; degree j takes the kernel and
        degree j-1 the image, each exactly once, so nothing is kept twice.
        """
        if (part, j) not in self._pending:
            ech, _, relations = column_relations(
                self.field, self.boundary_columns(j), self.dim(j - 1))
            self._pending[("kernel", j)] = relations
            self._pending[("image", j)] = ech
        return self._pending.pop((part, j))

    def _compute(self, i):
        """(echelon, first representative tag, representatives) in degree i.

        Row keys of the echelon are the degree-i basis indices below n; the
        tag n + j marks column j of d_{i+1}, and the tag ``first + k`` the
        k-th representative, a sparse kernel vector of d_i.
        """
        if i in self._data:
            return self._data[i]
        n, first = self.dim(i), self.dim(i) + self.dim(i + 1)
        ech = self._take("image", i + 1) if self.dim(i + 1) else Echelon(self.field)
        reps = []
        if n:
            for kv in self._take("kernel", i).values():
                w = ech.reduce({**kv, first + len(reps): 1})
                if min(w) < n:
                    ech.insert(w)
                    reps.append(kv)
        entry = (ech, first, reps)
        self._data[i] = entry
        return entry

    def dimension(self, i):
        return len(self._compute(i)[2])

    def classes(self, i):
        _, _, reps = self._compute(i)
        basis = self.basis.get(i, [])
        zero, one = self.field.zero(), self.field.one()
        out = []
        for k, rep in enumerate(reps):
            coords = tuple(one if j == k else zero for j in range(len(reps)))
            out.append(
                HomologyClass(
                    self.ideal,
                    self.field,
                    self.u,
                    i,
                    _freeze_chain({basis[j]: c for j, c in rep.items()}),
                    coords,
                )
            )
        return out

    def _reduce(self, i, chain):
        """The residual of a degree-i chain (mask -> scalar) in the degree-i
        echelon, with the degree's first representative tag."""
        index, of = self.index.get(i, {}), self.field.of
        vec = {}
        for mask, c in chain.items():
            if c == 0:
                continue
            if mask not in index:
                raise ValueError(f"mask {mask:b} is not a degree-{i} basis element")
            if x := of(c):
                vec[index[mask]] = x
        ech, first, _ = self._compute(i)
        return ech.reduce(vec), first

    def coordinates(self, i, chain):
        """Coordinates of a degree-i cycle (mask -> scalar) in the homology basis."""
        w, first = self._reduce(i, chain)
        if w and min(w) < self.dim(i):
            raise ValueError("chain is not a cycle")
        return tuple(self.field.of(-w.get(first + k, 0)) for k in range(self.dimension(i)))

    def bounding_chain(self, i, chain):
        """A degree-(i+1) chain whose boundary is the degree-i chain, or None.

        The pivot solution: it is supported on the masks whose columns of
        d_{i+1} are independent of the columns before them.
        """
        w, first = self._reduce(i, chain)
        n = self.dim(i)
        if w and (min(w) < n or max(w) >= first):
            return None
        up = self.basis.get(i + 1, [])
        return {up[k - n]: self.field.of(-c) for k, c in sorted(w.items())}

    @cached_property
    def _attain(self):
        """(support mask of u, generator bit -> attain mask)."""
        full, att = attain_masks(self.ideal, self.u, self.gens_below)
        return full, {1 << gi: a for gi, a in att.items()}

    def _faces(self, mask):
        """The boundary of a mask with lcm u inside the strand, ``face -> sign``,
        or None when the mask's lcm is not u.

        A face keeps lcm u unless the dropped member is the sole one attaining
        some variable, so the whole boundary costs two passes over the members.
        """
        full, att = self._attain
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
        if once != full:
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

        The image of d_{i+1} is spanned from the degree-(i+1) masks that
        contain the apex g0, the first generator below u (the cone identity
        above), and kept per degree; no homology basis is built.  The chain's
        own boundary, by the same face rule, must vanish, or this raises.
        """
        of = self.field.of
        chain = {m: x for m, c in chain.items() if (x := of(c))}
        d = {}
        for mask, c in chain.items():
            faces = self._faces(mask) if bin(mask).count("1") == i else None
            if faces is None:
                raise ValueError(f"mask {mask:b} is not a degree-{i} basis element")
            for face, sign in faces.items():
                d[face] = d.get(face, 0) + (c if sign > 0 else -c)
        if any(of(x) for x in d.values()):
            raise ValueError("chain is not a cycle")
        if i not in self._images:
            below = self.gens_below
            masks = strand_degree_basis(self.ideal, self.u, i + 1, below, apex=below[0])
            self._images[i] = span(self.field, [self._faces(m) for m in masks])
        return self._images[i].contains(chain)


def strand(ideal, field, u):
    """The strand at u (a tuple) over the field, made once per (field, u) and
    kept on the ideal; None when u is outside the lcm lattice."""
    key = ("strand", field, tuple(u))
    if key not in ideal.derived:
        sh = StrandHomology(ideal, u, field)
        ideal.derived[key] = sh if in_lattice(ideal, sh.u, sh.gens_below) else None
    return ideal.derived[key]


def homology_basis(ideal, field, u, i):
    sh = strand(ideal, field, u)
    return sh.classes(i) if sh else []


def class_of(ideal, field, chain, multidegree=None, hom_degree=None):
    """Homology class of a homogeneous cycle given as a mask -> coefficient map.

    The zero class of a stated (multidegree, degree) is returned for an empty
    chain or for a multidegree outside the lcm lattice.
    """
    chain = {m: c for m, c in chain.items() if c != 0}
    if chain:
        u, i = chain_degrees(ideal, chain)
        if multidegree is not None and tuple(multidegree) != u:
            raise ValueError("chain multidegree does not match the stated one")
        if hom_degree is not None and hom_degree != i:
            raise ValueError("chain homological degree does not match the stated one")
    else:
        if multidegree is None or hom_degree is None:
            raise ValueError("zero chain needs an explicit multidegree and degree")
        u, i = tuple(multidegree), hom_degree
    sh = strand(ideal, field, u)
    if sh is None:
        if chain:
            raise AssertionError("nonzero chain in a multidegree outside the lattice")
        return HomologyClass(ideal, field, u, i, (), ())
    return HomologyClass(ideal, field, u, i, _freeze_chain(chain), sh.coordinates(i, chain))


def chain_is_boundary(ideal, field, chain):
    """Whether a homogeneous cycle bounds, on either side of the strand cap."""
    chain = {m: c for m, c in chain.items() if c != 0}
    if not chain:
        return True
    u, i = chain_degrees(ideal, chain)
    return strand(ideal, field, u).is_boundary(i, chain)


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

