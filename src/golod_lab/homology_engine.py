"""Strand homology with explicit representatives, and Betti data derived from it.

Each boundary d_j of a strand is eliminated once, as tagged sparse columns:
the elimination yields the kernel of d_j (one vector per free column) and an
echelon of the image of d_j.  In degree i the echelon of the image of d_{i+1}
is extended by the kernel vectors of d_i that are independent of it, taken
greedily in order; they are the homology representatives.  That one echelon
per (strand, degree) answers every later question: the dimension, the
coordinates of a cycle against the fixed basis (all zero exactly when it is
a boundary), whether a chain is a cycle at all, and the pivot solution of
d_{i+1} x = z.  Chains (mask -> scalar) go in and come out; the basis
positions the elimination runs on stay inside ``StrandHomology``.

One rule sizes strands: one with at most ``_FULL_STRAND_LIMIT`` generators
below u is built whole and answers every question through its
``StrandHomology``.  Past that cap only boundary membership is answered,
from the span of the boundaries of one degree.  Both are kept in
``ideal.derived`` under (field, u) and (field, u, degree), so a later query
reuses them, and they are freed with the ideal.

That span needs only the boundaries of the masks that contain one apex
generator g0 below u, a cone on g0.  A mask J with lcm u that misses g0 is
a face of K = J + {g0}, which has lcm u too, and d(d(K)) = 0 writes d(J)
through the boundaries of the other faces of K, which all contain g0.  On
the 4-skeleton's top strand the cone is a quarter of the boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_linalg import Echelon, column_relations, span
from .taylor_dga import (
    _FULL_STRAND_LIMIT,
    StrandComplex,
    chain_degrees,
    generators_below,
    in_lattice,
    lcm_lattice,
    reduced_boundary,
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
    """Cached homology data of one strand: dims, representatives, coordinates."""

    def __init__(self, ideal, u, field):
        self.strand = StrandComplex(ideal, u)
        self.field = field
        self._pending = {}
        self._data = {}

    def degrees(self):
        return self.strand.degrees

    def _take(self, part, j):
        """The ``"kernel"`` relations or the ``"image"`` echelon of d_j.

        One column_relations call yields both; degree j takes the kernel and
        degree j-1 the image, each exactly once, so nothing is kept twice.
        """
        if (part, j) not in self._pending:
            s = self.strand
            ech, _, relations = column_relations(self.field, s.boundary_columns(j), s.dim(j - 1))
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
        s = self.strand
        n, first = s.dim(i), s.dim(i) + s.dim(i + 1)
        ech = self._take("image", i + 1) if s.dim(i + 1) else Echelon(self.field)
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
        basis = self.strand.basis.get(i, [])
        zero, one = self.field.zero(), self.field.one()
        out = []
        for k, rep in enumerate(reps):
            coords = tuple(one if j == k else zero for j in range(len(reps)))
            out.append(
                HomologyClass(
                    self.strand.ideal,
                    self.field,
                    self.strand.u,
                    i,
                    _freeze_chain({basis[j]: c for j, c in rep.items()}),
                    coords,
                )
            )
        return out

    def _reduce(self, i, chain):
        """The residual of a degree-i chain (mask -> scalar) in the degree-i
        echelon, with the degree's first representative tag."""
        index, of = self.strand.index.get(i, {}), self.field.of
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
        if w and min(w) < self.strand.dim(i):
            raise ValueError("chain is not a cycle")
        return tuple(self.field.of(-w.get(first + k, 0)) for k in range(self.dimension(i)))

    def bounding_chain(self, i, chain):
        """A degree-(i+1) chain whose boundary is the degree-i chain, or None.

        The pivot solution: it is supported on the masks whose columns of
        d_{i+1} are independent of the columns before them.
        """
        w, first = self._reduce(i, chain)
        n = self.strand.dim(i)
        if w and (min(w) < n or max(w) >= first):
            return None
        up = self.strand.basis.get(i + 1, [])
        return {up[k - n]: self.field.of(-c) for k, c in sorted(w.items())}


def _strand_homology(ideal, field, u):
    """The homology of the strand at u (a tuple), built once per ideal."""
    key = ("homology", field, u)
    if key not in ideal.derived:
        ideal.derived[key] = StrandHomology(ideal, u, field)
    return ideal.derived[key]


def whole_strand(ideal, field, u):
    """The homology of the strand at u; None when u is outside the lcm lattice
    or the strand is past the cap on strands built whole."""
    below = generators_below(ideal, u)
    if len(below) > _FULL_STRAND_LIMIT or not in_lattice(ideal, u, below):
        return None
    return _strand_homology(ideal, field, tuple(u))


def homology_basis(ideal, field, u, i):
    return _strand_homology(ideal, field, tuple(u)).classes(i)


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
    if not in_lattice(ideal, u, generators_below(ideal, u)):
        if chain:
            raise AssertionError("nonzero chain in a multidegree outside the lattice")
        return HomologyClass(ideal, field, u, i, (), ())
    coords = _strand_homology(ideal, field, u).coordinates(i, chain)
    return HomologyClass(ideal, field, u, i, _freeze_chain(chain), coords)


def chain_is_boundary(ideal, field, chain):
    """Whether a homogeneous cycle bounds; scales to strands too large to build.

    A strand built whole answers through its homology basis.  Past the cap
    the question is membership in the image of the next boundary, kept on
    the ideal.  That image is spanned by the boundaries of the degree-(i+1)
    masks with lcm u that contain the apex g0, the first generator below u.
    For such a mask J without g0, K = J + {g0} also has lcm u, and in d(K)
    the term J survives with sign +-1 while every other term contains g0;
    so d(d(K)) = 0 writes d(J) through boundaries of masks containing g0,
    over every field.
    """
    chain = {m: c for m, c in chain.items() if c != 0}
    if not chain:
        return True
    u, i = chain_degrees(ideal, chain)
    below = generators_below(ideal, u)
    if len(below) <= _FULL_STRAND_LIMIT:
        return class_of(ideal, field, chain).is_zero
    key = ("image", field, u, i)
    if key not in ideal.derived:
        masks = strand_degree_basis(ideal, u, i + 1, below, apex=below[0])
        ideal.derived[key] = span(field, [reduced_boundary(ideal, m) for m in masks])
    return ideal.derived[key].contains(chain)


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
        sh = _strand_homology(ideal, field, tuple(u))
        for i in sh.degrees():
            d = sh.dimension(i)
            if d:
                entries[(i, tuple(u))] = d
    ordered = tuple(sorted(entries.items(), key=lambda kv: (kv[0][0], kv[0][1])))
    return BettiData(field, ideal.n_vars, ordered)

