"""Strand homology with explicit representatives, and Betti data derived from it.

Homology bases are chosen deterministically: the image of the next boundary
matrix is reduced to a column basis first, then kernel vectors are accepted
greedily to complete it.  Coordinates of arbitrary cycles are computed against
that fixed basis, so an all-zero coordinate vector is exactly "is a boundary".

Per-strand results are cached on (ideal, field, multidegree); strands are
independent, so populating the cache concurrently would be safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from .exact_linalg import (
    extend_independent,
    kernel_basis,
    quotient_coordinates,
    solve,
    sparse_in_span,
)
from .taylor_dga import (
    _SMALL_STRAND,
    chain_degrees,
    lcm_lattice,
    reduced_boundary,
    strand,
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

    @property
    def total_degree(self):
        return sum(self.multidegree)

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
        self.strand = strand(ideal, u, field)
        self.field = field
        self._data = {}

    def degrees(self):
        return self.strand.degrees

    def _compute(self, i):
        if i in self._data:
            return self._data[i]
        s = self.strand
        f = self.field
        n = s.dim(i)
        if n == 0:
            entry = ((), (), ())
            self._data[i] = entry
            return entry
        kernel = kernel_basis(s.boundary_matrix(i)) if s.dim(i - 1) else [
            tuple(f.one() if k == j else f.zero() for k in range(n)) for j in range(n)
        ]
        image_cols = []
        if s.dim(i + 1):
            up = s.boundary_matrix(i + 1)
            cols = [up.column(j) for j in range(up.cols)]
            chosen = extend_independent(f, [], cols)
            image_cols = [cols[j] for j in chosen]
        rep_idx = extend_independent(f, image_cols, kernel)
        reps = [kernel[j] for j in rep_idx]
        entry = (tuple(kernel), tuple(image_cols), tuple(reps))
        self._data[i] = entry
        return entry

    def dimension(self, i):
        kernel, image, reps = self._compute(i)
        return len(reps)

    def classes(self, i):
        kernel, image, reps = self._compute(i)
        out = []
        for k, rep in enumerate(reps):
            coords = tuple(
                self.field.one() if j == k else self.field.zero()
                for j in range(len(reps))
            )
            out.append(
                HomologyClass(
                    self.strand.ideal,
                    self.field,
                    self.strand.u,
                    i,
                    _freeze_chain(self.strand.vector_chain(i, rep)),
                    coords,
                )
            )
        return out

    def coordinates_of(self, i, vec):
        kernel, image, reps = self._compute(i)
        return quotient_coordinates(self.field, list(kernel), list(image), vec)

    def solve_boundary(self, i, vec):
        """Some degree-(i+1) vector whose boundary is vec, or None."""
        s = self.strand
        if s.dim(i + 1) == 0:
            if all(x == 0 for x in vec):
                return tuple()
            return None
        return solve(s.boundary_matrix(i + 1), vec)


@lru_cache(maxsize=None)
def _strand_homology(ideal, field, u):
    return StrandHomology(ideal, u, field)


def strand_homology(strand_complex, i):
    """(dimension, homology classes with representatives) in degree i."""
    sh = _strand_homology(strand_complex.ideal, strand_complex.field, strand_complex.u)
    return sh.dimension(i), sh.classes(i)


def homology_basis(ideal, field, u, i):
    return _strand_homology(ideal, field, tuple(u)).classes(i)


def homology_dimension(ideal, field, u, i):
    return _strand_homology(ideal, field, tuple(u)).dimension(i)


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
    if u not in lcm_lattice(ideal):
        if chain:
            raise AssertionError("nonzero chain in a multidegree outside the lattice")
        return HomologyClass(ideal, field, u, i, (), ())
    sh = _strand_homology(ideal, field, u)
    vec = sh.strand.chain_vector(i, chain)
    if sh.strand.dim(i - 1):
        img = sh.strand.boundary_matrix(i).apply(vec)
        if any(x != 0 for x in img):
            raise ValueError("chain is not a cycle")
    coords = sh.coordinates_of(i, vec)
    return HomologyClass(ideal, field, u, i, _freeze_chain(chain), coords)


def chain_is_boundary(ideal, field, chain):
    """Whether a homogeneous cycle bounds; scales to strands too large to build.

    Small strands go through the cached homology basis; large ones reduce the
    question to sparse membership in the image of the next boundary matrix,
    enumerating only one homological degree of the strand.
    """
    chain = {m: c for m, c in chain.items() if c != 0}
    if not chain:
        return True
    u, i = chain_degrees(ideal, chain)
    lattice = lcm_lattice(ideal)
    if u not in lattice:
        raise AssertionError("nonzero chain in a multidegree outside the lattice")
    below = lattice.generators_below(u)
    if len(below) <= _SMALL_STRAND:
        return class_of(ideal, field, chain).is_zero
    columns = []
    for mask in strand_degree_basis(ideal, u, i + 1, below):
        col = {rest: field.of(s) for rest, s in reduced_boundary(ideal, mask).items()}
        if col:
            columns.append(col)
    rhs = {m: field.of(c) for m, c in chain.items()}
    return sparse_in_span(field, columns, rhs)


@dataclass(frozen=True)
class BettiData:
    """Multigraded and coarse Betti numbers of the quotient ring."""

    field: object
    n_vars: int
    multigraded: tuple  # sorted ((i, multidegree), dim) pairs, nonzero only

    @property
    def multigraded_dict(self):
        return dict(self.multigraded)

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


def clear_caches():
    """Drop memoized strand data (mostly useful in long test sessions)."""
    _strand_homology.cache_clear()
    lcm_lattice.cache_clear()
