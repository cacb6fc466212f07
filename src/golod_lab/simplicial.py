"""Simplicial complexes with ghost vertices and their reduced cochain algebra.

A complex stores an ordered vertex set independently of its faces, so a
vertex may belong to no face at all (a "ghost").  Fiber complexes of
multidegree strands need this.  Orientation is fixed by the vertex order:
faces are written with vertices ascending and coboundary signs come from
insertion position parity.  Face and non-face scans cover 2^n subsets:
past ``_ENUMERATION_LIMIT`` vertices they raise ``TooLarge`` (CLI exit 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exact_linalg import span
from .monomial_core import Monomial, MonomialIdeal, TooLarge

_ENUMERATION_LIMIT = 22  # subset scans are 2^n; keep inputs desk-scale


def _check_labels(vertices, facets):
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise ValueError("duplicate vertex labels")
    for f in facets:
        if not f <= vset:
            raise ValueError(f"facet {sorted(f)} uses unknown vertices")


@dataclass(frozen=True)
class SimplicialComplex:
    """Complex given by an ordered vertex tuple and its facets.

    ``facets == ()`` is the void complex (no faces); ``facets == (frozenset(),)``
    is the complex whose only face is empty.  Facets are stored maximal and
    deduplicated; the face set is their downward closure.
    """

    vertices: tuple
    facets: tuple

    def __post_init__(self):
        _check_labels(self.vertices, self.facets)

    @classmethod
    def from_facets(cls, vertices, facets):
        vertices = tuple(vertices)
        fsets = [frozenset(f) for f in facets]
        maximal = []
        for f in fsets:
            if any(f < g for g in fsets):
                continue
            if f not in maximal:
                maximal.append(f)
        _check_labels(vertices, maximal)  # before the sort reads the labels
        index = {v: i for i, v in enumerate(vertices)}
        maximal.sort(key=lambda f: sorted(index[v] for v in f))
        return cls(vertices, tuple(maximal))

    @property
    def is_void(self):
        return not self.facets

    @property
    def dim(self):
        """Dimension; -1 for the empty-face-only complex, None for void."""
        if self.is_void:
            return None
        return max(len(f) for f in self.facets) - 1

    @property
    def ghost_vertices(self):
        used = set().union(*self.facets) if self.facets else set()
        return tuple(v for v in self.vertices if v not in used)

    def has_face(self, s):
        s = frozenset(s)
        return any(s <= f for f in self.facets)

    def faces_of_dim(self, k):
        """Faces of dimension k, sorted by vertex order (k = -1 is the empty face)."""
        if self.is_void:
            return []
        if k == -1:
            return [frozenset()]
        index = {v: i for i, v in enumerate(self.vertices)}
        seen = set()
        for f in self.facets:
            for c in combinations(sorted(f, key=index.get), k + 1):
                seen.add(frozenset(c))
        return sorted(seen, key=lambda f: sorted(index[v] for v in f))


def restriction(cx, vertex_subset):
    """Full subcomplex on the given vertices (which become the vertex set)."""
    u = set(vertex_subset)
    if not u <= set(cx.vertices):
        raise ValueError("restriction vertices are not a subset of the vertex set")
    verts = tuple(v for v in cx.vertices if v in u)
    if cx.is_void:
        return SimplicialComplex(verts, ())
    return SimplicialComplex.from_facets(verts, [f & u for f in cx.facets])


def skeleton(cx, k):
    """Subcomplex of faces of dimension <= k; vertex set unchanged."""
    if k < 0:
        raise ValueError("skeleton dimension must be >= 0")
    if cx.is_void:
        return cx
    index = {v: i for i, v in enumerate(cx.vertices)}
    facets = []
    for f in cx.facets:
        if len(f) <= k + 1:
            facets.append(f)
        else:
            facets.extend(
                frozenset(c) for c in combinations(sorted(f, key=index.get), k + 1)
            )
    return SimplicialComplex.from_facets(cx.vertices, facets)


def is_2_neighborly(cx):
    """Every pair of vertices (ghosts included) spans an edge."""
    return all(cx.has_face(p) for p in combinations(cx.vertices, 2))


def stanley_reisner_ideal(cx):
    """Squarefree ideal generated by the minimal non-faces of the complex."""
    if not cx.vertices:
        raise ValueError("complex has no vertex labels")
    if cx.is_void:
        raise ValueError("the void complex has no Stanley-Reisner ideal")
    n = len(cx.vertices)
    if n > _ENUMERATION_LIMIT:
        raise TooLarge(f"too many vertices ({n}) for non-face enumeration")
    index = {v: i for i, v in enumerate(cx.vertices)}
    minimal = []
    for size in range(1, n + 1):
        for c in combinations(range(n), size):
            cset = frozenset(cx.vertices[i] for i in c)
            if any(m <= cset for m in minimal):
                continue
            if not cx.has_face(cset):
                minimal.append(cset)
    gens = []
    for m in sorted(minimal, key=lambda s: (len(s), sorted(index[v] for v in s))):
        exps = [0] * n
        for v in m:
            exps[index[v]] = 1
        gens.append(Monomial(tuple(exps)))
    return MonomialIdeal(tuple(str(v) for v in cx.vertices), tuple(gens))


def complex_of(ideal):
    """Simplicial complex whose Stanley-Reisner ideal is the given squarefree ideal.

    Faces are the supports of squarefree monomials outside the ideal.
    """
    if not ideal.is_squarefree:
        bad = next(g for g in ideal.gens if not g.is_squarefree)
        raise ValueError(f"ideal is not squarefree: {ideal.format_monomial(bad)}")
    n = ideal.n_vars
    if n > _ENUMERATION_LIMIT:
        raise TooLarge(f"too many variables ({n}) for face enumeration")
    supports = [g.support for g in ideal.gens]
    faces = []
    for size in range(n, -1, -1):
        for c in combinations(range(n), size):
            cset = frozenset(c)
            if any(s <= cset for s in supports):
                continue
            if any(cset < f for f in faces):
                continue
            faces.append(cset)
    facets = [frozenset(ideal.variables[i] for i in f) for f in faces]
    return SimplicialComplex.from_facets(ideal.variables, facets)


class CochainComplex:
    """Reduced simplicial cochain complex, the same over every field.

    Degree -1 is the empty face.  ``delta(i)`` gives the coboundary from
    i-cochains to (i+1)-cochains as sparse columns, rows indexed by the
    (i+1)-faces.
    """

    def __init__(self, cx):
        self.complex = cx
        d = cx.dim
        self.top = -2 if d is None else d
        self._faces = {}
        self._index = {}
        for k in range(-1, self.top + 1):
            faces = cx.faces_of_dim(k)
            self._faces[k] = faces
            self._index[k] = {f: i for i, f in enumerate(faces)}

    def faces(self, k):
        return self._faces.get(k, [])

    def n_faces(self, k):
        return len(self.faces(k))

    def delta(self, i):
        """Sparse columns of the coboundary C^i -> C^(i+1).

        Column j is the coboundary of the j-th i-face, a map ``row index ->
        sign`` with int signs +-1 over every field, as the strand boundaries.
        """
        vorder = {v: j for j, v in enumerate(self.complex.vertices)}
        dst_index = self._index.get(i + 1, {})
        columns = []
        for f in self.faces(i):
            col = {}
            for v in self.complex.vertices:
                r = dst_index.get(f | {v})  # None for v in f: f is no (i+1)-face
                if r is not None:
                    pos = sum(1 for w in f if vorder[w] < vorder[v])
                    col[r] = -1 if pos % 2 else 1
            columns.append(col)
        return columns


def reduced_cochain_complex(cx):
    if cx.is_void:
        raise ValueError("void complex has no reduced cochain complex")
    return CochainComplex(cx)


def reduced_cohomology_dims(cx, field):
    """Reduced cohomology dimensions as a map degree -> dim, degrees -1..dim."""
    cc = reduced_cochain_complex(cx)
    ranks = {i: len(span(field, cc.delta(i)).rows) for i in range(-1, cc.top + 1)}
    dims = {}
    for i in range(-1, cc.top + 1):
        below = ranks.get(i - 1, 0)
        dims[i] = cc.n_faces(i) - ranks[i] - below
    return dims


def parse_complex(text):
    """Parse the complex text format.

    ``vertices: <labels>`` first, an optional ``ghost: <labels>`` line, then
    one facet per line as space-separated labels.  A file with no facet lines
    describes the complex whose only face is empty.
    """
    vertices = None
    ghosts = []
    facets = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if vertices is None:
            if not line.startswith("vertices:"):
                raise ValueError("complex file must start with a 'vertices:' line")
            vertices = line[len("vertices:"):].replace(",", " ").split()
            continue
        if line.startswith("ghost:"):
            ghosts.extend(line[len("ghost:"):].replace(",", " ").split())
            continue
        facets.append(frozenset(line.split()))
    if vertices is None:
        raise ValueError("complex file has no 'vertices:' line")
    all_vertices = tuple(vertices) + tuple(g for g in ghosts if g not in vertices)
    facets.append(frozenset())
    return SimplicialComplex.from_facets(all_vertices, facets)


def format_complex(cx):
    if cx.is_void:
        raise ValueError("void complex has no text representation")
    index = {v: i for i, v in enumerate(cx.vertices)}
    ghosts = cx.ghost_vertices
    named = [v for v in cx.vertices if v not in ghosts]
    lines = ["vertices: " + " ".join(str(v) for v in named)]
    if ghosts:
        lines.append("ghost: " + " ".join(str(v) for v in ghosts))
    for f in cx.facets:
        if f:
            lines.append(" ".join(str(v) for v in sorted(f, key=index.get)))
    return "\n".join(lines) + "\n"
