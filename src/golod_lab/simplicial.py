"""Simplicial complexes with ghost vertices, their skeleta and Stanley-Reisner
translation, and the complex text format.

A complex stores an ordered vertex set independently of its faces, so a
vertex may belong to no face at all (a "ghost").  Fiber complexes of
multidegree strands need this.  Faces are written with vertices in the
order of the vertex set.  Face and non-face scans cover 2^n subsets:
past ``_ENUMERATION_LIMIT`` vertices they raise ``TooLarge`` (CLI exit 3).
The reduced cochain complexes the strands are checked against, with
restriction and the 2-neighborly test, are in ``tests/conftest.py``.
"""

from __future__ import annotations

from itertools import combinations

from .monomial_core import Monomial, MonomialIdeal, TooLarge
from .record import Record

_ENUMERATION_LIMIT = 22  # subset scans are 2^n; keep inputs desk-scale


def _check_labels(vertices, facets):
    vset = set(vertices)
    if len(vset) != len(vertices):
        raise ValueError("duplicate vertex labels")
    for f in facets:
        if not f <= vset:
            raise ValueError(f"facet {sorted(f)} uses unknown vertices")


class SimplicialComplex(Record):
    """Complex given by an ordered vertex tuple and its facets.

    ``facets == ()`` is the void complex (no faces); ``facets == (frozenset(),)``
    is the complex whose only face is empty.  Facets are stored maximal and
    deduplicated; the face set is their downward closure.
    """

    __slots__ = _fields = ("vertices", "facets")

    def __init__(self, vertices, facets):
        _check_labels(vertices, facets)
        self._fill(vertices, facets)

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
    def ghost_vertices(self):
        used = set().union(*self.facets) if self.facets else set()
        return tuple(v for v in self.vertices if v not in used)

    def has_face(self, s):
        s = frozenset(s)
        return any(s <= f for f in self.facets)


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
