import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from operator import add, le, or_, sub

import pytest

from golod_lab.exact_linalg import QQ, Echelon, column_relations
from golod_lab.homology_engine import HomologyClass, StrandHomology, _freeze_chain, betti, strand
from golod_lab.massey_golod import chain_product
from golod_lab.monomial_core import (
    Monomial,
    MonomialIdeal,
    counterexample_ideal,
    lcm_of,
    minimalize,
    polarize,
)
from golod_lab import series_engine
from golod_lab.series_engine import (
    ResolutionReport,
    SeriesTrunc,
    StepReport,
)
from golod_lab.simplicial import SimplicialComplex, complex_of, skeleton, stanley_reisner_ideal
from golod_lab.taylor_dga import (
    fiber_vertex_labels,
    generators_below,
    mask_members,
    product_sign,
)


@pytest.fixture(scope="session")
def example_ideal():
    return counterexample_ideal()


@pytest.fixture(scope="session")
def field_q():
    return QQ


def random_ideal(rng, max_vars=5, max_gens=6, max_exp=3):
    """One random monomial ideal; may return None for degenerate draws."""
    n = rng.randint(2, max_vars)
    k = rng.randint(1, max_gens)
    cands = []
    for _ in range(k):
        exps = [0] * n
        for _ in range(rng.randint(1, 4)):
            exps[rng.randrange(n)] += rng.randint(1, max_exp)
        exps = [min(e, max_exp) for e in exps]
        if any(exps):
            cands.append(Monomial(tuple(exps)))
    if not cands:
        return None
    gens = minimalize(cands)
    return MonomialIdeal(tuple(f"v{i}" for i in range(n)), tuple(gens))


def random_squarefree_ideal(rng, max_vars=6, max_gens=6):
    n = rng.randint(3, max_vars)
    k = rng.randint(1, max_gens)
    cands = []
    for _ in range(k):
        size = rng.randint(1, max(1, n - 1))
        sup = rng.sample(range(n), size)
        cands.append(Monomial(tuple(1 if i in sup else 0 for i in range(n))))
    gens = minimalize(cands)
    return MonomialIdeal(tuple(f"v{i}" for i in range(n)), tuple(gens))


def ideal_corpus(count=100, seed=20260811, **kwargs):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ideal = random_ideal(rng, **kwargs)
        if ideal is not None:
            out.append(ideal)
    return out


# ---------------------------------------------------------------------------
# monomial kernels by their definitions, one exponent pair at a time


def ref_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def ref_coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


def ref_product(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_generators_below(ideal, u):
    return [i for i, g in enumerate(ideal.gens) if ref_divides(g.exps, u)]


def ref_divisor(gens, i):
    """The minimality rule on exponent tuples: the index of the first
    generator that divides gens[i] and differs from it or comes first."""
    g = gens[i].exps
    for j, h in enumerate(gens):
        if j != i and ref_divides(h.exps, g) and (h.exps != g or j < i):
            return j
    return None


def skeleton_ideal():
    """The Stanley-Reisner ideal of the 4-skeleton of the polarized paper
    ideal's complex: 20 generators in 9 variables."""
    pol, _ = polarize(counterexample_ideal())
    return stanley_reisner_ideal(skeleton(complex_of(pol), 4))


def ref_lcm_lattice(ideal):
    """The closure of the generators' exponents under pairwise joins, sorted
    by (total degree, multidegree)."""
    current = {g.exps for g in ideal.gens}
    while new := {ref_lcm(u, v) for u in current for v in current} - current:
        current |= new
    return tuple(sorted(current, key=lambda u: (sum(u), u)))


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


def in_span(ech, vec):
    """Whether vec, with any scalars ``field.of`` takes (zeros too), lies in
    the span of the echelon ``ech``."""
    of = ech.field.of
    return not ech.reduce({k: y for k, x in vec.items() if (y := of(x))})


def span(field, columns):
    """Echelon of the span of sparse columns (dicts key -> coeff, zeros allowed), in order."""
    ech = Echelon(field)
    for col in columns:
        ech.absorb({k: x for k, x in col.items() if x != 0})
    return ech


def absorbed_columns(monkeypatch):
    """A list that gets one ``[columns, absorbed]`` pair per image of d_{i+1}
    the strand layer makes, in the order made: how many cone columns wait in
    it and how many its one absorb point has drawn so far.  The absorb point
    walks its cone from the largest mask down, and nothing else in the
    library walks a cone in reverse, so each kept cone is wrapped to count
    the draws of each reverse walk."""
    images = []
    real = StrandHomology._cone

    class Cone(list):
        def __reversed__(self):
            image = [len(self), 0]
            images.append(image)

            def draw():
                for mask in list.__reversed__(self):
                    image[1] += 1
                    yield mask
            return draw()

    def cone(self, j):
        masks = real(self, j)
        if masks.__class__ is list:
            masks = self._cones[j] = Cone(masks)
        return masks

    monkeypatch.setattr(StrandHomology, "_cone", cone)
    return images


def apply_columns(field, columns, vec, nrows):
    """Dense image of vec under the map whose sparse columns are given."""
    out = [0] * nrows
    for col, x in zip(columns, vec):
        for r, c in col.items():
            out[r] = field.of(out[r] + field.of(c) * x)
    return tuple(out)


# ---------------------------------------------------------------------------
# dense Gauss-Jordan reference: every basis choice of the library must match it
#
# A dense matrix is a list of rows (ints or field elements); its column count
# is passed along, so that it may have no rows.


def columns_of(field, rows, ncols):
    """The sparse columns (dicts row -> nonzero field element) of a row list."""
    return [{i: x for i, r in enumerate(rows) if (x := field.of(r[j]))} for j in range(ncols)]


def rows_of(columns, nrows):
    """The row list of sparse columns (dicts row -> coeff) with nrows rows."""
    return [[c.get(r, 0) for c in columns] for r in range(nrows)]


def strand_cells(sh, i):
    """Sorted degree-i cells of the strand sh: the i-element sets of generators
    below u whose attain masks OR to u's support.  The library enumerates
    only apex cones; this is the whole degree, the basis the dense
    references read."""
    att, full = sh.attain, sh.full
    return sorted(sum(c) for c in combinations(att, i)
                  if reduce(or_, (att[b] for b in c), 0) == full)


def cone_cells(sh, i, apex):
    """Sorted degree-i cells of the strand sh that contain the generator
    ``apex`` (an index below u), by the attain-mask rule; ``sh._cone(i)`` is
    this at the strand's own apex g0."""
    att, full, bit = sh.attain, sh.full, 1 << apex
    pool = [b for b in att if b != bit]
    return sorted(sum(c) | bit for c in combinations(pool, i - 1)
                  if reduce(or_, (att[b] for b in c), att[bit]) == full)


class EagerStrand:
    """The strand ``sh`` solved on its whole apex cone, matched rows built: the
    reference for the library, which spans only the critical cells and
    applies the matched rows to each chain it is asked about.

    Every cone column d(K), K containing the apex g0, is spanned with its
    face K - g0, when that face is a cell, keyed ``(K - g0) - top``, below
    every cone mask, so each matched column sits in the image echelon and
    the tagged elimination as an unreduced row; a chain's cells without g0
    are keyed the same way and cleared by those rows.  The image absorbs
    the cone largest mask first, as the library's does, so its rows at keys
    >= 0 are the library's row for row; the tagged elimination takes it in
    ascending order.  ``dimension`` counts the whole degree's cells against
    these ranks.
    """

    def __init__(self, sh):
        self.sh, self.field, self.top, self.apex = sh, sh.field, sh.top, sh.apex
        self._images, self._eliminations, self._homologies = {}, {}, {}

    def cone(self, j):
        return cone_cells(self.sh, j, self.sh.gens_below[0])

    def column(self, m):
        col = self.sh.boundary(m)
        if (x := col.pop(m ^ self.apex, None)) is not None:
            col[(m ^ self.apex) - self.top] = x
        return col

    def image(self, i):
        if i not in self._images:
            self._images[i] = span(self.field, [self.column(m) for m in self.cone(i + 1)[::-1]])
        return self._images[i]

    def elimination(self, j):
        if j not in self._eliminations:
            ech, relations = column_relations(
                self.field, {m: self.column(m) for m in self.cone(j)}, self.top)
            self._eliminations[j] = ech, list(relations.values())
        return self._eliminations[j]

    def homology(self, i):
        """(image echelon extended by the representatives, representatives)."""
        if i not in self._homologies:
            ech = Echelon(self.field)
            ech.rows = dict(self.image(i).rows)
            reps = []
            for kv in self.elimination(i)[1]:
                w = ech.reduce({**kv, self.top + len(reps): 1})
                if min(w) < self.top:
                    ech.insert(w)
                    reps.append(kv)
            self._homologies[i] = ech, reps
        return self._homologies[i]

    def vector(self, chain):
        of = self.field.of
        return {m if m & self.apex else m - self.top: y
                for m, c in chain.items() if (y := of(c))}

    def dimension(self, i):
        return len(strand_cells(self.sh, i)) - len(self.image(i - 1).rows) - len(self.image(i).rows)

    def representatives(self, i):
        return [_freeze_chain(kv) for kv in self.homology(i)[1]]

    def is_boundary(self, i, chain):
        return not self.image(i).reduce(self.vector(chain))

    def coordinates(self, i, chain):
        ech, reps = self.homology(i)
        w = ech.reduce(self.vector(chain))
        return tuple(self.field.of(-w.get(self.top + k, 0)) for k in range(len(reps)))

    def bounding_chain(self, i, chain):
        w = self.elimination(i + 1)[0].reduce(self.vector(chain))
        if w and min(w) < self.top:
            return None
        return {k - self.top: self.field.of(-c) for k, c in sorted(w.items())}


def positional_columns(sh, i):
    """The columns of d_i on a whole strand: ``sh.boundary(m)`` of each
    degree-i cell, keyed by row position in the degree-(i-1) cells, the
    layout the dense references read.  A face outside those cells raises
    KeyError."""
    rows = {m: r for r, m in enumerate(strand_cells(sh, i - 1))}
    return [{rows[face]: sign for face, sign in sh.boundary(m).items()}
            for m in strand_cells(sh, i)]


def ref_rref(field, rows, ncols):
    """(rank, pivots, reduced rows); the first nonzero entry from the top wins."""
    R = [[field.of(x) for x in r] for r in rows]
    pivots = []
    pr = 0
    for c in range(ncols):
        pv = next((r for r in range(pr, len(R)) if R[r][c] != 0), None)
        if pv is None:
            continue
        R[pr], R[pv] = R[pv], R[pr]
        inv = field.inv(R[pr][c])
        R[pr] = [field.of(inv * x) for x in R[pr]]
        for r in range(len(R)):
            if r != pr and R[r][c] != 0:
                fac = R[r][c]
                R[r] = [field.of(x - fac * y) for x, y in zip(R[r], R[pr])]
        pivots.append(c)
        pr += 1
    return len(pivots), tuple(pivots), tuple(tuple(r) for r in R)


def ref_kernel(field, rows, ncols):
    """Kernel basis, one vector per free column, from the reduced rows."""
    _, pivots, R = ref_rref(field, rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = 1
        for i, p in enumerate(pivots):
            v[p] = field.of(-R[i][free])
        basis.append(tuple(v))
    return basis


def ref_solve(field, rows, ncols, rhs):
    """The pivot solution x of rows * x = rhs (free variables zero), or None."""
    _, pivots, R = ref_rref(field, [list(r) + [b] for r, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for i, p in enumerate(pivots):
        x[p] = R[i][ncols]
    return tuple(x)


def ref_extend(field, base, candidates, n):
    """Indices of the dense candidates that greedily extend span(base)."""
    cols = list(base) + list(candidates)
    _, pivots, _ = ref_rref(field, rows_of([dict(enumerate(c)) for c in cols], n), len(cols))
    return [p - len(base) for p in pivots if p >= len(base)]


def ref_quotient(field, cycles, boundaries, v):
    """Coordinates of v in span(cycles)/span(boundaries), against the cycles
    that greedily extend the boundaries; None when v is outside span(cycles)."""
    cols = list(boundaries) + [cycles[i] for i in ref_extend(field, boundaries, cycles, len(v))]
    x = ref_solve(field, rows_of([dict(enumerate(c)) for c in cols], len(v)), len(cols), v)
    return None if x is None else x[len(boundaries):]


# ---------------------------------------------------------------------------
# the reduced cochain algebra of a simplicial complex: the fiber model the
# strands are checked against, and the paper's 2-neighborly criterion
#
# Orientation is fixed by the vertex order: faces are written with vertices
# ascending and coboundary signs come from insertion position parity.


def complex_dim(cx):
    """Dimension; -1 for the empty-face-only complex, None for void."""
    if cx.is_void:
        return None
    return max(len(f) for f in cx.facets) - 1


def faces_of_dim(cx, k):
    """Faces of dimension k, sorted by vertex order (k = -1 is the empty face)."""
    if cx.is_void:
        return []
    if k == -1:
        return [frozenset()]
    index = {v: i for i, v in enumerate(cx.vertices)}
    seen = set()
    for f in cx.facets:
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


def is_2_neighborly(cx):
    """Every pair of vertices (ghosts included) spans an edge."""
    return all(cx.has_face(p) for p in combinations(cx.vertices, 2))


class CochainComplex:
    """Reduced simplicial cochain complex, the same over every field.

    Degree -1 is the empty face.  ``delta(i)`` gives the coboundary from
    i-cochains to (i+1)-cochains as sparse columns, rows indexed by the
    (i+1)-faces.
    """

    def __init__(self, cx):
        self.complex = cx
        d = complex_dim(cx)
        self.top = -2 if d is None else d
        self._faces = {}
        self._index = {}
        for k in range(-1, self.top + 1):
            faces = faces_of_dim(cx, k)
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


# ---------------------------------------------------------------------------
# small helpers over library objects, used only by the tests


def cochain_vector(field, cc, i, cochain):
    """Coefficient vector over the field of a cochain (face -> scalar) over the
    i-faces of a CochainComplex, in the order of ``cc.faces(i)``."""
    if i not in range(-1, cc.top + 1):
        if cochain:
            raise ValueError(f"no faces in dimension {i}")
        return ()
    idx = {f: k for k, f in enumerate(cc.faces(i))}
    vec = [0] * len(idx)
    for face, c in cochain.items():
        f = frozenset(face)
        if f not in idx:
            raise ValueError(f"{sorted(face)} is not a face of dimension {i}")
        vec[idx[f]] = field.of(c)
    return tuple(vec)


def basis_chain(basis, vec):
    """The chain (mask -> scalar) of a dense vector over a strand basis."""
    return {m: c for m, c in zip(basis, vec) if c != 0}


def chain_basis_vector(field, basis, chain):
    """The dense vector over a strand basis of a chain supported on it."""
    assert set(chain) <= set(basis)
    return tuple(field.of(chain.get(m, 0)) for m in basis)


def monomial_quotient(m, other):
    """Exact quotient m / other of monomials; other must divide m."""
    if not ref_divides(other.exps, m.exps):
        raise ValueError(f"{other.exps} does not divide {m.exps}")
    return Monomial(tuple(a - b for a, b in zip(m.exps, other.exps)))


def pattern_failures(report):
    """Names of the conditions a PatternReport fails (None is no failure)."""
    return [name for name, value in report.__dict__.items() if value is False]


def subset_lcm(ideal, mask):
    """lcm monomial of the generators in the mask (constant for the empty mask)."""
    return lcm_of((ideal.gens[i] for i in mask_members(mask)), ideal.n_vars)


def subset_multidegree(ideal, mask):
    """Multidegree of the lcm of the generators in a mask."""
    return subset_lcm(ideal, mask).exps


def chain_degrees(ideal, chain):
    """(multidegree, homological degree) of a homogeneous chain, read off the
    lcms of its masks; errors otherwise.  The library never derives these:
    its callers hold them."""
    degs = {(subset_multidegree(ideal, m), bin(m).count("1")) for m in chain if chain[m] != 0}
    if not degs:
        raise ValueError("zero chain has no well-defined degrees")
    if len(degs) > 1:
        raise ValueError(f"chain is not homogeneous: degrees {sorted(degs)}")
    return degs.pop()


def class_of(ideal, field, chain, multidegree=None, hom_degree=None):
    """Homology class of a cycle (mask -> scalar) in the strand at the stated
    (multidegree, degree), or, when none is stated, at the degrees read off
    its masks; the zero class of an empty chain outside the lcm lattice."""
    if multidegree is None:
        multidegree, hom_degree = chain_degrees(ideal, chain)
    sh = strand(ideal, field, multidegree)
    if sh is None:
        assert not any(chain.values()), "nonzero chain outside the lcm lattice"
        return HomologyClass(ideal, field, tuple(multidegree), hom_degree, (), ())
    return sh.class_of(hom_degree, chain)


def chain_is_boundary(ideal, field, chain):
    """Whether a homogeneous cycle bounds, asked in the strand at the degrees
    read off its masks; the empty chain bounds."""
    chain = {m: c for m, c in chain.items() if c != 0}
    if not chain:
        return True
    u, i = chain_degrees(ideal, chain)
    return strand(ideal, field, u).is_boundary(i, chain)


# ---------------------------------------------------------------------------
# reference oracles: independent routes the library is checked against


def std_table(ideal, top, box=None):
    """Standard monomials of degree 0..top, with no box unless one is given:
    a list of sorted exponent tuples per degree, and the set of them all,
    grown degree by degree as ``series_engine._std_table`` grows them inside
    its box."""
    gens = {g.exps for g in ideal.gens}
    n = ideal.n_vars
    layer = [(0,) * n]
    by_degree = [layer]
    for _ in range(top):
        grown = {}
        for m in layer:
            for v in range(n):
                if box is None or m[v] < box[v]:
                    g = m[:v] + (m[v] + 1,) + m[v + 1:]
                    grown[g] = grown.get(g, 0) + 1
        layer = sorted(m for m, k in grown.items() if k == n - m.count(0) and m not in gens)
        by_degree.append(layer)
    return by_degree, {m for ms in by_degree for m in ms}


def reduced_boundary(ideal, mask):
    """The field-reduced Taylor differential by its definition: the terms of
    the full differential whose monomial coefficient lcm(I) / lcm(I - m) is
    constant, that is, whose face keeps the lcm.  ``face -> sign``."""
    out = {}
    m_I = subset_lcm(ideal, mask)
    sign = 1
    for i in mask_members(mask):
        rest = mask & ~(1 << i)
        if subset_lcm(ideal, rest) == m_I:
            out[rest] = sign
        sign = -sign
    return out


def product_reduced(ideal, maskI, maskJ):
    """Product of two basis elements in the field-reduced complex, by its
    definition: ``(sign, union mask)``, or None when the monomial coefficient
    lcm(I) * lcm(J) / lcm(I | J) is not constant, that is, when the lcms of
    the two subsets are not coprime."""
    if not ref_coprime(subset_lcm(ideal, maskI).exps, subset_lcm(ideal, maskJ).exps):
        return None
    return (product_sign(maskI, maskJ), maskI | maskJ)


def homology_product(ideal, field, alpha, beta):
    """Product of two homology classes, reduced in the target strand."""
    if alpha.field != field or beta.field != field:
        raise ValueError("classes live over a different field")
    if alpha.ideal != ideal or beta.ideal != ideal:
        raise ValueError("classes live over a different ideal")
    prod = chain_product(
        ideal, field, alpha.chain(), beta.chain(), alpha.multidegree, beta.multidegree
    )
    u = tuple(a + b for a, b in zip(alpha.multidegree, beta.multidegree))
    i = alpha.hom_degree + beta.hom_degree
    return class_of(ideal, field, prod, multidegree=u, hom_degree=i)


def chain_to_cochain(ideal, u, chain):
    """Image of a homogeneous strand chain in the fiber-complex cochain model.

    The subset I maps, up to sign, to the indicator cochain of the complement
    of I among the generators below u.  The per-term sign is the parity of the
    sum of the positions of I's members within that generator list, which
    makes the map intertwine the strand differential with the simplicial
    coboundary exactly.
    """
    u = tuple(u)
    below = generators_below(ideal, u)
    below_set = set(below)
    rank_of = {gi: k for k, gi in enumerate(below)}
    labels = fiber_vertex_labels(below)
    label_of = {gi: labels[k] for k, gi in enumerate(below)}
    out = {}
    seen_card = None
    for mask, coeff in chain.items():
        if coeff == 0:
            continue
        members = mask_members(mask)
        if subset_multidegree(ideal, mask) != u:
            raise ValueError("chain is not homogeneous of the stated multidegree")
        if seen_card is None:
            seen_card = len(members)
        elif len(members) != seen_card:
            raise ValueError("chain mixes homological degrees")
        sign = -1 if sum(rank_of[i] for i in members) % 2 else 1
        face = frozenset(label_of[gi] for gi in below_set - set(members))
        out[face] = out.get(face, 0) + sign * coeff
    return {f: c for f, c in out.items() if c != 0}


def is_coboundary(cx, field, cochain, dim=None):
    """Whether the cochain (face -> scalar map) is in the coboundary image.

    The cochain dimension is inferred from its support unless given; a zero
    cochain with no stated dimension is trivially a coboundary.
    """
    cochain = {frozenset(f): field.of(c) for f, c in cochain.items() if c != 0}
    if dim is None:
        sizes = {len(f) for f in cochain}
        if len(sizes) > 1:
            raise ValueError("cochain mixes dimensions")
        if not sizes:
            return True
        dim = sizes.pop() - 1
    cc = reduced_cochain_complex(cx)
    vec = cochain_vector(field, cc, dim, cochain)
    return in_span(span(field, cc.delta(dim - 1)), dict(enumerate(vec)))


def q_bigraded(ideal, field, n):
    """Coefficients of the series bound refined by internal degree:
    j -> {d: coeff}, the expansion of (1 + y t)^vars over
    1 - sum_(i >= 1, d) b_(i,d) y^d t^(i+1).  Its column sums are
    ``q_series``, and the resolution's step-j generators in internal degree
    d never outnumber its (j, d) coefficient."""
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
    for (tj, yd), c in inv.items():
        for k in range(min(nv, n - tj) + 1):
            key = (tj + k, yd + k)
            out[key] = out.get(key, 0) + c * comb(nv, k)
    table = {}
    for (tj, yd), c in out.items():
        if c:
            table.setdefault(tj, {})[yd] = c
    return table


def serre_boxes(ideal, field, n):
    """Per step j <= n, the least box holding every multidegree where the
    multigraded bound prod_v (1 + x_v t) / (1 - sum_(i >= 1, u) b_(i,u) x^u
    t^(i+1)) has a nonzero t^j coefficient; all -1 where it has none.  The
    bound's terms carry no sign, so a coefficient is nonzero exactly where
    some product of terms lands.  Serre's inequality holds multidegree by
    multidegree for a monomial ring (the Eagon resolution is multigraded),
    so every step-j generator of the residue field's resolution lies in
    box j."""
    nv = ideal.n_vars
    terms = [(i + 1, u) for (i, u), _ in betti(ideal, field).multigraded if i >= 1]
    tops = [(0,) * nv]  # per t-degree k, the box of the products of terms; None if none
    for k in range(1, n + 1):
        ends = [tuple(map(add, tops[k - s], u)) for s, u in terms if s <= k and tops[k - s]]
        tops.append(tuple(map(max, zip(*ends))) if ends else None)
    boxes = []
    for j in range(n + 1):
        # j - k of the t's come from distinct variables, each raising its x by one
        ends = [tuple(x + (k < j) for x in tops[k]) for k in range(j + 1)
                if tops[k] and j - k <= nv]
        boxes.append(tuple(map(max, zip(*ends))) if ends else (-1,) * nv)
    return boxes


def step_codec(pk, gens, phi, dims, code):
    """The generators, images and kernel dimensions that
    ``series_engine._resolution_step`` takes and returns, each multidegree
    mapped by ``code``: ``pk.pack`` from exponent tuples, ``pk.unpack`` back."""
    return (
        [code(u) for u in gens],
        [{(pj, code(m)): c for (pj, m), c in image.items()} for image in phi],
        None if dims is None else {code(u): k for u, k in dims.items()},
    )


def reference_p_series(ideal, field, n):
    """The resolution-side series with no lcm box: the generators each step
    finds are counted directly, as ``p_series`` did before it read P off the
    lcm box, and checked against the bigraded bound (``q_bigraded``).
    ``p_series`` must match its coefficients and report.

    Step j walks its multidegrees up to ``reach[j]``, the largest internal
    degree where the bound is nonzero at step j, and inside ``boxes[j]``
    (``serre_boxes``): by Serre's inequality no step-j generator lies
    outside either.  Outside that walk, the kernel of step j has
    dim K(u) = dim F_u - dim K'(u), counted without elimination wherever a
    later step walks or counts."""
    if n < 0:
        raise ValueError("truncation order must be non-negative")
    if n == 0:
        return SeriesTrunc((1,), 0), ResolutionReport(())
    qtable = q_bigraded(ideal, field, n)
    nv = ideal.n_vars
    reach = [max(qtable.get(j, {0: 0})) for j in range(n + 1)]
    boxes = serre_boxes(ideal, field, n)
    later = [tuple(map(max, zip(*boxes[j:]))) for j in range(n + 1)]  # where steps >= j look
    by_degree, is_std = std_table(ideal, max(reach), later[1])
    pk = series_engine._Packing(later[1])  # every multidegree below lies in later[1]
    packed = [list(map(pk.pack, ms)) for ms in by_degree], set(map(pk.pack, is_std))
    gens = [e for v in range(nv) if (e := tuple(int(k == v) for k in range(nv))) in is_std]
    phi = [{(0, e): 1} for e in gens]
    coeffs = [1, len(gens)]
    steps = [StepReport(1, len(gens), ((1, len(gens)),) if gens else ())]
    dims = None
    for j in range(2, n + 1):
        if not gens:
            coeffs.append(0)
            steps.append(StepReport(j, 0, ()))
            continue
        free, prev, box = gens, dims, boxes[j]
        out = series_engine._resolution_step(
            field, pk, (packed[0][:reach[j] + 1], packed[1]), pk.pack(box),
            *step_codec(pk, gens, phi, prev, pk.pack))
        gens, phi, dims = step_codec(pk, *out, pk.unpack)
        ranks = {}  # multidegree -> dim F_u, outside the walk and where a later step looks
        for dg in free if j < n else ():
            room = tuple(map(sub, later[j + 1], dg))
            for d in range(sum(dg), max(reach[j + 1:]) + 1):
                for m in by_degree[d - sum(dg)]:
                    u = tuple(map(add, dg, m))
                    if all(map(le, m, room)) and not (d <= reach[j] and all(map(le, u, box))):
                        ranks[u] = ranks.get(u, 0) + 1
        for u, f in ranks.items():
            if k := f - ((u in is_std) if prev is None else prev.get(u, 0)):
                dims[u] = k
        counts = {}
        for u in gens:
            counts[sum(u)] = counts.get(sum(u), 0) + 1
        bound = qtable.get(j, {})
        for d, c in counts.items():
            if c > bound.get(d, 0):
                raise AssertionError(
                    f"step {j} found {c} generators in degree {d}, above the series bound"
                )
        coeffs.append(len(gens))
        steps.append(StepReport(j, len(gens), tuple(sorted(counts.items()))))
    return SeriesTrunc(tuple(coeffs), n), ResolutionReport(tuple(steps))


class BarComplex:
    """The bar complex of the residue field over R = S/I, an oracle for the
    resolution engine intended for small j, d: Tor^R_j(k, k) in internal
    degree d is the homology of tuples of j standard monomials of positive
    degree with total degree d.

    Bases and ranks are kept on the object, so each differential is
    eliminated once however many (j, d) a caller asks about.
    """

    def __init__(self, ideal, field):
        self.ideal, self.field = ideal, field
        self._bases, self._ranks = {}, {}

    def basis(self, j, d):
        """Tuples of j standard monomials of positive degree with total degree d."""
        if (j, d) not in self._bases:
            out = [()] if j == d == 0 else []
            if j and d >= j:
                by_degree = std_table(self.ideal, d)[0]

                def rec(parts, remaining, slots):
                    if slots == 1:
                        for m in by_degree[remaining]:
                            out.append(parts + (m,))
                        return
                    for first in range(1, remaining - slots + 2):
                        for m in by_degree[first]:
                            rec(parts + (m,), remaining - first, slots - 1)

                rec((), d, j)
            self._bases[j, d] = out
        return self._bases[j, d]

    def columns(self, j, d):
        """Sparse columns of the differential from (j, d) into (j-1, d)."""
        std = std_table(self.ideal, d)[1]
        lower = {t: k for k, t in enumerate(self.basis(j - 1, d))}
        p = self.field.char
        cols = []
        for t in self.basis(j, d):
            col = {}
            sign = 1
            for i in range(j - 1):
                prod = tuple(map(add, t[i], t[i + 1]))
                if prod in std:
                    r = lower[t[:i] + (prod,) + t[i + 2:]]
                    col[r] = col.get(r, 0) + sign
                sign = -sign
            # the signs are ints: zero in the field means zero, or zero mod p
            cols.append({r: c for r, c in col.items() if (c % p if p else c)})
        return cols

    def rank(self, j, d):
        """Rank of the differential from (j, d), eliminated by rows: (j-1, d)
        has far fewer tuples than (j, d).  The rows are absorbed last made
        first, the fastest order tried on these complexes."""
        if (j, d) not in self._ranks:
            rows = {}
            for k, col in enumerate(self.columns(j, d)):
                for r, c in col.items():
                    rows.setdefault(r, {})[k] = c
            self._ranks[j, d] = len(span(self.field, list(rows.values())[::-1]).rows)
        return self._ranks[j, d]

    def homology_dim(self, j, d):
        """Dimension of Tor^R_j(k, k) in internal degree d."""
        dim = len(self.basis(j, d))
        if j == 0 or dim == 0:  # both differentials at (0, d) are zero
            return dim
        return dim - self.rank(j, d) - self.rank(j + 1, d)
