"""The Taylor complex of a monomial ideal as a differential graded algebra.

Basis elements are subsets of the ordered generator list, stored as bit masks
over generator indices.  The differential and the product carry signs that
depend only on that order:

    sign of dropping m from I         : (-1)^(number of members of I before m)
    sign of the product <I> * <J>     : (-1)^(number of pairs (m in I, m' in J)
                                              with m' before m)

After tensoring with the residue field, a term survives exactly when its
monomial coefficient is constant.  For disjoint I and J the product has
coefficient lcm(I) * lcm(J) / lcm(I | J), constant exactly when lcm(I) and
lcm(J) are coprime; no generator is constant, so coprime lcms also make I
and J disjoint.  Hence the one product rule: classes multiply only across
coprime multidegrees, and the product lands in their sum, the lcm of the
union, always in the lcm lattice.  ``massey_golod.chain_product`` applies it
once per pair of chains, to the multidegrees of their strands, and its
product and Massey loops visit only coprime pairs and pairwise coprime
triples of lattice elements, all tested with ``support_mask``.

A single strand needs only the generators below u; the closure
``lcm_lattice``, kept on the ideal, is for callers that enumerate the lattice.
This module keeps the DGA primitives.  The strand itself, its critical
cells, homology and the differential ``StrandHomology.boundary``, is
``homology_engine.StrandHomology``, which also decides lattice membership
and holds the strand layer's one size rule, on its one cell enumeration.
``fiber_complex``, the independent fiber model that the strand is checked
against, keeps its own lcm test, ``in_lattice``, and its own size check,
``_FIBER_LIMIT`` generators below u (it scans all 2^|G_u| subsets).
"""

from __future__ import annotations

from itertools import combinations

from .monomial_core import TooLarge, lcm_of
from .simplicial import SimplicialComplex

_FIBER_LIMIT = 18  # most generators below u for a fiber complex (2^|G_u| subsets)


def mask_members(mask):
    """Generator indices contained in a subset mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def product_sign(maskI, maskJ):
    """Koszul sign of <I> * <J>: parity of pairs (m in I, m' in J) with m' first."""
    count = sum(bin(maskJ & ((1 << i) - 1)).count("1") for i in mask_members(maskI))
    return -1 if count % 2 else 1


def generators_below(ideal, u):
    """Indices of generators whose multidegree is componentwise <= u: one AND
    of unary codes each (``monomial_core``)."""
    outside = ~ideal.code(u)
    return [i for i, g in enumerate(ideal.codes) if not g & outside]


def in_lattice(ideal, u, below):
    """Whether u is in the lcm lattice, given the generators below it (their lcm is u)."""
    return bool(below) and lcm_of((ideal.gens[i] for i in below), ideal.n_vars).exps == tuple(u)


def lcm_lattice(ideal):
    """Multidegrees of lcms of nonempty generator subsets, as a tuple sorted by
    (total degree, multidegree): the closure under joins with single generators.

    Each round joins only the newest elements with the generators: the lcm
    of a subset is a chain of joins with one generator at a time, so the
    closure is the same as under pairwise joins, at |L| * g joins instead of
    |L|^2, each an OR of unary codes (``monomial_core``); each element is
    decoded once.  Built once per ideal and kept in ``ideal.derived``.  Only
    callers that enumerate the lattice need it: a single strand reads its
    membership off its own attain masks (``homology_engine.strand``).
    """
    if "lattice" in ideal.derived:
        return ideal.derived["lattice"]
    gens = set(ideal.codes)
    current = set(gens)
    frontier = gens
    while frontier:
        frontier = {u | g for u in frontier for g in gens} - current
        current |= frontier
    ideal.derived["lattice"] = tuple(sorted(map(ideal.decode, current), key=lambda u: (sum(u), u)))
    return ideal.derived["lattice"]


def support_mask(u):
    """Bit mask of the variables where the multidegree u is positive; two
    multidegrees are coprime exactly when their masks share no bit."""
    return mask_of(k for k, e in enumerate(u) if e)


def fiber_vertex_labels(gens_below):
    return tuple(f"g{i}" for i in gens_below)


def fiber_complex(ideal, u):
    """Simplicial complex of generator subsets whose complement still reaches u.

    Vertices are the generators below u, labeled ``g<index>``; a subset I is a
    face exactly when the lcm of its complement has multidegree u.  Generators
    that every cover needs are ghost vertices.
    """
    u = tuple(u)
    below = generators_below(ideal, u)
    if not in_lattice(ideal, u, below):
        raise ValueError(f"multidegree {u} is not in the lcm lattice")
    if len(below) > _FIBER_LIMIT:
        raise TooLarge(f"fiber complex at {u} would have {len(below)} vertices")
    labels = fiber_vertex_labels(below)
    pos = {gi: labels[k] for k, gi in enumerate(below)}
    facets = []
    known = []
    # descending size: the first time a subset is a face it is maximal
    for size in range(len(below), -1, -1):
        for c in combinations(below, size):
            cset = set(c)
            if any(cset <= f for f in known):
                continue
            rest = [ideal.gens[gi] for gi in below if gi not in cset]
            if tuple(lcm_of(rest, ideal.n_vars).exps) == u:
                known.append(cset)
                facets.append(frozenset(pos[gi] for gi in cset))
    return SimplicialComplex.from_facets(labels, facets)
