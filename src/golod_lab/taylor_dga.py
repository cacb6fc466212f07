"""The Taylor complex of a monomial ideal as a differential graded algebra.

Basis elements are subsets of the ordered generator list, stored as bit masks
over generator indices.  The differential and the product carry signs that
depend only on that order:

    sign of dropping m from I         : (-1)^(number of members of I before m)
    sign of the product <I> * <J>     : (-1)^(number of pairs (m in I, m' in J)
                                              with m' before m)

After tensoring with the residue field, a term survives exactly when its
monomial coefficient is constant.

A single strand needs only the generators below u (u is in the lcm lattice
exactly when their lcm is u); the closure ``lcm_lattice``, kept on the ideal,
is for callers that enumerate the lattice.  A strand past
``_FULL_STRAND_LIMIT`` generators is enumerated one degree at a time.

Inside a strand the lcm test is a bitmask test.  Every generator below u
divides u, so the lcm of a subset of them reaches u in variable k exactly
when some member has exponent u[k] there.  With the *attain mask* of a
generator (the variables k with exps[k] == u[k] > 0), a subset has lcm u
exactly when the OR of its attain masks is the support mask of u.  The same
fact makes a boundary term survive exactly when its face is in the strand's
basis one degree down, so strand boundaries are index lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .monomial_core import lcm_of
from .simplicial import SimplicialComplex

_FULL_STRAND_LIMIT = 18  # most generators below u for a whole strand (2^|G_u| subsets)


def mask_members(mask):
    """Generator indices contained in a subset mask, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def mask_of(indices):
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def subset_lcm(ideal, mask):
    """lcm monomial of the generators in the mask (constant for the empty mask)."""
    return lcm_of((ideal.gens[i] for i in mask_members(mask)), ideal.n_vars)


def subset_multidegree(ideal, mask):
    return subset_lcm(ideal, mask).exps


def reduced_boundary(ideal, mask):
    """Differential after tensoring with the field: only constant-coefficient terms.

    Dropping a generator keeps the lcm exactly when every variable in which
    it attains the mask's maximal exponent has a second generator attaining
    it.  Returns a map ``smaller_mask -> sign`` with sign in {1, -1}.
    """
    members = mask_members(mask)
    needed = set()  # positions of the sole holders of some variable's maximum
    for col in zip(*(ideal.gens[i].exps for i in members)):
        top = max(col)
        if top and col.count(top) == 1:
            needed.add(col.index(top))
    out = {}
    sign = 1
    for pos, i in enumerate(members):
        if pos not in needed:
            out[mask ^ (1 << i)] = sign
        sign = -sign
    return out


def product_sign(maskI, maskJ):
    """Koszul sign of <I> * <J>: parity of pairs (m in I, m' in J) with m' first."""
    count = 0
    for i in mask_members(maskI):
        count += bin(maskJ & ((1 << i) - 1)).count("1")
    return -1 if count % 2 else 1


def product_reduced(ideal, maskI, maskJ):
    """Product in the field-reduced complex: ``(sign, union mask)`` or None.

    Nonzero exactly when the subsets are disjoint and the lcm of the union is
    the product of the two lcms.
    """
    if maskI & maskJ:
        return None
    union = maskI | maskJ
    mI = subset_lcm(ideal, maskI)
    mJ = subset_lcm(ideal, maskJ)
    if mI * mJ != subset_lcm(ideal, union):
        return None
    return (product_sign(maskI, maskJ), union)


def generators_below(ideal, u):
    """Indices of generators whose multidegree is componentwise <= u."""
    return [i for i, g in enumerate(ideal.gens) if all(a <= b for a, b in zip(g.exps, u))]


def in_lattice(ideal, u, below):
    """Whether u is in the lcm lattice, given the generators below it (their lcm is u)."""
    return bool(below) and lcm_of((ideal.gens[i] for i in below), ideal.n_vars).exps == tuple(u)


@dataclass(frozen=True)
class LcmLattice:
    """Multidegrees of lcms of nonempty generator subsets, with join structure."""

    ideal: object
    elements: frozenset

    def __contains__(self, u):
        return tuple(u) in self.elements

    def __iter__(self):
        return iter(sorted(self.elements, key=lambda u: (sum(u), u)))

    def __len__(self):
        return len(self.elements)


def lcm_lattice(ideal):
    """Lattice of subset-lcm multidegrees, computed by pairwise-join closure.

    Built once per ideal and kept in ``ideal.derived``.  Only callers that
    enumerate the lattice need it: a single strand asks ``in_lattice``.
    """
    if "lattice" in ideal.derived:
        return ideal.derived["lattice"]
    current = {tuple(g.exps) for g in ideal.gens}
    frontier = set(current)
    while frontier:
        new = set()
        for u in frontier:
            for v in current:
                j = tuple(max(a, b) for a, b in zip(u, v))
                if j not in current and j not in new:
                    new.add(j)
        current |= new
        frontier = new
    lattice = ideal.derived["lattice"] = LcmLattice(ideal, frozenset(current))
    return lattice


def strand_degree_basis(ideal, u, i, gens_below=None, apex=None):
    """Sorted masks of i-element generator subsets with lcm multidegree exactly u.

    Enumerates only one homological degree, which keeps large strands usable.
    With ``apex``, a generator below u, only the masks that contain it are
    enumerated: C(|G_u| - 1, i - 1) subsets instead of C(|G_u|, i).

    Every generator below u divides u, so a subset has lcm u exactly when the
    OR of its members' attain masks (variables k with exps[k] == u[k] > 0) is
    the support mask of u; each combination costs one OR per member.
    """
    if gens_below is None:
        gens_below = generators_below(ideal, u)
    u = tuple(u)
    full = mask_of(k for k, e in enumerate(u) if e)
    att = {}  # generator -> attain mask
    for gi in gens_below:
        exps = ideal.gens[gi].exps
        att[gi] = mask_of(k for k, e in enumerate(u) if e and exps[k] == e)
    if apex is None:
        start, bit, pool, size = 0, 0, gens_below, i
    else:
        start, bit, size = att[apex], 1 << apex, i - 1
        pool = [gi for gi in gens_below if gi != apex]
    masks = []
    for c in combinations(pool, size):
        acc = start
        for gi in c:
            acc |= att[gi]
        if acc == full:
            masks.append(mask_of(c) | bit)
    masks.sort()
    return masks


class StrandComplex:
    """The multidegree-u piece of the field-reduced Taylor complex.

    Bases per homological degree are mask lists sorted ascending, and
    ``index[i]`` maps each mask of ``basis[i]`` to its position.  Boundary
    columns are built on request and consecutive differentials compose to
    zero.  Their entries are +-1, so the complex is the same over every field.
    """

    def __init__(self, ideal, u):
        u = tuple(u)
        self.gens_below = generators_below(ideal, u)
        if not in_lattice(ideal, u, self.gens_below):
            raise ValueError(f"multidegree {u} is not in the lcm lattice")
        self.ideal = ideal
        self.u = u
        if len(self.gens_below) > _FULL_STRAND_LIMIT:
            raise ValueError(
                f"strand at {u} has {len(self.gens_below)} generators below it; "
                "use strand_degree_basis for degree-limited access"
            )
        self.basis = {}
        for i in range(1, len(self.gens_below) + 1):
            masks = strand_degree_basis(ideal, u, i, self.gens_below)
            if masks:
                self.basis[i] = masks
        self.index = {i: {m: k for k, m in enumerate(b)} for i, b in self.basis.items()}

    @property
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


def chain_degrees(ideal, chain):
    """(multidegree, homological degree) of a homogeneous chain; errors otherwise."""
    degs = {(subset_multidegree(ideal, m), bin(m).count("1")) for m in chain if chain[m] != 0}
    if not degs:
        raise ValueError("zero chain has no well-defined degrees")
    if len(degs) > 1:
        raise ValueError(f"chain is not homogeneous: degrees {sorted(degs)}")
    return degs.pop()


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
    if len(below) > _FULL_STRAND_LIMIT:
        raise ValueError(f"fiber complex at {u} would have {len(below)} vertices")
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
