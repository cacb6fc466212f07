"""Necessary combinatorial conditions for trivial-product non-Golod ideals,
and a small search harness over squarefree support patterns.

Any squarefree ideal with trivial products but a nonzero ternary Massey
product of three generator classes must carry the role pattern below: three
pairwise disjoint supports a, b, c; bridges ab, bc, ca between consecutive
ones; covering conditions b inside ab|bc and a inside ab|ca (or the mirror
for c); and, because bridges are coprime to the opposite corner, one further
generator per bridge-corner pair.  The search enumerates such patterns with
canonical variable blocks and runs the full homological pipeline on matches.
Supports are int masks over the variables, as an ideal's unary codes are
(``monomial_core``): a union is an OR and s lies in t iff ``s & ~t == 0``.
"""

from __future__ import annotations

import time
from functools import partial, reduce
from itertools import chain, combinations
from operator import and_

from .exact_linalg import QQ
from .massey_golod import all_products_trivial, pair_criterion, ternary_massey_generators
from .monomial_core import MonomialIdeal, counterexample_ideal, polarize
from .record import Record


class RoleAssignment(Record):
    """Generator indices playing the named roles in a squarefree ideal.

    ``bc_sharp_a`` and ``ca_sharp_b`` may refer to the same generator; all
    other roles must be distinct.
    """

    _fields = ("a", "b", "c", "ab", "bc", "ab_sharp_c", "bc_sharp_a", "ca", "ca_sharp_b")

    def __init__(self, a, b, c, ab, bc, ab_sharp_c, bc_sharp_a, ca, ca_sharp_b):
        self._fill(a, b, c, ab, bc, ab_sharp_c, bc_sharp_a, ca, ca_sharp_b)

    def core(self):
        return [self.a, self.b, self.c, self.ab, self.bc, self.ca]


class PatternReport(Record):
    """Per-condition outcome of the role-pattern check; ``b_covered`` is the
    support of b inside ab union bc."""

    _fields = ("disjoint_abc", "ab_bridges", "bc_bridges", "ca_bridges", "b_covered",
               "a_or_c_covered", "ab_sharp_c_exists", "bc_sharp_a_exists", "ca_sharp_b_exists")

    def __init__(self, disjoint_abc, ab_bridges, bc_bridges, ca_bridges, b_covered,
                 a_or_c_covered, ab_sharp_c_exists, bc_sharp_a_exists, ca_sharp_b_exists):
        self._fill(disjoint_abc, ab_bridges, bc_bridges, ca_bridges, b_covered, a_or_c_covered,
                   ab_sharp_c_exists, bc_sharp_a_exists, ca_sharp_b_exists)

    @property
    def all_ok(self):
        """Every condition holds."""
        return all(self.__dict__.values())


def _bridges(ij, i, j):
    return not ij & ~(i | j) and bool(ij & i and ij & j)


def pattern_check(ideal, assignment):
    """Evaluate the role-pattern conditions on a squarefree ideal, where a
    generator's code is its support with unused variables squeezed out."""
    if not ideal.is_squarefree:
        raise ValueError("pattern check applies to squarefree ideals")
    for role, k in vars(assignment).items():
        if not 0 <= k < ideal.n_gens:
            raise ValueError(f"role {role}={k}: generator index out of range 0..{ideal.n_gens - 1}")
    g = ideal.codes
    a, b, c, ab, bc, ca = (g[k] for k in assignment.core())
    core = set(assignment.core())

    def sharp_exists(sharp, i, j):
        """The named generator is outside the core and divides lcm(g_i, g_j)."""
        return sharp not in core and not g[sharp] & ~(g[i] | g[j])

    return PatternReport(
        disjoint_abc=not (a & b or b & c or a & c),
        ab_bridges=_bridges(ab, a, b),
        bc_bridges=_bridges(bc, b, c),
        ca_bridges=_bridges(ca, c, a),
        b_covered=not b & ~(ab | bc),
        a_or_c_covered=not a & ~(ab | ca) or not c & ~(bc | ca),
        ab_sharp_c_exists=sharp_exists(assignment.ab_sharp_c, assignment.ab, assignment.c),
        bc_sharp_a_exists=sharp_exists(assignment.bc_sharp_a, assignment.bc, assignment.a),
        ca_sharp_b_exists=sharp_exists(assignment.ca_sharp_b, assignment.ca, assignment.b),
    )


class SearchStats(Record):
    """Counts a search updates as it runs, so the one mutable record."""

    __slots__ = _fields = ("candidates", "pattern_hits", "survivors", "budget_exhausted")
    __setattr__ = object.__setattr__
    __hash__ = None

    def __init__(self, candidates=0, pattern_hits=0, survivors=0, budget_exhausted=False):
        self._fill(candidates, pattern_hits, survivors, budget_exhausted)


class SearchHit(Record):
    __slots__ = _fields = ("serial", "ideal", "assignment", "all_products_trivial")

    def __init__(self, serial, ideal, assignment, all_products_trivial):
        self._fill(serial, ideal, assignment, all_products_trivial)

    @property
    def is_counterexample(self):
        # a hit already has trivial generator products and a nonzero ternary
        # Massey product of a, b, c; the full product check is what remains
        return self.all_products_trivial


def seed_pattern():
    """The polarized built-in example with its canonical role assignment."""
    pol, _ = polarize(counterexample_ideal())
    assignment = RoleAssignment(
        a=0, b=3, c=6, ab=1, bc=4, ca=7,
        ab_sharp_c=2, bc_sharp_a=5, ca_sharp_b=5,
    )
    return pol, assignment


def _degree_one_products_trivial(ideal):
    """All products of generator classes vanish, by the combinatorial tests."""
    return all(pair_criterion(ideal, i, j) for i, j in combinations(range(ideal.n_gens), 2)
               if not ideal.codes[i] & ideal.codes[j])


def _evaluate_candidate(serial, ideal, assignment, field):
    if not _degree_one_products_trivial(ideal):
        return None
    res = ternary_massey_generators(
        ideal, field, assignment.a, assignment.b, assignment.c
    )
    if not res.defined or res.value_is_zero:
        return None
    full_ok, _ = all_products_trivial(ideal, field)
    return SearchHit(serial, ideal, assignment, full_ok)


def _drops(bits, k, lo=0):
    """ORs of k of ``bits[lo:]``, in reverse lex order of their positions."""
    if k < 2:
        yield from reversed(bits[lo:]) if k else (0,)
        return
    for i in range(len(bits) - k, lo - 1, -1):
        for rest in _drops(bits, k - 1, i + 1):
            yield bits[i] | rest


def _subsets_between(*pairs, avoid=()):
    """Subsets of the AND u of the pairs' unions, largest first (generic first)
    and in lex order within a size, yielded one at a time: u can have 2^(n-2).
    Each is smaller than every union, meets both sides of every pair, and
    nests with no support t in ``avoid``.  A subset is u less a drop, walked
    smallest first in reverse lex order, and each test reads the drop: t lies
    in the subset iff t lies in u and misses the drop, the subset in t iff
    the drop holds u outside t, and it meets p unless the drop holds u & p."""
    unions = [p | q for p, q in pairs]
    u = reduce(and_, unions)
    bits = [1 << k for k in range(u.bit_length()) if u >> k & 1]
    inside = [t for t in avoid if not t & ~u]
    outside = [u & ~t for t in avoid]
    sides = [u & p for pair in pairs for p in pair]
    for k in range(len(bits) - 1):
        for drop in _drops(bits, k):
            if (all(t & drop for t in inside) and all(o & ~drop for o in outside)
                    and all(x & ~drop for x in sides) and (s := u ^ drop) not in unions):
                yield s


def _candidate_patterns(n_vars, max_gens):
    """Deterministic stream of role patterns over canonical variable blocks.

    Blocks a, b, c take the first variables in order; bridge and extra roles
    range over subsets, generated lazily.  Size splits are enumerated
    largest-first, matching the make-everything-as-generic-as-possible
    heuristic.  A one-variable c yields no pattern (any bc meeting c contains
    it), so c has at least two variables.

    Every pattern meets the nine conditions of ``pattern_check`` by
    construction, so the search does not re-check them: ``disjoint_abc`` by
    the disjoint blocks; the three bridges by ``_subsets_between``;
    ``b_covered`` and ``a_or_c_covered`` by the two cover ``continue``s; the
    three sharps by ``_subsets_between``, which draws each from bridge |
    corner, meeting both.

    No two supports of a pattern nest, so every pattern is an ideal's
    minimal generating set (squarefree, one generator divides another exactly
    when its support is a subset).  The core cannot nest: the blocks are
    disjoint, each bridge avoids its own two blocks and is disjoint from the
    third, and two bridges each meet a block the other misses.  Each sharp
    avoids everything drawn before it, except that bc#a and ca#b may coincide:
    with 8 generators they must, and the one shared sharp is drawn once.
    """
    if max_gens < 8:
        return
    # lazily: there are O(n_vars^3) splits, and the budget is tested per pattern
    sizes = ((na, nb, nc) for na in range(n_vars - 4, 1, -1)
             for nb in range(n_vars - na - 2, 1, -1)
             for nc in range(n_vars - na - nb, 1, -1))
    for na, nb, nc in sizes:
        a = (1 << na) - 1
        b = ((1 << nb) - 1) << na
        c = ((1 << nc) - 1) << (na + nb)
        for ab in _subsets_between((a, b), avoid=(a, b)):
            for bc in _subsets_between((b, c), avoid=(b, c)):
                if b & ~(ab | bc):
                    continue
                for ca in _subsets_between((c, a), avoid=(c, a)):
                    if a & ~(ab | ca) and c & ~(bc | ca):
                        continue
                    core = [a, b, c, ab, bc, ca]
                    for s_ab in _subsets_between((ab, c), avoid=core):
                        drawn = [*core, s_ab]
                        if max_gens == 8:
                            for s in _subsets_between((bc, a), (ca, b), avoid=drawn):
                                yield core, (s_ab, s, s)
                            continue
                        for s_bc in _subsets_between((bc, a), avoid=drawn):
                            for s_ca in _subsets_between((ca, b), avoid=drawn):
                                if s_ca == s_bc or (s_ca & ~s_bc and s_bc & ~s_ca):
                                    yield core, (s_ab, s_bc, s_ca)


def _pattern_ideal(n_vars, core, sharps):
    """(ideal, assignment) of a role pattern (``_candidate_patterns``)."""
    a, b, c, ab, bc, ca = core
    supports = list(dict.fromkeys([a, ab, b, bc, c, ca, *sharps]))
    ideal = MonomialIdeal.from_exponents(
        [f"v{i}" for i in range(n_vars)], [[s >> i & 1 for i in range(n_vars)] for s in supports])
    at = supports.index
    return ideal, RoleAssignment(
        a=at(a), b=at(b), c=at(c), ab=at(ab), bc=at(bc), ca=at(ca),
        ab_sharp_c=at(sharps[0]), bc_sharp_a=at(sharps[1]), ca_sharp_b=at(sharps[2]))


def search(n_vars, max_gens, budget, seconds=None, seeds=None, field=QQ, stats=None):
    """Yield surviving candidates of the pattern search.

    ``budget`` limits the candidate count and ``seconds``, if given, the
    wall time.  ``seeds`` are (ideal, assignment) pairs checked before the
    enumeration; by default the polarized built-in pattern is seeded when it
    fits the requested size.  The enumerated patterns meet the role pattern
    by construction (``_candidate_patterns``), and a caller-supplied seed is
    not checked against it: every candidate is judged by the homological
    tests alone (trivial generator products, a nonzero ternary Massey
    product of a, b, c), which are what define a hit.  The stream is
    deterministic; stats (if given) record how the budget was spent.
    """
    if stats is None:
        stats = SearchStats()
    start = time.monotonic()
    if seeds is None:
        seeds = []
        pol, assignment = seed_pattern()
        if pol.n_vars <= n_vars and pol.n_gens <= max_gens:
            seeds.append((pol, assignment))
    serial = 0

    def spent():
        """The one budget test, made before every seed and every pattern."""
        return serial >= budget or (
            seconds is not None and time.monotonic() - start >= seconds
        )

    # one stream of builders, seeds first; a candidate is built after its budget test
    stream = chain(
        ((lambda seed=seed: seed) for seed in seeds),
        (partial(_pattern_ideal, n_vars, *p) for p in _candidate_patterns(n_vars, max_gens)),
    )
    for build in stream:
        if spent():
            stats.budget_exhausted = True
            return
        ideal, assignment = build()
        stats.candidates += 1
        hit = _evaluate_candidate(serial, ideal, assignment, field)
        serial += 1
        if hit is not None:
            stats.pattern_hits += 1
            if hit.is_counterexample:
                stats.survivors += 1
            yield hit
