"""Necessary combinatorial conditions for trivial-product non-Golod ideals,
and a small search harness over squarefree support patterns.

Any squarefree ideal with trivial products but a nonzero ternary Massey
product of three generator classes must carry the role pattern below: three
pairwise disjoint supports a, b, c; bridges ab, bc, ca between consecutive
ones; covering conditions b inside ab|bc and a inside ab|ca (or the mirror
for c); and, because bridges are coprime to the opposite corner, one further
generator per bridge-corner pair.  The search enumerates such patterns with
canonical variable blocks and runs the full homological pipeline on matches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from itertools import chain, combinations

from .exact_linalg import QQ
from .massey_golod import (
    _dividing_generator,
    all_products_trivial,
    pair_criterion,
    ternary_massey_generators,
)
from .monomial_core import Monomial, MonomialIdeal, counterexample_ideal, polarize


@dataclass(frozen=True)
class RoleAssignment:
    """Generator indices playing the named roles in a squarefree ideal.

    ``bc_sharp_a`` and ``ca_sharp_b`` may refer to the same generator; all
    other roles must be distinct.
    """

    a: int
    b: int
    c: int
    ab: int
    bc: int
    ab_sharp_c: int
    bc_sharp_a: int
    ca: int
    ca_sharp_b: int

    def core(self):
        return [self.a, self.b, self.c, self.ab, self.bc, self.ca]


@dataclass(frozen=True)
class PatternReport:
    """Per-condition outcome of the role-pattern check."""

    disjoint_abc: bool
    ab_bridges: bool
    bc_bridges: bool
    ca_bridges: bool
    b_covered: bool  # support of b inside ab union bc
    a_or_c_covered: bool
    ab_sharp_c_exists: bool
    bc_sharp_a_exists: bool
    ca_sharp_b_exists: bool

    @property
    def all_ok(self):
        """Every condition holds."""
        return all(self.__dict__.values())


def _bridges(sup_ij, sup_i, sup_j):
    return sup_ij <= (sup_i | sup_j) and sup_ij & sup_i and sup_ij & sup_j


def pattern_check(ideal, assignment):
    """Evaluate the role-pattern conditions on a squarefree ideal."""
    if not ideal.is_squarefree:
        raise ValueError("pattern check applies to squarefree ideals")
    g = ideal.gens
    s = {name: g[idx].support for name, idx in (
        ("a", assignment.a), ("b", assignment.b), ("c", assignment.c),
        ("ab", assignment.ab), ("bc", assignment.bc), ("ca", assignment.ca),
    )}
    disjoint = (
        not (s["a"] & s["b"]) and not (s["b"] & s["c"]) and not (s["a"] & s["c"])
    )
    ab_br = bool(_bridges(s["ab"], s["a"], s["b"]))
    bc_br = bool(_bridges(s["bc"], s["b"], s["c"]))
    ca_br = bool(_bridges(s["ca"], s["c"], s["a"]))
    b_cov = s["b"] <= (s["ab"] | s["bc"])
    a_cov = s["a"] <= (s["ab"] | s["ca"])
    c_cov = s["c"] <= (s["bc"] | s["ca"])
    core = set(assignment.core())

    def sharp_exists(i, j):
        return _dividing_generator(ideal, i, j, exclude=core) is not None

    return PatternReport(
        disjoint_abc=disjoint,
        ab_bridges=ab_br,
        bc_bridges=bc_br,
        ca_bridges=ca_br,
        b_covered=bool(b_cov),
        a_or_c_covered=bool(a_cov or c_cov),
        ab_sharp_c_exists=sharp_exists(assignment.ab, assignment.c),
        bc_sharp_a_exists=sharp_exists(assignment.bc, assignment.a),
        ca_sharp_b_exists=sharp_exists(assignment.ca, assignment.b),
    )


@dataclass
class SearchStats:
    candidates: int = 0
    pattern_hits: int = 0
    survivors: int = 0
    budget_exhausted: bool = False


@dataclass(frozen=True)
class SearchHit:
    serial: int
    ideal: MonomialIdeal
    assignment: RoleAssignment
    all_products_trivial: bool

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
    for i, j in combinations(range(ideal.n_gens), 2):
        if ideal.gens[i].coprime(ideal.gens[j]):
            if not pair_criterion(ideal, i, j):
                return False
    return True


def _evaluate_candidate(serial, ideal, assignment, field):
    report = pattern_check(ideal, assignment)
    if not report.all_ok:
        return None
    if not _degree_one_products_trivial(ideal):
        return None
    res = ternary_massey_generators(
        ideal, field, assignment.a, assignment.b, assignment.c
    )
    if not res.defined or res.value_is_zero:
        return None
    full_ok, _ = all_products_trivial(ideal, field)
    return SearchHit(serial, ideal, assignment, full_ok)


def _subsets_between(side1, side2):
    """Subsets of the union meeting both sides, largest first (generic first),
    yielded one at a time: the union can have 2^(n-2) subsets."""
    u = sorted(side1 | side2)
    for size in range(len(u), 1, -1):
        for c in combinations(u, size):
            cs = frozenset(c)
            if cs & side1 and cs & side2 and cs != side1 | side2:
                yield cs


def _mono(n, sup):
    return Monomial(tuple(1 if i in sup else 0 for i in range(n)))


def _candidate_patterns(n_vars, max_gens):
    """Deterministic stream of role patterns over canonical variable blocks.

    Blocks a, b, c take the first variables in order; bridge and extra roles
    range over subsets, generated lazily.  Size splits are enumerated
    largest-first, matching the make-everything-as-generic-as-possible
    heuristic.  A one-variable c yields no pattern (any bc meeting c contains
    it), so c has at least two variables.
    """
    if max_gens < 8:
        return
    sizes = []
    for na in range(n_vars - 4, 1, -1):
        for nb in range(n_vars - na - 2, 1, -1):
            for nc in range(n_vars - na - nb, 1, -1):
                sizes.append((na, nb, nc))
    for na, nb, nc in sizes:
        a = frozenset(range(na))
        b = frozenset(range(na, na + nb))
        c = frozenset(range(na + nb, na + nb + nc))
        for ab in _subsets_between(a, b):
            if a <= ab or b <= ab:
                continue
            for bc in _subsets_between(b, c):
                if b <= bc or c <= bc or not b <= (ab | bc):
                    continue
                for ca in _subsets_between(c, a):
                    if c <= ca or a <= ca:
                        continue
                    if not (a <= (ab | ca) or c <= (bc | ca)):
                        continue
                    core = [a, b, c, ab, bc, ca]
                    if len(set(core)) != 6:
                        continue
                    for sharps in _sharp_choices(core, ab, bc, ca, a, b, c, max_gens):
                        yield core, sharps


def _sharp_choices(core, ab, bc, ca, a, b, c, max_gens):
    """Choices of the three forced extra generators (two may coincide)."""
    core_set = set(core)

    def options(bridge, corner):
        union = sorted(bridge | corner)
        for size in range(len(union) - 1, 1, -1):
            for comb in combinations(union, size):
                cs = frozenset(comb)
                if cs not in core_set and cs & bridge and cs & corner:
                    yield cs

    for s_ab in options(ab, c):
        for s_bc in options(bc, a):
            if s_bc == s_ab:
                continue
            for s_ca in options(ca, b):
                if s_ca == s_ab:
                    continue
                gens = {s_ab, s_bc, s_ca}
                if len(core_set | gens) > max_gens:
                    continue
                yield (s_ab, s_bc, s_ca)


def _pattern_ideal(n_vars, core, sharps):
    """(ideal, assignment) of a role pattern, or None when its supports nest:
    squarefree, one generator divides another exactly when its support is a
    proper subset (the supports are distinct)."""
    a, b, c, ab, bc, ca = core
    supports = [a, ab, b, bc, c, ca]
    for s in sharps:
        if s not in supports:
            supports.append(s)
    if any(s < t for s in supports for t in supports):
        return None
    ideal = MonomialIdeal(
        tuple(f"v{i}" for i in range(n_vars)), tuple(_mono(n_vars, s) for s in supports)
    )
    index = {s: k for k, s in enumerate(supports)}
    return ideal, RoleAssignment(
        a=index[a], b=index[b], c=index[c],
        ab=index[ab], bc=index[bc], ca=index[ca],
        ab_sharp_c=index[sharps[0]],
        bc_sharp_a=index[sharps[1]],
        ca_sharp_b=index[sharps[2]],
    )


def search(n_vars, max_gens, budget, seconds=None, seeds=None, field=QQ, stats=None):
    """Yield surviving candidates of the pattern search.

    ``budget`` limits the candidate count and ``seconds``, if given, the
    wall time.  ``seeds`` are (ideal, assignment) pairs checked before the
    enumeration; by default the polarized built-in pattern is seeded when it
    fits the requested size.  The stream is deterministic; stats (if given)
    record how the budget was spent.
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
        cand = build()
        if cand is None:
            continue  # a role would be swallowed by divisibility; not this pattern
        ideal, assignment = cand
        stats.candidates += 1
        hit = _evaluate_candidate(serial, ideal, assignment, field)
        serial += 1
        if hit is not None:
            stats.pattern_hits += 1
            if hit.is_counterexample:
                stats.survivors += 1
            yield hit
