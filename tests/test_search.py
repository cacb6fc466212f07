import gc
import hashlib
import random
import time
import tracemalloc
import weakref
from itertools import combinations, islice

import pytest

from conftest import pattern_failures
from golod_lab import counterexample_search, homology_engine
from golod_lab.counterexample_search import (
    PatternReport,
    RoleAssignment,
    SearchStats,
    pattern_check,
    search,
    seed_pattern,
)
from golod_lab.exact_linalg import QQ
from golod_lab.massey_golod import ternary_massey_generators
from golod_lab.monomial_core import (
    Monomial,
    MonomialIdeal,
    counterexample_ideal,
    format_ideal,
    minimalize,
    polarize,
)
from golod_lab.taylor_dga import mask_members


def test_pattern_check_polarized_example():
    ideal, assignment = seed_pattern()
    report = pattern_check(ideal, assignment)
    assert report.all_ok
    # the two corner-bridge generators coincide here
    assert assignment.bc_sharp_a == assignment.ca_sharp_b == 5


def test_pattern_check_rejects_non_squarefree():
    with pytest.raises(ValueError):
        pattern_check(counterexample_ideal(), seed_pattern()[1])


def test_pattern_check_disjointness_failure():
    ideal, good = seed_pattern()
    bad = RoleAssignment(
        a=good.a, b=good.ab, c=good.c, ab=good.b, bc=good.bc, ca=good.ca,
        ab_sharp_c=good.ab_sharp_c, bc_sharp_a=good.bc_sharp_a,
        ca_sharp_b=good.ca_sharp_b,
    )
    report = pattern_check(ideal, bad)
    assert not report.disjoint_abc
    assert not report.all_ok
    assert "disjoint_abc" in pattern_failures(report)


def test_pattern_check_fails_without_bc_generator():
    # deleting the b-c bridge breaks the covering condition for b no matter
    # which remaining generator is recruited into the role
    pol, _ = polarize(counterexample_ideal())
    gens = [g for k, g in enumerate(pol.gens) if k != 4]
    ideal = MonomialIdeal(pol.variables, tuple(gens))
    # old indices 5, 6, 7 shift down by one
    for bc_role in range(len(gens)):
        if bc_role in (0, 2, 5):  # a, b, c keep their roles
            continue
        assignment = RoleAssignment(
            a=0, b=2, c=5, ab=1, bc=bc_role, ca=6,
            ab_sharp_c=3, bc_sharp_a=4, ca_sharp_b=4,
        )
        report = pattern_check(ideal, assignment)
        assert not (report.b_covered and report.bc_bridges)


def test_pattern_check_reads_the_named_sharps():
    """Each sharp condition is about the generator named for it: outside the
    core, and dividing lcm(bridge, corner).  On the seed only generators 2
    and 5 lie outside the core, so swapping them breaks all three, and so
    does naming a core generator (a, which divides lcm(bc, a))."""
    ideal, good = seed_pattern()
    sharps = ["ab_sharp_c_exists", "bc_sharp_a_exists", "ca_sharp_b_exists"]
    swapped = RoleAssignment(**{**vars(good), "ab_sharp_c": 5, "bc_sharp_a": 2, "ca_sharp_b": 2})
    in_core = RoleAssignment(**{**vars(good), "ab_sharp_c": good.a, "bc_sharp_a": good.a,
                                "ca_sharp_b": good.a})
    for bad in (swapped, in_core):
        assert pattern_failures(pattern_check(ideal, bad)) == sharps, bad


def test_pattern_check_rejects_a_role_outside_the_generators():
    """Every role must name a generator: an index past the last one raises,
    and so does a negative one, which would read a generator from the end."""
    ideal, good = seed_pattern()
    for role in vars(good):
        for index in (-1, ideal.n_gens):
            with pytest.raises(ValueError,
                               match=f"^role {role}={index}: generator index out of range 0..7$"):
                pattern_check(ideal, RoleAssignment(**{**vars(good), role: index}))


def _pattern_check_by_supports(ideal, r):
    """The nine conditions as defined, on generator supports as frozensets."""
    sup = [g.support for g in ideal.gens]
    a, b, c, ab, bc, ca = (sup[k] for k in r.core())
    core = set(r.core())

    def bridges(ij, i, j):
        return ij <= i | j and bool(ij & i) and bool(ij & j)

    def sharp(k, i, j):
        return k not in core and sup[k] <= sup[i] | sup[j]

    return PatternReport(
        disjoint_abc=not (a & b or b & c or a & c),
        ab_bridges=bridges(ab, a, b),
        bc_bridges=bridges(bc, b, c),
        ca_bridges=bridges(ca, c, a),
        b_covered=b <= ab | bc,
        a_or_c_covered=a <= ab | ca or c <= bc | ca,
        ab_sharp_c_exists=sharp(r.ab_sharp_c, r.ab, r.c),
        bc_sharp_a_exists=sharp(r.bc_sharp_a, r.bc, r.a),
        ca_sharp_b_exists=sharp(r.ca_sharp_b, r.ca, r.b),
    )


def test_pattern_check_on_codes_matches_the_support_definition():
    """pattern_check reads the generators' unary codes, which on a squarefree
    ideal are the supports with unused variables squeezed out.  On seeded
    random squarefree ideals with at least one variable no generator uses,
    and random role indices (bc#a = ca#b half of the time), it gives the
    report of the support-set definition, each condition both true and false."""
    rng = random.Random(20261020)
    seen = set()
    for _ in range(1500):
        n = rng.randint(3, 9)
        unused, density = rng.randrange(n), rng.choice((0.2, 0.35, 0.5))
        pool = [Monomial(tuple(int(k != unused and rng.random() < density) for k in range(n)))
                for _ in range(rng.randint(3, 10))]
        gens = minimalize([g for g in pool if not g.is_constant])
        if not gens:
            continue
        ideal = MonomialIdeal(tuple(f"x{k}" for k in range(n)), tuple(gens))
        assignment = RoleAssignment(*(rng.randrange(ideal.n_gens) for _ in range(9)))
        if rng.random() < 0.5:
            assignment = RoleAssignment(**{**vars(assignment),
                                           "ca_sharp_b": assignment.bc_sharp_a})
        report = pattern_check(ideal, assignment)
        assert report == _pattern_check_by_supports(ideal, assignment), (ideal, assignment)
        seen.update(vars(report).items())
    assert seen == {(name, v) for name in vars(report) for v in (True, False)}


def _decode(pattern):
    """A pattern of the generator with each support mask as the frozenset of
    its variables."""
    core, sharps = pattern
    return ([frozenset(mask_members(s)) for s in core],
            tuple(frozenset(mask_members(s)) for s in sharps))


def _supports(core, sharps):
    """The pattern's supports as its ideal lists them, a shared sharp once."""
    a, b, c, ab, bc, ca = core
    return list(dict.fromkeys([a, ab, b, bc, c, ca, *sharps]))


def _nest(s, t):
    return s < t or t < s


@pytest.mark.parametrize("n_vars, max_gens, count", [(7, 9, 3000), (8, 8, 3000), (6, 9, None)])
def test_generated_candidates_meet_the_role_pattern(n_vars, max_gens, count):
    """The search does not re-check the role pattern: every candidate built
    from the generator's patterns meets all nine conditions by construction
    (``_candidate_patterns`` names what enforces each), and so does the seed.
    No two supports of a pattern nest, so every pattern is built."""
    assert pattern_check(*seed_pattern()).all_ok
    built = 0
    for pattern in islice(counterexample_search._candidate_patterns(n_vars, max_gens), count):
        assert not any(_nest(s, t) for s, t in combinations(_supports(*_decode(pattern)), 2))
        cand = counterexample_search._pattern_ideal(n_vars, *pattern)
        assert pattern_failures(pattern_check(*cand)) == [], _decode(pattern)
        built += 1
    assert built


def test_minimality_report():
    # the lower bounds for a trivial-product non-Golod quotient: 5 variables
    # and 8 generators, met with equality by the example, not by its polarization
    ideal = counterexample_ideal()
    assert (ideal.n_vars, ideal.n_gens) == (5, 8)
    pol, _ = polarize(ideal)
    assert (pol.n_vars, pol.n_gens) == (9, 8)


def test_search_seeded_rediscovery():
    stats = SearchStats()
    hits = list(search(9, 8, budget=1, stats=stats))
    assert len(hits) == 1
    hit = hits[0]
    assert hit.is_counterexample
    assert hit.all_products_trivial
    roles = hit.assignment
    res = ternary_massey_generators(hit.ideal, QQ, roles.a, roles.b, roles.c)
    assert res.defined and res.value_is_zero is False
    assert hit.ideal.n_gens == 8 and hit.ideal.n_vars == 9
    # factors of a nonzero ternary value sit at least two above the linear strand
    for role in (hit.assignment.a, hit.assignment.b, hit.assignment.c):
        assert hit.ideal.gens[role].degree >= 1 + 2


def test_search_too_few_variables_is_empty():
    stats = SearchStats()
    hits = list(search(4, 8, budget=5000, stats=stats))
    assert hits == []
    assert not stats.budget_exhausted  # the whole candidate space was exhausted


def test_search_too_few_generators_is_empty():
    stats = SearchStats()
    hits = list(search(9, 7, budget=2000, stats=stats))
    assert hits == []


def test_search_enumeration_yields_only_valid_hits():
    stats = SearchStats()
    for hit in search(7, 9, budget=150, seeds=[], stats=stats):
        # structural lower bounds hold for every true survivor
        if hit.is_counterexample:
            assert hit.ideal.n_vars >= 5
            assert hit.ideal.n_gens >= 8
    assert stats.candidates <= 150


def test_search_budget_flag():
    stats = SearchStats()
    list(search(9, 9, budget=3, seeds=[], stats=stats))
    assert stats.budget_exhausted


def test_search_zero_seconds_yields_nothing():
    # the time limit is tested before the seed, so not even the seed is checked
    stats = SearchStats()
    assert list(search(9, 8, budget=1000, seconds=0, stats=stats)) == []
    assert stats.budget_exhausted and stats.candidates == 0


def test_search_keeps_no_candidate_alive(monkeypatch):
    # what is derived from a candidate lives on its ideal, so it goes with it
    refs = []
    real = counterexample_search._evaluate_candidate

    def recording(serial, ideal, assignment, field):
        refs.append(weakref.ref(ideal))
        return real(serial, ideal, assignment, field)

    monkeypatch.setattr(counterexample_search, "_evaluate_candidate", recording)
    hits = list(search(7, 9, budget=150, seeds=[]))
    assert hits and len(refs) == 150
    del hits
    gc.collect()
    assert sum(r() is not None for r in refs) == 0


def test_search_builds_one_strand_per_asked_multidegree(monkeypatch):
    """The combinatorial fillers are written down, so the 150-candidate
    search builds strands only for its homological questions: 442 of them,
    720 while each filler read its sign off a strand of its own."""
    built = []
    real_init = homology_engine.StrandHomology.__init__

    def counted_init(self, *args):
        built.append(args[1])
        real_init(self, *args)

    monkeypatch.setattr(homology_engine.StrandHomology, "__init__", counted_init)
    assert len(list(search(7, 9, budget=150, seeds=[]))) == 16
    assert len(built) <= 442


def _reference_candidates(n_vars, max_gens):
    """Seeds, then each role pattern, decoded to sets, with its generators
    built as Monomials and passed through minimalize, which must keep every
    role: it drops a generator exactly when another one divides it."""
    pol, assignment = seed_pattern()
    if pol.n_vars <= n_vars and pol.n_gens <= max_gens:
        yield pol, assignment
    variables = tuple(f"v{i}" for i in range(n_vars))
    mono = {}

    def monomial(s):
        if s not in mono:
            mono[s] = Monomial(tuple(1 if k in s else 0 for k in range(n_vars)))
        return mono[s]

    for pattern in counterexample_search._candidate_patterns(n_vars, max_gens):
        core, sharps = _decode(pattern)
        a, b, c, ab, bc, ca = core
        supports = _supports(core, sharps)
        gens = minimalize([monomial(s) for s in supports])
        assert len(gens) == len(supports)
        index = {g.support: k for k, g in enumerate(gens)}
        yield MonomialIdeal(variables, tuple(gens)), RoleAssignment(
            a=index[a], b=index[b], c=index[c],
            ab=index[ab], bc=index[bc], ca=index[ca],
            ab_sharp_c=index[sharps[0]],
            bc_sharp_a=index[sharps[1]],
            ca_sharp_b=index[sharps[2]],
        )


def _reference_search(n_vars, max_gens, budget, evaluate):
    """(serial, format_ideal, assignment) of each hit, and the SearchStats."""
    stats = SearchStats()
    stream = []
    serial = 0
    for cand in _reference_candidates(n_vars, max_gens):
        if serial >= budget:
            stats.budget_exhausted = True
            break
        ideal, assignment = cand
        stats.candidates += 1
        hit = evaluate(serial, ideal, assignment)
        serial += 1
        if hit is not None:
            stats.pattern_hits += 1
            stats.survivors += hit.is_counterexample
            stream.append((hit.serial, format_ideal(hit.ideal), hit.assignment))
    return stream, stats


@pytest.mark.parametrize("n_vars, max_gens, budget", [(7, 9, 150), (9, 9, 3)])
def test_search_stream_matches_minimalize_reference(monkeypatch, n_vars, max_gens, budget):
    """No pattern is rejected after it is drawn, and a candidate is built only
    after its budget test; the hits, the SearchStats and every evaluated
    candidate must be those of the route that builds Monomials and asks
    minimalize.  The reference reuses the evaluation of each candidate only
    after checking its inputs agree."""
    evaluated = []
    real = counterexample_search._evaluate_candidate

    def recording(serial, ideal, assignment, field):
        hit = real(serial, ideal, assignment, field)
        evaluated.append((serial, ideal, assignment, hit))
        return hit

    built = []
    real_build = counterexample_search._pattern_ideal

    def counted_build(*args):
        built.append(args)
        return real_build(*args)

    monkeypatch.setattr(counterexample_search, "_evaluate_candidate", recording)
    monkeypatch.setattr(counterexample_search, "_pattern_ideal", counted_build)
    stats = SearchStats()
    stream = [(h.serial, format_ideal(h.ideal), h.assignment)
              for h in search(n_vars, max_gens, budget=budget, stats=stats)]
    assert stats.candidates == len(evaluated) and stats.budget_exhausted
    # reject before build: a pattern is built only as a candidate, after the seed if it fits
    pol = seed_pattern()[0]
    seeded = pol.n_vars <= n_vars and pol.n_gens <= max_gens
    assert len(built) == stats.candidates - seeded

    def replay(serial, ideal, assignment):
        want_serial, want_ideal, want_assignment, hit = evaluated[serial]
        assert (serial, ideal, assignment) == (want_serial, want_ideal, want_assignment)
        return hit

    assert (stream, stats) == _reference_search(n_vars, max_gens, budget, replay)
    assert stream


def _canonical_pattern(pattern):
    core, sharps = pattern
    return tuple(tuple(sorted(s)) for s in core), tuple(tuple(sorted(s)) for s in sharps)


def _between(side1, side2):
    """Subsets of side1 | side2 meeting both sides, largest first, the union
    itself left out."""
    u = sorted(side1 | side2)
    for size in range(len(u) - 1, 1, -1):
        for comb in combinations(u, size):
            cs = frozenset(comb)
            if cs & side1 and cs & side2:
                yield cs


def _reference_patterns(n_vars, max_gens):
    """The role-pattern stream as it was enumerated before nesting was
    pruned, with the patterns whose supports nest dropped after the fact.

    Each role is drawn from its own union with no regard to the others, the
    blocks' containment rejected per bridge, and each sharp drawn from
    bridge | corner outside the core; the generator count is tested after
    all three sharps are drawn, which is what makes bc#a = ca#b at 8
    generators.  A pattern is dropped exactly when two of its supports nest
    (a shared sharp is one support), so each pair is tested as soon as its
    later role is drawn: that drops the same patterns as testing the
    assembled list, without walking the millions of patterns that extend a
    nested pair (5.8 M before the 3,000th kept one on 12 variables)."""
    if max_gens < 8:
        return
    sizes = ((na, nb, nc) for na in range(n_vars - 4, 1, -1)
             for nb in range(n_vars - na - 2, 1, -1)
             for nc in range(n_vars - na - nb, 1, -1))
    for na, nb, nc in sizes:
        a = frozenset(range(na))
        b = frozenset(range(na, na + nb))
        c = frozenset(range(na + nb, na + nb + nc))
        for ab in _between(a, b):
            if a <= ab or b <= ab:
                continue
            for bc in _between(b, c):
                if b <= bc or c <= bc or not b <= (ab | bc):
                    continue
                for ca in _between(c, a):
                    if c <= ca or a <= ca:
                        continue
                    if not (a <= (ab | ca) or c <= (bc | ca)):
                        continue
                    core = [a, b, c, ab, bc, ca]
                    if len(set(core)) != 6 or any(_nest(s, t) for s, t in combinations(core, 2)):
                        continue
                    for sharps in _reference_sharps(core, max_gens):
                        yield core, sharps


def _reference_sharps(core, max_gens):
    """The three sharps, each from bridge | corner outside the core; two may
    coincide, and the generator count is tested last."""
    a, b, c, ab, bc, ca = core

    def options(bridge, corner, drawn):
        for cs in _between(bridge, corner):
            if cs not in core and not any(_nest(cs, t) for t in drawn):
                yield cs

    ca_options = list(options(ca, b, core))
    for s_ab in options(ab, c, core):
        for s_bc in options(bc, a, [*core, s_ab]):
            if s_bc == s_ab:
                continue
            for s_ca in ca_options:
                if s_ca == s_ab or _nest(s_ca, s_ab) or _nest(s_ca, s_bc):
                    continue
                if len(set(core) | {s_ab, s_bc, s_ca}) > max_gens:
                    continue
                yield s_ab, s_bc, s_ca


@pytest.mark.parametrize("n_vars, max_gens, count", [
    (6, 9, None), (7, 8, None),
    (8, 8, 3000), (9, 9, 3000), (10, 8, 3000), (12, 9, 3000),
])
def test_candidate_patterns_are_the_unpruned_stream_without_nesting(n_vars, max_gens, count):
    """One subset rule draws every role, so the generator yields exactly the
    patterns the unpruned enumeration kept, in its order."""
    want = list(islice(_reference_patterns(n_vars, max_gens), count))
    got = [_decode(p) for p in islice(counterexample_search._candidate_patterns(n_vars, max_gens), count)]
    assert got == want
    assert len(want) == (count or len(want)) > 0


def test_candidate_patterns_stream_is_pinned():
    """The pattern stream is lazy, but its order is the one it always had,
    with the patterns whose supports nest dropped: the count for (6, 9) and a
    digest of the first 2,000 patterns for (9, 9) were taken from the
    list-building enumeration with that rule applied (9,944 patterns for
    (6, 9) before nested ones were dropped)."""
    assert sum(1 for _ in counterexample_search._candidate_patterns(6, 9)) == 920
    head = [_canonical_pattern(_decode(p))
            for p in islice(counterexample_search._candidate_patterns(9, 9), 2000)]
    assert len(head) == 2000
    assert hashlib.sha256(repr(head).encode()).hexdigest() == (
        "902519ef97eaef9f310d0bf736f56bea54a904c09ba381338a9540e285ba7e65")


def test_first_pattern_of_many_variables_is_cheap():
    """Subsets are generated one at a time and a one-variable c block (which
    yields no pattern) is skipped, so the first pattern on 16 variables costs
    no list of 2^14 subsets."""
    tracemalloc.start()
    try:
        next(counterexample_search._candidate_patterns(16, 9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_first_thousand_patterns_of_600_variables_are_quick():
    """A subset is examined with a few int operations on its dropped
    variables, so the first 1,000 patterns on 600 variables, which examine
    about 130,000 subsets, take well under half a second."""
    start = time.perf_counter()
    assert sum(1 for _ in islice(counterexample_search._candidate_patterns(600, 9), 1000)) == 1000
    assert time.perf_counter() - start < 0.5


def test_search_keeps_its_time_budget_on_many_variables():
    """The block sizes are yielded one at a time, so the budget test comes
    before any O(n_vars^3) list of them: on 200 variables a half-second
    search stops near half a second, with a small allocation peak."""
    stats = SearchStats()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        hits = list(search(200, 9, budget=5, seconds=0.5, seeds=[], stats=stats))
        wall = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.budget_exhausted and len(hits) <= 5
    assert peak < 8 << 20
    assert wall < 1.5
