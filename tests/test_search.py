import gc
import hashlib
import tracemalloc
import weakref
from itertools import combinations, islice

import pytest

from conftest import pattern_failures
from golod_lab import counterexample_search
from golod_lab.counterexample_search import (
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


def _reference_candidates(n_vars, max_gens):
    """Seeds, then each role pattern whose generators minimalize keeps whole,
    with the generators built as Monomials.  minimalize drops a generator
    exactly when another one divides it, so a list keeps every role exactly
    when each pair does; each pair of supports is asked once."""
    pol, assignment = seed_pattern()
    if pol.n_vars <= n_vars and pol.n_gens <= max_gens:
        yield pol, assignment
    variables = tuple(f"v{i}" for i in range(n_vars))
    mono = {}
    pair_kept = {}

    def monomial(s):
        if s not in mono:
            mono[s] = Monomial(tuple(1 if k in s else 0 for k in range(n_vars)))
        return mono[s]

    def kept(pair):
        if pair not in pair_kept:
            pair_kept[pair] = len(minimalize([monomial(s) for s in pair])) == 2
        return pair_kept[pair]

    for core, sharps in counterexample_search._candidate_patterns(n_vars, max_gens):
        a, b, c, ab, bc, ca = core
        supports = [a, ab, b, bc, c, ca]
        for s in sharps:
            if s not in supports:
                supports.append(s)
        if not all(map(kept, combinations(supports, 2))):
            yield None  # a role is swallowed; the budget is still checked here
            continue
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
        if cand is None:
            continue
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
    """Patterns are rejected on their supports before any generator is built;
    the hits, the SearchStats and every evaluated candidate must be those of
    the route that builds Monomials and asks minimalize.  The reference reuses
    the evaluation of each candidate only after checking its inputs agree."""
    evaluated = []
    real = counterexample_search._evaluate_candidate

    def recording(serial, ideal, assignment, field):
        hit = real(serial, ideal, assignment, field)
        evaluated.append((serial, ideal, assignment, hit))
        return hit

    built = []
    real_mono = counterexample_search._mono

    def counted_mono(n, sup):
        built.append(sup)
        return real_mono(n, sup)

    monkeypatch.setattr(counterexample_search, "_evaluate_candidate", recording)
    monkeypatch.setattr(counterexample_search, "_mono", counted_mono)
    stats = SearchStats()
    stream = [(h.serial, format_ideal(h.ideal), h.assignment)
              for h in search(n_vars, max_gens, budget=budget, stats=stats)]
    assert stats.candidates == len(evaluated) and stats.budget_exhausted
    # reject before build: only the candidates' own generators are built
    assert len(built) <= max_gens * stats.candidates

    def replay(serial, ideal, assignment):
        want_serial, want_ideal, want_assignment, hit = evaluated[serial]
        assert (serial, ideal, assignment) == (want_serial, want_ideal, want_assignment)
        return hit

    assert (stream, stats) == _reference_search(n_vars, max_gens, budget, replay)
    assert stream


def _canonical_pattern(pattern):
    core, sharps = pattern
    return tuple(tuple(sorted(s)) for s in core), tuple(tuple(sorted(s)) for s in sharps)


def test_candidate_patterns_stream_is_pinned():
    """The pattern stream is lazy, but its order is the one it always had:
    the count for (6, 9) and a digest of the first 2,000 patterns for (9, 9)
    were taken from the list-building enumeration."""
    assert sum(1 for _ in counterexample_search._candidate_patterns(6, 9)) == 9944
    head = [_canonical_pattern(p)
            for p in islice(counterexample_search._candidate_patterns(9, 9), 2000)]
    assert len(head) == 2000
    assert hashlib.sha256(repr(head).encode()).hexdigest() == (
        "2c8b55e8ec062137670b6ff6dfa56ba3101672824ad8c143c15c9f1f60be75c3")


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
