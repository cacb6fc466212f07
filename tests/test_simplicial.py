import random
from itertools import combinations

import pytest

from conftest import (
    apply_columns,
    cochain_vector,
    complex_dim,
    is_2_neighborly,
    is_coboundary,
    reduced_cochain_complex,
    reduced_cohomology_dims,
    restriction,
)
from golod_lab.exact_linalg import GF2, GF3, QQ
from golod_lab.homology_engine import betti, strand
from golod_lab.massey_golod import all_products_trivial, golod_decide
from golod_lab.monomial_core import MonomialIdeal, counterexample_ideal, polarize
from golod_lab.simplicial import (
    SimplicialComplex,
    complex_of,
    format_complex,
    parse_complex,
    skeleton,
    stanley_reisner_ideal,
)
from golod_lab.series_engine import p_series, q_series
from golod_lab.taylor_dga import fiber_complex, generators_below, lcm_lattice

TRIANGLE = SimplicialComplex.from_facets("abc", ["ab", "bc", "ac"])


def test_facets_are_maximalized():
    cx = SimplicialComplex.from_facets("abc", ["ab", "a", "b", "ab"])
    assert cx.facets == (frozenset("ab"),)


def test_dim_and_ghosts():
    cx = SimplicialComplex.from_facets("abc", ["ab", ""])
    assert complex_dim(cx) == 1
    assert cx.ghost_vertices == ("c",)
    assert complex_dim(SimplicialComplex.from_facets("a", [""])) == -1
    assert SimplicialComplex("a", ()).is_void


def test_sr_triangle_boundary():
    ideal = stanley_reisner_ideal(TRIANGLE)
    assert [ideal.format_monomial(g) for g in ideal.gens] == ["a*b*c"]


def test_sr_two_isolated_vertices():
    cx = SimplicialComplex.from_facets("vw", ["v", "w"])
    ideal = stanley_reisner_ideal(cx)
    assert [ideal.format_monomial(g) for g in ideal.gens] == ["v*w"]


def test_sr_ghost_vertex_becomes_variable_generator():
    cx = SimplicialComplex.from_facets("ab", ["a"])
    ideal = stanley_reisner_ideal(cx)
    assert [ideal.format_monomial(g) for g in ideal.gens] == ["b"]


def test_complex_of_triangle():
    ideal = MonomialIdeal.from_strings(("x1", "x2", "x3"), ["x1*x2*x3"])
    cx = complex_of(ideal)
    assert set(cx.facets) == {
        frozenset({"x1", "x2"}),
        frozenset({"x2", "x3"}),
        frozenset({"x1", "x3"}),
    }


def test_complex_of_rejects_non_squarefree():
    with pytest.raises(ValueError):
        complex_of(MonomialIdeal.from_strings(("x", "y"), ["x^2"]))


def test_sr_complex_roundtrip_without_ghosts():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(2, 5)
        verts = [f"v{i}" for i in range(n)]
        facets = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, n)
            facets.append(rng.sample(verts, size))
        # make sure every vertex occurs (no ghosts: the correspondence is exact)
        for v in verts:
            if not any(v in f for f in facets):
                facets.append([v])
        cx = SimplicialComplex.from_facets(verts, facets)
        back = complex_of(stanley_reisner_ideal(cx))
        assert set(back.facets) == set(cx.facets)


def test_polarized_example_complex_dimension():
    pol, _ = polarize(counterexample_ideal())
    cx = complex_of(pol)
    assert complex_dim(cx) == 5
    sk = skeleton(cx, 4)
    assert complex_dim(sk) == 4
    assert sk.vertices == cx.vertices


def test_restriction_and_composition():
    cx = SimplicialComplex.from_facets("abcd", ["abc", "cd"])
    r = restriction(cx, "abd")
    assert set(r.facets) == {frozenset("ab"), frozenset("d")}
    rng = random.Random(8)
    for _ in range(10):
        u = set(rng.sample("abcd", rng.randint(1, 4)))
        w = set(rng.sample("abcd", rng.randint(1, 4)))
        a = restriction(restriction(cx, u), u & w)
        b = restriction(cx, u & w)
        assert a == b
    with pytest.raises(ValueError):
        restriction(cx, {"z"})


def test_skeleton_and_neighborly():
    simplex5 = SimplicialComplex.from_facets("abcdef", ["abcdef"])
    one_skel = skeleton(simplex5, 1)
    assert complex_dim(one_skel) == 1
    assert is_2_neighborly(one_skel)
    two_points = SimplicialComplex.from_facets("vw", ["v", "w"])
    assert not is_2_neighborly(two_points)
    ghosty = SimplicialComplex.from_facets("ab", ["a"])
    assert not is_2_neighborly(ghosty)


def test_circle_cohomology():
    dims = reduced_cohomology_dims(TRIANGLE, QQ)
    assert dims == {-1: 0, 0: 0, 1: 1}


def test_cone_acyclic():
    cone = SimplicialComplex.from_facets("abc", ["abc"])
    dims = reduced_cohomology_dims(cone, QQ)
    assert all(v == 0 for v in dims.values())


def test_empty_face_complex_cohomology():
    cx = SimplicialComplex.from_facets("a", [""])
    assert reduced_cohomology_dims(cx, QQ) == {-1: 1}


def test_coboundary_of_cochain_is_coboundary():
    rng = random.Random(9)
    cc = reduced_cochain_complex(TRIANGLE)
    for i in (-1, 0):
        faces = cc.faces(i)
        vec = {f: rng.randint(-2, 2) for f in faces}
        image = apply_columns(QQ, cc.delta(i), cochain_vector(QQ, cc, i, vec), cc.n_faces(i + 1))
        cochain = {f: c for f, c in zip(cc.faces(i + 1), image)}
        assert is_coboundary(TRIANGLE, QQ, cochain, dim=i + 1)


def test_circle_top_class_not_coboundary():
    cochain = {frozenset("ab"): 1}
    assert not is_coboundary(TRIANGLE, QQ, cochain)


def test_zero_cochain_is_coboundary():
    assert is_coboundary(TRIANGLE, QQ, {})


def _random_complex(rng, max_verts=6):
    n = rng.randint(1, max_verts)
    verts = [f"v{i}" for i in range(n)]
    facets = [frozenset()]
    for _ in range(rng.randint(0, 5)):
        facets.append(frozenset(rng.sample(verts, rng.randint(1, n))))
    return SimplicialComplex.from_facets(verts, facets)


def test_delta_squared_zero_random():
    rng = random.Random(11)
    for _ in range(20):
        cx = _random_complex(rng)
        cc = reduced_cochain_complex(cx)
        for i in range(-1, (complex_dim(cx) or 0)):
            a = cc.delta(i)
            b = cc.delta(i + 1)
            if not a or not cc.n_faces(i + 2):
                continue
            for col in a:
                dense = [QQ.of(col.get(r, 0)) for r in range(cc.n_faces(i + 1))]
                v = apply_columns(QQ, b, dense, cc.n_faces(i + 2))
                assert all(x == 0 for x in v)


def test_cohomology_field_independence_small():
    rng = random.Random(12)
    for _ in range(15):
        cx = _random_complex(rng, max_verts=5)
        dq = reduced_cohomology_dims(cx, QQ)
        d2 = reduced_cohomology_dims(cx, GF2)
        d3 = reduced_cohomology_dims(cx, GF3)
        assert dq == d2 == d3


RP2 = SimplicialComplex.from_facets(
    "123456", "124 126 135 136 145 234 235 256 346 456".split())


def test_rp2_answers_depend_on_the_field():
    """The 6-vertex real projective plane has torsion in H_1, so its SR ideal
    (10 cubic generators) has Betti totals (1, 10, 15, 6) over Q and F_3 but
    (1, 10, 15, 7, 1) over F_2.  Over each field every strand is dual to
    its fiber complex's reduced cohomology, the ring is Golod with P = Q to
    order 6, and the complex is 2-neighborly, as the paper's theorem asks of
    a Golod manifold orientable over the field: RP^2 is orientable over F_2."""
    ideal = stanley_reisner_ideal(RP2)
    assert ideal.n_gens == 10 and {sum(g.exps) for g in ideal.gens} == {3}
    assert is_2_neighborly(RP2)
    odd = (1, 10, 15, 6), (1, 6, 25, 95, 361, 1367, 5186)
    want = {QQ: odd, GF3: odd, GF2: ((1, 10, 15, 7, 1), (1, 6, 25, 95, 362, 1374, 5227))}
    for field, (totals, series) in want.items():
        assert betti(ideal, field).totals == totals
        for u in lcm_lattice(ideal):
            n = len(generators_below(ideal, u))
            dims = reduced_cohomology_dims(fiber_complex(ideal, u), field)
            sh = strand(ideal, field, u)
            assert [sh.dimension(i) for i in range(1, n + 1)] == [
                dims.get(n - i - 1, 0) for i in range(1, n + 1)]
        verdict = golod_decide(ideal, field)
        assert (verdict.status, verdict.route) == ("Golod", "massey-arity-2")
        assert p_series(ideal, field, 6)[0].coeffs == q_series(ideal, field, 6).coeffs == series


def test_trivial_products_inherited_by_restrictions():
    # algebra-retract behaviour, spot-checked exhaustively on small complexes
    rng = random.Random(13)
    checked = 0
    while checked < 4:
        cx = _random_complex(rng, max_verts=5)
        if complex_dim(cx) is None or len(cx.vertices) < 2 or cx.ghost_vertices:
            continue
        ideal = stanley_reisner_ideal(cx)
        if not ideal.gens:
            continue
        ok, _ = all_products_trivial(ideal, QQ)
        if not ok:
            continue
        checked += 1
        for size in range(1, len(cx.vertices)):
            for u in combinations(cx.vertices, size):
                sub = restriction(cx, u)
                sub_ideal = stanley_reisner_ideal(sub)
                if not sub_ideal.gens:
                    continue
                sub_ok, _ = all_products_trivial(sub_ideal, QQ)
                assert sub_ok


def test_complex_text_roundtrip():
    cx = SimplicialComplex.from_facets("abcd", ["abc", "d"])
    assert parse_complex(format_complex(cx)) == cx
    ghosty = SimplicialComplex.from_facets("ab", ["a"])
    back = parse_complex(format_complex(ghosty))
    assert back == ghosty
    assert back.ghost_vertices == ("b",)


def test_parse_complex_empty_faces_only():
    cx = parse_complex("vertices: a b\n")
    assert cx.facets == (frozenset(),)
    assert cx.ghost_vertices == ("a", "b")
