"""The value records: construction, defaults, equality and hashing, frozenness
and repr, for each of the 17 record classes of the package."""

import pytest

from golod_lab.counterexample_search import PatternReport, RoleAssignment, SearchHit, SearchStats
from golod_lab.exact_linalg import QQ, Field
from golod_lab.homology_engine import BettiData, HomologyClass, StrandHomology
from golod_lab.massey_golod import (
    GolodVerdict,
    MasseyResult,
    ProductWitness,
    ternary_massey_generators,
)
from golod_lab.monomial_core import Monomial, MonomialIdeal, PolarizationMap, counterexample_ideal
from golod_lab.series_engine import ResolutionReport, SeriesTrunc, StepReport
from golod_lab.simplicial import SimplicialComplex

X2, XY, Y2 = Monomial((2, 0)), Monomial((1, 1)), Monomial((0, 2))
ROLES = ("a", "b", "c", "ab", "bc", "ab_sharp_c", "bc_sharp_a", "ca", "ca_sharp_b")
CONDITIONS = ("disjoint_abc", "ab_bridges", "bc_bridges", "ca_bridges", "b_covered",
              "a_or_c_covered", "ab_sharp_c_exists", "bc_sharp_a_exists", "ca_sharp_b_exists")

# class, field names in constructor order, one value per field, and per field
# another value it may take (None: none on its own, as the order of a series
# is fixed by its coefficients)
RECORDS = [
    (Field, ("char",), (3,), (5,)),
    (Monomial, ("exps",), ((1, 0, 2),), ((0, 1, 1),)),
    (MonomialIdeal, ("variables", "gens"), (("x", "y"), (X2, XY)), (("u", "v"), (XY, Y2))),
    (PolarizationMap, ("new_to_old",), ((0, 0, 1),), ((0, 1, 1),)),
    (HomologyClass,
     ("ideal", "field", "multidegree", "hom_degree", "representative", "coordinates"),
     ("I", "F", (1, 1), 1, ((3, 1),), (1,)), ("J", "G", (1, 2), 2, ((3, -1),), (2,))),
    (BettiData, ("field", "multigraded"), ("F", (((0, (0, 0)), 1),)),
     ("G", (((1, (1, 0)), 1),))),
    (ProductWitness, ("alpha", "beta", "product_chain"), ("p", "q", ((7, 1),)), ("r", "s", ())),
    (MasseyResult, ("defined", "unique", "value_chain", "value_is_zero", "multidegree",
                    "hom_degree", "system", "obstruction"),
     (True, True, ((7, 1),), False, (1, 1), 2, ((), ()), None),
     (False, False, None, None, None, None, None, "why")),
    (GolodVerdict, ("status", "route", "reason", "witness"), ("Golod", "r", "why", None),
     ("NotGolod", "s", "because", "w")),
    (SeriesTrunc, ("coeffs", "order"), ((1, 2), 1), ((1, 3), None)),
    (StepReport, ("step", "generators", "degrees"), (2, 3, ((2, 3),)), (3, 4, ((3, 4),))),
    (ResolutionReport, ("steps",), ((StepReport(1, 2, ((1, 2),)),),), ((),)),
    (SimplicialComplex, ("vertices", "facets"), ((0, 1, 2), (frozenset({0, 1}), frozenset({2}))),
     ((0, 1, 2, 3), (frozenset({1, 2}),))),
    (RoleAssignment, ROLES, tuple(range(9)), tuple(range(10, 19))),
    (PatternReport, CONDITIONS, (True,) * 9, (False,) * 9),
    (SearchStats, ("candidates", "pattern_hits", "survivors", "budget_exhausted"),
     (4, 3, 2, True), (5, 4, 3, False)),
    (SearchHit, ("serial", "ideal", "assignment", "all_products_trivial"), (1, "I", "A", True),
     (2, "J", "B", False)),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
assert len(set(IDS)) == 17


def _values(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, names, values, _", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, names, values, _):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert _values(by_position, names) == _values(by_keyword, names) == values
    assert by_position == by_keyword


def test_defaults():
    assert Field() == Field(0) == QQ
    m = MasseyResult(True, True, ((7, 1),), False, (1, 1), 2, ((), ()))
    assert m.obstruction is None and m.ring is None
    assert GolodVerdict("Golod", "r", "why").witness is None
    assert _values(SearchStats(), RECORDS[15][1]) == (0, 0, 0, False)
    with pytest.raises(TypeError):
        MonomialIdeal(("x",))


@pytest.mark.parametrize("cls, names, values, others", RECORDS, ids=IDS)
def test_equality_and_hashing_read_exactly_the_fields(cls, names, values, others):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    assert record != object() and record != values and record.__eq__(values) is NotImplemented
    for k, other in enumerate(others):
        if other is not None:
            changed = cls(*values[:k], other, *values[k + 1:])
            assert record != changed, names[k]
    if cls is SearchStats:  # mutable, so unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == hash(values)


def test_ignored_fields_stay_out_of_equality_hashing_and_repr():
    ideal, twin = (MonomialIdeal(("x", "y"), (X2, XY)) for _ in range(2))
    ideal.derived["probe"] = 1
    assert ideal.box == (2, 1) and ideal.codes == twin.codes
    assert ideal == twin and hash(ideal) == hash(twin) and "probe" not in twin.derived
    values = (True, True, ((7, 1),), False, (1, 1), 2, ((), ()), None)
    read = MasseyResult(*values, ring=(ideal, QQ))
    assert read.ring == (ideal, QQ)
    assert read == MasseyResult(*values) and hash(read) == hash(values)
    assert "ring" not in repr(read)


@pytest.mark.parametrize("cls, names, values, others", RECORDS, ids=IDS)
def test_assigning_a_field_raises_except_on_search_stats(cls, names, values, others):
    record = cls(*values)
    for name, other in zip(names, others):
        if cls is SearchStats:
            setattr(record, name, other)
            assert getattr(record, name) == other
        else:
            with pytest.raises(AttributeError):
                setattr(record, name, other if other is not None else 2)
            assert getattr(record, name) == values[names.index(name)]
    if cls is not SearchStats:
        with pytest.raises(AttributeError):
            record.extra = 1


def test_reprs_are_pinned():
    pinned = {
        Field: "Field(char=3)",
        Monomial: "Monomial(exps=(1, 0, 2))",
        MonomialIdeal: "MonomialIdeal(variables=('x', 'y'), gens=(Monomial(exps=(2, 0)), "
                       "Monomial(exps=(1, 1))))",
        PolarizationMap: "PolarizationMap(new_to_old=(0, 0, 1))",
        HomologyClass: "HomologyClass(ideal='I', field='F', multidegree=(1, 1), hom_degree=1, "
                       "representative=((3, 1),), coordinates=(1,))",
        BettiData: "BettiData(field='F', multigraded=(((0, (0, 0)), 1),))",
        ProductWitness: "ProductWitness(alpha='p', beta='q', product_chain=((7, 1),))",
        MasseyResult: "MasseyResult(defined=True, unique=True, value_chain=((7, 1),), "
                      "value_is_zero=False, multidegree=(1, 1), hom_degree=2, system=((), ()), "
                      "obstruction=None)",
        GolodVerdict: "GolodVerdict(status='Golod', route='r', reason='why', witness=None)",
        SeriesTrunc: "SeriesTrunc(coeffs=(1, 2), order=1)",
        StepReport: "StepReport(step=2, generators=3, degrees=((2, 3),))",
        ResolutionReport: "ResolutionReport(steps=(StepReport(step=1, generators=2, "
                          "degrees=((1, 2),)),))",
        SimplicialComplex: "SimplicialComplex(vertices=(0, 1, 2), facets=(frozenset({0, 1}), "
                           "frozenset({2})))",
        RoleAssignment: "RoleAssignment(a=0, b=1, c=2, ab=3, bc=4, ab_sharp_c=5, bc_sharp_a=6, "
                        "ca=7, ca_sharp_b=8)",
        PatternReport: "PatternReport(" + ", ".join(f"{c}=True" for c in CONDITIONS) + ")",
        SearchStats: "SearchStats(candidates=4, pattern_hits=3, survivors=2, "
                     "budget_exhausted=True)",
        SearchHit: "SearchHit(serial=1, ideal='I', assignment='A', all_products_trivial=True)",
    }
    assert [repr(cls(*values)) for cls, _, values, _ in RECORDS] == list(pinned.values())
    assert repr(SearchStats()) == (
        "SearchStats(candidates=0, pattern_hits=0, survivors=0, budget_exhausted=False)")


def test_vars_lists_the_role_and_condition_fields_in_order():
    assert list(vars(RoleAssignment(*range(9)))) == list(ROLES)
    assert list(vars(PatternReport(*(True,) * 9))) == list(CONDITIONS)


def test_derived_and_massey_value_are_built_once(monkeypatch):
    ideal = counterexample_ideal()
    derived = ideal.derived
    assert derived == {} and ideal.derived is derived
    res = ternary_massey_generators(ideal, QQ, 0, 3, 6)
    assert res.defined and not res.value_is_zero and ideal.derived is derived
    calls = []
    class_of = StrandHomology.class_of

    def counting(self, i, chain):
        calls.append(i)
        return class_of(self, i, chain)

    monkeypatch.setattr(StrandHomology, "class_of", counting)
    value = res.value
    assert res.value is value and len(value.coordinates) == 1
    assert calls == [res.hom_degree]
