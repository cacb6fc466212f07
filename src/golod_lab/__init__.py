"""Exact computation of Koszul homology products, ternary Massey products,
and Golod decisions for monomial rings, built on the Taylor resolution."""

from .exact_linalg import Field, GF2, GF3, QQ, parse_field
from .homology_engine import BettiData, HomologyClass, betti
from .massey_golod import (
    GolodVerdict,
    MasseyResult,
    all_products_trivial,
    golod_decide,
    pair_criterion,
    ternary_massey,
    ternary_massey_generators,
)
from .monomial_core import (
    Monomial,
    MonomialIdeal,
    counterexample_ideal,
    format_ideal,
    minimalize,
    parse_ideal,
    polarize,
)
from .series_engine import (
    SeriesTrunc,
    p_series,
    q_series,
    series_compare,
)
from .simplicial import (
    SimplicialComplex,
    complex_of,
    skeleton,
    stanley_reisner_ideal,
)
from .taylor_dga import fiber_complex, lcm_lattice

__version__ = "0.1.0"
