"""Exact computation of Koszul homology products, ternary Massey products,
and Golod criteria for monomial rings, built on the Taylor resolution."""

from .exact_linalg import Field, GF2, GF3, QQ, parse_field
from .homology_engine import BettiData, HomologyClass, betti, class_of
from .massey_golod import (
    GolodVerdict,
    MasseyResult,
    all_products_trivial,
    class_criteria,
    golod_decide,
    homology_product,
    pair_criterion,
    satisfies_B,
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
    CapInsufficientError,
    SeriesTrunc,
    bar_homology_dim,
    expand_rational,
    p_series,
    q_series,
    series_compare,
)
from .simplicial import (
    SimplicialComplex,
    complex_of,
    is_2_neighborly,
    reduced_cohomology_dims,
    restriction,
    skeleton,
    stanley_reisner_ideal,
)
from .taylor_dga import (
    LcmLattice,
    StrandComplex,
    chain_to_cochain,
    fiber_complex,
    lcm_lattice,
    reduced_boundary,
    strand,
)

__version__ = "0.1.0"
