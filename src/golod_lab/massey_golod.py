"""Products and ternary Massey products on Koszul homology; Golod decisions.

Products are computed termwise through the reduced Taylor DGA and read off in
the target strand.  Ternary Massey products follow the defining-system recipe

    ds = (sign a) * (a . b),   dt = (sign b) * (b . c),
    value = (sign a) * (a . t) + (sign s) * (s . c),

where ``sign x`` negates chains of even homological degree; once all binary
products vanish, the ternary product is a single well-defined class, which is
what the ``unique`` flag certifies.

The decision layer combines three routes: a nonzero binary product is an
immediate negative; purely combinatorial ring classes give immediate
positives; otherwise, when the regularity, projective dimension, or a small
squarefree vertex count caps the Massey arity at three, the ternary check
decides.  Anything else falls back to comparing series truncations.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .exact_linalg import QQ
from .homology_engine import (
    HomologyClass,
    betti,
    chain_is_boundary,
    class_of,
    homology_basis,
    whole_strand,
)
from .taylor_dga import (
    generators_below,
    lcm_lattice,
    mask_of,
    product_reduced,
    reduced_boundary,
    subset_lcm,
)


def _scale_chain(field, chain, scalar):
    if scalar == 1:
        return dict(chain)
    s = field.of(scalar)
    return {m: field.mul(s, c) for m, c in chain.items()}


def _bar_chain(field, chain, hom_degree):
    """Sign twist used in defining systems: negate even homological degrees."""
    return _scale_chain(field, chain, 1 if (hom_degree + 1) % 2 == 0 else -1)


def _add_chains(field, a, b):
    out = dict(a)
    for m, c in b.items():
        v = field.add(out.get(m, field.zero()), c)
        if v == 0:
            out.pop(m, None)
        else:
            out[m] = v
    return out


def chain_product(ideal, field, ca, cb):
    """Product of two chains in the field-reduced Taylor algebra."""
    out = {}
    for mi, x in ca.items():
        if x == 0:
            continue
        for mj, y in cb.items():
            if y == 0:
                continue
            r = product_reduced(ideal, mi, mj)
            if r is None:
                continue
            sign, union = r
            term = field.mul(x, y)
            if sign < 0:
                term = field.neg(term)
            v = field.add(out.get(union, field.zero()), term)
            if v == 0:
                out.pop(union, None)
            else:
                out[union] = v
    return out


def _vector_sum(u, v):
    return tuple(a + b for a, b in zip(u, v))


def homology_product(ideal, field, alpha, beta):
    """Product of two homology classes, reduced in the target strand."""
    if alpha.field != field or beta.field != field:
        raise ValueError("classes live over a different field")
    if alpha.ideal != ideal or beta.ideal != ideal:
        raise ValueError("classes live over a different ideal")
    prod = chain_product(ideal, field, alpha.chain(), beta.chain())
    u = _vector_sum(alpha.multidegree, beta.multidegree)
    i = alpha.hom_degree + beta.hom_degree
    return class_of(ideal, field, prod, multidegree=u, hom_degree=i)


@dataclass(frozen=True)
class ProductWitness:
    alpha: HomologyClass
    beta: HomologyClass
    product_chain: tuple

    def describe(self):
        return (
            f"[{self.alpha.describe()}] (degree {self.alpha.hom_degree}, "
            f"multidegree {self.alpha.multidegree}) * [{self.beta.describe()}] "
            f"(degree {self.beta.hom_degree}, multidegree {self.beta.multidegree}) != 0"
        )


def _strand_classes(ideal, field, u):
    """All positive-degree homology classes of the strand at u."""
    below = generators_below(ideal, u)
    return [c for i in range(1, len(below) + 1) for c in homology_basis(ideal, field, u, i)]


def all_products_trivial(ideal, field):
    """Exhaustive binary product check over homology basis classes.

    Only pairs of strands whose multidegree sum stays inside the lcm lattice
    can multiply nontrivially, so classes are enumerated per viable pair.
    Returns (True, None) or (False, witness of the first nonzero product).
    """
    lattice = lcm_lattice(ideal)
    elements = list(lattice)
    viable = []
    needed = set()
    for a in range(len(elements)):
        for b in range(a, len(elements)):
            u, v = elements[a], elements[b]
            if _vector_sum(u, v) in lattice:
                viable.append((u, v))
                needed.add(u)
                needed.add(v)
    classes = {u: _strand_classes(ideal, field, u) for u in sorted(needed)}
    for u, v in viable:
        cu, cv = classes[u], classes[v]
        for ai, alpha in enumerate(cu):
            bstart = ai if u == v else 0
            for beta in cv[bstart:]:
                prod = chain_product(ideal, field, alpha.chain(), beta.chain())
                if not prod:
                    continue
                if not chain_is_boundary(ideal, field, prod):
                    witness = ProductWitness(
                        alpha, beta, tuple(sorted(prod.items()))
                    )
                    return False, witness
    return True, None


def pair_criterion(ideal, a, b):
    """Combinatorial vanishing test for the product of two coprime generator classes.

    True exactly when a third generator divides lcm of the two, which makes
    the product a boundary; with no such generator the product spans its
    entire strand degree and survives.
    """
    ga, gb = ideal.gens[a], ideal.gens[b]
    if not ga.coprime(gb):
        raise ValueError("pair criterion applies to coprime generators only")
    target = ga.lcm(gb)
    return any(
        k not in (a, b) and g.divides(target) for k, g in enumerate(ideal.gens)
    )


@dataclass(frozen=True)
class MasseyResult:
    """Outcome of a ternary Massey product computation."""

    defined: bool
    unique: bool
    value_chain: tuple | None  # frozen (mask, coeff) pairs of the representative
    value: HomologyClass | None  # coordinates; None when the strand is too large
    value_is_zero: bool | None
    multidegree: tuple | None
    hom_degree: int | None
    system: tuple | None  # frozen chains (s, t) of the defining system
    obstruction: str | None = None

    @property
    def nonzero(self):
        return self.defined and self.value_is_zero is False


def _freeze(chain):
    return tuple(sorted((m, c) for m, c in chain.items() if c != 0))


def _undefined(reason):
    return MasseyResult(False, False, None, None, None, None, None, None, reason)


def _finish_massey(ideal, field, value_chain, u, i, s, t, b2_certified):
    if whole_strand(ideal, field, u) is None:
        value_class = None
        zero = chain_is_boundary(ideal, field, value_chain)
    else:
        value_class = class_of(ideal, field, value_chain, multidegree=u, hom_degree=i)
        zero = value_class.is_zero
    return MasseyResult(
        defined=True,
        unique=bool(b2_certified),
        value_chain=_freeze(value_chain),
        value=value_class,
        value_is_zero=zero,
        multidegree=u,
        hom_degree=i,
        system=(_freeze(s), _freeze(t)),
    )


def ternary_massey(ideal, field, alpha, beta, gamma, b2_certified=False):
    """Ternary Massey product via an explicit defining system.

    Defined exactly when both binary products vanish as classes; the value is
    one member of the Massey set, canonical because the solver fixes free
    variables to zero.  ``unique`` is asserted only when the caller certifies
    that all binary products of the ring vanish.
    """
    for x in (alpha, beta, gamma):
        if x.ideal != ideal or x.field != field:
            raise ValueError("classes do not match the ideal/field")
    ia, ib, ic = alpha.hom_degree, beta.hom_degree, gamma.hom_degree
    ra, rb, rc = alpha.chain(), beta.chain(), gamma.chain()
    p1 = chain_product(ideal, field, _bar_chain(field, ra, ia), rb)
    p2 = chain_product(ideal, field, _bar_chain(field, rb, ib), rc)
    u_ab = _vector_sum(alpha.multidegree, beta.multidegree)
    u_bc = _vector_sum(beta.multidegree, gamma.multidegree)
    if p1 and not chain_is_boundary(ideal, field, p1):
        return _undefined("the product of the first two classes is nonzero")
    if p2 and not chain_is_boundary(ideal, field, p2):
        return _undefined("the product of the last two classes is nonzero")
    s = _solve_boundary(ideal, field, p1, u_ab, ia + ib)
    t = _solve_boundary(ideal, field, p2, u_bc, ib + ic)
    deg_s = ia + ib + 1
    value_chain = _add_chains(
        field,
        chain_product(ideal, field, _bar_chain(field, ra, ia), t),
        chain_product(ideal, field, _bar_chain(field, s, deg_s), rc),
    )
    u = _vector_sum(_vector_sum(alpha.multidegree, beta.multidegree), gamma.multidegree)
    return _finish_massey(
        ideal, field, value_chain, u, ia + ib + ic + 1, s, t, b2_certified
    )


def _solve_boundary(ideal, field, target_chain, u, target_degree):
    """A chain of degree target_degree + 1 whose differential is the target.

    The target is known to be a boundary; free variables of the linear system
    are set to zero, so the result is deterministic.
    """
    if not target_chain:
        return {}
    sh = whole_strand(ideal, field, u)
    if sh is None:
        raise ValueError(f"strand at {u} is too big to solve for a defining system")
    vec = sh.strand.chain_vector(target_degree, target_chain)
    sol = sh.solve_boundary(target_degree, vec)
    if sol is None:
        raise AssertionError("boundary solve failed for a chain known to bound")
    return sh.strand.vector_chain(target_degree + 1, sol)


def ternary_massey_generators(ideal, field, a, b, c, b2_certified=False):
    """Ternary Massey product of three generator classes, combinatorial route.

    Requires the generators to be pairwise coprime with further generators
    dividing lcm(a, b) and lcm(b, c); the first such divisors (in generator
    order) enter the defining system, whose members are single subsets, so the
    representative is written down directly rather than solved for.  Failures
    of the preconditions are reported, not raised.
    """
    ga, gb, gc = ideal.gens[a], ideal.gens[b], ideal.gens[c]
    if not (ga.coprime(gb) and gb.coprime(gc) and ga.coprime(gc)):
        return _undefined("generators are not pairwise coprime")
    ab = _dividing_generator(ideal, a, b, exclude=(a, b, c))
    if ab is None:
        return _undefined(
            "no further generator divides lcm of the first two; their product is nonzero"
        )
    bc = _dividing_generator(ideal, b, c, exclude=(a, b, c))
    if bc is None:
        return _undefined(
            "no further generator divides lcm of the last two; their product is nonzero"
        )
    s = _triple_filler(ideal, field, a, ab, b)
    t = _triple_filler(ideal, field, b, bc, c)
    field_one = field.one()
    ra = {mask_of([a]): field_one}
    rc = {mask_of([c]): field_one}
    value_chain = _add_chains(
        field,
        chain_product(ideal, field, _bar_chain(field, ra, 1), t),
        chain_product(ideal, field, _bar_chain(field, s, 3), rc),
    )
    u = tuple(subset_lcm(ideal, mask_of([a, b, c])).exps)
    return _finish_massey(ideal, field, value_chain, u, 4, s, t, b2_certified)


def _dividing_generator(ideal, i, j, exclude):
    target = ideal.gens[i].lcm(ideal.gens[j])
    for k, g in enumerate(ideal.gens):
        if k not in exclude and g.divides(target):
            return k
    return None


def _triple_filler(ideal, field, i, mid, j):
    """Chain on the subset {i, mid, j} whose differential is the bar of e_i * e_j."""
    triple = mask_of([i, mid, j])
    pair = mask_of([i, j])
    bnd = reduced_boundary(ideal, triple)
    if set(bnd) != {pair}:
        raise AssertionError("filler boundary has unexpected support")
    sigma = bnd[pair]
    r = product_reduced(ideal, mask_of([i]), mask_of([j]))
    assert r is not None and r[1] == pair
    coeff = field.of(r[0] * sigma)  # sigma^2 = 1, so this solves sigma * x = sign
    return {triple: coeff}


def satisfies_B(ideal, field, r):
    """Whether every Massey product of arity <= r is defined and zero.

    Supports r in {2, 3}.  Arity two is the exhaustive binary check; arity
    three adds ``ternary_products_vanish``.
    """
    if r not in (2, 3):
        raise ValueError(f"Massey arity {r} is not supported (only 2 and 3)")
    ok, witness = all_products_trivial(ideal, field)
    if not ok or r == 2:
        return ok, witness
    return ternary_products_vanish(ideal, field)


def ternary_products_vanish(ideal, field):
    """Whether every ternary Massey product vanishes, given that all binary ones do.

    Runs every ordered triple of homology basis classes whose combined
    multidegree stays in the lcm lattice, except where the target strand is
    built whole and has no homology in the target degree.
    """
    lattice = lcm_lattice(ideal)
    classes = {u: cs for u in lattice if (cs := _strand_classes(ideal, field, u))}
    support = sorted(classes)
    for ua in support:
        for ub in support:
            uab = _vector_sum(ua, ub)
            for uc in support:
                u = _vector_sum(uab, uc)
                if u not in lattice:
                    continue
                sh = whole_strand(ideal, field, u)
                for alpha in classes[ua]:
                    for beta in classes[ub]:
                        for gamma in classes[uc]:
                            i = alpha.hom_degree + beta.hom_degree + gamma.hom_degree + 1
                            if sh is not None and sh.dimension(i) == 0:
                                continue
                            res = ternary_massey(
                                ideal, field, alpha, beta, gamma, b2_certified=True
                            )
                            if not res.defined:
                                raise AssertionError(
                                    "ternary product undefined although binary products vanish"
                                )
                            if not res.value_is_zero:
                                return False, (alpha, beta, gamma, res)
    return True, None


@dataclass(frozen=True)
class ClassCriteriaReport:
    """Which purely structural Golod-deciding conditions an ideal meets."""

    satisfied: tuple
    arity_notes: tuple
    evaluated: tuple  # (name, bool) in a fixed order

    def holds(self, name):
        return name in self.satisfied


def class_criteria(ideal, field=QQ):
    """Structural ring classes where trivial products already force Golod.

    ``strongly-generic`` uses the strong form (no variable repeats a nonzero
    exponent across two generators), a sufficient condition for the generic
    deformations the class argument needs.  Regularity is read from the Betti
    table over the given field.
    """
    checks = []
    gens = ideal.gens
    checks.append(("degree-2-generators", bool(gens) and all(g.degree == 2 for g in gens)))
    strongly = True
    for v in range(ideal.n_vars):
        seen = set()
        for g in gens:
            e = g.exps[v]
            if e == 0:
                continue
            if e in seen:
                strongly = False
                break
            seen.add(e)
        if not strongly:
            break
    checks.append(("strongly-generic", bool(gens) and strongly))
    checks.append(("at-most-7-generators", ideal.n_gens <= 7))
    checks.append(("at-most-4-variables", ideal.n_vars <= 4))
    checks.append(("squarefree-at-most-8-variables", ideal.is_squarefree and ideal.n_vars <= 8))
    bd = betti(ideal, field)
    reg = bd.regularity
    pdim = bd.projective_dimension
    checks.append(("regularity-at-most-4", reg <= 4))
    dim3 = ideal.is_squarefree and _complex_dimension_at_most(ideal, 3)
    checks.append(("complex-dimension-at-most-3", dim3))
    notes = []
    if pdim <= 4:
        notes.append("projective dimension <= 4 caps Massey arity at 3")
    if (
        ideal.is_squarefree
        and ideal.n_vars <= 7
        and all(g.degree >= 2 for g in gens)
    ):
        notes.append("squarefree on <= 7 variables with no variable generator caps Massey arity at 3")
    return ClassCriteriaReport(
        satisfied=tuple(name for name, ok in checks if ok),
        arity_notes=tuple(notes),
        evaluated=tuple(checks),
    )


def _complex_dimension_at_most(ideal, k):
    """Squarefree ideal defines a complex of dimension <= k: every (k+2)-subset
    of the variables contains a generator support."""
    supports = [g.support for g in ideal.gens]
    for c in combinations(range(ideal.n_vars), k + 2):
        cset = set(c)
        if not any(s <= cset for s in supports):
            return False
    return True


@dataclass(frozen=True)
class GolodVerdict:
    status: str  # "Golod" | "NotGolod" | "Undecided"
    route: str
    reason: str
    witness: object = None
    series_evidence: object = None


def golod_decide(ideal, field, series_trunc=None):
    """Decide the Golod property, or report honest indecision.

    Pipeline: a nonzero binary product is conclusive; then structural class
    criteria; then the arity-3 Massey check whenever regularity <= 5,
    projective dimension <= 4, or a small squarefree vertex count caps the
    needed arity; otherwise compare series truncations, where only a strict
    coefficient drop is conclusive.
    """
    ok, witness = all_products_trivial(ideal, field)
    if not ok:
        return GolodVerdict(
            "NotGolod",
            "binary-product",
            f"nonzero product on Koszul homology: {witness.describe()}",
            witness=witness,
        )
    report = class_criteria(ideal, field)
    if report.satisfied:
        names = ", ".join(report.satisfied)
        return GolodVerdict(
            "Golod",
            f"class-criterion:{report.satisfied[0]}",
            f"products are trivial and the ring class decides ({names})",
        )
    bd = betti(ideal, field)
    reg, pdim = bd.regularity, bd.projective_dimension
    basis = []
    if reg <= 5:
        basis.append(f"regularity {reg} needs Massey arity <= {max(2, reg - 2)}")
    if pdim <= 4:
        basis.append(f"projective dimension {pdim} caps Massey arity at 3")
    if ideal.is_squarefree and ideal.n_vars <= 7 and all(g.degree >= 2 for g in ideal.gens):
        basis.append("squarefree on <= 7 variables without variable generators")
    if basis:
        ok3, w3 = ternary_products_vanish(ideal, field)
        if ok3:
            return GolodVerdict(
                "Golod",
                "massey-arity-3",
                "all binary and ternary Massey products vanish; " + basis[0],
            )
        alpha, beta, gamma, res = w3
        return GolodVerdict(
            "NotGolod",
            "massey-arity-3",
            "nonzero ternary Massey product μ3 in multidegree "
            f"{res.multidegree}, homological degree {res.hom_degree}; " + basis[0],
            witness=w3,
        )
    from .series_engine import p_series, q_series, series_compare

    n = 5 if series_trunc is None else series_trunc
    q = q_series(ideal, field, n)
    p, cap_report = p_series(ideal, field, n)
    div = series_compare(p, q)
    if div is not None:
        idx, cmp = div
        if cmp < 0:
            return GolodVerdict(
                "NotGolod",
                "series-divergence",
                f"series truncations diverge at degree {idx} (resolution strictly below the bound)",
                series_evidence=(p, q, idx),
            )
        raise AssertionError("series bound violated; this contradicts the coefficientwise inequality")
    return GolodVerdict(
        "Undecided",
        "series-agree",
        f"series truncations agree through degree {n}; higher Massey products would be needed",
        series_evidence=(p, q, None),
    )
