"""Products and ternary Massey products on Koszul homology; Golod decisions.

Products are computed termwise through the reduced Taylor DGA and read off in
the target strand.  Ternary Massey products follow the defining-system recipe

    ds = (sign a) * (a . b),   dt = (sign b) * (b . c),
    value = (sign a) * (a . t) + (sign s) * (s . c),

where ``sign x`` negates chains of even homological degree; once all binary
products vanish, the ternary product is a single well-defined class, which is
what the ``unique`` flag certifies.  Products and Massey products ask each
strand only about the degrees they hold, and the Betti numbers behind the
Golod decision ask every degree; each is bounded by the cell enumerations
it runs, the strand layer's one size rule (``homology_engine``).

The Golod decision, ``golod_decide``, reads one Massey-arity bound and, past
arity 3, compares P with its Koszul bound Q exactly on the lcm box.
"""

from __future__ import annotations

from dataclasses import dataclass
from dataclasses import field as dataclass_field
from functools import cached_property

from .homology_engine import HomologyClass, _freeze_chain, betti, strand
from .monomial_core import lcm_of
from .series_engine import box_series
from .taylor_dga import lcm_lattice, mask_of, product_sign, support_mask


def _scale_chain(field, chain, scalar):
    if scalar == 1:
        return dict(chain)
    return {m: field.of(scalar * c) for m, c in chain.items()}


def _bar_chain(field, chain, hom_degree):
    """Sign twist used in defining systems: negate even homological degrees."""
    return _scale_chain(field, chain, 1 if (hom_degree + 1) % 2 == 0 else -1)


def _add_chains(field, a, b):
    out = dict(a)
    for m, c in b.items():
        v = field.of(out.get(m, 0) + c)
        if v == 0:
            out.pop(m, None)
        else:
            out[m] = v
    return out


def chain_product(ideal, field, ca, cb, ua, ub):
    """Product of two chains of the strands at ua and ub in the field-reduced
    Taylor algebra.

    Zero unless ua and ub are coprime (``taylor_dga``); then every pair of
    terms survives, and each union of masks arises from one pair only,
    since no generator divides both multidegrees.
    """
    if support_mask(ua) & support_mask(ub):
        return {}
    out = {}
    for mi, x in ca.items():
        for mj, y in cb.items():
            if v := field.of(product_sign(mi, mj) * x * y):
                out[mi | mj] = v
    return out


def _vector_sum(u, v):
    return tuple(a + b for a, b in zip(u, v))


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


class _ClassTable(dict):
    """The homology basis classes of each strand, built when first looked up."""

    def __init__(self, ideal, field):
        self.ideal, self.field = ideal, field

    def __missing__(self, u):
        sh = strand(self.ideal, self.field, u)
        out = self[u] = [c for i in sh.degrees() for c in sh.classes(i)]
        return out


def all_products_trivial(ideal, field):
    """Exhaustive binary product check over homology basis classes.

    Classes multiply only across coprime multidegrees (``taylor_dga``), so
    only the pairs u < v of coprime lcm-lattice elements are run, in lattice
    order, and a strand's classes are built when a pair first reaches them;
    each product is tested in the strand at u + v.  Returns (True, None) or
    (False, witness of the first nonzero product).
    """
    lattice = lcm_lattice(ideal)
    masks = [support_mask(u) for u in lattice]
    classes = _ClassTable(ideal, field)
    for a, u in enumerate(lattice):
        for b in range(a + 1, len(lattice)):
            if masks[a] & masks[b]:
                continue
            w = _vector_sum(u, lattice[b])
            for alpha in classes[u]:
                for beta in classes[lattice[b]]:
                    prod = chain_product(
                        ideal, field, alpha.chain(), beta.chain(), u, lattice[b]
                    )
                    i = alpha.hom_degree + beta.hom_degree
                    if prod and not strand(ideal, field, w).is_boundary(i, prod):
                        return False, ProductWitness(alpha, beta, tuple(sorted(prod.items())))
    return True, None


def pair_criterion(ideal, a, b):
    """Combinatorial vanishing test for the product of two coprime generator classes.

    True exactly when a third generator divides lcm of the two, which makes
    the product a boundary; with no such generator the product spans its
    entire strand degree and survives.
    """
    if not ideal.gens[a].coprime(ideal.gens[b]):
        raise ValueError("pair criterion applies to coprime generators only")
    return _dividing_generator(ideal, a, b, exclude=(a, b)) is not None


def _dividing_generator(ideal, i, j, exclude):
    """The first generator outside ``exclude`` dividing lcm(g_i, g_j), or None."""
    target = ideal.gens[i].lcm(ideal.gens[j])
    for k, g in enumerate(ideal.gens):
        if k not in exclude and g.divides(target):
            return k
    return None


@dataclass(frozen=True)
class MasseyResult:
    """Outcome of a ternary Massey product computation.

    ``value_is_zero`` comes from the boundary test alone.  ``value``, the
    class with its coordinates, is built on first read from the result's
    own chain, multidegree and degree; it is None only when the product is
    undefined.  ``ring``, the (ideal,
    field) it is read in, is left out of comparison and repr.
    """

    defined: bool
    unique: bool
    value_chain: tuple | None  # frozen (mask, coeff) pairs of the representative
    value_is_zero: bool | None
    multidegree: tuple | None
    hom_degree: int | None
    system: tuple | None  # frozen chains (s, t) of the defining system
    obstruction: str | None = None
    ring: tuple | None = dataclass_field(default=None, compare=False, repr=False)

    @cached_property
    def value(self):
        if not self.defined:
            return None
        ideal, field = self.ring
        return strand(ideal, field, self.multidegree).class_of(
            self.hom_degree, dict(self.value_chain))


def _undefined(reason):
    return MasseyResult(False, False, None, None, None, None, None, reason)


def _finish_massey(ideal, field, value_chain, u, i, s, t, b2_certified):
    """The defined result whose value chain lives in the strand at (u, i);
    an empty value chain is zero without asking a strand."""
    return MasseyResult(
        defined=True,
        unique=bool(b2_certified),
        value_chain=_freeze_chain(value_chain),
        value_is_zero=not value_chain or strand(ideal, field, u).is_boundary(i, value_chain),
        multidegree=u,
        hom_degree=i,
        system=(_freeze_chain(s), _freeze_chain(t)),
        ring=(ideal, field),
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
    ua, ub, uc = alpha.multidegree, beta.multidegree, gamma.multidegree
    p1 = chain_product(ideal, field, _bar_chain(field, ra, ia), rb, ua, ub)
    p2 = chain_product(ideal, field, _bar_chain(field, rb, ib), rc, ub, uc)
    u_ab = _vector_sum(ua, ub)
    u_bc = _vector_sum(ub, uc)
    s = strand(ideal, field, u_ab).bounding_chain(ia + ib, p1) if p1 else {}
    if s is None:
        return _undefined("the product of the first two classes is nonzero")
    t = strand(ideal, field, u_bc).bounding_chain(ib + ic, p2) if p2 else {}
    if t is None:
        return _undefined("the product of the last two classes is nonzero")
    deg_s = ia + ib + 1
    value_chain = _add_chains(
        field,
        chain_product(ideal, field, _bar_chain(field, ra, ia), t, ua, u_bc),
        chain_product(ideal, field, _bar_chain(field, s, deg_s), rc, u_ab, uc),
    )
    u = _vector_sum(u_ab, uc)
    return _finish_massey(
        ideal, field, value_chain, u, ia + ib + ic + 1, s, t, b2_certified
    )


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
    ra = {mask_of([a]): 1}
    rc = {mask_of([c]): 1}
    gab, gbc = ga.lcm(gb), gb.lcm(gc)
    value_chain = _add_chains(
        field,
        chain_product(ideal, field, _bar_chain(field, ra, 1), t, ga.exps, gbc.exps),
        chain_product(ideal, field, _bar_chain(field, s, 3), rc, gab.exps, gc.exps),
    )
    u = gab.lcm(gc).exps
    return _finish_massey(ideal, field, value_chain, u, 4, s, t, b2_certified)


def _triple_filler(ideal, field, i, mid, j):
    """Chain on the subset {i, mid, j} whose differential is the bar of e_i * e_j,
    for coprime generators i and j with generator mid dividing their lcm."""
    triple = mask_of([i, mid, j])
    pair = mask_of([i, j])
    bnd = strand(ideal, field, ideal.gens[i].lcm(ideal.gens[j]).exps).boundary(triple)
    if set(bnd) != {pair}:
        raise AssertionError("filler boundary has unexpected support")
    sigma = bnd[pair]
    sign = product_sign(mask_of([i]), mask_of([j]))
    # sigma^2 = 1, so this solves sigma * x = sign
    return {triple: field.of(sign * sigma)}


def ternary_products_vanish(ideal, field):
    """Whether every ternary Massey product vanishes, given that all binary ones do.

    Precondition: every binary product on Koszul homology vanishes (as
    ``all_products_trivial`` finds), so that every ternary product is
    defined.  A triple whose product turns out undefined raises
    ``ValueError``; the other triples are not checked against it.

    Classes multiply only across coprime multidegrees (``taylor_dga``): when
    two of the three multidegrees share a variable, both terms of the value
    multiply across them and vanish.  So only the pairwise coprime triples
    of lattice elements are run, in sorted order, and their sum is in the
    lcm lattice; a strand's classes are built when a triple first reaches
    it, and every ordered triple of their homology basis classes runs.
    """
    lattice = sorted(lcm_lattice(ideal))
    masks = {u: support_mask(u) for u in lattice}
    classes = _ClassTable(ideal, field)
    for ua in lattice:
        for ub in lattice:
            if masks[ua] & masks[ub]:
                continue
            ab = masks[ua] | masks[ub]
            for uc in lattice:
                if ab & masks[uc]:
                    continue
                for alpha in classes[ua]:
                    for beta in classes[ub]:
                        for gamma in classes[uc]:
                            res = ternary_massey(
                                ideal, field, alpha, beta, gamma, b2_certified=True
                            )
                            if not res.defined:
                                raise ValueError(
                                    "ternary_products_vanish needs every binary product to "
                                    f"vanish; the product at {ua}, {ub}, {uc} is undefined: "
                                    f"{res.obstruction}"
                                )
                            if not res.value_is_zero:
                                return False, (alpha, beta, gamma, res)
    return True, None


@dataclass(frozen=True)
class GolodVerdict:
    status: str  # "Golod" | "NotGolod"
    route: str
    reason: str
    witness: object = None


def _massey_arity_bound(ideal, bd):
    """The largest Massey arity that can be nonzero, with its reason, from the
    ring's Betti numbers ``bd``.

    The least of three degree bounds, the first listed winning a tie:

    * regularity: the ring is Golod once every Massey product of arity
      <= max(2, reg - 2) vanishes (the source paper's theorem);
    * projective dimension: μ_r of classes in homological degrees >= 1 lands
      in degree >= 2r - 2, so only r <= (pd + 2) // 2 can be nonzero;
    * a squarefree ideal with no variable generator on n variables: every
      class sits in a multidegree σ with |σ| >= 2, and a nonzero value needs
      pairwise disjoint σ's, so only r <= n // 2 can be nonzero.
    """
    reg, pdim = bd.regularity, bd.projective_dimension
    bounds = [
        (max(2, reg - 2), f"regularity {reg} needs Massey arity <= {max(2, reg - 2)}"),
        ((pdim + 2) // 2, f"projective dimension {pdim} caps Massey arity at {(pdim + 2) // 2}"),
    ]
    if ideal.is_squarefree and all(g.degree >= 2 for g in ideal.gens):
        n = ideal.n_vars
        bounds.append(
            (n // 2, f"squarefree on {n} variables without variable generators "
                     f"caps Massey arity at {n // 2}")
        )
    return min(bounds, key=lambda b: b[0])


def _box_deficit(ideal, field, bd):
    """The least (u, j, P_u, Q_u) in (j, u) order with P_u != Q_u in the lcm
    box, or None; ``bd`` holds Q's Betti numbers (see ``golod_decide``)."""
    n = sum(lcm_of(ideal.gens, ideal.n_vars).exps) + 1
    levels, b = box_series(ideal, field, n)
    for (i, u), beta in bd.multigraded:  # b becomes b_R - D; both are 1 at t^0
        if i:
            b[i + 1][u] = b[i + 1].get(u, 0) + beta
    for j in range(1, n + 1):
        if differ := [u for u, c in b[j].items() if c]:
            u = min(differ)
            p = levels[j].get(u, 0)
            q = p + b[j][u]
            if p > q:
                raise AssertionError(f"P > Q at {u}, t^{j}: {p} against {q}, past Serre's bound")
            return u, j, p, q
    return None


def golod_decide(ideal, field):
    """Decide the Golod property.

    A nonzero binary product is conclusive; otherwise the arity bound of
    ``_massey_arity_bound`` decides.  At most 2, trivial products make the
    ring Golod; at 3, the exhaustive ternary check decides.  Above, the lcm
    box B = {u <= w}, w the lcm of the generators, decides exactly:

    * P = prod_i (1 + x_i t) / b_R and Q = prod_i (1 + x_i t) / D, with
      D = 1 - sum_(i >= 1) beta_(i,u) x^u t^(i+1) (one read of the Betti
      numbers serves the bound and D).  Every monomial of b_R (Berglund 2006,
      see ``p_series``) and of D is an lcm of generators, so lies in B.
    * Resolution steps raise internal degree, so neither P_B nor
      b_R = N * P_B^-1 has a term x^u t^j with j > |u|, and beta_(i,u) = 0
      for i > |u|.  So ``box_series`` to order |w| + 1 holds all of b_R, and
      b_R = D gives P = Q, the definition of Golod (``box-agree``).
    * Otherwise, at the least differing x^u t^j in (j, u) order, minimal
      under divisibility, P - Q = N (D - b_R) / (b_R D) has coefficient
      D_u - b_u, as N / (b_R D) has constant term 1.  P_u < Q_u there is
      NotGolod (``box-deficit``, witness (u, j, P_u, Q_u)); P_u > Q_u would
      break Serre's bound P <= Q.  The Massey routes come first.
    """
    ok, witness = all_products_trivial(ideal, field)
    if not ok:
        return GolodVerdict(
            "NotGolod",
            "binary-product",
            f"nonzero product on Koszul homology: {witness.describe()}",
            witness=witness,
        )
    bd = betti(ideal, field)
    arity, basis = _massey_arity_bound(ideal, bd)
    if arity <= 2:
        return GolodVerdict(
            "Golod", "massey-arity-2", "all binary products vanish; " + basis
        )
    if arity == 3:
        ok3, w3 = ternary_products_vanish(ideal, field)
        if ok3:
            return GolodVerdict(
                "Golod",
                "massey-arity-3",
                "all binary and ternary Massey products vanish; " + basis,
            )
        alpha, beta, gamma, res = w3
        return GolodVerdict(
            "NotGolod",
            "massey-arity-3",
            "nonzero ternary Massey product μ3 in multidegree "
            f"{res.multidegree}, homological degree {res.hom_degree}; " + basis,
            witness=w3,
        )
    deficit = _box_deficit(ideal, field, bd)
    if deficit is None:
        return GolodVerdict("Golod", "box-agree", "b_R = D on the lcm box, so P = Q")
    u, j, p, q = deficit
    return GolodVerdict(
        "NotGolod", "box-deficit", f"P < Q at {u}, t^{j}: {p} against {q}", witness=deficit
    )
