"""Monomials, monomial ideals, polarization, and the built-in example ideal.

A monomial is an exponent vector; variable names and order tests live on
the ideal.  The generator order of an ideal is fixed at construction and
never permuted, because all Taylor-complex signs downstream depend on it.

An ideal answers order tests on its generators with one integer operation
each, on the *unary code* of a multidegree.  If variable k has r_k distinct
positive exponents e_(k,1) < ... < e_(k,r_k) among the generators, it owns
bits off_k .. off_k + r_k - 1 (off_k = r_0 + ... + r_(k-1)), and u sets the
lowest #{j : e_(k,j) <= u_k} of them.  On the lcm lattice, whose exponents
are all some e_(k,j) or 0, this is the polarization with each exponent
replaced by its rank, and only that order shapes the lattice (Gasharov,
Peeva & Welker 1999): a | b iff ``a & ~b == 0``, lcm(a, b) is ``a | b``, a
and b are coprime iff ``a & b == 0``, and ``decode`` inverts ``code``.  A
generator g lies below any u iff ``g & ~code(u) == 0``.  A code has at most
n_vars * n_gens bits however large the exponents.
"""

from __future__ import annotations

import re
from bisect import bisect
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate
from operator import or_


class AmbientMismatchError(ValueError):
    """Operands live over different variable sets."""


class TooLarge(ValueError):
    """An exhaustive enumeration past its bound: one degree of a strand, the
    faces of a complex, a fiber complex, an lcm box, the rows of a Betti
    table.  The CLI answers it with exit 3."""


@dataclass(frozen=True)
class Monomial:
    """Exponent vector of fixed length; the constant monomial is all zeros."""

    exps: tuple

    def __post_init__(self):
        if min(self.exps, default=0) < 0:
            raise ValueError(f"negative exponent in {self.exps}")

    def __len__(self):
        return len(self.exps)

    @property
    def degree(self):
        return sum(self.exps)

    @property
    def support(self):
        return frozenset(i for i, e in enumerate(self.exps) if e > 0)

    @property
    def is_constant(self):
        return all(e == 0 for e in self.exps)

    @property
    def is_squarefree(self):
        return all(e <= 1 for e in self.exps)


def lcm_of(monomials, n_vars):
    """Componentwise maximum over a collection; the constant for empty input."""
    acc = (0,) * n_vars
    for m in monomials:
        if len(m.exps) != n_vars:
            raise AmbientMismatchError("monomial length mismatch in lcm")
        acc = tuple(map(max, acc, m.exps))
    return Monomial(acc)


def _unary_codes(gens, n_vars):
    """(ranks, field offsets, codes) of ``gens`` (module docstring); ranks[k]
    numbers variable k's positive exponents 1, 2, ... in ascending order."""
    cols = zip(*(g.exps for g in gens)) if gens else [()] * n_vars
    ranks = [{e: r for r, e in enumerate(sorted(set(c) - {0}), 1)} for c in cols]
    offsets = tuple(accumulate(map(len, ranks), initial=0))
    return ranks, offsets, tuple(sum(((1 << rk.get(e, 0)) - 1) << o
                                     for e, rk, o in zip(g.exps, ranks, offsets)) for g in gens)


def _divisor(codes, i):
    """Index of the first generator, by unary ``codes``, that makes generator i
    redundant (divides it and differs from it or comes first), or None."""
    g = codes[i]
    for j, h in enumerate(codes):
        if j != i and not h & ~g and (h != g or j < i):
            return j
    return None


def minimalize(gens):
    """Divisibility-minimal sublist, first occurrence kept; idempotent."""
    gens = list(gens)
    if any(g.is_constant for g in gens):
        raise ValueError("constant monomial generates the whole ring")
    for g in gens:
        if len(g) != len(gens[0]):
            raise AmbientMismatchError(f"monomials over {len(g)} and {len(gens[0])} variables")
    codes = _unary_codes(gens, len(gens[0]) if gens else 0)[2]
    return [g for i, g in enumerate(gens) if _divisor(codes, i) is None]


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by an ordered minimal generating set.

    The constructor insists on minimality (no generator divides another);
    call :func:`minimalize` first if the input may be redundant.  The zero
    ideal (no generators) is allowed.

    ``derived`` keeps what is computed from the ideal (lcm lattice, strands)
    and is freed with it; ``box``, the lcm of the generators, and ``codes``,
    their unary codes (module docstring), are made at construction.
    Equality, hashing and repr ignore all three.
    """

    variables: tuple
    gens: tuple

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        n = len(self.variables)
        for g in self.gens:
            if len(g.exps) != n:
                raise AmbientMismatchError(
                    f"generator {g.exps} does not match {n} variables"
                )
            if g.is_constant:
                raise ValueError("constant monomial generates the whole ring")
        ranks, offsets, codes = _unary_codes(self.gens, n)
        self.__dict__.update(box=tuple(max(rk, default=0) for rk in ranks), codes=codes,
                             _ranks=ranks, _levels=[tuple(rk) for rk in ranks], _offsets=offsets)
        for i, g in enumerate(self.gens):
            if (j := _divisor(self.codes, i)) is not None:
                raise ValueError(
                    f"generators are not minimal: {self.format_monomial(self.gens[j])} "
                    f"divides {self.format_monomial(g)}; run minimalize first"
                )

    @classmethod
    def from_exponents(cls, variables, exp_rows):
        return cls(tuple(variables), tuple(Monomial(tuple(r)) for r in exp_rows))

    @classmethod
    def from_strings(cls, variables, texts):
        variables = tuple(variables)
        return cls(variables, tuple(parse_monomial(t, variables) for t in texts))

    @cached_property
    def derived(self):
        return {}

    def _check_length(self, u):
        if len(u) != len(self.box):
            raise AmbientMismatchError(
                f"multidegree {tuple(u)} does not match {len(self.box)} variables")

    def code(self, u):
        """The unary code of u; 0, below no generator, if u has a negative entry."""
        self._check_length(u)
        return 0 if min(u, default=0) < 0 else sum(
            ((1 << bisect(lv, e)) - 1) << o for e, lv, o in zip(u, self._levels, self._offsets))

    def tops(self, u):
        """Per variable k of u's support the bit of u_k's rank, which a generator
        below u holds iff its exponent is u_k; for a u_k no generator has, a bit
        no code has."""
        self._check_length(u)
        return reduce(or_, (1 << (o + rk[e] - 1 if e in rk else self._offsets[-1])
                            for e, rk, o in zip(u, self._ranks, self._offsets) if e > 0), 0)

    def decode(self, c):
        """The multidegree of a lattice element's code; a field's bit length is a rank."""
        return tuple(lv[r - 1] if (r := (c >> o & (1 << len(lv)) - 1).bit_length()) else 0
                     for o, lv in zip(self._offsets, self._levels))

    @property
    def n_vars(self):
        return len(self.variables)

    @property
    def n_gens(self):
        return len(self.gens)

    @property
    def is_squarefree(self):
        return all(g.is_squarefree for g in self.gens)

    def format_monomial(self, m):
        return format_monomial(m, self.variables)


_POWER_RE = re.compile(r"^([^\^\s\*]+?)(?:\^(\d+))?$")


def parse_monomial(text, variables):
    """Parse ``x1*x2^2`` style monomials over the given variable names."""
    text = text.strip()
    index = {v: i for i, v in enumerate(variables)}
    exps = [0] * len(variables)
    if text in ("1", ""):
        return Monomial(tuple(exps))
    for factor in text.split("*"):
        m = _POWER_RE.match(factor.strip())
        if not m:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        name, power = m.group(1), int(m.group(2) or 1)
        if name not in index:
            raise ValueError(f"unknown variable {name!r} in {text!r}")
        exps[index[name]] += power
    return Monomial(tuple(exps))


def format_monomial(m, variables):
    parts = []
    for name, e in zip(variables, m.exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def parse_ideal(text):
    """Parse the ideal text format.

    First non-comment line is ``vars: <space separated names>``; every further
    nonempty line is one generator such as ``x1*x2^2``.  Lines starting with
    ``#`` are comments.
    """
    variables = None
    gens = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if variables is None:
            if not line.startswith("vars:"):
                raise ValueError("ideal file must start with a 'vars:' line")
            variables = tuple(line[len("vars:"):].replace(",", " ").split())
            if not variables:
                raise ValueError("empty variable list")
            continue
        gens.append(line)
    if variables is None:
        raise ValueError("ideal file has no 'vars:' line")
    return MonomialIdeal.from_strings(variables, gens)


def format_ideal(ideal):
    lines = ["vars: " + " ".join(ideal.variables)]
    lines.extend(ideal.format_monomial(g) for g in ideal.gens)
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class PolarizationMap:
    """Mapping from polarized variables back to the original ones."""

    new_to_old: tuple  # index of the original variable per new variable


def polarize(ideal):
    """Standard polarization to a squarefree ideal in more variables.

    A variable with maximal exponent e >= 2 across the generators splits into
    e copies named ``x_1 .. x_e``; exponent k becomes the product of the first
    k copies.  Variables of maximal exponent <= 1 keep their name, so a
    squarefree ideal polarizes to itself.  Generator count and order are
    preserved.
    """
    maxexp = ideal.box
    new_vars = []
    new_to_old = []
    slots = []  # per original variable: list of new indices
    for i, name in enumerate(ideal.variables):
        mine = []
        if maxexp[i] <= 1:
            mine.append(len(new_vars))
            new_vars.append(name)
            new_to_old.append(i)
        else:
            for k in range(1, maxexp[i] + 1):
                mine.append(len(new_vars))
                new_vars.append(f"{name}_{k}")
                new_to_old.append(i)
        slots.append(mine)
    if len(set(new_vars)) != len(new_vars):
        raise ValueError("polarized variable names collide with existing names")
    new_gens = []
    for g in ideal.gens:
        exps = [0] * len(new_vars)
        for i, e in enumerate(g.exps):
            for k in range(e):
                exps[slots[i][k]] = 1
        new_gens.append(Monomial(tuple(exps)))
    pol = MonomialIdeal(tuple(new_vars), tuple(new_gens))
    return pol, PolarizationMap(tuple(new_to_old))


# Built-in example: a quotient with trivial Koszul-homology products that is
# nevertheless not Golod (a nonzero ternary Massey product obstructs it).
# Generator order realizes the total order the sign conventions assume.
COUNTEREXAMPLE_GENERATOR_NAMES = (
    "m_a", "m_ab", "m_ab#c", "m_b", "m_bc", "m_bc#a", "m_c", "m_ca",
)

_COUNTEREXAMPLE_GENERATORS = (
    "x1*x2^2",        # m_a
    "x1*x2*y1*y2",    # m_ab
    "x1*y1*z",        # m_ab#c
    "y1*y2^2",        # m_b
    "y2^2*z^2",       # m_bc
    "x2^2*y2^2*z",    # m_bc#a
    "z^3",            # m_c
    "x2^2*z^2",       # m_ca
)


def counterexample_ideal():
    """The built-in example ideal in k[x1, x2, y1, y2, z] (preset ``paper``)."""
    return MonomialIdeal.from_strings(
        ("x1", "x2", "y1", "y2", "z"), _COUNTEREXAMPLE_GENERATORS
    )


def counterexample_generator_index(name):
    """Generator index for a role name like ``m_a`` (or bare ``a``)."""
    key = name.strip()
    if not key.startswith("m_"):
        key = "m_" + key
    try:
        return COUNTEREXAMPLE_GENERATOR_NAMES.index(key)
    except ValueError:
        raise ValueError(
            f"unknown generator name {name!r}; expected one of "
            f"{', '.join(COUNTEREXAMPLE_GENERATOR_NAMES)}"
        ) from None
