"""Exact linear algebra over the rationals and over prime fields.

Every rank, kernel, and membership test in this package runs through this
module, so there is deliberately no floating point anywhere.

All elimination runs through one kernel, ``Echelon``, on sparse vectors:
dicts ``key -> nonzero scalar``.  ``span`` builds the echelon of a list of
columns; its number of rows is their rank and ``contains`` decides
membership.  ``column_relations`` reduces columns in order and returns the
pivot columns and the relation of every other column, a kernel basis.
Callers that need coordinates tag each vector with a unit entry at its own
key above every row key; the tags of a residual hold the combination that
was subtracted.  Callers that need only rank or membership add no tags.

At the API boundary, scalars are ``fractions.Fraction`` over the rationals
and canonical integers in ``[0, p)`` over a prime field.  Inside the kernel
a rational stays a plain ``int`` while it is integral; a ``Fraction``
appears only when a non-unit pivot forces one.  Strand boundaries have
entries +-1, so their elimination never leaves the integers.  Relations
are converted on the way out; rank and membership answers need no
conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush


class LinAlgError(ValueError):
    """Violated precondition in a linear-algebra call, such as a vector outside
    a span or a denominator not invertible mod p."""


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """Coefficient field: the rationals (``char == 0``) or F_p for prime p."""

    char: int = 0

    def __post_init__(self):
        if self.char != 0 and not _is_prime(self.char):
            raise ValueError(f"field characteristic must be 0 or a prime, got {self.char}")

    def of(self, x):
        """Coerce an int or Fraction to a canonical element of this field."""
        p = self.char
        if p == 0:
            return x if isinstance(x, Fraction) else Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise LinAlgError(f"denominator of {x} is not invertible mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return int(x) % p

    def zero(self):
        return Fraction(0) if self.char == 0 else 0

    def one(self):
        return Fraction(1) if self.char == 0 else 1

    def add(self, a, b):
        return a + b if self.char == 0 else (a + b) % self.char

    def mul(self, a, b):
        return a * b if self.char == 0 else (a * b) % self.char

    def neg(self, a):
        return -a if self.char == 0 else (-a) % self.char

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.char:
            return pow(a, -1, self.char)
        return 1 / a if isinstance(a, Fraction) else Fraction(1, a)

    def __str__(self):
        return "Q" if self.char == 0 else f"F_{self.char}"


QQ = Field(0)
GF2 = Field(2)
GF3 = Field(3)


def parse_field(text):
    """Parse a field name: ``q`` for the rationals or ``fp:<prime>``."""
    t = text.strip().lower()
    if t in ("q", "qq", "0"):
        return QQ
    if t.startswith("fp:"):
        return Field(int(t[3:]))
    raise ValueError(f"unrecognized field {text!r}; use 'q' or 'fp:<prime>'")


def _integral(x):
    """A rational as an int when its denominator is 1 (ints pass through)."""
    return x.numerator if x.denominator == 1 else x


_UNITS = {1: Fraction(1), -1: Fraction(-1)}  # immutable, so safe to share


def _canonical(field, vec):
    """vec with API-boundary scalars: Fractions over Q, residues in [0, p) over F_p."""
    p = field.char
    if p:
        return {k: x % p for k, x in vec.items()}
    return {k: x if x.__class__ is Fraction else _UNITS.get(x) or Fraction(x)
            for k, x in vec.items()}


class Echelon:
    """Span of sparse vectors in echelon form; the package's one elimination loop.

    A vector is a dict ``key -> nonzero scalar`` with totally ordered keys.
    Each stored row has coefficient 1 at its least key, its lead, and leads
    are distinct.  Any nonzero vector of the span has a lead as its least
    key, so clearing leads from the least key upwards decides membership:
    a vector lies in the span exactly when it reduces to zero.

    Input scalars are nonzero: ints or Fractions over Q, and over F_p ints
    that are nonzero mod p, such as canonical residues or the signs +-1.
    Over Q, ``reduce`` turns integral Fractions into ints; over F_p every
    entry a row operation touches is reduced mod p, and a row is scaled to
    canonical residues unless its lead is already 1.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # lead key -> row with coefficient 1 at the lead

    def reduce(self, vec):
        """The residual of vec, a new dict: rows are subtracted while its least key is a lead."""
        rows, p = self.rows, self.field.char
        if p:
            v = dict(vec)
        else:  # _integral, inlined
            v = {k: x.numerator if x.denominator == 1 else x for k, x in vec.items()}
        heap = sorted(v)  # every key of v, possibly with stale extras
        while heap:
            lead = heappop(heap)
            c = v.get(lead)
            if c is None:
                continue
            row = rows.get(lead)
            if row is None:
                break
            if p:
                c = p - c % p  # subtracting c * row is adding (p - c) * row
                for k, x in row.items():
                    y = v.get(k)
                    if y is None:
                        heappush(heap, k)
                        v[k] = c * x % p
                    elif y := (y + c * x) % p:
                        v[k] = y
                    else:
                        del v[k]
            else:
                if c.__class__ is Fraction:
                    c = _integral(c)
                for k, x in row.items():
                    y = v.get(k)
                    if y is None:
                        heappush(heap, k)
                        v[k] = -c * x
                    elif y := y - c * x:
                        v[k] = y
                    else:
                        del v[k]
        return v

    def insert(self, residual):
        """Store a nonzero residual of ``reduce`` under its lead, scaled to a unit lead."""
        lead = min(residual)
        c = residual[lead]
        p = self.field.char
        if c != 1:
            if p:
                inv = pow(c, -1, p)
                residual = {k: x * inv % p for k, x in residual.items()}
            elif c == -1:
                residual = {k: -x for k, x in residual.items()}
            else:
                inv = self.field.inv(c)
                residual = {k: _integral(x * inv) for k, x in residual.items()}
        self.rows[lead] = residual

    def contains(self, vec):
        """Whether vec, with any scalars ``field.of`` takes (zeros too), lies in the span."""
        of = self.field.of
        return not self.reduce({k: y for k, x in vec.items() if (y := of(x))})

    def absorb(self, vec):
        """Add vec to the span; True when it was independent of the rows so far."""
        v = self.reduce(vec)
        if v:
            self.insert(v)
        return bool(v)


def column_relations(field, columns, nrows):
    """Tagged reduction of sparse columns whose row keys all lie below nrows.

    Column j gets the tag key ``nrows + j``.  Returns the echelon of the
    columns, the pivot columns (those independent of the columns before
    them, i.e. the RREF pivots) and, for every other column j, its relation:
    the kernel vector keyed by column index with 1 at j and minus the
    coefficients of the earlier pivot columns that sum to column j.  The
    relations carry API-boundary scalars; the echelon keeps the kernel's.
    """
    ech = Echelon(field)
    pivots, relations = [], {}
    for j, col in enumerate(columns):
        v = ech.reduce({**col, nrows + j: 1})
        if min(v) < nrows:
            ech.insert(v)
            pivots.append(j)
        else:
            relations[j] = _canonical(field, {k - nrows: x for k, x in v.items()})
    return ech, pivots, relations


def span(field, columns):
    """Echelon of the span of sparse columns (dicts key -> coeff, zeros allowed)."""
    ech = Echelon(field)
    # sparse columns first: the order changes the rows' fill, never the span
    for col in sorted(columns, key=lambda c: (len(c), min(c) if c else 0)):
        ech.absorb({k: x for k, x in col.items() if x != 0})
    return ech
