"""Exact linear algebra over the rationals and over prime fields.

Every rank, kernel, and membership test in this package runs through this
module, so there is deliberately no floating point anywhere.

All elimination runs through one kernel, ``Echelon``, on sparse vectors:
dicts ``key -> nonzero scalar``.  ``Echelon.absorb`` adds one vector to a
span, so absorbing columns in order gives their echelon: its number of
rows is their rank, and a vector lies in it exactly when it reduces to zero.
``column_relations`` reduces columns given by key and returns their echelon
and the relation of every dependent column, a kernel basis keyed by the
caller's own column keys.  Callers that need coordinates tag each vector
with a unit entry at its own key above every row key; the tags of a residual
hold the combination that was subtracted.  Callers that need only rank or
membership add no tags.

Scalars have one format, the one ``Field.of`` produces: over the rationals
an ``int`` when integral and a reduced ``fractions.Fraction`` otherwise, over
a prime field an ``int`` in ``[0, p)``.  The kernel keeps it: a ``Fraction``
appears only when a non-unit pivot forces one, and a residual leaves
``reduce`` in the format, so relations, coordinates and chains pass between
modules as they are.  Strand boundaries have entries +-1, so their
elimination never leaves the integers.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from operator import index

from .record import Record


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


_CHAR_LIMIT = 2**31  # trial division up to sqrt(p) stays fast below it


class Field(Record):
    """Coefficient field: the rationals (``char == 0``) or F_p for a prime p
    below 2^31."""

    __slots__ = _fields = ("char",)

    def __init__(self, char=0):
        if char >= _CHAR_LIMIT:
            raise ValueError(f"field characteristic must be below 2^31 = {_CHAR_LIMIT}, got {char}")
        if char != 0 and not _is_prime(char):
            raise ValueError(f"field characteristic must be 0 or a prime, got {char}")
        self._fill(char)

    def of(self, x):
        """An int or Fraction as an element of this field, in the one format:
        over Q an int when integral and a reduced Fraction otherwise, over
        F_p an int in [0, p)."""
        p = self.char
        if isinstance(x, Fraction):
            if not p:
                return x.numerator if x.denominator == 1 else x
            if x.denominator % p == 0:
                raise LinAlgError(f"denominator of {x} is not invertible mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return index(x) % p if p else index(x)  # a float raises TypeError

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.char:
            return pow(a, -1, self.char)
        return self.of(1 / Fraction(a))

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
        p = int(t[3:])
        if p == 0:  # Field(0) is the rationals, which fp:<n> does not name
            raise ValueError(f"{text!r} names no prime field; use 'q' for the rationals")
        return Field(p)
    raise ValueError(f"unrecognized field {text!r}; use 'q' or 'fp:<prime>'")


class Echelon:
    """Span of sparse vectors in echelon form; the package's one elimination loop.

    A vector is a dict ``key -> nonzero scalar`` with totally ordered keys.
    Each stored row has coefficient 1 at its least key, its lead, and leads
    are distinct.  Any nonzero vector of the span has a lead as its least
    key, so clearing leads from the least key upwards decides membership:
    a vector lies in the span exactly when it reduces to zero.

    ``reduce`` copies its input and no stored row is mutated after
    insertion, so a row dict may be shared between echelons, and rows
    already in this form, with distinct leads, may be placed in ``rows``
    directly.

    Input scalars are nonzero and in the format of ``Field.of``, or the
    signs +-1 over F_p.  Over Q, a lead coefficient and every entry of a
    residual are put in the format; over F_p every entry a row operation
    touches is reduced mod p, and a row is scaled to residues unless its
    lead is already 1.
    """

    def __init__(self, field):
        self.field = field
        self.rows = {}  # lead key -> row with coefficient 1 at the lead

    def reduce(self, vec):
        """The residual of vec, a new dict: rows are subtracted while its least key is a lead."""
        rows, p, of = self.rows, self.field.char, self.field.of
        v = dict(vec)
        if not v or min(v) not in rows:  # nothing to subtract: vec is its own residual
            return v
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
                    c = of(c)
                for k, x in row.items():
                    y = v.get(k)
                    if y is None:
                        heappush(heap, k)
                        v[k] = -c * x
                    elif y := y - c * x:
                        v[k] = y
                    else:
                        del v[k]
        if not p:  # Fraction arithmetic can leave integral Fractions
            for k, x in v.items():
                if x.__class__ is Fraction:
                    v[k] = of(x)
        return v

    def insert(self, residual):
        """Store a nonzero residual of ``reduce`` under its lead, scaled to a unit
        lead, and return the stored row."""
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
                of, inv = self.field.of, self.field.inv(c)
                residual = {k: of(x * inv) for k, x in residual.items()}
        self.rows[lead] = residual
        return residual

    def absorb(self, vec):
        """Add vec to the span; True when it was independent of the rows so far."""
        v = self.reduce(vec)
        if v:
            self.insert(v)
        return bool(v)


def column_relations(field, columns, nrows):
    """Tagged reduction of sparse columns whose row keys all lie below nrows.

    ``columns`` maps a key k >= 0 to its column, which gets the tag key
    ``nrows + k``; the columns are reduced in dict order.  Returns the echelon
    of the columns and, for every column dependent on the columns before it
    (the others are the RREF pivots), its relation: the kernel vector keyed
    by column key with 1 at its own key and minus the coefficients of the
    earlier pivot columns that sum to it.
    """
    ech = Echelon(field)
    relations = {}
    for k, col in columns.items():
        v = ech.reduce({**col, nrows + k: 1})
        if min(v) < nrows:
            ech.insert(v)
        else:
            relations[k] = {t - nrows: x for t, x in v.items()}
    return ech, relations

