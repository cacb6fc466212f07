"""Exact linear algebra over the rationals and over prime fields.

Every rank, kernel, and solve in this package runs through this module, so
there is deliberately no floating point anywhere.  Values are immutable and
all operations are pure functions, which makes concurrent evaluation of
independent matrices safe.

At the API boundary, scalars are ``fractions.Fraction`` over the rationals
and canonical integers in ``[0, p)`` over a prime field.  Inside the kernel
a rational stays a plain ``int`` while it is integral; a ``Fraction``
appears only when a non-unit pivot forces one.  Strand boundaries have
entries +-1, so their elimination never leaves the integers.  Kernel
vectors, solutions, coordinates and reduced matrices are converted on the
way out; rank and membership answers need no conversion.

All elimination runs through one kernel, ``Echelon``, on sparse vectors:
dicts ``key -> nonzero scalar``.  ``Matrix`` is the dense value type at the
API boundary; ``rref``, ``kernel_basis`` and ``solve`` reduce its columns.
Callers that need coordinates tag each vector with a unit entry at its own
key above every row key; the tags of a residual hold the combination that
was subtracted.  Callers that need only rank or membership add no tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush


class LinAlgError(ValueError):
    """Dimension mismatch or violated precondition in a linear-algebra call."""


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


@dataclass(frozen=True)
class Matrix:
    """Dense matrix with canonical entries over a fixed field."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    @classmethod
    def from_rows(cls, field, rows):
        rows = tuple(tuple(field.of(x) for x in r) for r in rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise LinAlgError("ragged rows")
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def zero(cls, field, rows, cols):
        z = field.zero()
        return cls(field, rows, cols, tuple((z,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def apply(self, vec):
        """Matrix-vector product; ``vec`` has length ``cols``."""
        if len(vec) != self.cols:
            raise LinAlgError(f"vector length {len(vec)} != cols {self.cols}")
        f = self.field
        out = []
        for r in self.entries:
            acc = f.zero()
            for a, x in zip(r, vec):
                if a != 0 and x != 0:
                    acc = f.add(acc, f.mul(a, x))
            out.append(acc)
        return tuple(out)

    def is_zero(self):
        return all(x == 0 for r in self.entries for x in r)


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


def _sparse(vec):
    return {k: x for k, x in enumerate(vec) if x != 0}


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


def _matrix_relations(m):
    columns = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if x != 0:
                columns[j][i] = x
    return column_relations(m.field, columns, m.rows)


@dataclass(frozen=True)
class RrefResult:
    rank: int
    pivots: tuple
    reduced: Matrix


def rref(m):
    """Reduced row echelon form; returns (rank, pivot columns, reduced matrix).

    The pivot columns are the columns independent of the columns before
    them; entry (i, j) of the reduced matrix is the coefficient of the i-th
    pivot column in column j.
    """
    f = m.field
    _, pivots, relations = _matrix_relations(m)
    rows = [[f.zero()] * m.cols for _ in range(m.rows)]
    for i, p in enumerate(pivots):
        rows[i][p] = f.one()
        for j, rel in relations.items():
            if p in rel:
                rows[i][j] = f.neg(rel[p])
    reduced = Matrix(f, m.rows, m.cols, tuple(tuple(r) for r in rows))
    return RrefResult(len(pivots), tuple(pivots), reduced)


def rank(m):
    return len(extend_independent(m.field, (), m.entries))


def kernel_basis(m):
    """Basis of the right kernel {v : m v = 0}, one vector per free column."""
    zero = m.field.zero()
    _, _, relations = _matrix_relations(m)
    return [tuple(rel.get(k, zero) for k in range(m.cols)) for rel in relations.values()]


def solve(m, rhs):
    """Some x with m x = rhs, or None.

    Free variables are set to zero (the pivot solution), so the choice is
    deterministic given the column order.
    """
    if len(rhs) != m.rows:
        raise LinAlgError(f"rhs length {len(rhs)} != rows {m.rows}")
    f = m.field
    ech = _matrix_relations(m)[0]
    v = ech.reduce(_sparse(f.of(b) for b in rhs))
    if v and min(v) < m.rows:
        return None
    x = [f.zero()] * m.cols
    for k, c in v.items():
        x[k - m.rows] = f.of(-c)
    return tuple(x)


def extend_independent(field, base, candidates):
    """Indices of candidates that greedily extend span(base) to span(base+candidates)."""
    ech = Echelon(field)
    for v in base:
        ech.absorb(_sparse(v))
    return [i for i, v in enumerate(candidates) if ech.absorb(_sparse(v))]


def quotient_coordinates(field, cycles, boundaries, v):
    """Coordinates of v in a fixed basis of span(cycles)/span(boundaries).

    The quotient basis consists of the cycles that greedily extend the span of
    the boundaries (in the given order).  Returns the zero vector exactly when
    v lies in span(boundaries); raises if v is not in span(cycles).
    """
    n = len(v)
    ech = Echelon(field)
    for b in boundaries:
        ech.absorb(_sparse(b))
    chosen = 0
    for c in cycles:
        w = ech.reduce({**_sparse(c), n + chosen: 1})
        if min(w) < n:
            ech.insert(w)
            chosen += 1
    w = ech.reduce(_sparse(field.of(x) for x in v))
    if w and min(w) < n:
        raise LinAlgError("vector not in the span of the cycles")
    return tuple(field.of(-w.get(n + k, 0)) for k in range(chosen))


def span(field, columns):
    """Echelon of the span of sparse columns (dicts key -> coeff, zeros allowed)."""
    ech = Echelon(field)
    # sparse columns first: the order changes the rows' fill, never the span
    for col in sorted(columns, key=lambda c: (len(c), min(c) if c else 0)):
        ech.absorb({k: x for k, x in col.items() if x != 0})
    return ech


def sparse_reduce_columns(field, columns):
    """Eliminate sparse columns (dicts key -> coeff); returns the pivot table.

    The pivot table maps a key to a normalized column whose minimal key it
    is, so its length is the rank.  Keys must be totally ordered.
    """
    rows = span(field, columns).rows
    return {lead: _canonical(field, row) for lead, row in rows.items()}


def sparse_in_span(field, columns, rhs):
    """Whether the sparse vector rhs lies in the span of the sparse columns."""
    return span(field, columns).contains(rhs)
