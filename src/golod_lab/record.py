"""``Record``, the base of the package's value classes: what a frozen
dataclass gives, without the import and class-building cost of ``dataclasses``.

A record names its fields in ``_fields``, in constructor order, and its
``__init__`` sets them once with ``_fill``.  Records of one class with equal
fields are equal, a record hashes as the tuple of its fields, its repr lists
them, and assigning to it raises ``AttributeError``.
"""


class Record:
    __slots__ = ()
    _fields = ()

    def _fill(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")
