"""Slotted records with field equality and repr, built without code generation.

A record class lists its fields in `__slots__`, in order, and writes its
own `__init__`. `Record` gives it what a `dataclasses.dataclass` would:
equality that checks the class and then the fields in order, a repr in
field order, and no hash. `HashedRecord` adds a hash of the field tuple,
for records that are never mutated. Nothing is generated when a class is
defined, unlike a dataclass, whose import also loads `inspect`; every CLI
call pays for the import of this package.
"""

from __future__ import annotations


class Record:
    """Equal to a record of the same class with equal fields; not hashable."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"


class HashedRecord(Record):
    """A record that is never mutated, hashed by its field tuple."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())
