"""One base class for the package's immutable value objects.

A subclass names its value slots, in constructor order, in the class-level
tuple ``_fields`` and fills them with ``_assign`` from its ``__init__``.
Assignment and deletion then raise, copy and pickle rebuild the object
through its constructor, and equality, hash and repr read those fields
only, so a slot left out of ``_fields`` (a memo, say) takes part in none
of them.  A class whose fields are unhashable sets ``__hash__ = None``.
"""

from __future__ import annotations

__all__ = ["Frozen"]

_set = object.__setattr__


class Frozen:
    """Immutable value object over the slots named in ``_fields``."""

    __slots__ = ()
    _fields: tuple = ()

    def _assign(self, *values) -> None:
        for name, value in zip(self._fields, values):
            _set(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
