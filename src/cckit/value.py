"""The base class of cckit's immutable values."""

from operator import attrgetter


class Value:
    """An immutable value, equal only to a value of its own class whose
    compared fields are equal.

    A subclass names those fields, in ``__init__`` order, in ``_fields``.
    They give its hash (that of their tuple), its repr, and its pickling and
    copying: a value is rebuilt by calling its class on them (a class whose
    ``__init__`` takes other arguments overrides ``__reduce__``).  Setting
    or deleting any attribute raises ``AttributeError``, so an ``__init__``
    stores through ``vars(self)`` or the slot descriptors.
    """

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # an attrgetter of one name returns the bare value, not a 1-tuple
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key(self)
