"""Base classes for momentkit's validated immutable values.

They replace frozen dataclasses, whose generated methods are compiled anew on
every import; these are compiled once, into the module's bytecode cache.
Plain records without validation are ``typing.NamedTuple`` classes instead.
"""

# Sets a field of a Frozen object in its __init__, past the refusing
# __setattr__.  (Writing to self.__dict__ instead would slow every read.)
set_field = object.__setattr__


class Frozen:
    """Immutable object compared by identity.

    A subclass names its fields in ``_fields`` and sets them once, in
    ``__init__``, with :func:`set_field`; assignment afterwards raises
    ``AttributeError``, as on a frozen dataclass.  ``functools.cached_property``
    still works: it writes to the instance ``__dict__`` directly.
    """

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class FrozenValue(Frozen):
    """Immutable object equal to, and hashing like, any instance of the same
    class with equal fields."""

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())
