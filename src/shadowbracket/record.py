"""The immutable record that the package's small value classes build on.

A record names its fields in ``__slots__``.  :meth:`Record.__init__` takes
one positional value per field and is the one place that sets them; a class
that coerces or checks its input does so in its own constructor and passes
the results on.  Assigning or deleting a field afterwards raises
AttributeError.  Two records are equal when their classes match and their
fields are equal, a record hashes as the tuple of its fields, and it prints
as ``Name(field=value, ...)``.  The base is plain Python, so defining a
record costs nothing at import: no decorator generates code, and no
introspection module is loaded.
"""

from operator import attrgetter


class Record:
    """Base of an immutable record whose fields are its ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The tuple of the fields.  attrgetter returns a bare value for one
        # name, so a one-field record wraps it.
        get = attrgetter(*cls.__slots__)
        cls._fields = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __init__(self, *fields) -> None:
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{type(self).__qualname__} takes {len(self.__slots__)} "
                            f"fields, got {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # Copies and pickles rebuild through the constructor, whose checks
        # rerun, instead of assigning slots one by one.
        return type(self), self._fields
