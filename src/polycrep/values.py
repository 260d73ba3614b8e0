"""The base of polycrep's immutable value classes.

A value class lists its fields in __slots__, checks them in __init__, stores
them with one Value.__init__(self, *fields) call, in slot order, and is then
read-only.  Two values are equal when they are of the same class and their
fields are equal, and the hash is that of the tuple of fields, read by one
operator.attrgetter per class.  Nothing is compiled: an __eq__ and __hash__
compiled per class were about 0.1 µs a call faster but cost about 60 µs a
class at import, and bench operations compare or hash values at most 105
times (`oracle crosscheck --n 4`); the most of any command, 3 648 at
`oracle crosscheck --n 6`, cost about 0.3 ms of its 3 s.  dataclasses,
which generates such methods, imports inspect.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        fields = cls.__slots__
        get = attrgetter(*fields)
        # attrgetter of one name gives the bare value, and a plain function
        # on the class would bind as a method
        cls._fields = (staticmethod(lambda v: (get(v),))
                       if len(fields) == 1 else get)

    def __init__(self, *fields):
        slots = self.__slots__
        if len(fields) != len(slots):
            raise TypeError(f"{type(self).__name__} has {len(slots)} "
                            f"fields, not {len(fields)}")
        for name, value in zip(slots, fields):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        """Unpickling and copy.copy restore the slots that
        object.__getstate__ gave, as (None, {field: value})."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
