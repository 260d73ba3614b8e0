"""The base of polycrep's immutable value classes.

A value class lists its fields in __slots__, checks and stores them in
__init__ through object.__setattr__, and is then read-only.  Two values are
equal when they are of the same class and their fields are equal, and the
hash is that of the tuple of fields.  The __eq__ and __hash__ of each class
are compiled once, when the class is made, so that they read the slots
directly, with no loop over the field names on each call.  The standard
library's generator of such methods pulls in inspect and costs more to
import than the rest of the package.
"""


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        mine = "".join(f"self.{f}, " for f in cls.__slots__)
        theirs = "".join(f"other.{f}, " for f in cls.__slots__)
        ns = {}
        exec(f"def __eq__(self, other):\n"
             f"    if other.__class__ is self.__class__:\n"
             f"        return ({mine}) == ({theirs})\n"
             f"    return NotImplemented\n"
             f"def __hash__(self):\n"
             f"    return hash(({mine}))\n", ns)
        cls.__eq__, cls.__hash__ = ns["__eq__"], ns["__hash__"]

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
