"""Value semantics of the immutable classes: equality by class and fields,
hashing by the tuple of fields, no assignment or deletion."""

import copy
import pickle

import pytest

from polycrep import coxrelations
from polycrep.arrangements import Arrangement
from polycrep.complexes import Complex, Partition
from polycrep.hyper_cones import HyperCone
from polycrep.ratgeom import ConeH, ConeV
from polycrep.values import Value

from routes import Bunch

P4 = Partition(4, (0b0001, 0b0010, 0b1100))
VALUES = {
    "ConeV": lambda: ConeV(2, ((2, 0), (0, 3))),
    "ConeH": lambda: ConeH(2, ((1, 0),)),
    "Partition": lambda: Partition(4, (0b1100, 0b0010, 0b0001)),
    "Complex": lambda: Complex.from_faces(3, [{1, 2}, {3}]),
    "Arrangement": lambda: Arrangement(2, ((1, 0), (0, -1), (2, 2))),
    "Bunch": lambda: Bunch(4, frozenset({P4})),
    "HyperCone": lambda: HyperCone(4, P4, 0b0001),
    "XPoint": lambda: coxrelations.sample_X_point(5, 0),
}


def _fields(v) -> tuple:
    return tuple(getattr(v, f) for f in v.__slots__)


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_value_semantics(make):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) == hash(_fields(a))
    assert a != _fields(a) and _fields(a) != a
    # an instance of another value class with the same field values
    twin_class = type("Twin", (Value,), {"__slots__": a.__slots__})
    twin = twin_class.__new__(twin_class)
    for f, value in zip(a.__slots__, _fields(a)):
        object.__setattr__(twin, f, value)
    assert _fields(twin) == _fields(a)
    assert a != twin and twin != a
    for f in a.__slots__:
        with pytest.raises(AttributeError):
            setattr(a, f, getattr(b, f))
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b and _fields(a) == _fields(b)
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
    assert repr(a).startswith(f"{type(a).__name__}({a.__slots__[0]}=")


def test_cones_of_either_kind_differ():
    v, h = ConeV(2, ((1, 0),)), ConeH(2, ((1, 0),))
    assert _fields(v) == _fields(h)
    assert v != h and h != v
    assert len({v, h}) == 2


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES.keys())
def test_methods_come_from_the_base(make, monkeypatch):
    """No class has an __eq__ or __hash__ of its own, and each stores its
    fields through Value.__init__, once per instance."""
    cls = type(make())
    assert cls.__eq__ is Value.__eq__ and cls.__hash__ is Value.__hash__
    stored = []
    base_init = Value.__init__

    def spy(self, *fields):
        stored.append(fields)
        base_init(self, *fields)

    monkeypatch.setattr(Value, "__init__", spy)
    a = make()
    assert stored == [_fields(a)]


def test_wrong_field_count_is_refused():
    p = Partition.__new__(Partition)
    for fields in ((), (4,), (4, (1,), 0)):
        with pytest.raises(TypeError):
            Value.__init__(p, *fields)


class One(Value):
    """A one-field value class; pickle finds it by its module-level name."""

    __slots__ = ("k",)


def test_one_field_value():
    """A one-field value compares, hashes and pickles as its 1-tuple."""
    a, b, c = One(5), One(5), One(6)
    assert a == b != c and a != 5 and a != (5,)
    assert hash(a) == hash((5,)) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a == copy.copy(a)
    assert repr(a) == "One(k=5)"
