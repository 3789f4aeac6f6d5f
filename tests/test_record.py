"""The immutable-record contract, checked against a frozen dataclass twin."""

import dataclasses

import pytest

from groupeq.algebra import AbelianGroupSpec, AlgebraElement, AlgebraMatrix, RowFamily
from groupeq.config import Config
from groupeq.errors import ValidationError
from groupeq.groups import cyclic, subgroup
from groupeq.record import Record


def _normalize(self):
    object.__setattr__(self, "ys", tuple(self.ys))
    if self.x < 0:
        raise ValueError("x must be >= 0")


class Point(Record):
    x: int
    ys: tuple[int, ...]
    label: str = "p"
    __post_init__ = _normalize


def twin():
    """The same record as a generated frozen dataclass, also named Point."""
    return dataclasses.make_dataclass(
        "Point", [("x", int), ("ys", tuple), ("label", str, dataclasses.field(default="p"))],
        namespace={"__post_init__": _normalize}, frozen=True)


BUILDS = [((1, [2, 3]), {}), ((1,), {"ys": (2,)}), ((), {"x": 0, "ys": [], "label": "q"}),
          ((4, (5,), "r"), {})]


@pytest.mark.parametrize("args,kwargs", BUILDS)
def test_construction_matches_the_dataclass(args, kwargs):
    rec, twin_rec = Point(*args, **kwargs), twin()(*args, **kwargs)
    assert repr(rec) == repr(twin_rec)
    assert hash(rec) == hash(twin_rec)
    assert (rec.x, rec.ys, rec.label) == (twin_rec.x, twin_rec.ys, twin_rec.label)


@pytest.mark.parametrize("args,kwargs", [((), {}), ((1,), {}), ((1, ()), {"z": 2}),
                                         ((1, ()), {"x": 2}), ((1, (), "a", 4), {})],
                         ids=["missing both", "missing ys", "unknown", "repeated", "too many"])
def test_bad_arguments_raise_type_error_like_the_dataclass(args, kwargs):
    with pytest.raises(TypeError):
        twin()(*args, **kwargs)
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_post_init_runs_on_construction_and_replace():
    with pytest.raises(ValueError, match="x must be >= 0"):
        Point(-1, ())
    with pytest.raises(ValueError, match="x must be >= 0"):
        Point(1, ()).replace(x=-1)


@pytest.mark.parametrize("cls", [Point, None], ids=["record", "dataclass"])
def test_assignment_and_deletion_raise_attribute_error(cls):
    rec = (cls or twin())(1, ())
    for action in (lambda: setattr(rec, "x", 2), lambda: setattr(rec, "new", 2),
                   lambda: delattr(rec, "x")):
        with pytest.raises(AttributeError):
            action()
    assert rec.x == 1


def test_equality_and_hash_follow_the_fields():
    Twin = twin()
    a, b, c = Point(1, [2]), Point(1, (2,)), Point(1, (2,), "q")
    assert a == b and hash(a) == hash(b) and not a != b
    assert a != c and Twin(1, (2,)) != Twin(1, (2,), "q")
    assert a != (1, (2,), "p") and Twin(1, (2,)) != (1, (2,), "p")
    assert a != Twin(1, (2,))                # another class is never equal
    assert len({a, b, c}) == 2


def test_replace_matches_dataclasses_replace():
    rec, twin_rec = Point(1, (2,)), twin()(1, (2,))
    assert repr(rec.replace(label="q", ys=[3])) == repr(dataclasses.replace(twin_rec, label="q", ys=[3]))
    assert rec.replace() == rec and rec.replace() is not rec
    with pytest.raises(TypeError):
        rec.replace(z=1)


def test_row_family_inherits_the_matrix_fields():
    spec = AbelianGroupSpec(2, (1,))
    one = AlgebraElement.one(spec)
    rows = RowFamily(spec, [[one]])
    assert RowFamily._fields == AlgebraMatrix._fields == ("spec", "entries")
    assert rows.rows == rows.entries == ((one,),)
    assert repr(rows) == ("RowFamily(spec=AbelianGroupSpec(p=2, torsion_exponents=(1,), "
                          "free_rank=0), entries=((AlgebraElement('1'),),))")
    assert rows != AlgebraMatrix(spec, [[one]])
    assert AlgebraMatrix(spec, [[one]]) == AlgebraMatrix(spec, ((one,),))


def test_torsion_orders_are_derived_once_and_stay_out_of_the_fields():
    spec = AbelianGroupSpec(3, [2, 1], 1)
    assert spec.torsion_orders == (9, 3)
    assert spec == AbelianGroupSpec(3, (2, 1), 1) != AbelianGroupSpec(3, (2, 1))
    assert repr(spec) == "AbelianGroupSpec(p=3, torsion_exponents=(2, 1), free_rank=1)"
    assert spec.describe() == "Z_3[C9 x C3 x Z]"


@pytest.mark.parametrize("build,message", [
    (lambda: Config(jobs=0), "jobs must be >= 1"),
    (lambda: Config(brute_force_cap=0), "cap brute_force_cap must be positive"),
    (lambda: Config().replace(output_format="xml"), "unknown output format 'xml'"),
    (lambda: subgroup(cyclic(4), (1,)), "subgroup must contain the identity"),
    (lambda: subgroup(cyclic(4), (0, 1)), "subgroup not closed under inverse at 'g'"),
    (lambda: subgroup(cyclic(4), (0, 1, 3)), "subgroup not closed under product at ('g', 'g')"),
    (lambda: subgroup(cyclic(4), (0, 7)), "subgroup element index 7 is out of range 0..3"),
    (lambda: subgroup(cyclic(4), (0, -1)), "subgroup element index -1 is out of range 0..3"),
])
def test_validation_messages_are_unchanged(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message
