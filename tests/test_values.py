"""The value types: equality and hashing by field values, immutability,
construction checks and the caches that rely on them."""

import copy
import pickle
from functools import lru_cache

import pytest

from hessalg.certificates import (DecompositionReport, InvolutionReport,
                                  IntervalReport, WitnessCertificate)
from hessalg.field import JordanSpec, Matrix, Subspace
from hessalg.flags import Flag, FlagSet, flag_at
from hessalg.shapes import HessShape, YoungDiagram
from hessalg.varieties import EqClass, OperatorSpec, PosetPX, Variety


def _shape():
    return HessShape(2, (2, 2))


def _operator():
    return OperatorSpec("jordan:0^2", 2, ((0, 2),))


def _flags():
    return FlagSet(2, 2, 3, 0b101)


# (class, keyword arguments built afresh on each call, the field to change,
# a different value for it, hashable)
CASES = [
    (Matrix, lambda: dict(p=2, rows=((1, 0), (0, 1))),
     "rows", ((0, 1), (1, 0)), True),
    (Subspace, lambda: dict(p=2, ambient=3, basis=((1, 0, 0),),
                            pivot_rows=(0,)),
     "pivot_rows", (1,), True),
    (JordanSpec, lambda: dict(p=3, blocks=((1, 1), (0, 2))), "p", 5, True),
    (HessShape, lambda: dict(n=3, t=(2, 3, 3)), "t", (3, 3, 3), True),
    (YoungDiagram, lambda: dict(parts=(2, 1)), "parts", (1, 1), True),
    (Flag, lambda: dict(n=2, p=2, cell=(1, 2), values=(), index=0),
     "index", 1, True),
    (FlagSet, lambda: dict(n=2, p=2, size=3, bits=0b101), "bits", 0b100, True),
    (OperatorSpec, lambda: dict(name="jordan:0^2", n=2, blocks=((0, 2),)),
     "name", "nilpotent", True),
    (Variety, lambda: dict(operator=_operator(), shape=_shape(), p=2,
                           points=_flags()),
     "p", 3, True),
    (EqClass, lambda: dict(name="yd:", shapes=(_shape(),),
                           counts=(2,)),
     "name", "yd:1", True),
    (PosetPX, lambda: dict(operator=_operator(), primes=(2,),
                           strict_only=False,
                           classes=(EqClass("yd:", (_shape(),), (2,)),),
                           hasse=()),
     "strict_only", True, True),
    (WitnessCertificate, lambda: dict(
        operator=JordanSpec(2, ((0, 2),)), pair=(1, 2),
        flag=Flag(2, 2, (1, 2), (), 0), checks=(True, True, True),
        memberships={"h:1,2": False, "h:2,2": True}, in_first=False,
        in_second=True),
     "in_second", False, False),
    (InvolutionReport, lambda: dict(
        shape=_shape(), partner=_shape(), p=2, count=3, partner_count=3,
        intermediate_bijection=True, composed_bijection=True, ok=True),
     "ok", False, True),
    (DecompositionReport, lambda: dict(
        shape=HessShape(2, (1, 2)), split_index=1,
        sub_shapes=(HessShape(1, (1,)), HessShape(1, (1,))), p=2, count=1,
        count1=1, count2=1, pairs_checked=1, ok=True),
     "count", 2, True),
    (IntervalReport, lambda: dict(
        n=2, decomposable=(HessShape(2, (1, 2)),), indecomposable=(_shape(),),
        bottom=_shape(), top=_shape(), ok=True),
     "ok", False, True),
]


@pytest.mark.parametrize("cls, make, field, other, hashable", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_value_semantics(cls, make, field, other, hashable):
    a, b = cls(**make()), cls(**make())
    assert a is not b
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)
    c = cls(**dict(make(), **{field: other}))
    assert a != c and not a == c
    assert a.__eq__(object()) is NotImplemented
    assert repr(a).startswith(cls.__name__ + "(")
    assert "%s=%r" % (field, getattr(a, field)) in repr(a)
    for clone in (copy.copy(a), copy.deepcopy(a),
                  pickle.loads(pickle.dumps(a))):
        assert clone == a
    with pytest.raises(AttributeError):
        setattr(a, field, other)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b


def _fields_of(cls, make):
    """The field names and values of a value built from the case."""
    value = cls(**make())
    return cls._fields, [getattr(value, f) for f in cls._fields]


@pytest.mark.parametrize("cls, make", [case[:2] for case in CASES],
                         ids=[case[0].__name__ for case in CASES])
def test_positional_and_keyword_construction_agree(cls, make):
    fields, values = _fields_of(cls, make)
    by_name = cls(**dict(zip(fields, values)))
    assert cls(*values) == by_name
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == by_name


@pytest.mark.parametrize("cls, make", [case[:2] for case in CASES],
                         ids=[case[0].__name__ for case in CASES])
def test_a_bad_field_list_is_a_type_error(cls, make):
    fields, values = _fields_of(cls, make)
    named = dict(zip(fields, values))
    first = fields[0]
    # The base constructor's messages, or Python's for a checking type.
    with pytest.raises(TypeError, match="missing.*'%s'" % first):
        cls(**{f: v for f, v in named.items() if f != first})
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError, match="'not_a_field'"):
        cls(**named, not_a_field=0)
    with pytest.raises(TypeError, match="(twice|multiple).*'%s'" % first):
        cls(values[0], **named)


def test_only_checking_types_define_a_constructor():
    assert {cls.__name__ for cls, *_ in CASES
            if "__init__" in vars(cls)} == {"HessShape", "YoungDiagram",
                                            "OperatorSpec"}


@pytest.mark.parametrize("make, message", [
    (lambda: HessShape(0, ()), "rank must be positive"),
    (lambda: HessShape(2, (2,)), "threshold vector length != n"),
    (lambda: HessShape(2, (1, 3)), "threshold 3 out of range"),
    (lambda: HessShape(2, (2, 1)), "thresholds must be non-decreasing"),
    (lambda: YoungDiagram((1, 0)), "parts must be positive"),
    (lambda: YoungDiagram((1, 2)), "parts must be non-increasing"),
    (lambda: OperatorSpec("x", 2),
     "need exactly one of Jordan blocks / raw matrix"),
    (lambda: OperatorSpec("x", 1, ((0, 1),), ((0,),)),
     "need exactly one of Jordan blocks / raw matrix"),
    (lambda: OperatorSpec("x", 3, blocks=((0, 2),)),
     "block sizes must sum to n"),
    (lambda: OperatorSpec("x", 2, entries=((0, 0), (0,))),
     "raw matrix must be n x n"),
    # The first fault is named: range, then order, entry by entry.
    (lambda: HessShape(3, (0, 4, 2)), "threshold 4 out of range"),
    pytest.param(lambda: HessShape(3, (2, 1, 4)),
                 "thresholds must be non-decreasing", id="order-first"),
    (lambda: HessShape(2, (-1, 0)), "threshold -1 out of range"),
    (lambda: HessShape(1, (2,)), "threshold 2 out of range")])
def test_construction_checks_keep_their_messages(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_operator_spec_defaults():
    op = OperatorSpec("x", 2, entries=((1, 0), (0, 0)))
    assert op.blocks is None
    assert OperatorSpec("y", 2, ((0, 2),)).entries is None


def test_flag_caches_its_representative_and_chain():
    f = flag_at(5, 3, 2)
    assert f.rep is f.rep
    assert f.spans is f.spans
    # A cache is not a field: a fresh equal flag equals one with caches.
    assert f == flag_at(5, 3, 2)


@pytest.mark.parametrize("make", [
    lambda: Matrix(3, ((1, 2), (0, 1))),
    lambda: JordanSpec(3, ((2, 1), (0, 2))),
    lambda: OperatorSpec("jordan:0^2", 2, ((0, 2),))])
def test_an_equal_distinct_key_hits_the_cache(make):
    calls = []

    @lru_cache(maxsize=None)
    def cached(key):
        calls.append(key)
        return len(calls)

    a, b = make(), make()
    assert a is not b
    assert cached(a) == cached(b) == 1
    assert cached.cache_info().hits == 1


def test_shapes_key_sets_and_dicts_by_value():
    table = {HessShape(2, (1, 2)): "borel"}
    assert table[HessShape(2, (1, 2))] == "borel"
    assert HessShape(2, (2, 2)) in frozenset([HessShape(2, (2, 2))])


@pytest.mark.parametrize("cls, make", [case[:2] for case in CASES
                                       if case[4]],
                         ids=[case[0].__name__ for case in CASES if case[4]])
def test_the_hash_is_cached_in_a_slot_that_is_not_a_field(cls, make):
    a = cls(**make())
    assert "_hash" not in cls._fields and "_hash" not in repr(a)
    assert a._hash is None
    h = hash(a)
    assert a._hash == h == hash(cls(**make()))
    # Copies rebuild from the fields alone and hash equal.
    assert a.__reduce__() == (cls, tuple(getattr(a, f) for f in cls._fields))
    for clone in (copy.copy(a), copy.deepcopy(a),
                  pickle.loads(pickle.dumps(a))):
        assert clone == a and clone._hash is None
        assert hash(clone) == h and clone._hash == h
    with pytest.raises(AttributeError):
        a._hash = 0
