"""The package's records keep the contract of a frozen dataclass, with no code generated.

Each record has the same constructor signature, equality only with a record
of its own class, the hash of its field tuple, the dataclass repr, an
AttributeError on assignment, pickling, copying and `__replace__`.
"""

import copy
import inspect
import pickle
import sys

import pytest

from urbasis import (
    BasisTrace,
    BoundCheck,
    ConstructionStep,
    ExplicitReaches,
    Greedy,
    GrowthConfigError,
    IntSet,
    LogGrowth,
    LogLogGrowth,
    RepReport,
    ThresholdTable,
    Verdict,
    run_greedy,
)

STEPS = run_greedy(2).steps

# class, constructor arguments, signature, field names, a valid change, a change the constructor refuses
CASES = [
    (IntSet, ((0, 1),), "(elements=())", ("elements",),
     {"elements": (-1, 0)}, ({"elements": (1, 0)}, ValueError, "strictly increasing")),
    (ConstructionStep, (1, IntSet((0, 1)), 1, 1, False, None), "(k, basis, radius, gap, positive_branch, reach=None)",
     ("k", "basis", "radius", "gap", "positive_branch", "reach"), {"reach": 1}, None),
    (BasisTrace, (STEPS, "greedy"), "(steps, mode='')", ("steps", "mode"),
     {"mode": "explicit"}, ({"steps": ()}, ValueError, "at least one stage")),
    (Greedy, (), "()", (), {}, None),
    (ExplicitReaches, ((1, 4),), "(values)", ("values",), {"values": (2,)}, None),
    (ThresholdTable, (((4, 10), (6, 100)),), "(table)", ("table",),
     {"table": ((4, 1),)}, ({"table": ()}, GrowthConfigError, "empty")),
    (LogGrowth, (2.0, 1.5), "(scale=1.0, offset=0.0)", ("scale", "offset"),
     {"offset": -1.0}, ({"scale": 0.0}, ValueError, "scale must be positive")),
    (LogLogGrowth, (2.0, 4.0, 3), "(scale=1.0, offset=0.0, shift=3)", ("scale", "offset", "shift"),
     {"shift": 5}, ({"shift": 0}, ValueError, "shift must be >= 1")),
    (RepReport, (-2, 2, {0: 1, 2: 1}), "(lo, hi, nonzero)", ("lo", "hi", "nonzero"), {"hi": 3}, None),
    (Verdict, (True, "gap", None), "(ok, check, witness=None)", ("ok", "check", "witness"), {"ok": False}, None),
    (BoundCheck, ("sqrt-cap", 10, 3, None, 8.9, True), "(name, x, observed, lower, upper, holds)",
     ("name", "x", "observed", "lower", "upper", "holds"), {"holds": False}, None),
]
IDS = [case[0].__name__ for case in CASES]


def _signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    return "(" + ", ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}" for p in params) + ")"


def _fields(record, names):
    return tuple(getattr(record, name) for name in names)


@pytest.mark.parametrize("cls, args, signature, names, change, refused", CASES, ids=IDS)
class TestRecordContract:
    def test_constructor_signature(self, cls, args, signature, names, change, refused):
        assert _signature(cls) == signature
        assert _fields(cls(*args), names) == args
        assert cls(**dict(zip(names, args))) == cls(*args)

    def test_equal_only_within_the_class(self, cls, args, signature, names, change, refused):
        record = cls(*args)
        assert record == cls(*args) and not record != cls(*args)
        assert record != type("Sub", (cls,), {})(*args)
        assert record != args and record != dict(zip(names, args))
        if change:
            assert record != cls(**{**dict(zip(names, args)), **change})

    def test_hash_is_the_field_tuple_hash(self, cls, args, signature, names, change, refused):
        record = cls(*args)
        if cls is RepReport:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(record)
        else:
            assert hash(record) == hash(_fields(record, names)) == hash(cls(*args))

    def test_dataclass_repr(self, cls, args, signature, names, change, refused):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, args))
        assert repr(cls(*args)) == f"{cls.__name__}({shown})"

    def test_fields_cannot_be_assigned_or_deleted(self, cls, args, signature, names, change, refused):
        record = cls(*args)
        for name in (*names, "other"):
            with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
                setattr(record, name, 0)
            with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
                delattr(record, name)
        assert _fields(record, names) == args

    def test_pickle_and_copy(self, cls, args, signature, names, change, refused):
        record = cls(*args)
        copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in (*copies, copy.copy(record), copy.deepcopy(record)):
            assert type(other) is cls and other == record and other is not record
            with pytest.raises(AttributeError):
                setattr(other, names[0] if names else "other", 0)

    def test_replace(self, cls, args, signature, names, change, refused):
        record = cls(*args)
        same = record.__replace__()
        assert same == record and same is not record
        changed = record.__replace__(**change)
        assert changed == cls(**{**dict(zip(names, args)), **change})
        assert record == cls(*args)
        with pytest.raises(TypeError):
            record.__replace__(no_such_field=1)
        if refused is not None:
            changes, error, message = refused
            with pytest.raises(error, match=message):
                record.__replace__(**changes)


def test_a_table_keeps_its_pairs_in_target_order():
    # the one record whose constructor stores other than it was given; a copy is made by the same rule
    table = ThresholdTable({6: 100, 4: 10})
    assert repr(table) == "ThresholdTable(table=((4, 10), (6, 100)))"
    assert pickle.loads(pickle.dumps(table)).table == copy.copy(table).table == ((4, 10), (6, 100))
    assert table.__replace__().table == ((4, 10), (6, 100))


def test_a_step_repr_nests_its_basis():
    step = run_greedy(1).final
    assert repr(step) == ("ConstructionStep(k=1, basis=IntSet(elements=(0, 1)), radius=1, gap=1, "
                          "positive_branch=False, reach=None)")


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
def test_copy_replace():
    step = run_greedy(3).steps[0]
    assert copy.replace(step, reach=7) == step.__replace__(reach=7)
    assert copy.replace(step, reach=7).reach == 7 and step.reach == 1
    with pytest.raises(ValueError, match="strictly increasing"):
        copy.replace(step.basis, elements=(1, 0))
