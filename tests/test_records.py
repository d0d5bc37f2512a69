"""The engine records built by ``market.record``: frozen, slotted dataclasses
whose generated ``__init__`` writes the slots directly.

Each record is checked against a reference made by the plain
``@dataclass(frozen=True, slots=True)`` machinery from the same fields, so
the generated ``__init__`` must accept, default and reject exactly what the
dataclass one would.
"""

import copy
import dataclasses
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import realize
from realize.errors import InvalidQuantity
from realize.ledger import (
    AcquisitionMethod,
    Borrow,
    BorrowPosition,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    LedgerEffects,
    Lot,
    LotSlice,
    SellOwned,
    ShortSell,
    ShortSlice,
    _Trade,
)
from realize.market import Money, record
from realize.realization import ConstructiveReservation, RealizationEvent, RealizationKind
from realize.scenario import CashPoint
from realize.taxation import TaxLine

TRADE_KINDS = [Buy, Borrow, ShortSell, SellOwned, CoverByPurchase, CoverByOwnedLot]

P = Money(5000)
LOT = Lot(0, "ABC", 100, P, 1)
POSITION = BorrowPosition(0, "ABC", 100, 1, 100, P, 2, 40)
LOT_SLICE = LotSlice(0, 50, P, 1, AcquisitionMethod.PURCHASE, 100)
SHORT_SLICE = ShortSlice(0, 50, P, 2)

# A value for every field, in field order; the defaulted fields get non-default values.
SAMPLES = {
    Lot: (0, "ABC", 100, P, 1, AcquisitionMethod.INHERITANCE),
    BorrowPosition: (0, "ABC", 100, 1, 100, P, 2, 40),
    _Trade: (1, "ABC", 100),
    LotSlice: (0, 50, P, 1, AcquisitionMethod.PURCHASE, 100),
    ShortSlice: (0, 50, P, 2),
    LedgerEffects: (
        CoverByOwnedLot(3, "ABC", 50), 3, "ABC", 50, P, Money(-1), LOT, POSITION,
        (LOT_SLICE,), (SHORT_SLICE,), (SHORT_SLICE, SHORT_SLICE), (LOT,),
    ),
    RealizationEvent: (3, RealizationKind.SHORT_COVER, "ABC", 100, P, Money(3000)),
    ConstructiveReservation: (0, 50, 2, "ABC"),
    CashPoint: (1, Money(-500000), Money(-500000)),
    TaxLine: (3, Money(200000), Money(10000)),
}
RECORDS = list(SAMPLES)


def reference(cls):
    """The class the plain frozen, slotted dataclass decorator makes of ``cls``'s fields."""
    spec = [
        (f.name, f.type) if f.default is dataclasses.MISSING else (f.name, f.type, f.default)
        for f in dataclasses.fields(cls)
    ]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(
        cls.__name__, spec, namespace=namespace, frozen=True, slots=True
    )


def names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def required(cls):
    return sum(f.default is dataclasses.MISSING for f in dataclasses.fields(cls))


def values(obj):
    return [getattr(obj, n) for n in names(type(obj))]


def type_error(make):
    with pytest.raises(TypeError) as info:
        make()
    return str(info.value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecord:
    def test_signature_is_the_dataclass_one(self, cls):
        ref = reference(cls)
        assert inspect.signature(cls) == inspect.signature(ref)
        assert cls.__init__.__annotations__ == ref.__init__.__annotations__
        assert cls.__init__.__defaults__ == ref.__init__.__defaults__
        assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__init__.__module__ == cls.__module__
        assert cls.__dataclass_params__.init

    def test_positional_keyword_and_defaulted_construction_agree(self, cls):
        args = SAMPLES[cls]
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names(cls), args)))
        assert by_position == by_keyword
        assert values(by_position) == list(args) == values(reference(cls)(*args))
        n = required(cls)
        defaults = [f.default for f in dataclasses.fields(cls)[n:]]
        defaulted = cls(*args[:n])
        assert defaulted == cls(*args[:n], *defaults)
        assert values(defaulted) == list(args[:n]) + defaults
        if defaults:
            assert defaulted != by_position
            assert cls(*args[: n + 1]) == cls(*args[:n], **{names(cls)[n]: args[n]})

    def test_bad_arguments_raise_the_dataclass_type_errors(self, cls):
        args, ref = SAMPLES[cls], reference(cls)
        first = names(cls)[0]
        cases = [
            lambda c: c(),
            lambda c: c(*args[: required(cls) - 1]),
            lambda c: c(*args, args[0]),
            lambda c: c(*args, nope=1),
            lambda c: c(*args, **{first: args[0]}),
        ]
        for case in cases:
            message = type_error(lambda: case(cls))
            assert message.startswith(f"{cls.__qualname__}.__init__() ")
            assert message == type_error(lambda: case(ref))

    def test_fields_and_replace(self, cls):
        obj = cls(*SAMPLES[cls])
        assert names(cls) == list(cls.__dataclass_fields__)
        last = names(cls)[-1]
        changed = dataclasses.replace(obj, **{last: SAMPLES[cls][0]})
        assert type(changed) is cls
        assert values(changed) == [*SAMPLES[cls][:-1], SAMPLES[cls][0]]
        assert dataclasses.replace(obj) == obj

    def test_frozen_slotted_value(self, cls):
        obj = cls(*SAMPLES[cls])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, names(cls)[0], SAMPLES[cls][0])
        assert not hasattr(obj, "__dict__")
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj
        assert hash(obj) == hash(cls(*SAMPLES[cls]))
        assert repr(obj) == repr(reference(cls)(*SAMPLES[cls]))

    def test_match_args(self, cls):
        assert cls.__match_args__ == tuple(names(cls)) == reference(cls).__match_args__
        match cls(*SAMPLES[cls]):
            case cls(first, second):  # positional patterns read the first two fields
                assert [first, second] == list(SAMPLES[cls][:2])
            case _:
                pytest.fail("positional class pattern did not match")


@pytest.mark.parametrize("kind", TRADE_KINDS, ids=lambda k: k.__name__)
class TestTradeQuantityCheck:
    def test_every_construction_path_checks_qty(self, kind):
        ev = kind(1, "ABC", 5)
        assert (type(ev), values(ev)) == (kind, [1, "ABC", 5])
        for qty in (0, -1):
            with pytest.raises(InvalidQuantity):
                kind(1, "ABC", qty)
            with pytest.raises(InvalidQuantity):
                kind(at=1, sec="ABC", qty=qty)
            with pytest.raises(InvalidQuantity):
                dataclasses.replace(ev, qty=qty)

    def test_inherits_the_trade_init(self, kind):
        assert kind.__init__ is _Trade.__init__
        assert inspect.signature(kind) == inspect.signature(_Trade)


class TestRecordDecorator:
    def test_post_init_runs_after_every_slot_is_set(self):
        @record
        class Pair:
            a: int
            b: int = 2

            def __post_init__(self):
                if self.a > self.b:
                    raise ValueError(f"{self.a} > {self.b}")

        assert Pair(1) == Pair(1, 2)
        with pytest.raises(ValueError, match="3 > 2"):
            Pair(3)
        assert Pair.__doc__ == "Pair(a: int, b: int = 2)"

    def test_default_factory_is_refused(self):
        with pytest.raises(TypeError, match="default factory"):
            @record
            class Bag:
                items: list = dataclasses.field(default_factory=list)


OPTIMIZED_TRADE_CHECK = """
import sys
from realize import Buy
from realize.errors import InvalidQuantity
if sys.flags.optimize != 1:
    sys.exit(3)
try:
    Buy(1, "A", 0)
except InvalidQuantity:
    sys.exit(0)
sys.exit(4)
"""


def test_trade_check_survives_python_o():
    src = str(Path(realize.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_TRADE_CHECK],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
