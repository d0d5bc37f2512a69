"""The value classes built by ``market.record``: frozen and slotted, with
methods generated once per class and no ``dataclasses`` call.

Each record is checked against a reference made by the plain
``@dataclass(frozen=True, slots=True)`` machinery from the same fields (its
``__match_args__``, with the annotations and defaults of its constructor), so
the generated constructor (a ``__new__``), ``__eq__``, ``__hash__``, ``__repr__`` and pickling
must accept, default, reject and show exactly what the dataclass ones
would.  A record is not itself a dataclass: ``dataclasses`` helpers do not
apply to it.
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
from realize import ledger, market, realization, scenario, taxation
from realize.errors import InvalidQuantity
from realize.ledger import (
    Borrow,
    BorrowPosition,
    Buy,
    CoverByOwnedLot,
    CoverByPurchase,
    Death,
    LedgerEffects,
    Lot,
    SellOwned,
    ShortSell,
    _Trade,
)
from realize.market import Money, PricePath, record
from realize.realization import RealizationEvent, RealizationKind
from realize.scenario import (
    CashPoint,
    ComparisonReport,
    GridRow,
    InventorySummary,
    RunReport,
    Scenario,
    TaxDelta,
    compare,
    run,
)
from realize.taxation import TaxLine

TRADE_KINDS = [Buy, Borrow, ShortSell, SellOwned, CoverByPurchase, CoverByOwnedLot]

P = Money(5000)
LOT = Lot(0, "ABC", 100, P)
POSITION = BorrowPosition(0, "ABC", 60, P)
PATH = PricePath({("ABC", 1): P, ("ABC", 2): Money(8000)})
# An empty name: ``test_fields_and_replace`` puts it in as the events, which must validate.
SCENARIO = Scenario("", PATH, (Buy(1, "ABC", 100), SellOwned(2, "ABC", 100)))
REPORT = run(SCENARIO)
COMPARISON = compare(SCENARIO)


def own_values(obj):
    return tuple(getattr(obj, name) for name in type(obj).__match_args__)


# A value for every field, in field order; the defaulted fields get non-default values.
SAMPLES = {
    Lot: (0, "ABC", 100, P),
    BorrowPosition: (0, "ABC", 60, P),
    _Trade: (1, "ABC", 100),
    LedgerEffects: (CoverByOwnedLot(3, "ABC", 50), P, -1, ((LOT, 50),), ((POSITION, 50), (POSITION, 10)), 1),
    RealizationEvent: (3, RealizationKind.SHORT_COVER, "ABC", 100, P, Money(3000)),
    CashPoint: (1, Money(-500000), Money(-500000)),
    TaxLine: (3, Money(200000), Money(10000)),
    Money: (5000,),
    PricePath: (dict(PATH.quotes),),
    Death: (3, "Y"),
    Scenario: own_values(SCENARIO),
    InventorySummary: ((("ABC", 5),), (("XYZ", 2),), 1),
    RunReport: own_values(REPORT),
    TaxDelta: (3, P, Money(0)),
    ComparisonReport: own_values(COMPARISON),
    GridRow: (P, Money(10000), Money(-5000), Money(2500)),
}
RECORDS = list(SAMPLES)


def names(cls):
    return list(cls.__match_args__)


def defaults(cls):
    """The defaults of the last fields, in field order, as the constructor holds them."""
    return list(cls.__new__.__defaults__ or ())


def required(cls):
    return len(names(cls)) - len(defaults(cls))


def reference(cls):
    """The class the plain frozen, slotted dataclass decorator makes of ``cls``'s fields."""
    annotations, n = cls.__new__.__annotations__, required(cls)
    spec = [(name, annotations[name]) for name in names(cls)[:n]]
    spec += [(name, annotations[name], default) for name, default in zip(names(cls)[n:], defaults(cls))]
    namespace = {"__post_init__": cls.__post_init__} if hasattr(cls, "__post_init__") else {}
    return dataclasses.make_dataclass(
        cls.__name__, spec, namespace=namespace, frozen=True, slots=True
    )


def values(obj):
    return [getattr(obj, n) for n in names(type(obj))]


def type_error(make):
    with pytest.raises(TypeError) as info:
        make()
    return str(info.value)


def hash_of(obj):
    try:
        return hash(obj)
    except TypeError as err:  # a field holds a dict (PricePath's quotes, so Scenario's prices)
        return str(err)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecord:
    def test_signature_is_the_dataclass_one(self, cls):
        ref = reference(cls)
        assert inspect.signature(cls) == inspect.signature(ref)
        # The generated constructor is __new__, named as dataclass names its __init__.
        assert cls.__new__.__annotations__ == ref.__init__.__annotations__
        assert cls.__new__.__defaults__ == ref.__init__.__defaults__
        assert cls.__new__.__qualname__ == f"{cls.__qualname__}.__init__"
        assert cls.__new__.__module__ == cls.__module__
        assert cls.__init__ is object.__init__

    def test_positional_keyword_and_defaulted_construction_agree(self, cls):
        args = SAMPLES[cls]
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(names(cls), args)))
        assert by_position == by_keyword
        assert values(by_position) == list(args) == values(reference(cls)(*args))
        n = required(cls)
        defaulted = cls(*args[:n])
        assert defaulted == cls(*args[:n], *defaults(cls))
        assert values(defaulted) == list(args[:n]) + defaults(cls)
        if defaults(cls):
            assert defaulted != by_position
            assert cls(*args[: n + 1]) == cls(*args[:n], **{names(cls)[n]: args[n]})

    def test_bad_arguments_raise_the_dataclass_type_errors(self, cls):
        args, ref = SAMPLES[cls], reference(cls)
        first = names(cls)[0]
        missing = [lambda c: c(), lambda c: c(*args[: required(cls) - 1])] if required(cls) else []
        cases = [
            *missing,
            lambda c: c(*args, args[0]),
            lambda c: c(*args, nope=1),
            lambda c: c(*args, **{first: args[0]}),
        ]
        for case in cases:
            message = type_error(lambda: case(cls))
            assert message.startswith(f"{cls.__qualname__}.__init__() ")
            assert message == type_error(lambda: case(ref))

    def test_is_no_dataclass(self, cls):
        obj = cls(*SAMPLES[cls])
        assert not dataclasses.is_dataclass(cls) and not dataclasses.is_dataclass(obj)
        assert not hasattr(cls, "__dataclass_fields__") and not hasattr(cls, "__dataclass_params__")
        assert ("__lt__" in vars(cls)) is (cls is Money)  # only Money is ordered

    def test_frozen_slotted_value(self, cls):
        obj = cls(*SAMPLES[cls])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, names(cls)[0], SAMPLES[cls][0])
        assert not hasattr(obj, "__dict__")
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert copy.deepcopy(obj) == obj
        assert copy.copy(obj) == obj
        ref = reference(cls)(*SAMPLES[cls])
        assert hash_of(obj) == hash_of(cls(*SAMPLES[cls]))
        assert type(hash_of(obj)) is type(hash_of(ref))  # hashable exactly when the dataclass is
        assert repr(obj) == repr(ref)
        assert cls.__doc__ and cls.__doc__ != ref.__doc__  # its own, not the signature

    def test_equality_is_by_class_and_fields(self, cls):
        obj, twin = cls(*SAMPLES[cls]), cls(*SAMPLES[cls])
        assert obj == twin and not obj != twin
        assert obj != reference(cls)(*SAMPLES[cls])  # same fields, another class
        assert obj != SAMPLES[cls]
        if len(names(cls)) > 1:
            assert obj != cls(*SAMPLES[cls][:-1], SAMPLES[cls][0])

    def test_match_args(self, cls):
        assert cls.__match_args__ == tuple(names(cls)) == reference(cls).__match_args__
        match cls(*SAMPLES[cls]):
            case cls(first) if len(names(cls)) == 1:
                assert first == SAMPLES[cls][0]
            case cls(first, second):  # positional patterns read the first two fields
                assert [first, second] == list(SAMPLES[cls][:2])
            case _:
                pytest.fail("positional class pattern did not match")


def test_every_value_class_is_a_sampled_record():
    made = {
        obj
        for module in (market, ledger, realization, scenario, taxation)
        for obj in vars(module).values()
        if isinstance(obj, type) and "__match_args__" in vars(obj)
    }
    assert made == set(RECORDS)
    assert all(cls.__setattr__ is market._refuse_set for cls in made)


FROZEN_VALUES = [kind(1, "ABC", 5) for kind in TRADE_KINDS]  # Money is one of the RECORDS
FROZEN_VALUES += [cls(*SAMPLES[cls]) for cls in RECORDS]


@pytest.mark.parametrize("obj", FROZEN_VALUES, ids=lambda o: type(o).__name__)
def test_no_attribute_can_be_set_or_deleted(obj):
    for name in (names(type(obj))[0], "extra"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)


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

    def test_inherits_the_trade_init(self, kind):
        assert kind.__new__ is _Trade.__new__ and "__new__" in vars(_Trade)
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
        assert Pair.__doc__ is None  # none is generated

    def test_bad_field_orders_and_mutable_defaults_are_refused(self):
        with pytest.raises(TypeError, match="non-default argument 'b' follows default argument"):
            @record
            class Late:
                a: int = 1
                b: int
        with pytest.raises(ValueError, match="mutable default"):
            @record
            class Shared:
                items: list = []

    def test_methods_the_class_defines_are_kept(self):
        @record
        class Shown:
            a: int

            def __repr__(self):
                return "shown"

        assert repr(Shown(1)) == "shown" and Shown(1) == Shown(1)


class TestMoneyRecord:
    def test_orders_by_centavos(self):
        assert Money(-1) <= Money(-1) < Money(0) <= Money(1) and Money(2) >= Money(2) > Money(1)
        assert sorted([Money(3), Money(-2), Money(0)]) == [Money(-2), Money(0), Money(3)]
        assert max(Money(3), Money(7)) == Money(7)

    @pytest.mark.parametrize("other", [5, 5.0, None, "5", (5,)])
    def test_comparing_with_anything_else_is_a_type_error(self, other):
        for compare_to in (
            lambda: Money(5) < other, lambda: Money(5) <= other,
            lambda: Money(5) > other, lambda: Money(5) >= other,
            lambda: other < Money(5),
        ):
            with pytest.raises(TypeError):
                compare_to()
        assert Money(5) != other and not Money(5) == other


def test_a_price_path_stays_unhashable():
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(PATH)
    with pytest.raises(TypeError, match="unhashable type: 'dict'"):
        hash(SCENARIO)


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

# Exit 10 + i names the check that did not raise.
OPTIMIZED_VALUE_CHECKS = """
import sys
from realize import Buy, Money, PricePath, Scenario
from realize.errors import InvalidSymbol, NonMonotonicTick, UndefinedPrice
if sys.flags.optimize != 1:
    sys.exit(3)
path = PricePath({("A", 1): Money(100), ("A", 2): Money(100)})
checks = [
    (NonMonotonicTick, lambda: Scenario("s", path, (Buy(2, "A", 1), Buy(1, "A", 1)))),
    (UndefinedPrice, lambda: Scenario("s", path, (Buy(3, "A", 1),))),
    (TypeError, lambda: Money(1.5)),
    (InvalidSymbol, lambda: Scenario(123, path)),
]
for code, (error, make) in enumerate(checks, start=10):
    try:
        make()
    except error:
        continue
    sys.exit(code)
"""


def run_optimized(script):
    src = str(Path(realize.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120,
    )


def test_scenario_and_money_checks_survive_python_o():
    done = run_optimized(OPTIMIZED_VALUE_CHECKS)
    assert done.returncode == 0, (done.returncode, done.stderr)


def test_trade_check_survives_python_o():
    done = run_optimized(OPTIMIZED_TRADE_CHECK)
    assert done.returncode == 0, done.stderr
