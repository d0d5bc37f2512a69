"""The constructor ``market.record`` generates: a ``__new__`` that fills a private
twin of the class with plain attribute stores and hands it back as the class.

Every record is final outside the module that defines it, so that one
constructor builds every instance: a subclass from any other module, or one
that adds a ``__dict__`` or slots, raises ``TypeError`` when it is defined.
The six trade classes are the one kind of subclass there is, each a
``_Trade`` with ``__slots__ = ()`` in the ledger's module, built by
``_Trade``'s own ``__new__``.  No twin instance is ever seen outside the
constructor.  The engine's own per-event and per-run builds call that
``__new__`` directly, bound once per module, and get the same records.
"""

import copy
import pickle

import pytest

from realize import dsl, ledger, realization, scenario, taxation
from realize.errors import InvalidQuantity
from realize.ledger import Buy, Death, Ledger, LedgerEffects, Lot, _Trade, apply_event
from realize.market import record
from realize.realization import RealizationEvent
from realize.scenario import RunReport, builtin, compare, parse_scenario

from test_records import RECORDS, SAMPLES, TRADE_KINDS


def refusal(cls, sub):
    return rf"^{sub} cannot subclass record class {cls.__qualname__}: a record is final outside {cls.__module__}, "


@pytest.mark.parametrize("cls", RECORDS + TRADE_KINDS, ids=lambda c: c.__name__)
class TestSeal:
    def test_a_subclass_from_another_module_is_refused_when_defined(self, cls):
        with pytest.raises(TypeError, match=refusal(cls, "Sub")):
            class Sub(cls):
                __slots__ = ()
        for namespace in ({}, {"__slots__": ()}, {"__slots__": ("extra",)}):
            with pytest.raises(TypeError, match=refusal(cls, "Made")):
                type("Made", (cls,), namespace)

    def test_in_its_own_module_only_a_slotless_subclass_is_made(self, cls):
        for namespace in ({}, {"__slots__": ("extra",)}):
            with pytest.raises(TypeError, match=refusal(cls, "Kind")):
                type("Kind", (cls,), {"__module__": cls.__module__, **namespace})
        kind = type("Kind", (cls,), {"__module__": cls.__module__, "__slots__": ()})
        assert kind.__new__ is cls.__new__

    def test_one_generated_constructor_builds_it(self, cls):
        owner = _Trade if cls in TRADE_KINDS else cls
        assert "__new__" in vars(owner) and cls.__new__ is owner.__new__
        assert cls.__new__.__code__.co_filename == "<string>"


@pytest.mark.parametrize("kind", TRADE_KINDS, ids=lambda k: k.__name__)
def test_each_trade_class_is_a_slotless_trade_of_the_ledger_module(kind):
    assert vars(kind)["__slots__"] == () and kind.__bases__ == (_Trade,)
    assert kind.__module__ == _Trade.__module__ == "realize.ledger"
    assert kind.__new__ is _Trade.__new__ and type(kind(1, "ABC", 5)) is kind


def reachable(root):
    """Every object reachable from ``root`` through record fields and built-in containers."""
    seen, todo = {}, [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if hasattr(type(obj), "__match_args__"):
            todo.extend(getattr(obj, name) for name in type(obj).__match_args__)
        elif isinstance(obj, (tuple, list, frozenset, set)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.keys())
            todo.extend(obj.values())
        elif isinstance(obj, Ledger):
            todo.extend(vars(obj).values())
        elif hasattr(obj, "__iter__") and not isinstance(obj, (str, bytes)):  # deques and views
            todo.extend(obj)
    return list(seen.values())


PUBLIC = set(SAMPLES) | set(TRADE_KINDS)


@pytest.mark.parametrize("name", ["strategy3", "death_avoidance"])
def test_no_twin_escapes_a_comparison_or_a_ledger(name):
    scenario = builtin(name)
    roots = [compare(scenario)]
    book = Ledger()
    for ev in scenario.events:
        book, effects = apply_event(book, ev, scenario.prices)
        roots.append(effects)
    roots.append(book)
    records = [obj for root in roots for obj in reachable(root) if hasattr(type(obj), "__match_args__")]
    assert {type(obj) for obj in records} <= PUBLIC
    assert {"ComparisonReport", "RunReport", "RealizationEvent", "TaxLine", "CashPoint", "Money",
            "LedgerEffects", "Lot"} <= {type(obj).__name__ for obj in records}


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_no_twin_escapes_a_sampled_record(cls):
    obj = cls(*SAMPLES[cls])
    assert type(obj) is cls and obj.__class__ is cls
    assert type(copy.copy(obj)) is cls and type(pickle.loads(pickle.dumps(obj))) is cls


def test_a_failed_check_leaves_no_instance_half_built():
    @record
    class Checked:
        a: int

        def __post_init__(self):
            assert type(self) is Checked  # the check already sees the public class
            if self.a < 0:
                raise ValueError("negative")

    assert Checked(1).a == 1
    with pytest.raises(ValueError, match="negative"):
        Checked(-1)


class Plain:
    """A base class that is no record: a record subclassing a record is refused by the seal first."""


def test_a_class_with_its_own_constructor_or_a_base_is_refused():
    message = r"record class \w+ takes no base class and no __init__ or __new__ of its own"
    with pytest.raises(TypeError, match=message):
        @record
        class WithInit:
            a: int

            def __init__(self, a):
                pass
    with pytest.raises(TypeError, match=message):
        @record
        class WithNew:
            a: int

            def __new__(cls, a):
                return object.__new__(cls)
    with pytest.raises(TypeError, match=message):
        @record
        class WithBase(Plain):
            extra: int = 0


# Each module's constructor bound for direct calls, by (module, name, the class it builds).
BOUND = [
    (ledger, "_new_lot", Lot),
    (ledger, "_new_position", ledger.BorrowPosition),
    (ledger, "_new_effects", LedgerEffects),
    (realization, "_new_event", RealizationEvent),
    (taxation, "_new_line", taxation.TaxLine),
    (dsl, "_new_trade", _Trade),
    (dsl, "_new_death", Death),
    (scenario, "_new_point", scenario.CashPoint),
    (scenario, "_new_summary", scenario.InventorySummary),
    (scenario, "_new_report", RunReport),
    (scenario, "_new_delta", scenario.TaxDelta),
    (scenario, "_new_comparison", scenario.ComparisonReport),
]


@pytest.mark.parametrize("module, name, cls", BOUND, ids=[name for _, name, _ in BOUND])
def test_each_bound_constructor_is_its_class_s_generated_new(module, name, cls):
    assert getattr(module, name) is cls.__new__
    assert cls.__new__.__code__.co_filename == "<string>"


DIRECT = [entry for entry in BOUND if entry[2] in (Lot, LedgerEffects, RealizationEvent, RunReport)]


@pytest.mark.parametrize("module, name, cls", DIRECT, ids=[cls.__name__ for *_, cls in DIRECT])
def test_a_direct_build_is_the_record_a_class_call_builds(module, name, cls):
    direct, called = getattr(module, name)(cls, *SAMPLES[cls]), cls(*SAMPLES[cls])
    assert type(direct) is cls and direct.__class__ is cls
    assert direct == called and hash(direct) == hash(called)


def test_a_direct_build_still_runs_the_check():
    with pytest.raises(InvalidQuantity, match="^quantity must be positive, got 0$"):
        dsl._new_trade(Buy, 1, "A", 0)
    with pytest.raises(InvalidQuantity) as exc:
        parse_scenario("price A 1 10\nat 1 buy A 0\n")
    assert (exc.value.line, exc.value.col) == (2, 12)
    assert str(exc.value) == "line 2, col 12: quantity must be positive, got 0"
