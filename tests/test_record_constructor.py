"""The constructor ``market.record`` generates: a ``__new__`` that fills a private
twin of the class with plain attribute stores and hands it back as the class.

A subclass of a record keeps working whatever its layout: one with
``__slots__ = ()`` shares its base's constructor, and one that adds a
``__dict__`` or slots gets its own, which builds the subclass itself.  No twin
instance is ever seen outside the constructor, and no class hook ever sees a
twin class.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from realize import market
from realize.errors import InvalidQuantity
from realize.ledger import Buy, CoverByOwnedLot, Death, Ledger, SellOwned, _Trade, apply_event
from realize.market import record
from realize.realization import Regime
from realize.scenario import Scenario, builtin, compare, run

from test_records import SAMPLES, TRADE_KINDS


class DictBuy(Buy):
    """No ``__slots__``: its instances carry a ``__dict__``, which no twin of ``_Trade`` has."""


class NotedSale(SellOwned):
    __slots__ = ("note",)


class DictDeath(Death):
    pass


class SlotlessCover(CoverByOwnedLot):
    __slots__ = ()


SUBCLASSES = [(DictBuy, Buy), (NotedSale, SellOwned), (DictDeath, Death), (SlotlessCover, CoverByOwnedLot)]
OWN_NEW = {DictBuy, NotedSale, DictDeath}


def make(kind):
    return kind(3, "Y") if issubclass(kind, Death) else kind(1, "ABC", 5)


def recast(scenario, base, sub):
    """``scenario`` with every event of exactly class ``base`` rebuilt as a ``sub``."""
    events = tuple(
        sub(*(getattr(ev, name) for name in ev.__match_args__)) if type(ev) is base else ev
        for ev in scenario.events
    )
    assert any(type(ev) is sub for ev in events)
    return Scenario(scenario.name, scenario.prices, events)


@pytest.mark.parametrize("sub, base", SUBCLASSES, ids=lambda c: c.__name__)
class TestSubclassLayouts:
    def test_constructs_as_itself_with_the_base_checks(self, sub, base):
        obj = make(sub)
        assert type(obj) is sub and obj == sub(*(getattr(obj, n) for n in obj.__match_args__))
        assert obj != make(base)  # equality stays by exact class
        if issubclass(sub, _Trade):
            with pytest.raises(InvalidQuantity):
                sub(1, "ABC", 0)
            with pytest.raises(TypeError, match=r"^_Trade\.__init__\(\) missing 1 required"):
                sub(1, "ABC")

    def test_a_new_layout_gets_its_own_constructor_and_an_empty_one_shares_it(self, sub, base):
        assert ("__new__" in vars(sub)) is (sub in OWN_NEW)
        assert inspect.signature(sub) == inspect.signature(base)
        assert sub.__new__.__qualname__ == base.__new__.__qualname__
        assert sub.__new__.__defaults__ == base.__new__.__defaults__
        assert not [c for c in base.__subclasses__() if c.__name__.endswith("Slots")]  # no twin beside it
        grandchild = type("Grandchild", (sub,), {"__slots__": ()})
        assert grandchild.__new__ is sub.__new__
        assert type(make(grandchild)) is grandchild

    def test_refuses_every_set_and_delete(self, sub, base):
        obj = make(sub)
        for name in ("at", "extra", "note"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)
        assert getattr(obj, "__dict__", {}) == {}

    def test_pickle_and_copy_round_trip(self, sub, base):
        obj = make(sub)
        for again in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(again) is sub and again == obj

    @pytest.mark.parametrize("regime", list(Regime), ids=lambda r: r.value)
    def test_dispatches_as_its_base(self, sub, base, regime):
        assert sub._step is base._step
        used = 0
        for name in ("strategy1", "strategy3", "death_avoidance"):
            scenario = builtin(name)
            if any(type(ev) is base for ev in scenario.events):
                assert run(recast(scenario, base, sub), regime) == run(scenario, regime)
                used += 1
        assert used


def test_a_mixin_hook_runs_for_the_subclass_and_never_sees_a_twin():
    seen = []

    class Hooked:
        def __init_subclass__(cls, **kwargs):
            seen.append(cls.__name__)
            super().__init_subclass__(**kwargs)

    class After(Buy, Hooked):  # the record's hook comes first and must pass the call on
        pass

    class Before(Hooked, Buy):
        pass

    class Slotted(Before):  # a new layout below the mixin
        __slots__ = ("n",)

    class Dicted(Slotted):
        pass

    assert seen == ["After", "Before", "Slotted", "Dicted"]
    for cls in (After, Before, Slotted, Dicted):
        assert type(cls(1, "ABC", 5)) is cls and cls(1, "ABC", 5) == cls(1, "ABC", 5)
    with pytest.raises(InvalidQuantity):
        Dicted(1, "ABC", 0)


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
        class WithBase(market.Rate):
            extra: int = 0
