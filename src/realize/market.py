"""Exact money arithmetic, tax rates, and per-tick price quotes.

Every amount in the engine is an integer count of centavos.  Floating point
never enters any computation; the single place rounding can occur is
``apply_rate``, which rounds half-to-even at the centavo.  ``pesos`` is the
one place an amount becomes text: ``str(Money)``, the CLI reports, the golden
tables and the DSL printer all call it, each with its own flags.

Every value class of the package is made by ``record``: frozen and slotted,
with a ``__new__`` generated once per class.  It fills a private twin class
that holds the slots, with plain attribute stores, and hands the instance
back as the frozen class before its ``__post_init__`` check, so no record is
seen half built.  ``_money`` builds ``Money`` results the same way, trusted
to be given ints, without the check.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import attrgetter, eq, ge, gt, le, lt

from .errors import InvalidSymbol, MissingPrice, NegativeBase

Tick = int
SecurityId = str

CENTAVOS_PER_PESO = 100
_CENTS = tuple(f".{c:02d}" for c in range(CENTAVOS_PER_PESO))  # the text after the whole pesos, by centavos


# The error class is imported only when a refusal raises it, never on the engine's own paths.
def _refuse_set(self, name: str, value: object) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name: str) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({shown})"


def _reduce(self) -> tuple:
    """Pickle and ``copy`` rebuild a record by calling its class, so its checks run again."""
    return self.__class__, tuple(getattr(self, name) for name in self.__match_args__)


def _init_subclass(cls, **kwargs) -> None:
    """A subclass that adds a ``__dict__`` or slots cannot take over an instance of its record's twin,
    whose layout differs.  It gets its own copy of the record's ``__new__``, compiled once, that makes
    an instance of the class itself and fills it through ``object.__setattr__``: no new twin, so no
    other ``__init_subclass__`` hook ever sees one."""
    if cls.__basicsize__ != cls.__base__.__basicsize__:
        new = cls.__new__
        names = new.__code__.co_varnames[1:new.__code__.co_argcount]
        body = ["self = _object_new(cls)", *(f"_set(self, {name!r}, {name})" for name in names)]
        if "__post_init__" in new.__code__.co_names:
            body.append("self.__post_init__()")
        env = {"__name__": cls.__module__, "_object_new": object.__new__, "_set": object.__setattr__}
        exec(f"def __new__(cls, {', '.join(names)}):\n    " + "\n    ".join(body) + "\n    return self", env)
        own = env["__new__"]
        own.__defaults__, own.__annotations__ = new.__defaults__, new.__annotations__
        own.__qualname__ = new.__qualname__  # what the argument TypeErrors name
        cls.__new__ = staticmethod(own)
    # Pass the call on from the record class whose hook this is, so a mixin's hook after it still runs.
    owner = next(c for c in cls.__mro__ if getattr(vars(c).get("__init_subclass__"), "__func__", 0) is _init_subclass)
    super(owner, cls).__init_subclass__(**kwargs)


def _comparison(name: str, op, values):
    """An ``__eq__``-style method comparing field values, for instances of exactly one class."""

    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(values(self), values(other))
        return NotImplemented

    compare.__name__ = name
    return compare


def record(cls: type | None = None, /, *, order: bool = False):
    """Make ``cls`` a frozen, slotted value class.

    The fields are the class's own annotations, in order, with hashable
    plain defaults; a base class or an own ``__init__`` or ``__new__`` is
    refused.  ``__match_args__`` names the fields.  The slots live on a plain
    private twin class, which the record subclasses with ``__slots__ = ()``.
    One ``exec`` per class writes ``__new__``, which makes a blank twin, fills
    it with plain attribute stores, makes it the class, then calls
    ``__post_init__`` when the class has one.  Equality, hashing and, with
    ``order=True``, the four comparisons use the field values, read by one
    ``operator.attrgetter``; ``__repr__`` and pickling read the fields by
    name.  The class's own methods are kept; any attribute write or delete
    raises ``FrozenInstanceError``.
    """
    if cls is None:
        return lambda cls: _build(cls, order)
    return _build(cls, order)


def _build(cls: type, order: bool) -> type:
    ns = dict(cls.__dict__)
    if cls.__bases__ != (object,) or "__init__" in ns or "__new__" in ns:
        raise TypeError(f"record class {cls.__name__} takes no base class and no __init__ or __new__ of its own")
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    annotations = ns.get("__annotations__", {})
    names = tuple(annotations)
    twin = type(f"_{cls.__name__}Slots", (), {"__slots__": names, "__qualname__": f"_{cls.__qualname__}Slots"})
    env: dict[str, object] = {"__name__": cls.__module__, "_blank": twin}
    params, defaulted = ["cls"], False
    for name in names:
        if name not in ns:
            if defaulted:
                raise TypeError(f"non-default argument {name!r} follows default argument")
            params.append(name)
            continue
        default, defaulted = ns.pop(name), True
        if type(default).__hash__ is None:
            raise ValueError(f"mutable default {type(default)} for field {name} is not allowed")
        env[f"_dflt_{name}"] = default
        params.append(f"{name}=_dflt_{name}")

    # Only __new__ is generated: compiling source is most of what building a class costs.
    body = ["self = _blank()", *(f"self.{name} = {name}" for name in names), "self.__class__ = cls"]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __new__({', '.join(params)}):\n    " + "\n    ".join(body) + "\n    return self", env)
    new = env["__new__"]
    new.__annotations__ = {**annotations, "return": None}
    new.__qualname__ = f"{cls.__qualname__}.__init__"  # what the argument TypeErrors name
    values = attrgetter(*names)  # the one field's value itself when there is only one

    def __hash__(self) -> int:
        return hash(values(self))

    methods = {
        "__new__": new,
        "__init_subclass__": _init_subclass,
        "__repr__": _repr,
        "__eq__": _comparison("__eq__", eq, values),
        "__hash__": __hash__,
        "__reduce__": _reduce,
        "__setattr__": _refuse_set,
        "__delattr__": _refuse_delete,
    }
    for op in (lt, le, gt, ge) if order else ():
        methods[f"__{op.__name__}__"] = _comparison(f"__{op.__name__}__", op, values)
    ns = methods | ns  # what the class defines itself wins
    ns["__slots__"], ns["__match_args__"] = (), names
    ns["__qualname__"] = cls.__qualname__
    return type(cls)(cls.__name__, (twin,), ns)


@record(order=True)
class Money:
    """A signed peso amount stored as exact integer centavos.

    Arithmetic takes only ``Money`` operands (and ``int`` share counts for
    ``*``); anything else is ``NotImplemented`` and ends in ``TypeError``.
    """

    centavos: int

    def __post_init__(self) -> None:
        if not isinstance(self.centavos, int) or isinstance(self.centavos, bool):
            raise TypeError(f"centavos must be int, got {type(self.centavos).__name__}")

    @classmethod
    def zero(cls) -> Money:
        return _ZERO

    @classmethod
    def from_pesos(cls, pesos: int) -> Money:
        return cls(pesos * CENTAVOS_PER_PESO)

    def __add__(self, other: Money) -> Money:
        if not isinstance(other, Money):
            return NotImplemented
        return _money(self.centavos + other.centavos)

    def __sub__(self, other: Money) -> Money:
        if not isinstance(other, Money):
            return NotImplemented
        return _money(self.centavos - other.centavos)

    def __neg__(self) -> Money:
        return _money(-self.centavos)

    def __mul__(self, qty: int) -> Money:
        if not isinstance(qty, int):
            return NotImplemented
        return _money(self.centavos * qty)

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return self.centavos != 0

    def __str__(self) -> str:
        return pesos(self.centavos)


def pesos(centavos: int, *, symbol: str = "", cents: bool = True, parens: bool = False) -> str:
    """``centavos`` as peso text with thousands separators: ``-1,234.50``.

    ``symbol`` goes before the digits (``-₱5.00``).  ``cents=False`` drops a
    ``.00`` but keeps any other centavos (``1,234``, ``0.05``).  ``parens``
    writes the size of the amount in parentheses, whatever its sign
    (``(1,234.50)``).
    """
    whole, part = divmod(-centavos if centavos < 0 else centavos, 100)
    # Grouping costs several plain conversions, and most per-share amounts are under 1,000.
    body = f"{symbol}{whole:,}" if whole > 999 else f"{symbol}{whole}"
    if cents or part:
        body += _CENTS[part]
    if parens:
        return f"({body})"
    return "-" + body if centavos < 0 else body


# Trusted construction, as Money's __new__ fills its twin but without the check: faster than a descriptor call.
_MoneySlots = Money.__base__


def _money(centavos: int) -> Money:
    """Trusted constructor: only for ints, such as int +, - and * results."""
    m = _MoneySlots()
    m.centavos = centavos
    m.__class__ = Money
    return m


_ZERO = _money(0)  # frozen, so one instance serves every zero amount

@record
class Rate:
    """A tax rate as an exact fraction, never exceeding 100%."""

    numerator: int
    denominator: int

    def __post_init__(self) -> None:
        if self.denominator <= 0:
            raise ValueError("rate denominator must be positive")
        if not 0 <= self.numerator <= self.denominator:
            raise ValueError("rate must lie between 0% and 100%")

    @classmethod
    def percent(cls, pct: int) -> Rate:
        return cls(pct, 100)

    def __str__(self) -> str:
        if self.denominator == 100:
            return f"{self.numerator}%"
        return f"{self.numerator}/{self.denominator}"


def apply_rate(amount: Money, rate: Rate) -> Money:
    """Multiply a non-negative amount by a rate, rounding half-to-even.

    Raises NegativeBase for negative amounts: the engine never applies a tax
    rate to a loss.
    """
    if amount.centavos < 0:
        raise NegativeBase(f"cannot apply {rate} to negative amount {amount}")
    return _money(_rated(amount.centavos, rate))


def _rated(centavos: int, rate: Rate) -> int:
    """``apply_rate`` on int centavos, which the caller has checked are not negative."""
    q, r = divmod(centavos * rate.numerator, rate.denominator)
    twice = 2 * r
    if twice > rate.denominator or (twice == rate.denominator and q % 2 == 1):
        q += 1
    return q


@record
class PricePath:
    """Per-share price quotes keyed by (security, tick).

    Building one raises ``InvalidSymbol`` for a key that is not a (``str``
    security symbol, tick) pair, so every scenario built on the path can
    rely on its keys.
    """

    quotes: Mapping[tuple[SecurityId, Tick], Money]

    def __post_init__(self) -> None:
        for key in self.quotes:
            if type(key) is not tuple or len(key) != 2 or not isinstance(key[0], str):
                raise InvalidSymbol(f"a quote key must be a (str security symbol, tick) pair, got {key!r}")

    @classmethod
    def from_table(cls, table: Mapping[SecurityId, Mapping[Tick, Money]]) -> PricePath:
        quotes: dict[tuple[SecurityId, Tick], Money] = {}
        for sec, by_tick in table.items():
            for t, price in by_tick.items():
                quotes[(sec, t)] = price
        return cls(quotes)

    def price_at(self, sec: SecurityId, t: Tick) -> Money:
        """Pure, repeatable lookup of the per-share price for (sec, t)."""
        try:
            return self.quotes[(sec, t)]
        except KeyError:
            raise MissingPrice(sec, t) from None
