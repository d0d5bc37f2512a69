"""Exact money arithmetic, tax rates, and per-tick price quotes.

Every amount in the engine is an integer count of centavos.  Floating point
never enters any computation; the single place rounding can occur is
``apply_rate``, which rounds half-to-even at the centavo.

Values the engine builds by the thousand are constructed the trusted way:
their slots are written through the class's own slot descriptors, past the
frozen ``__setattr__``.  ``_money`` does this for arithmetic results, and the
``record`` decorator gives every engine record (lots, slices, effects,
realization events, tax lines, cash points) an ``__init__`` that does it.
"""

from __future__ import annotations

import inspect
import re
from dataclasses import MISSING, dataclass, fields
from typing import Mapping, TypeVar

from .errors import MissingPrice, NegativeBase

Tick = int
SecurityId = str

CENTAVOS_PER_PESO = 100

_MONEY_RE = re.compile(r"(-?)(\d+)(?:\.(\d{1,2}))?", re.ASCII)


@dataclass(frozen=True, order=True, slots=True)
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

    @classmethod
    def parse(cls, text: str) -> Money:
        """Parse a decimal peso string ("50", "-1.25") into exact centavos.

        At most two decimal places are accepted so that every parsed amount
        is exactly representable.
        """
        m = _MONEY_RE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"not a peso amount: {text!r}")
        sign, whole, frac = m.groups()
        centavos = int(whole) * 100 + int((frac or "").ljust(2, "0"))
        return _money(-centavos if sign else centavos)

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

    @property
    def is_negative(self) -> bool:
        return self.centavos < 0

    def __str__(self) -> str:
        sign = "-" if self.centavos < 0 else ""
        a = abs(self.centavos)
        return f"{sign}{a // 100:,}.{a % 100:02d}"


# Trusted construction: a slot's member descriptor sets the slot itself,
# past the frozen __setattr__.  ``_money`` uses it for Money results, and
# ``record`` for the ``__init__`` of every engine record.
_new = object.__new__
_set_centavos = Money.centavos.__set__


def _money(centavos: int) -> Money:
    """Trusted constructor: only for ints, such as int +, - and * results."""
    m = _new(Money)
    _set_centavos(m, centavos)
    return m


_ZERO = _money(0)  # frozen, so one instance serves every zero amount

_R = TypeVar("_R")


def record(cls: type[_R]) -> type[_R]:
    """``@dataclass(frozen=True, slots=True)`` with an ``__init__`` that writes the slots.

    The class is the same frozen, slotted dataclass: fields, ``replace``,
    eq/hash/repr, ``__match_args__``, pickling and ``inspect.signature`` are
    unchanged.  Only ``__init__`` differs: generated once per class, it sets
    each slot through its member descriptor instead of ``object.__setattr__``,
    then calls ``__post_init__`` when the class has one.  Fields may have
    plain defaults, not default factories.
    """
    doc = cls.__doc__
    cls.__doc__ = doc or cls.__name__  # else dataclass signs it, slowly, from object.__init__
    cls = dataclass(frozen=True, slots=True, init=False)(cls)
    cls.__dataclass_params__.init = True  # it has a field-by-field __init__, below
    env = {"__name__": cls.__module__}
    params, body = ["self"], []
    for f in fields(cls):
        if f.default_factory is not MISSING:
            raise TypeError(f"record field {cls.__name__}.{f.name} has a default factory")
        env[f"_set_{f.name}"] = getattr(cls, f.name).__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            env[f"_dflt_{f.name}"] = f.default
            params.append(f"{f.name}=_dflt_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n" + "\n".join(body), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fields(cls)} | {"return": None}
    cls.__init__ = init
    if not doc:  # as dataclass writes it, from the signature
        cls.__doc__ = cls.__name__ + str(inspect.signature(cls)).replace(" -> None", "")
    return cls


@dataclass(frozen=True)
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
    scaled = amount.centavos * rate.numerator
    q, r = divmod(scaled, rate.denominator)
    twice = 2 * r
    if twice > rate.denominator or (twice == rate.denominator and q % 2 == 1):
        q += 1
    return _money(q)


@dataclass(frozen=True)
class PricePath:
    """Per-share price quotes keyed by (security, tick)."""

    quotes: Mapping[tuple[SecurityId, Tick], Money]

    @classmethod
    def from_table(cls, table: Mapping[SecurityId, Mapping[Tick, Money]]) -> PricePath:
        quotes: dict[tuple[SecurityId, Tick], Money] = {}
        for sec, by_tick in table.items():
            for t, price in by_tick.items():
                quotes[(sec, t)] = price
        return cls(quotes)

    def has(self, sec: SecurityId, t: Tick) -> bool:
        return (sec, t) in self.quotes

    def price_at(self, sec: SecurityId, t: Tick) -> Money:
        """Pure, repeatable lookup of the per-share price for (sec, t)."""
        try:
            return self.quotes[(sec, t)]
        except KeyError:
            raise MissingPrice(sec, t) from None

    def securities(self) -> tuple[SecurityId, ...]:
        return tuple(sorted({sec for sec, _ in self.quotes}))

    def ticks(self, sec: SecurityId) -> tuple[Tick, ...]:
        return tuple(sorted(t for s, t in self.quotes if s == sec))


def price_at(path: PricePath, sec: SecurityId, t: Tick) -> Money:
    return path.price_at(sec, t)
