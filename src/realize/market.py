"""Exact money arithmetic, tax rates, and per-tick price quotes.

Every amount in the engine is an integer count of centavos.  Floating point
never enters any computation; the single place rounding can occur is
``apply_rate``, which rounds half-to-even at the centavo.  ``pesos`` is the
one place an amount becomes text: ``str(Money)``, the CLI reports, the golden
tables and the DSL printer all call it, each with its own flags.

Every value class of the package is made by ``record``: frozen and slotted,
with an ``__init__`` generated once per class.  Values the engine builds by the
thousand are constructed the trusted way: their slots are written through
the class's own slot descriptors, past the frozen ``__setattr__``.
``_money`` does this for arithmetic results, and every record's generated
``__init__`` does it before its ``__post_init__`` check.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping
from operator import attrgetter, eq, ge, gt, le, lt

from .errors import MissingPrice, NegativeBase

Tick = int
SecurityId = str

CENTAVOS_PER_PESO = 100
_CENTS = tuple(f".{c:02d}" for c in range(CENTAVOS_PER_PESO))  # the text after the whole pesos, by centavos

_MONEY_RE = re.compile(r"(-?)(\d+)(?:\.(\d{1,2}))?", re.ASCII)


# ``dataclasses`` (and the ``inspect`` it imports) loads only when a refusal
# or a ``dataclasses`` call needs it, never on the engine's own paths.
def _refuse_set(self, name: str, value: object) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name: str) -> None:
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot delete field {name!r}")


class _DataclassAttr:
    """``__dataclass_fields__`` or ``__dataclass_params__`` of a record, made on first access.

    ``dataclasses.dataclass`` runs once over a stand-in class with the same
    fields and defaults; its two attributes then replace both lazy ones on
    the class that asked, so ``fields``, ``replace`` and ``is_dataclass``
    see an ordinary frozen dataclass.
    """

    def __init__(self, annotations: dict, defaults: dict, order: bool) -> None:
        self.spec = annotations, defaults, order

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, obj: object, owner: type) -> object:
        from dataclasses import dataclass

        annotations, defaults, order = self.spec
        stand_in = type(owner.__name__, (), {
            **defaults, "__annotations__": annotations,
            "__module__": owner.__module__, "__qualname__": owner.__qualname__,
        })
        stand_in = dataclass(frozen=True, order=order)(stand_in)
        owner.__dataclass_fields__ = stand_in.__dataclass_fields__
        owner.__dataclass_params__ = stand_in.__dataclass_params__
        return getattr(owner, self.name)


def _annotation_text(annotation: object) -> str:
    """An annotation as ``inspect.signature`` prints it."""
    if not isinstance(annotation, type):
        return repr(annotation)
    if annotation.__module__ == "builtins":
        return annotation.__qualname__
    return f"{annotation.__module__}.{annotation.__qualname__}"


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{self.__class__.__qualname__}({shown})"


def _getstate(self) -> tuple:
    return tuple(getattr(self, name) for name in self.__match_args__)


def _setstate(self, state: tuple) -> None:
    for name, value in zip(self.__match_args__, state):
        object.__setattr__(self, name, value)  # the slot's own descriptor, past _refuse_set


def _comparison(name: str, op, values):
    """An ``__eq__``-style method comparing field values, for instances of exactly one class."""

    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(values(self), values(other))
        return NotImplemented

    compare.__name__ = name
    return compare


def record(cls: type | None = None, /, *, order: bool = False):
    """Make ``cls`` a frozen, slotted value class, like ``@dataclass(frozen=True, slots=True)``.

    The fields are the class's own annotations, in order, with plain
    defaults; a default factory is refused.  One ``exec`` per class writes
    ``__init__``, which sets each slot through its member descriptor, then
    calls ``__post_init__`` when the class has one.  Equality, hashing and,
    with ``order=True``, the four comparisons use the field values, read by
    one ``operator.attrgetter``; ``__repr__`` and the pickle state read the
    fields by name.  Methods the class defines itself are kept.  Any
    attribute write or delete raises ``FrozenInstanceError``.
    ``__dataclass_fields__`` and ``__dataclass_params__`` are built on first
    access, so ``dataclasses`` loads only when something asks for them.
    """
    if cls is None:
        return lambda cls: _build(cls, order)
    return _build(cls, order)


def _build(cls: type, order: bool) -> type:
    ns = dict(cls.__dict__)
    ns.pop("__dict__", None)
    ns.pop("__weakref__", None)
    annotations = ns.get("__annotations__", {})
    names = tuple(annotations)
    env: dict[str, object] = {"__name__": cls.__module__}
    defaults: dict[str, object] = {}
    params = ["self"]
    for name in names:
        if name not in ns:
            if defaults:
                raise TypeError(f"non-default argument {name!r} follows default argument")
            params.append(name)
            continue
        default = defaults[name] = ns.pop(name)
        dataclasses = sys.modules.get("dataclasses")  # a field() default means it is loaded
        if dataclasses is not None and isinstance(default, dataclasses.Field):
            raise TypeError(
                f"record field {cls.__name__}.{name} takes a plain default, not a default factory"
            )
        if type(default).__hash__ is None:
            raise ValueError(f"mutable default {type(default)} for field {name} is not allowed")
        env[f"_dflt_{name}"] = default
        params.append(f"{name}=_dflt_{name}")

    # Only __init__ is generated: compiling source is most of what building a class costs.
    body = [f"_set_{name}(self, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n    " + "\n    ".join(body), env)
    init = env["__init__"]
    init.__annotations__ = {name: annotations[name] for name in names} | {"return": None}
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    values = attrgetter(*names)  # the one field's value itself when there is only one

    def __hash__(self) -> int:
        return hash(values(self))

    methods = {
        "__init__": init,
        "__repr__": _repr,
        "__eq__": _comparison("__eq__", eq, values),
        "__hash__": __hash__,
        "__getstate__": _getstate,
        "__setstate__": _setstate,
        "__setattr__": _refuse_set,
        "__delattr__": _refuse_delete,
    }
    for op in (lt, le, gt, ge) if order else ():
        methods[f"__{op.__name__}__"] = _comparison(f"__{op.__name__}__", op, values)
    ns = methods | ns  # what the class defines itself wins
    ns["__slots__"] = ns["__match_args__"] = names
    ns["__qualname__"] = cls.__qualname__
    ns["__dataclass_fields__"] = _DataclassAttr(annotations, defaults, order)
    ns["__dataclass_params__"] = _DataclassAttr(annotations, defaults, order)
    if not ns.get("__doc__"):  # as dataclass writes it, from the signature
        ns["__doc__"] = cls.__name__ + "(" + ", ".join(
            f"{name}: {_annotation_text(annotations[name])}"
            + (f" = {defaults[name]!r}" if name in defaults else "")
            for name in names
        ) + ")"
    built = type(cls)(cls.__name__, cls.__bases__, ns)
    for name in names:
        env[f"_set_{name}"] = built.__dict__[name].__set__
    return built


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
    """Per-share price quotes keyed by (security, tick)."""

    quotes: Mapping[tuple[SecurityId, Tick], Money]

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

    def securities(self) -> tuple[SecurityId, ...]:
        return tuple(sorted({sec for sec, _ in self.quotes}))

    def ticks(self, sec: SecurityId) -> tuple[Tick, ...]:
        return tuple(sorted(t for s, t in self.quotes if s == sec))
