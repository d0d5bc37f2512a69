"""Exception hierarchy shared by every engine module."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package.

    An error raised for a place in scenario text carries its 1-based ``line``
    and ``col`` and starts its message with ``line L, col C: ``.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None) -> None:
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class MissingPrice(EngineError):
    """A scenario referenced a (security, tick) pair with no quoted price."""

    def __init__(self, sec: str, tick: int) -> None:
        self.sec = sec
        self.tick = tick
        super().__init__(f"no quoted price for {sec} at tick {tick}")


class NegativeBase(EngineError):
    """A tax rate was applied to a negative amount; rates never apply to losses."""


class InsufficientOwnedShares(EngineError):
    """A disposal asked for more owned shares of a security than are available."""


class NoOpenBorrow(EngineError):
    """A short sale exceeded the borrowed-and-not-yet-sold share count."""


class OverCover(EngineError):
    """A cover exceeded the open short obligation for that security."""


class InvalidQuantity(EngineError):
    """A share quantity was zero or negative, or not an int."""


class InvalidSymbol(EngineError):
    """A security symbol or heir label was not a ``str``, or a quote key not a (symbol, tick) pair."""


class InvariantViolation(EngineError):
    """An internal consistency check failed.

    Raised for values the engine itself never produces, such as hand-built
    effects or states, and for a golden-table figure that disagrees with the
    engine.  Unlike ``assert``, these checks stay active under ``python -O``.
    """


class UnknownScenario(EngineError):
    """Requested built-in scenario name does not exist."""

    def __init__(self, name: str, known: tuple[str, ...]) -> None:
        self.name = name
        super().__init__(f"unknown scenario {name!r}; built-ins: {', '.join(known)}")


class UnreadableScenario(EngineError):
    """A scenario path exists but is not a readable UTF-8 text file."""


class ParseError(EngineError):
    """Scenario DSL error with a line/column diagnostic."""


class UnknownDirective(ParseError):
    """First token of a DSL line is not a recognized directive or verb."""


class NonMonotonicTick(ParseError):
    """Event ticks must be non-decreasing in scenario order."""


class UndefinedPrice(ParseError):
    """An event references a (security, tick) with no price directive."""
