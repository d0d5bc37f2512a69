"""The scenario DSL: its parser and its printer.

Grammar (UTF-8, one directive per line, a line ending at ``\\n``,
``\\r\\n`` or ``\\r`` as ``open()`` reads it, ``#`` starts a comment,
whitespace-separated tokens):

    price <SYM> <tick> <price>
    at <tick> buy <SYM> <qty>
    at <tick> borrow <SYM> <qty>
    at <tick> short-sell <SYM> <qty>
    at <tick> sell <SYM> <qty>
    at <tick> cover <SYM> <qty> (by-purchase | with-owned)
    at <tick> death [heir <LABEL>]

Numbers are written in ASCII digits, each kind read in one place: ``_int``
reads ticks and quantities, ``_price`` prices.  One parser reads every line;
its errors carry the line and column of the offending token.
``Scenario`` alone checks that event ticks are non-decreasing and that every
event's (security, tick) carries a price directive; the parser re-raises
those errors at the event's line.

No module imports this one at start-up: ``scenario.parse_scenario`` and
``scenario.format_scenario`` load it on their first call, so a command that
reads no scenario file does not compile it.
"""

from __future__ import annotations

import re
import sys

from .errors import EngineError, InvalidQuantity, NonMonotonicTick, ParseError, UndefinedPrice, UnknownDirective
from .ledger import Borrow, Buy, CoverByOwnedLot, CoverByPurchase, Death, SellOwned, ShortSell, TransactionEvent
from .market import Money, PricePath, SecurityId, Tick, _money, pesos
from .scenario import Scenario, _annotate

_TRADES = {"buy": Buy, "borrow": Borrow, "short-sell": ShortSell, "sell": SellOwned}
_COVERS = {"by-purchase": CoverByPurchase, "with-owned": CoverByOwnedLot}

# What each token of a directive is, for "expected ..." messages.
_PRICE = ("price", "security symbol", "tick", "price")
_TRADE = ("at", "tick", "event verb", "security symbol", "share quantity")
_COVER = (*_TRADE, "'by-purchase' or 'with-owned'")
_DEATH = ("at", "tick", "death", "'heir'", "heir label")

_TOKEN_RE = re.compile(r"\S+")

# The parser builds each event by calling the generated constructor directly, past ``type.__call__``;
# the six trade classes share ``_Trade``'s.
_new_trade, _new_death = Buy.__new__, Death.__new__


def _max_digits() -> int:
    """The most digits ``int()`` reads from text or writes to it (4,300 unless ``PYTHONINTMAXSTRDIGITS``
    sets it), or 0 where there is no limit (Python before 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _lines(text: str) -> list[str]:
    """``text`` split where ``open()`` ends a line: at ``\\n``, ``\\r\\n`` and ``\\r`` only.  Unlike
    ``str.splitlines``, the other line breaks (``\\v``, ``\\f``, ``\\x1c``-``\\x1e``, ``\\x85``, U+2028,
    U+2029) stay inside a line, where they are whitespace."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _col(code: str, index: int) -> int:
    """1-based column where token ``index`` of ``code`` starts, or past the last token, where it ends.

    ``\\S`` and ``str.split()`` agree on every code point, so token ``index``
    here is ``code.split()[index]``.  Only errors ask for a column.
    """
    spans = [m.span() for m in _TOKEN_RE.finditer(code)]
    return spans[index][0] + 1 if index < len(spans) else spans[-1][1] + 1


def _count_error(tokens: list[str], names: tuple[str, ...], code: str, line_no: int) -> ParseError:
    """The error for a line of the wrong length: its first missing token, or its first extra one."""
    n = len(tokens)
    if n < len(names):
        return ParseError(f"expected {names[n]}", line_no, _col(code, n))
    return ParseError("unexpected trailing tokens", line_no, _col(code, len(names)))


def _int(tokens: list[str], index: int, what: str, code: str, line_no: int, limit: int) -> int:
    """Token ``index`` read as an integer spelled ``-?[0-9]+`` in ASCII, of at most ``limit`` digits.

    Exactly this spelling: int() would also take '+', '_' and other scripts' digits.
    """
    token = tokens[index]
    if token.isdigit() and token.isascii() and len(token) <= limit:
        return int(token)
    digits = token[1:] if token[:1] == "-" else token
    if not (digits.isdigit() and digits.isascii()):
        raise ParseError(f"expected {what}, got {token!r}", line_no, _col(code, index))
    if len(digits) > limit:
        raise ParseError(f"{what} has more than {limit:,} digits", line_no, _col(code, index))
    return int(token)


def _price(tokens: list[str], code: str, line_no: int, limit: int) -> Money:
    """Token 3 read as a peso price spelled ``-?[0-9]+(.[0-9]{1,2})?`` in ASCII.

    Its spelling is checked first, then its digits, with or without a sign, against ``limit``
    (it is read in centavos), then its sign: ``-0`` and ``-0.00`` are a zero price.
    """
    token = tokens[3]
    whole, dot, cents = token.partition(".")
    digits = whole[1:] if whole[:1] == "-" else whole
    if not (token.isascii() and digits.isdigit() and (not dot or cents.isdigit() and len(cents) < 3)):
        raise ParseError(f"expected peso price with at most two decimals, got {token!r}", line_no, _col(code, 3))
    if len(digits) + 2 > limit:
        raise ParseError(f"price has more than {limit - 2:,} digits before the point", line_no, _col(code, 3))
    centavos = int(digits + (cents + "00")[:2])
    if centavos and whole[0] == "-":
        raise ParseError("price must not be negative", line_no, _col(code, 3))
    return _money(centavos)


def _parse(text: str, name: str) -> tuple[Scenario, list[int]]:
    """``scenario.parse_scenario``'s scenario, and the line number of each of its events.  ``_int`` reads
    every tick and quantity, and ``_price`` every price."""
    quotes: dict[tuple[SecurityId, Tick], Money] = {}
    events: list[TransactionEvent] = []
    event_lines: list[int] = []
    lines = _lines(text)
    limit = _max_digits() or sys.maxsize

    for line_no, line in enumerate(lines, start=1):
        code = line.partition("#")[0] if "#" in line else line
        tokens = code.split()
        n = len(tokens)
        if not n:
            continue
        head = tokens[0]

        if head == "price":
            if n != 4:
                raise _count_error(tokens, _PRICE, code, line_no)
            sym = tokens[1]
            if not sym.isprintable():
                raise ParseError(f"security symbol must be printable, got {sym!r}", line_no, _col(code, 1))
            t = _int(tokens, 2, "tick", code, line_no, limit)
            if t < 0:
                raise ParseError(f"tick must be non-negative, got {t}", line_no, _col(code, 2))
            price = _price(tokens, code, line_no, limit)
            if (sym, t) in quotes:
                raise ParseError(f"duplicate price for {sym} at tick {t}", line_no, _col(code, 0))
            quotes[(sym, t)] = price
            continue

        if head != "at":
            raise UnknownDirective(f"unknown directive {head!r}", line_no, _col(code, 0))
        if n < 2:
            raise _count_error(tokens, _TRADE, code, line_no)
        t = _int(tokens, 1, "tick", code, line_no, limit)
        if t < 0:
            raise ParseError(f"tick must be non-negative, got {t}", line_no, _col(code, 1))
        if n < 3:
            raise _count_error(tokens, _TRADE, code, line_no)
        verb = tokens[2]

        if verb == "death":
            if n > 3 and tokens[3] != "heir":
                raise ParseError(f"expected 'heir', got {tokens[3]!r}", line_no, _col(code, 3))
            if n != 3 and n != 5:
                raise _count_error(tokens, _DEATH, code, line_no)
            if n == 5 and not tokens[4].isprintable():
                raise ParseError(f"heir label must be printable, got {tokens[4]!r}", line_no, _col(code, 4))
            events.append(_new_death(Death, t, tokens[4] if n == 5 else None))
            event_lines.append(line_no)
            continue

        if verb == "cover":
            names = _COVER
        elif verb in _TRADES:
            names = _TRADE
        else:
            raise UnknownDirective(f"unknown event verb {verb!r}", line_no, _col(code, 2))
        if n != len(names):
            raise _count_error(tokens, names, code, line_no)
        qty = _int(tokens, 4, "share quantity", code, line_no, limit)
        if qty <= 0:
            raise InvalidQuantity(f"quantity must be positive, got {qty}", line_no, _col(code, 4))
        if verb != "cover":
            kind = _TRADES[verb]
        elif tokens[5] in _COVERS:
            kind = _COVERS[tokens[5]]
        else:
            raise ParseError(f"expected {names[5]}, got {tokens[5]!r}", line_no, _col(code, 5))
        if not tokens[3].isprintable():
            raise ParseError(f"security symbol must be printable, got {tokens[3]!r}", line_no, _col(code, 3))
        events.append(_new_trade(kind, t, tokens[3], qty))
        event_lines.append(line_no)

    try:
        return Scenario(name, PricePath(quotes), tuple(events)), event_lines
    except (NonMonotonicTick, UndefinedPrice) as err:
        line_no = event_lines[err.event_index]
        raise type(err)(str(err), line_no, _col(lines[line_no - 1], 0)) from None


# The printer's inverse of the two tables: trade class -> (verb, text after the quantity).
_SPELLINGS = {kind: (verb, "") for verb, kind in _TRADES.items()}
_SPELLINGS.update({kind: ("cover", f" {mode}") for mode, kind in _COVERS.items()})


def _token(text: str) -> str:
    """``text`` as one DSL token; EngineError if it is empty or would not read back as itself."""
    if "#" in text or text.split() != [text] or not text.isprintable():
        raise EngineError(f"{text!r} cannot be written as one scenario token")
    return text


def format_scenario(s: Scenario) -> str:
    """Print a scenario back into the DSL; parsing the result reproduces it.

    What the parser would refuse raises ``EngineError``: a security symbol or heir label that is
    empty or holds whitespace, ``#`` or a control character, a tick that is not a non-negative
    ``int``, a negative price, and a tick, quantity or centavo amount of more digits than ``int()``
    reads.  The events are checked first, so an error in one carries its ``event_index``; a quote's
    error names the quote.  Each event prints by its exact class: the event classes are final.
    """
    bound = 10 ** limit if (limit := _max_digits()) else float("inf")  # the least number too long to read
    events = []
    for index, ev in enumerate(s.events):
        try:
            if type(ev.at) is not int or ev.at < 0:
                raise EngineError(f"tick must be a non-negative int to be written, got {ev.at!r}")
            if ev.at >= bound or type(ev) is not Death and ev.qty >= bound:
                raise EngineError(f"a tick or quantity of more than {limit:,} digits cannot be written")
            if type(ev) is Death:
                events.append(f"at {ev.at} death" + ("" if ev.heir is None else f" heir {_token(ev.heir)}"))
            else:
                verb, mode = _SPELLINGS[type(ev)]
                events.append(f"at {ev.at} {verb} {_token(ev.sec)} {ev.qty}{mode}")
        except EngineError as err:
            raise _annotate(err, index) from None
    prices = []
    for (sec, t), price in sorted(s.prices.quotes.items()):
        if type(t) is not int or t < 0 or price.centavos < 0:
            raise EngineError(f"quote {(sec, t)!r} of {price} cannot be written: tick and price must be non-negative")
        if t >= bound or price.centavos >= bound:
            raise EngineError(f"a quote of {sec!r} cannot be written: it has more than {limit:,} digits")
        prices.append(f"price {_token(sec)} {t} {pesos(price.centavos, cents=False).replace(',', '')}")
    return "\n".join(prices + events) + "\n"

