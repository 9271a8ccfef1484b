"""Parsing and metrics for scraped auction outcome tables and bid traces.

Two raw formats are handled. An outcomes table has one row per finished
auction with 17 tab-separated fields (ids, item text, retail / final prices
in dollars, increment and fee in cents, winner, bid counts, end time, flags).
A trace file has one probe per line, "<epoch seconds>\\t<probe>", where the
probe is a |-separated list of key=value pairs as served by the auction site;
the bh field carries up to the ten latest bids as colon-terminated tuples
joined by '#'.

All money becomes integer cents on the way in. Parsing never guesses: rows or
tuples that do not match the grammar are rejected (or skipped with a
diagnostic where the caller opts in), and derived metrics refuse inputs that
would make them silently wrong, such as bid events without timestamps.
"""

from __future__ import annotations

import bisect
import csv
import itertools
import logging
import math
import operator
from array import array
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, fields
from decimal import Decimal, InvalidOperation
from functools import partial, reduce
from sys import intern
from typing import Optional

__all__ = [
    "AuctionOutcomeRecord",
    "BidEvent",
    "ProbeLine",
    "BidderAuctionStats",
    "AuctionMargin",
    "MarginReport",
    "Duel",
    "BidpackBuyer",
    "BidpackReport",
    "WON_AUCTION",
    "IN_THE_BLACK",
    "IN_THE_RED",
    "parse_outcome_rows",
    "parse_probe_line",
    "parse_trace_file",
    "reconstruct_bids",
    "profit_margin",
    "active_bidder_fraction",
    "bidder_stats",
    "detect_duels",
    "bidpack_cost",
    "aggression_table",
]

log = logging.getLogger(__name__)

WON_AUCTION = "won_auction"
IN_THE_BLACK = "in_the_black"
IN_THE_RED = "in_the_red"

_OUTCOME_FIELDS = 17
# each outcome field's column typecode: an array holds the distinct ids and retail unboxed
_RECORD_TYPECODES = ("q", "q", None, None, "q") + (None,) * 12
_CHUNK_ROWS = 4096

_SHARED_INTS_MAX = 1 << 16


class _SharedInts(dict):
    """value -> the one int object shared for it, as intern shares strings:
    bid numbers, cent prices and bid counts repeat across rows and traces.
    _SHARED_INTS[value] finds a shared value in C, with no Python call; a
    value missing once the dict holds _SHARED_INTS_MAX of them is returned
    unshared. Fields whose values are nearly all distinct (ids, retail) are
    not passed through it, so they do not fill it."""

    def __missing__(self, value: int) -> int:
        if len(self) < _SHARED_INTS_MAX:
            self[value] = value
        return value


_SHARED_INTS = _SharedInts()


def _dollars_to_cents(text: str, what: str) -> int:
    # Plain ASCII "digits[.d[d]]" is read exactly without Decimal. Within 20
    # characters the Decimal product below stays inside its 28-digit context,
    # so both paths agree; every other form (signs, exponents, whitespace,
    # underscores, non-ASCII digits, NaN) takes the Decimal path.
    whole, _, frac = text.partition(".")
    if (len(text) <= 20 and len(frac) <= 2 and whole.isdigit() and text.isascii()
            and (frac.isdigit() or not frac)):
        return int(whole + frac.ljust(2, "0"))
    try:
        d = Decimal(text)
    except InvalidOperation as exc:
        raise ValueError(f"{what}: not a dollar amount: {text!r}") from exc
    if not d.is_finite():
        raise ValueError(f"{what}: dollar amount is not finite: {text!r}")
    # From 10^26 dollars on, cents could lose digits in Decimal's 28-digit
    # context, and an exponent like 1e999990 takes seconds to become an int.
    _, digits, exponent = d.as_tuple()
    if any(digits) and d.adjusted() > 25:
        raise ValueError(f"{what}: dollar amount out of range: {text!r}")
    # Any nonzero digit below the cent place is sub-cent. Read it off the
    # digits: d * 100 rounds to 28 digits, and underflows to zero far below
    # one cent, so it could hide one.
    if any(digits[max(len(digits) + exponent + 2, 0):]):
        raise ValueError(f"{what}: sub-cent dollar amount: {text!r}")
    return int(d * 100)


def _slot_constructor(cls):
    """A positional constructor for a frozen, slotted dataclass that fills
    each slot through its member descriptor.

    The generated __init__ of a frozen dataclass goes through
    object.__setattr__ once per field; records and events are built by the
    hundred thousand as they are read and skip that. The instance is the
    class's own, so its fields, equality, hashing and FrozenInstanceError
    are unchanged. The body is unrolled with exec, as dataclasses does for
    __init__, since a loop over the descriptors costs as much as the call it
    replaces.
    """
    names = [f.name for f in fields(cls)]
    namespace = {"_new": object.__new__, "_cls": cls}
    namespace.update({f"_set_{name}": getattr(cls, name).__set__ for name in names})
    body = "".join(f"    _set_{name}(obj, {name})\n" for name in names)
    exec(f"def new({', '.join(names)}):\n    obj = _new(_cls)\n{body}    return obj\n",
         namespace)
    return namespace["new"]


def _flag(text: str, what: str) -> bool:
    if text == "0":
        return False
    if text == "1":
        return True
    raise ValueError(f"{what}: flag must be 0 or 1, got {text!r}")


@dataclass(frozen=True, slots=True)
class AuctionOutcomeRecord:
    """One finished auction from the outcomes table. Money in integer cents."""

    auction_id: int
    product_id: int
    item: str
    description: str
    retail_cents: int
    price_cents: int
    finalprice_cents: int
    bidincrement_cents: int
    bidfee_cents: int
    winner: str
    placedbids: int
    freebids: int
    endtime_str: str
    flg_click_only: bool
    flg_beginnerauction: bool
    flg_fixedprice: bool
    flg_endprice: bool


_new_record = _slot_constructor(AuctionOutcomeRecord)


def _record_fields(row: Sequence[str]) -> tuple:
    """One record's fields in field order, converted in column order so a
    row with several faults is diagnosed by its first. Item, description
    and winner repeat across rows and are interned, the prices and bid
    counts shared; the ids, retail prices and end times are nearly all
    distinct and are not."""
    if len(row) != _OUTCOME_FIELDS:
        raise ValueError(f"expected {_OUTCOME_FIELDS} fields, got {len(row)}")
    return (
        int(row[0]),
        int(row[1]),
        intern(row[2]),
        intern(row[3]),
        _dollars_to_cents(row[4], "retail"),
        _SHARED_INTS[_dollars_to_cents(row[5], "price")],
        _SHARED_INTS[_dollars_to_cents(row[6], "finalprice")],
        int(row[7]),
        int(row[8]),
        intern(row[9]),
        _SHARED_INTS[int(row[10])],
        _SHARED_INTS[int(row[11])],
        row[12],
        _flag(row[13], "flg_click_only"),
        _flag(row[14], "flg_beginnerauction"),
        _flag(row[15], "flg_fixedprice"),
        _flag(row[16], "flg_endprice"),
    )


def _reject(diagnostics: Optional[list], what: str, message: str) -> None:
    if diagnostics is not None:
        diagnostics.append(message)
    else:
        log.warning("skipping %s, %s", what, message)


def _add_chunk(parts: list, chunk: list) -> None:
    """Moves the chunk's rows into one more part of each field's column."""
    for field_parts, code, values in zip(parts, _RECORD_TYPECODES, zip(*chunk)):
        field_parts.append(_column(code, values))
    chunk.clear()


def _joined(code: Optional[str], parts: list) -> Sequence:
    """One column of its parts: an array if each part is one, else a tuple."""
    if code is not None and all(isinstance(part, array) for part in parts):
        return reduce(operator.iadd, parts, array(code))
    return tuple(itertools.chain.from_iterable(parts))


def parse_outcome_rows(
    lines: Iterable[str],
    delimiter: str = "\t",
    has_header: bool = False,
    diagnostics: Optional[list] = None,
) -> Sequence[AuctionOutcomeRecord]:
    """Parse outcome rows; malformed rows are skipped and diagnosed.

    diagnostics, when given, receives one message per rejected row. Without
    it rejects are logged as warnings. A short row, a non-numeric amount, a
    bad flag, or a row the csv module cannot read (a field over its size
    limit, a bare carriage return) rejects only that row, never the whole
    file. Tab-separated rows are read without CSV quoting, so a field keeps
    any double quotes it holds; comma-separated rows follow CSV quoting.
    Returns a read-only sequence of records, equal to the list of them, that
    holds each field as a column and builds a record when one is read.
    """
    quoting = csv.QUOTE_NONE if delimiter == "\t" else csv.QUOTE_MINIMAL
    reader = csv.reader(lines, delimiter=delimiter, quoting=quoting)
    parts: list = [[] for _ in _RECORD_TYPECODES]  # each field's column, in parts
    chunk: list = []  # parsed rows, moved into the parts a chunk at a time
    lineno = 0
    while True:  # a csv.Error ends the for loop at its row; the reader goes on after it
        try:
            for lineno, row in enumerate(reader, start=lineno + 1):
                if (has_header and lineno == 1) or not row or (
                        len(row) == 1 and not row[0].strip()):
                    continue
                try:
                    chunk.append(_record_fields(row))
                except ValueError as exc:
                    _reject(diagnostics, "outcome row", f"line {lineno}: {exc}")
                    continue
                if len(chunk) == _CHUNK_ROWS:
                    _add_chunk(parts, chunk)
            break
        except csv.Error as exc:
            lineno += 1
            _reject(diagnostics, "outcome row", f"line {lineno}: {exc}")
    _add_chunk(parts, chunk)
    # popped, so that a field's parts are freed as soon as its column is built
    return _OutcomeTable(*[_joined(code, parts.pop(0)) for code in _RECORD_TYPECODES])


@dataclass(frozen=True, slots=True)
class BidEvent:
    """One bid as reported in a probe's bh field."""

    bidnumber: int
    username: str
    bidtype: int  # 1 = player, 2 = automated bidder
    price_cents: int
    yourbid: int
    timestamp: Optional[float] = None


_new_bid = _slot_constructor(BidEvent)


# ---------------------------------------------------------------------------
# Parsed data the cyclic collector does not walk: each of its full passes
# walks every record alive, but a tuple of numbers and strings is untracked
# after its first young pass, and an array is one object with nothing inside.


class _BuiltOnRead(Sequence):
    """A read-only sequence of items that _make builds from plain columns
    when read. It is equal to the list of its items; a slice is that list."""

    __slots__ = ("_columns",)

    def __init__(self, *columns):
        self._columns = columns

    def __len__(self):
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return self._make(*[column[index] for column in self._columns])

    def __iter__(self):
        return map(self._make, *self._columns)

    def __eq__(self, other):
        if not isinstance(other, (list, _BuiltOnRead)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


class _OutcomeTable(_BuiltOnRead):
    """Outcome records held as one column per AuctionOutcomeRecord field."""

    __slots__ = ()
    _make = staticmethod(_new_record)


class _BidHistory(_BuiltOnRead):
    """Bid events held as one column per BidEvent field."""

    __slots__ = ()
    _make = staticmethod(_new_bid)


_RECORD_NAMES = [f.name for f in fields(AuctionOutcomeRecord)]


def _outcome_rows(records: Sequence[AuctionOutcomeRecord], names: str) -> Iterable[tuple]:
    """Each record's named fields (two or more, space-separated) as a tuple:
    zipped from just those columns of a parsed table, or read off any other
    sequence of records."""
    names = names.split()
    if type(records) is _OutcomeTable:
        return zip(*[records._columns[_RECORD_NAMES.index(name)] for name in names])
    return map(operator.attrgetter(*names), records)


_BID_NAMES = [f.name for f in fields(BidEvent)]
_BID_FIELDS = operator.attrgetter(*_BID_NAMES)
_BID_ROW = operator.attrgetter(*_BID_NAMES[:-1])  # a bh row: each field but the stamp
_BID_TYPECODES = ("q", None, "q", "q", "q", "d")  # usernames stay a tuple


def _column(code: Optional[str], values: Sequence) -> Sequence:
    """values in an array of typecode code if it holds each as an equal
    value, else as a tuple: 'q' refuses all but ints below 2**63 in size,
    and 'd' gets only floats, since it would round a large int."""
    if code is None or (code == "d" and not set(map(type, values)) <= {float}):
        return tuple(values)
    try:
        return array(code, values)
    except (TypeError, OverflowError):
        return tuple(values)


def _bid_columns(bids: Sequence[BidEvent]) -> tuple:
    """One column per BidEvent field: a reconstructed history's own, or
    those of any other sequence of events, read once."""
    if type(bids) is _BidHistory:
        return bids._columns
    columns = list(zip(*map(_BID_FIELDS, bids))) or [()] * len(_BID_TYPECODES)
    return tuple(map(_column, _BID_TYPECODES, columns))


def _sorted_by(key: Sequence, *columns: Sequence) -> Sequence:
    """The columns in a stable sort by key; as they are if key is in order,
    as a reconstructed history's bid numbers and stamps are."""
    values = list(key)
    if values == sorted(values):
        return columns
    order = sorted(range(len(values)), key=values.__getitem__)
    return [[column[i] for i in order] for column in columns]


def _bid_fields(piece: str, i: int) -> tuple:
    """One bh tuple 'number:user:type:price:yourbid:' as its typed fields,
    the username interned and the bid number and price shared. i is the
    tuple's index, for the diagnostic."""
    try:
        number, username, bidtype, price, yourbid, end = piece.split(":")
        parsed = (_SHARED_INTS[int(number)], intern(username), int(bidtype),
                  _SHARED_INTS[int(price)], int(yourbid))
    except ValueError as exc:
        raise ValueError(f"malformed bid tuple {i} in bh field: {piece!r}") from exc
    if end:
        raise ValueError(f"malformed bid tuple {i} in bh field: {piece!r}")
    return parsed


def _bh_rows(raw: str, seen: dict) -> Sequence[tuple]:
    """The bh field's bid tuples as rows of their fields, the stamp aside.

    seen maps a tuple's text to its row and is shared by the probes of one
    file, so a tuple that later probes repeat is parsed once.
    Every tuple is parsed before the bid numbers are compared, so a field
    that is both malformed and out of order is reported as malformed.
    """
    if raw == "":
        return ()
    pieces = raw.split("#")
    if pieces.pop() != "":
        raise ValueError("bh field does not end with its '#' terminator")
    if len(pieces) > 10:
        raise ValueError(f"bh field lists {len(pieces)} bids, the feed never sends more than 10")
    rows = []
    for i, piece in enumerate(pieces):
        row = seen.get(piece)
        if row is None:
            row = seen[piece] = _bid_fields(piece, i)
        rows.append(row)
    for a, b in zip(rows, rows[1:]):
        if b[0] <= a[0]:
            raise ValueError("bid numbers within one bh field must increase strictly")
    return rows


@dataclass(frozen=True, slots=True)
class ProbeLine:
    """One status probe: ordered raw key=value pairs plus typed views.

    entries preserves the exact bytes and order seen on the wire, so
    serialize() round-trips. cs is the auction state (1 running, 20 ended),
    cp the current price in cents, cw the current winner, ct a countdown,
    ra an autobid flag, lui a '#'-joined integer vector; unknown keys are
    carried through untouched.
    """

    entries: tuple
    observed_at: Optional[float] = None
    ct: Optional[int] = None
    cs: Optional[int] = None
    ra: Optional[int] = None
    cw: Optional[str] = None
    cp: Optional[int] = None
    bids: tuple = ()
    lui: Optional[tuple] = None

    def serialize(self) -> str:
        return "|".join(f"{k}={v}" for k, v in self.entries)


_new_probe = _slot_constructor(ProbeLine)

# ProbeLine's typed fields after observed_at, in field order, with defaults
_PROBE_TYPED = {"ct": None, "cs": None, "ra": None, "cw": None, "cp": None, "bids": (),
                "lui": None}


def _probe_fields(line: str, bh_rows: Callable[[str], Sequence[tuple]]) -> tuple:
    """The one probe grammar: (entries, typed) of a probe, typed being its
    fields after observed_at in ProbeLine's order, with the rows bh_rows
    gives for a bh field in place of its events."""
    if line == "":
        raise ValueError("empty probe line")
    entries = []
    typed = _PROBE_TYPED.copy()  # assigning a key keeps its place in the order
    for chunk in line.split("|"):
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ValueError(f"probe chunk without '=': {chunk!r}")
        entries.append((key, value))
        if key in ("ct", "cs", "ra", "cp"):
            typed[key] = int(value)
        elif key == "cw":
            typed[key] = value
        elif key == "bh":
            typed["bids"] = bh_rows(value)
        elif key == "lui":
            typed["lui"] = tuple(map(int, value.split("#"))) if value else ()
    return tuple(entries), typed


def _probe(line: str, observed_at: Optional[float],
           bh_rows: Callable[[str], Sequence[tuple]]) -> ProbeLine:
    """The ProbeLine of line, its bh rows stamped with observed_at."""
    entries, typed = _probe_fields(line, bh_rows)
    typed["bids"] = tuple([_new_bid(*row, observed_at) for row in typed["bids"]])
    return _new_probe(entries, observed_at, *typed.values())


def parse_probe_line(line: str, observed_at: Optional[float] = None) -> ProbeLine:
    """Parse one |-separated probe. Unknown keys pass through untouched."""
    return _probe(line, observed_at, partial(_bh_rows, seen={}))


class _ProbeTable(_BuiltOnRead):
    """Probe lines held as their texts and stamps, and where each line's bids
    start and end in the file's one list of bh rows; a tuple of rows per line
    could outlive a full pass tracked, if the pass visits it before them. A
    ProbeLine is parsed again from its checked text when read."""

    __slots__ = ("_rows",)

    def __init__(self, rows: list, *columns):
        super().__init__(*columns)
        self._rows = rows

    def _make(self, text: str, stamp: float, start: int, end: int) -> ProbeLine:
        rows = self._rows[start:end]
        return _probe(text, stamp, lambda raw: rows)


def parse_trace_file(lines: Iterable[str],
                     diagnostics: Optional[list] = None) -> Sequence[ProbeLine]:
    """Parse '<epoch>\\t<probe>' lines into ProbeLine objects, in file order.

    A line whose timestamp is not a finite number of seconds is rejected like
    any other malformed line. A bid tuple repeated by later probes of the
    file is parsed once, and each probe stamps its own events. Returns a
    read-only sequence of probes, equal to the list of them, that holds each
    accepted line as its probe text, its stamp and its bh rows and builds a
    ProbeLine when one is read.
    """
    texts, stamps, starts, rows = [], array("d"), array("q"), []
    bh_rows = partial(_bh_rows, seen={})  # bh tuple text -> its row, for this file
    for lineno, line in enumerate(lines, start=1):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        try:
            stamp_text, tab, probe_text = line.partition("\t")
            if not tab:
                raise ValueError("missing tab between timestamp and probe")
            stamp = float(stamp_text)
            if not math.isfinite(stamp):
                raise ValueError(f"timestamp is not finite: {stamp_text!r}")
            _, typed = _probe_fields(probe_text, bh_rows)
        except ValueError as exc:
            _reject(diagnostics, "trace line", f"line {lineno}: {exc}")
            continue
        texts.append(probe_text)
        stamps.append(stamp)
        starts.append(len(rows))
        rows.extend(typed["bids"])
    return _ProbeTable(rows, texts, stamps, starts, starts[1:] + array("q", [len(rows)]))


def reconstruct_bids(probes: Sequence[ProbeLine]):
    """Merge overlapping probes into one bid history.

    Probes must already be in observation order. A bid keeps the timestamp of
    the first probe that showed it. Returns (bids sorted by bid number,
    missing count), where missing counts the interior bid numbers no probe
    ever showed. A probe revealing a brand new bid with a number below the
    highest already seen means the feed skipped backwards; that is an error,
    not a gap. The bids are a read-only sequence, equal to the list of
    them, that holds each field as a column and builds an event when one is
    read.
    """
    if type(probes) is _ProbeTable:  # a parsed line's bids carry its stamp
        rows = probes._rows
        _, stamps, starts, ends = probes._columns
        bid_stamps = itertools.chain.from_iterable(
            map(itertools.repeat, stamps, map(operator.sub, ends, starts)))
    else:  # any other probes, read once; each event keeps its own stamp
        probes = list(probes)
        stamps = [p.observed_at for p in probes]
        events = [b for p in probes for b in p.bids]
        rows, bid_stamps = map(_BID_ROW, events), [b.timestamp for b in events]
    last_stamp = None
    for stamp in stamps:
        if stamp is None:
            raise ValueError("probes must carry observation timestamps")
        if not math.isfinite(stamp):
            raise ValueError(f"probe observation timestamp is not finite: {stamp!r}")
        if last_stamp is not None and stamp < last_stamp:
            raise ValueError("probes must be sorted by observation time")
        last_stamp = stamp
    # A bid not seen before is above every bid seen before, or the trace is
    # refused, so the first sightings come in order of bid number.
    numbers: set = set()
    kept: list = []
    kept_stamps: list = []
    for row, stamp in zip(rows, bid_stamps):
        number = row[0]
        if number in numbers:
            continue
        if kept and number < kept[-1][0]:
            raise ValueError(f"bid {number} first appeared after bid {kept[-1][0]}, "
                             "the trace is inconsistent")
        numbers.add(number)
        kept.append(row)
        kept_stamps.append(stamp)
    missing = kept[-1][0] - kept[0][0] + 1 - len(kept) if kept else 0
    columns = list(zip(*kept)) or [()] * 5
    return _BidHistory(*map(_column, _BID_TYPECODES, [*columns, kept_stamps])), missing


# ---------------------------------------------------------------------------
# Metrics on outcome tables


def _bids_estimate(price_cents: int, increment_cents: int) -> int:
    """price / increment rounded half to even, in exact integers: a float
    quotient loses the last digits of a price past 2**53 cents. An int like
    round()'s, whatever numbers a caller's record holds, so that no float
    enters the shared ints."""
    bids, rest = divmod(price_cents, increment_cents)
    if 2 * rest > increment_cents or (2 * rest == increment_cents and bids % 2):
        bids += 1
    return int(bids)


@dataclass(frozen=True, slots=True)
class AuctionMargin:
    auction_id: int
    bids_estimate: int
    profit_cents: int
    margin: float


class _MarginTable(_BuiltOnRead):
    """Auction margins held as one column per AuctionMargin field."""

    __slots__ = ()
    _make = staticmethod(_slot_constructor(AuctionMargin))


@dataclass(frozen=True)
class MarginReport:
    per_auction: Sequence[AuctionMargin]
    aggregate_margin: float
    included: int
    skipped_fixed_price: int
    skipped_no_sale: int
    errors: list


def profit_margin(records: Sequence[AuctionOutcomeRecord],
                  assumed_bidfee_cents: Optional[int] = 60) -> MarginReport:
    """Auctioneer profit relative to retail, per auction and in aggregate.

    The bid count is recovered from price / increment, each bid is charged
    the assumed fee (pass None to trust each row's own fee column), and the
    winner also pays the final price. Fixed-price rows and rows that never
    sold (price 0) are excluded; a zero increment on a normal auction is an
    error recorded per row. The aggregate margin is total profit over total
    retail, not a mean of per-auction margins.
    """
    ids, estimates, profits, margins = [], [], [], []  # the columns of per_auction
    errors: list = []
    skipped_fixed = 0
    skipped_no_sale = 0
    profit_total = 0
    retail_total = 0
    for auction_id, fixed, price, increment, retail, own_fee, final in _outcome_rows(
            records, "auction_id flg_fixedprice price_cents bidincrement_cents "
                     "retail_cents bidfee_cents finalprice_cents"):
        if fixed:
            skipped_fixed += 1
            continue
        if price == 0:
            skipped_no_sale += 1
            continue
        if increment <= 0:
            errors.append(f"auction {auction_id}: zero bid increment on a normal auction")
            continue
        if retail <= 0:
            errors.append(f"auction {auction_id}: nonpositive retail price")
            continue
        fee = own_fee if assumed_bidfee_cents is None else assumed_bidfee_cents
        bids = _SHARED_INTS[_bids_estimate(price, increment)]
        profit = bids * fee + final - retail
        ids.append(auction_id)
        estimates.append(bids)
        profits.append(profit)
        margins.append(profit / retail)
        profit_total += profit
        retail_total += retail
    aggregate = profit_total / retail_total if retail_total > 0 else math.nan
    return MarginReport(
        per_auction=_MarginTable(*map(_column, ("q", None, "q", "d"),
                                      (ids, estimates, profits, margins))),
        aggregate_margin=aggregate,
        included=len(ids),
        skipped_fixed_price=skipped_fixed,
        skipped_no_sale=skipped_no_sale,
        errors=errors,
    )


# ---------------------------------------------------------------------------
# Metrics on reconstructed bid histories


def _require_timestamps(numbers: Sequence, stamps: Sequence) -> None:
    """Every bid has a finite stamp; the walk names the first that does not."""
    if not stamps:
        raise ValueError("need at least one bid")
    if isinstance(stamps, array) and all(map(math.isfinite, stamps)):
        return  # an array holds only floats
    for number, stamp in zip(numbers, stamps):
        if stamp is None:
            raise ValueError(f"bid {number} has no timestamp")
        if not math.isfinite(stamp):
            raise ValueError(f"bid {number} has a non-finite timestamp: {stamp!r}")


_MAX_ACTIVE_SAMPLES = 10_000_000


def active_bidder_fraction(
    bids: Sequence[BidEvent],
    auction_end: float,
    sample_interval: float = 60.0,
    window: float = 900.0,
    auction_start: Optional[float] = None,
) -> list:
    """Share of all distinct bidders seen within a sliding window.

    Sampled on a grid aligned to the auction end and walking backwards every
    sample_interval seconds until auction_start (or the first bid) is passed.
    Each sample (t, f) reports the fraction f of all distinct bidders in the
    history that bid inside (t - window, t]. Returned in chronological order,
    so the largest seconds-before-end comes first. A grid of more than ten
    million samples is refused.
    """
    numbers, users, _, _, _, stamps = _bid_columns(bids)
    _require_timestamps(numbers, stamps)
    if not (sample_interval > 0 and window > 0):  # NaN fails the comparison too
        raise ValueError("sample interval and window must be positive")
    for name, stamp in (("auction_end", auction_end), ("auction_start", auction_start)):
        if stamp is not None and not math.isfinite(stamp):
            raise ValueError(f"{name} is not finite: {stamp!r}")
    stamps, users = _sorted_by(stamps, stamps, users)
    begin = stamps[0] if auction_start is None else auction_start
    # An interval under half an ulp of the offset would stop the offset from
    # growing, and the loop below from ending.
    if (auction_end - begin) / sample_interval + 1 > _MAX_ACTIVE_SAMPLES:
        raise ValueError(f"sampling every {sample_interval!r} s from {begin!r} to "
                         f"{auction_end!r} needs more than {_MAX_ACTIVE_SAMPLES} samples")
    counts = dict.fromkeys(users, 0)
    total = len(counts)
    # The window (at - window, at] is the index range [lo, hi) of the sorted
    # stamps. Both ends only move back as the samples walk back in time, so
    # each bid enters and leaves the per-user counts at most once.
    active = 0
    lo = hi = len(stamps)
    samples = []
    offset = 0.0
    while auction_end - offset >= begin:
        at = auction_end - offset
        new_lo = bisect.bisect_right(stamps, at - window)
        new_hi = bisect.bisect_right(stamps, at)
        for i in range(max(new_hi, lo), hi):
            counts[users[i]] -= 1
            if counts[users[i]] == 0:
                active -= 1
        for i in range(new_lo, min(lo, new_hi)):
            counts[users[i]] += 1
            if counts[users[i]] == 1:
                active += 1
        lo, hi = new_lo, new_hi
        samples.append((offset, active / total))
        offset += sample_interval
    samples.reverse()
    return samples


@dataclass(frozen=True, slots=True)
class BidderAuctionStats:
    """One bidder's activity within one auction.

    Response times are measured from the immediately preceding bid by anyone;
    the auction's opening bid has no predecessor and is excluded, flagged via
    all_bids_untimed when that leaves a bidder with no timed bids at all.
    Aggression is bids per second of average response time; bidders whose
    timed bids all landed in the same instant come out infinite.
    """

    username: str
    bids: int
    timed_bids: int
    avg_response_time: Optional[float]
    aggression: float
    spend_cents: int
    outcome_classes: frozenset
    all_bids_untimed: bool


# the outcome classes of each (won, in the black, in the red), one frozenset
# per combination shared by every bidder
_OUTCOME_CLASSES = {
    flags: frozenset(c for c, on in zip((WON_AUCTION, IN_THE_BLACK, IN_THE_RED), flags) if on)
    for flags in itertools.product((False, True), repeat=3)
}


def bidder_stats(
    bids: Sequence[BidEvent],
    retail_cents: int,
    finalprice_cents: int,
    winner: str,
    assumed_bidfee_cents: int = 60,
) -> list:
    """Per-bidder counts, response times, aggression, and outcome classes.

    A bidder may belong to several classes at once: winning the auction,
    being in the black (won and fees plus final price still under retail),
    and being in the red (spent more than the value received, which covers
    every losing bidder). Bidders appear in order of their first bid.
    """
    numbers, users, _, _, _, stamps = _bid_columns(bids)
    _require_timestamps(numbers, stamps)
    counts: dict = {}
    rt_sums: dict = {}
    rt_counts: dict = {}
    appearance: list = []
    prev_stamp = None
    for user, stamp in zip(*_sorted_by(numbers, users, stamps)):
        if user not in counts:
            counts[user] = 0
            rt_sums[user] = 0.0
            rt_counts[user] = 0
            appearance.append(user)
        counts[user] += 1
        if prev_stamp is not None:
            rt_sums[user] += stamp - prev_stamp
            rt_counts[user] += 1
        prev_stamp = stamp
    out = []
    for user in appearance:
        nbids = counts[user]
        timed = rt_counts[user]
        if timed == 0:
            avg: Optional[float] = None
            aggression = 0.0
        else:
            avg = rt_sums[user] / timed
            aggression = nbids / avg if avg > 0 else math.inf
        spend = nbids * assumed_bidfee_cents
        won = user == winner
        in_the_black = won and spend + finalprice_cents < retail_cents
        net_loss = spend + (finalprice_cents if won else 0) - (retail_cents if won else 0)
        out.append(BidderAuctionStats(
            username=user,
            bids=nbids,
            timed_bids=timed,
            avg_response_time=avg,
            aggression=aggression,
            spend_cents=spend,
            outcome_classes=_OUTCOME_CLASSES[won, in_the_black, net_loss > 0],
            all_bids_untimed=timed == 0,
        ))
    return out


@dataclass(frozen=True)
class Duel:
    length: int
    participants: tuple  # (last bidder, the other one)
    start_index: int


def detect_duels(bids: Sequence[BidEvent], min_len: int = 10) -> Optional[Duel]:
    """Find a two-bidder strictly alternating suffix of the bid history.

    Walks backwards from the final bid; the suffix must alternate between
    exactly two usernames with no repeats. Returns None when the suffix is
    shorter than min_len (or when the last two bids share a bidder, which
    the strict-alternation reading rules out).
    """
    if min_len < 2:
        raise ValueError("a duel needs at least two bids")
    numbers, users = _bid_columns(bids)[:2]
    users, = _sorted_by(numbers, users)
    if len(users) < 2:
        return None
    last = users[-1]
    prev = users[-2]
    if last == prev:
        return None
    length = 2
    i = len(users) - 3
    while i >= 0 and users[i] == users[i + 2]:
        length += 1
        i -= 1
    if length < min_len:
        return None
    return Duel(length=length, participants=(last, prev), start_index=len(users) - length)


# ---------------------------------------------------------------------------
# Bidpack accounting


@dataclass(frozen=True)
class BidpackBuyer:
    username: str
    packs_won: int
    cost_cents: int
    value_cents: int


@dataclass(frozen=True)
class BidpackReport:
    buyers: list
    total_cost_cents: int
    total_value_cents: int
    cost_ratio: float
    traced_auctions: int


def bidpack_cost(
    records: Sequence[AuctionOutcomeRecord],
    traces: Optional[dict] = None,
    matcher: Optional[Callable[[AuctionOutcomeRecord], bool]] = None,
    assumed_bidfee_cents: Optional[int] = 60,
) -> BidpackReport:
    """What bidpack winners actually paid for their bids, against face value.

    From outcomes alone a winner's cost is the final price plus their own
    paid bids times the fee. Passing traces (auction_id -> bid history) does
    two things: the winner's bid count comes from the trace instead of the
    placedbids column, and bids the tracked winners burned in bidpack
    auctions they LOST are added, which is the part the outcomes table cannot
    see. Value counts the retail face of packs actually won.
    """
    if matcher is None:
        keep = ("bids-voucher" in item.lower() or "bids voucher" in description.lower()
                for item, description in _outcome_rows(records, "item description"))
    else:
        keep = map(matcher, records)
    packs = list(itertools.compress(_outcome_rows(
        records, "auction_id winner bidfee_cents placedbids freebids finalprice_cents "
                 "retail_cents"), keep))
    if not packs:
        raise ValueError("no bidpack auctions in the outcome records")
    traces = traces or {}
    winners = sorted({winner for _, winner, *_ in packs})
    cost: dict = {u: 0 for u in winners}
    value: dict = {u: 0 for u in winners}
    packs_won: dict = {u: 0 for u in winners}
    traced = 0
    for auction_id, winner, own_fee, placed, free, final, retail in packs:
        fee = own_fee if assumed_bidfee_cents is None else assumed_bidfee_cents
        trace = traces.get(auction_id)
        if trace is not None:
            traced += 1
            by_user = Counter(_bid_columns(trace)[1])
            for u in winners:
                if u == winner:
                    continue
                lost_bids = by_user[u]
                cost[u] += lost_bids * fee
            winner_bids = by_user[winner]
        else:
            winner_bids = max(placed - free, 0)
        cost[winner] += final + winner_bids * fee
        value[winner] += retail
        packs_won[winner] += 1
    buyers = [
        BidpackBuyer(username=u, packs_won=packs_won[u], cost_cents=cost[u], value_cents=value[u])
        for u in winners
    ]
    total_cost = sum(cost.values())
    total_value = sum(value.values())
    return BidpackReport(
        buyers=buyers,
        total_cost_cents=total_cost,
        total_value_cents=total_value,
        cost_ratio=total_cost / total_value if total_value else math.nan,
        traced_auctions=traced,
    )


# ---------------------------------------------------------------------------
# Aggression summary across auctions


def aggression_table(
    stats_by_auction: dict,
    records: Sequence[AuctionOutcomeRecord],
    threshold: float = 3.0,
    assumed_bidfee_cents: Optional[int] = 60,
) -> list:
    """Bucket auctions by how many aggressive bidders they attracted.

    stats_by_auction maps auction_id to the bidder_stats list of that
    auction. Buckets are 0, 1, and 2-or-more bidders at or above the
    aggression threshold; each bucket reports how many auctions it holds and
    the mean auctioneer revenue as a percentage of retail.
    """
    by_id = {row[0]: row for row in _outcome_rows(
        records, "auction_id retail_cents bidincrement_cents bidfee_cents price_cents "
                 "finalprice_cents") if row[0] in stats_by_auction}
    buckets: dict = {0: [], 1: [], 2: []}
    for auction_id, stats in stats_by_auction.items():
        row = by_id.get(auction_id)
        if row is None:
            continue
        _, retail, increment, own_fee, price, final = row
        if retail <= 0 or increment <= 0:
            continue
        fee = own_fee if assumed_bidfee_cents is None else assumed_bidfee_cents
        bids = _bids_estimate(price, increment)
        revenue = bids * fee + final
        hot = sum(1 for s in stats if s.aggression >= threshold)
        buckets[min(hot, 2)].append(revenue / retail)
    out = []
    for key, label in ((0, "0"), (1, "1"), (2, ">=2")):
        vals = buckets[key]
        out.append({
            "aggressive_bidders": label,
            "auctions": len(vals),
            "mean_revenue_pct_of_retail": 100.0 * sum(vals) / len(vals) if vals else math.nan,
        })
    return out
