"""Outcome and probe parsing plus the empirical metrics, on synthetic data."""

import gc
import math
import pickle
import tracemalloc
from types import SimpleNamespace
from dataclasses import FrozenInstanceError, astuple, replace
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, InvalidOperation

import pytest
from hypothesis import example, given, settings, strategies as st

from paybid import trace_analytics
from paybid.trace_analytics import (
    IN_THE_BLACK,
    IN_THE_RED,
    WON_AUCTION,
    AuctionOutcomeRecord,
    BidEvent,
    Duel,
    _dollars_to_cents,
    active_bidder_fraction,
    aggression_table,
    bidder_stats,
    bidpack_cost,
    detect_duels,
    parse_outcome_rows,
    parse_probe_line,
    parse_trace_file,
    profit_margin,
    reconstruct_bids,
)

EXAMPLE_ROW = ("259070\t10011706\t300-bids-voucher\t300 Bids Voucher\t180\t31.26"
               "\t31.26\t6\t60\tSchonmir1500\t106\t0\t13:29 PDT 12-12-2009\t1\t0\t0\t0")
EXAMPLE_PROBE = "ct=15|cs=1|ra=0|cw=Schonmir1500|cp=3126|bh=521:Schonmir1500:1:3126:0:#|lui=4#1#0#0"


def outcome_row(aid, item, desc, retail, price, final, inc, fee, winner, placed,
                free=0, click=0, fixed=0, endprice=0):
    return (f"{aid}\t1\t{item}\t{desc}\t{retail}\t{price}\t{final}\t{inc}\t{fee}"
            f"\t{winner}\t{placed}\t{free}\tts\t{click}\t0\t{fixed}\t{endprice}")


def bid(n, user, t, price=None, bidtype=1):
    return BidEvent(bidnumber=n, username=user, bidtype=bidtype,
                    price_cents=price if price is not None else 6 * n,
                    yourbid=0, timestamp=t)


# ---------------------------------------------------------------------------
# outcomes parsing


def test_example_outcome_row_field_for_field():
    rec = parse_outcome_rows([EXAMPLE_ROW])[0]
    assert rec.auction_id == 259070
    assert rec.product_id == 10011706
    assert rec.item == "300-bids-voucher"
    assert rec.description == "300 Bids Voucher"
    assert rec.retail_cents == 18000
    assert rec.price_cents == 3126
    assert rec.finalprice_cents == 3126
    assert rec.bidincrement_cents == 6
    assert rec.bidfee_cents == 60
    assert rec.winner == "Schonmir1500"
    assert rec.placedbids == 106
    assert rec.freebids == 0
    assert rec.endtime_str == "13:29 PDT 12-12-2009"
    assert rec.flg_click_only is True
    assert rec.flg_beginnerauction is False
    assert rec.flg_fixedprice is False
    assert rec.flg_endprice is False
    # a frozen value record: equal rows give equal, equally hashed records
    again = parse_outcome_rows([EXAMPLE_ROW])[0]
    assert again == rec and hash(again) == hash(rec)
    assert parse_outcome_rows([EXAMPLE_ROW.replace("\t180\t", "\t181\t")])[0] != rec
    with pytest.raises(FrozenInstanceError):
        rec.retail_cents = 0


def test_outcome_rows_empty_and_header():
    assert parse_outcome_rows([]) == []
    header = "auction_id\tproduct_id\titem\tdesc\tretail\tprice\tfinalprice\t" \
             "bidincrement\tbidfee\twinner\tplacedbids\tfreebids\tendtime_str\t" \
             "flg_click_only\tflg_beginnerauction\tflg_fixedprice\tflg_endprice"
    recs = parse_outcome_rows([header, EXAMPLE_ROW], has_header=True)
    assert len(recs) == 1


def test_outcome_rows_comma_delimiter():
    recs = parse_outcome_rows([EXAMPLE_ROW.replace("\t", ",")], delimiter=",")
    assert recs[0].auction_id == 259070


def test_tab_separated_item_keeps_its_quotes():
    row = outcome_row(7, '"Big" TV', 'A "Big" TV', 100, 0, 0.12, 6, 60, "w", 3)
    rec = parse_outcome_rows([row])[0]
    assert rec.item == '"Big" TV'
    assert rec.description == 'A "Big" TV'
    assert rec.retail_cents == 10000


def test_comma_separated_rows_follow_csv_quoting():
    row = outcome_row(7, '"Big, ""bright"" TV"', "TV", 100, 0, 0.12, 6, 60, "w", 3)
    rec = parse_outcome_rows([row.replace("\t", ",")], delimiter=",")[0]
    assert rec.item == 'Big, "bright" TV'
    assert rec.retail_cents == 10000


def test_malformed_rows_are_skipped_with_diagnostics():
    diagnostics = []
    bad_retail = EXAMPLE_ROW.replace("\t180\t", "\tn/a\t")
    short = "1\t2\t3"
    bad_flag = EXAMPLE_ROW.replace("\t1\t0\t0\t0", "\t2\t0\t0\t0")
    recs = parse_outcome_rows([bad_retail, short, EXAMPLE_ROW, bad_flag],
                              diagnostics=diagnostics)
    assert len(recs) == 1
    assert len(diagnostics) == 3
    # sub-cent retail amounts are data corruption, not rounding noise
    diagnostics.clear()
    subcent = EXAMPLE_ROW.replace("\t31.26\t31.26\t", "\t31.267\t31.26\t")
    assert parse_outcome_rows([subcent], diagnostics=diagnostics) == []
    assert diagnostics
    # so are amounts that are not finite, rather than crashing the parse
    diagnostics.clear()
    infinite = [EXAMPLE_ROW.replace("\t180\t", f"\t{amount}\t")
                for amount in ("Infinity", "-Infinity", "NaN", "sNaN")]
    recs = parse_outcome_rows([*infinite, EXAMPLE_ROW], diagnostics=diagnostics)
    assert [r.auction_id for r in recs] == [259070]
    assert [d.split(": ", 2)[:2] for d in diagnostics] == [
        [f"line {n}", "retail"] for n in range(1, 5)]
    assert all("dollar amount is not finite" in d for d in diagnostics)


def decimal_cents(text, what):
    """Dollars to cents through Decimal alone, the reference for the fast path."""
    try:
        d = Decimal(text)
    except InvalidOperation:
        raise ValueError(f"{what}: not a dollar amount: {text!r}") from None
    if not d.is_finite():
        raise ValueError(f"{what}: dollar amount is not finite: {text!r}")
    if d and d.adjusted() > 25:
        raise ValueError(f"{what}: dollar amount out of range: {text!r}")
    # exact: enough digits and exponent range that nothing rounds or underflows
    exact = Context(prec=len(d.as_tuple().digits) + 2, Emin=MIN_EMIN, Emax=MAX_EMAX)
    cents = d.scaleb(2, exact)
    if cents != cents.to_integral_value(context=exact):
        raise ValueError(f"{what}: sub-cent dollar amount: {text!r}")
    return int(cents)


def outcome_of(convert, text):
    try:
        return convert(text, "retail")
    except ValueError as exc:
        return str(exc)


DOLLAR_EDGES = ["1.", ".5", "+1", "1_0", " 1", "1e2", "-0.50", "007.5", "\u0663", "nan",
                "0", "0.00", "12.345", "1.2.3", "", ".", "1" * 30, "9" * 20 + ".99", "1 "]


@pytest.mark.parametrize("text", DOLLAR_EDGES)
def test_dollars_to_cents_edge_forms_match_decimal(text):
    assert outcome_of(_dollars_to_cents, text) == outcome_of(decimal_cents, text)


@settings(max_examples=500, deadline=None)
@given(text=st.from_regex(r"\A[0-9]{0,30}(\.[0-9]{0,4})?\Z")
       | st.text(alphabet="0123456789.+-_e \u0663\u00b2naif", max_size=12))
@example(text="1.")
@example(text="\u0663.5")
@example(text="1e1000000")
@example(text="0.01" + "0" * 30 + "1")
def test_dollars_to_cents_matches_decimal(text):
    assert outcome_of(_dollars_to_cents, text) == outcome_of(decimal_cents, text)


@pytest.mark.parametrize("text", ["1e1000000", "1e999990", "1" * 29, "-1e26"])
def test_dollar_amount_out_of_range_is_rejected(text):
    # 1e1000000 * 100 overflowed Decimal's context, 1e999990 took half a
    # minute to become an int, and 29 digits came back rounded to 28
    with pytest.raises(ValueError, match="out of range"):
        _dollars_to_cents(text, "retail")
    assert _dollars_to_cents("9" * 26, "retail") == int("9" * 26 + "00")


@pytest.mark.parametrize("text", ["1e-1000030", "1e-9999999999", "0.01" + "0" * 30 + "1"])
def test_sub_cent_amount_is_rejected_however_small(text):
    # text * 100 underflowed to an integral zero and read as 0 cents, or was
    # rounded to 28 digits and read as 1 cent
    with pytest.raises(ValueError, match="sub-cent"):
        _dollars_to_cents(text, "retail")
    assert outcome_of(_dollars_to_cents, text) == outcome_of(decimal_cents, text)


@pytest.mark.parametrize("bad, message", [
    (EXAMPLE_ROW.replace("\t180\t", "\t" + "9" * 131_073 + "\t"),
     "field larger than field limit (131072)"),
    (EXAMPLE_ROW.replace("Schonmir1500", "Schon\rmir1500"), "new-line character seen"),
])
def test_a_row_the_csv_reader_refuses_rejects_only_that_row(bad, message):
    # the csv reader raises on such a row and goes on with the next line
    diagnostics = []
    recs = parse_outcome_rows([EXAMPLE_ROW, bad, EXAMPLE_ROW.replace("259070", "259071")],
                              diagnostics=diagnostics)
    assert [r.auction_id for r in recs] == [259070, 259071]
    assert len(diagnostics) == 1 and diagnostics[0].startswith(f"line 2: {message}")


@pytest.mark.parametrize("text", ["0e30", "-0e30", "0E+26"])
def test_zero_is_no_cents_whatever_its_exponent(text):
    # the range check read the exponent of a zero and called it out of range
    assert _dollars_to_cents(text, "retail") == 0
    assert outcome_of(decimal_cents, text) == 0


def test_parsed_record_is_the_class_own_frozen_record():
    rec = parse_outcome_rows([EXAMPLE_ROW])[0]
    built = AuctionOutcomeRecord(*astuple(rec))
    assert type(rec) is AuctionOutcomeRecord
    assert rec == built and hash(rec) == hash(built)
    with pytest.raises(FrozenInstanceError):
        rec.winner = "x"


@pytest.fixture
def shared_ints(monkeypatch):
    """An empty int cache for this test, so what earlier tests parsed does
    not count against its bound."""
    cache = trace_analytics._SharedInts()
    monkeypatch.setattr(trace_analytics, "_SHARED_INTS", cache)
    return cache


def test_equal_item_description_and_winner_share_one_string(shared_ints):
    # ints past 256, which CPython would otherwise build afresh per row
    rows = [outcome_row(aid, "tv-" + "32", "TV " + "32", 100, 31.26, 31.26, 6, 60,
                        "".join(["bid", "der7"]), 1003, free=300) for aid in (1, 2, 3)]
    recs = parse_outcome_rows(rows)
    for name in ("item", "description", "winner", "price_cents", "finalprice_cents",
                 "placedbids", "freebids"):
        first = getattr(recs[0], name)
        assert all(getattr(r, name) is first for r in recs[1:]), name
    assert recs[0].finalprice_cents is recs[0].price_cents
    first, *rest = profit_margin(recs).per_auction
    assert first.bids_estimate == 521
    assert all(m.bids_estimate is first.bids_estimate for m in rest)


# ---------------------------------------------------------------------------
# probe parsing


def test_example_probe_line_decodes():
    p = parse_probe_line(EXAMPLE_PROBE, observed_at=1260000000.0)
    assert p.ct == 15
    assert p.cs == 1
    assert p.ra == 0
    assert p.cw == "Schonmir1500"
    assert p.cp == 3126
    assert p.lui == (4, 1, 0, 0)
    assert len(p.bids) == 1
    event = p.bids[0]
    assert event.bidnumber == 521
    assert event.username == "Schonmir1500"
    assert event.bidtype == 1
    assert event.price_cents == 3126
    assert not event.yourbid
    assert event.timestamp == 1260000000.0


def test_probe_line_roundtrips_byte_exactly():
    assert parse_probe_line(EXAMPLE_PROBE).serialize() == EXAMPLE_PROBE


def test_probe_unknown_keys_survive_roundtrip():
    line = "ct=9|cs=20|ra=1|zz=opaque|cp=100|bh=|lui=1#2#3#4"
    p = parse_probe_line(line)
    assert p.cs == 20
    assert p.bids == ()
    assert p.serialize() == line


def test_probe_many_bids_share_the_probe_timestamp():
    body = "".join(f"{n}:u{n}:1:{6 * n}:0:#" for n in range(1, 11))
    line = f"ct=1|cs=1|bh={body}|lui=0#0#0#0"
    p = parse_probe_line(line, observed_at=77.0)
    assert len(p.bids) == 10
    assert all(b.timestamp == p.observed_at == 77.0 for b in p.bids)
    assert [b.bidnumber for b in p.bids] == list(range(1, 11))
    # probes and events are frozen value records
    again = parse_probe_line(line, observed_at=77.0)
    assert again == p and hash(again) == hash(p)
    assert again.bids[3] == p.bids[3] and hash(again.bids[3]) == hash(p.bids[3])
    later = parse_probe_line(line, observed_at=78.0)
    assert later != p
    assert all(b.timestamp == 78.0 for b in later.bids)
    assert later.bids[0] != p.bids[0]
    with pytest.raises(FrozenInstanceError):
        p.observed_at = 1.0
    with pytest.raises(FrozenInstanceError):
        p.bids[0].timestamp = 1.0


def test_probe_rejects_too_many_or_unordered_bids():
    body = "".join(f"{n}:u:1:{6 * n}:0:#" for n in range(1, 12))
    with pytest.raises(ValueError):
        parse_probe_line(f"ct=1|bh={body}|lui=0#0#0#0")
    with pytest.raises(ValueError):
        parse_probe_line("ct=1|bh=5:a:1:30:0:#4:b:1:24:0:#|lui=0#0#0#0")


def test_probe_malformed_tuple_names_the_index():
    with pytest.raises(ValueError) as err:
        parse_probe_line("ct=1|bh=5:a:1:30:0:#7:b:oops:42:0:#|lui=0#0#0#0")
    assert "tuple 1" in str(err.value)


def test_trace_file_rejects_non_finite_stamps():
    probe = "ct=1|cs=1|bh=1:a:1:6:0:#|lui=0#0#0#0"
    diagnostics = []
    lines = [f"{stamp}\t{probe}" for stamp in ("nan", "inf", "-inf", "1260000000")]
    probes = parse_trace_file(lines, diagnostics=diagnostics)
    assert [p.observed_at for p in probes] == [1260000000.0]
    assert [d.split(":")[0] for d in diagnostics] == ["line 1", "line 2", "line 3"]
    assert all("not finite" in d for d in diagnostics)


def test_trace_file_lines_carry_observed_at():
    lines = [
        "1260000000\tct=15|cs=1|ra=0|cw=a|cp=6|bh=1:a:1:6:0:#|lui=0#0#0#0",
        "1260000010\tct=12|cs=1|ra=0|cw=b|cp=12|bh=2:b:1:12:0:#|lui=0#0#0#0",
    ]
    probes = parse_trace_file(lines)
    assert [p.observed_at for p in probes] == [1260000000.0, 1260000010.0]


def test_trace_file_diagnostics_keep_their_precedence():
    # every tuple is parsed before the bid numbers are compared, so a field
    # both out of order and malformed is reported as malformed, whether or
    # not its well-formed tuples were seen on an earlier line
    probes = [
        "ct=1|bh=5:a:1:30:0:#|lui=0",
        "ct=1|bh=5:a:1:30:0:#4:b:oops:24:0:#|lui=0",
        "ct=1|bh=5:a:1:30:0:#4:b:1:24:0:#|lui=0",
        "ct=1|bh=9:a:1:54:0:#4:b:1:24:0:x#|lui=0",
        "ct=1|bh=4:b:oops:24:0:#5:a:1:30:0:#|lui=0",
        "ct=1|bh=9:a:1:54:0:#4:b:1:24:0:#7:c:z:42:0:#|lui=0",
    ]
    diagnostics = []
    parsed = parse_trace_file([f"{10 + n}\t{p}" for n, p in enumerate(probes)], diagnostics)
    assert len(parsed) == 1
    assert diagnostics == [
        "line 2: malformed bid tuple 1 in bh field: '4:b:oops:24:0:'",
        "line 3: bid numbers within one bh field must increase strictly",
        "line 4: malformed bid tuple 1 in bh field: '4:b:1:24:0:x'",
        "line 5: malformed bid tuple 0 in bh field: '4:b:oops:24:0:'",
        "line 6: malformed bid tuple 2 in bh field: '7:c:z:42:0:'",
    ]
    # the same messages as each line parsed alone
    for line, message in zip(probes[1:], diagnostics):
        with pytest.raises(ValueError) as err:
            parse_probe_line(line)
        assert message.endswith(str(err.value))


# One malformed line of each kind the trace grammar rejects, mixed with good
# lines that repeat tuples, leave out bh or lui, empty lui and repeat a bh field.
MIXED_TRACE = [
    ("10\tct=9|cs=1|ra=0|cw=a|cp=6|bh=1:a:1:6:0:#|lui=4#1#0#0", None),
    ("11 ct=9|cs=1|bh=1:a:1:6:0:#|lui=0", "missing tab between timestamp and probe"),
    ("nan\tct=9|bh=1:a:1:6:0:#|lui=0", "timestamp is not finite: 'nan'"),
    ("ten\tct=9|bh=1:a:1:6:0:#|lui=0", "could not convert string to float: 'ten'"),
    ("12\t", "empty probe line"),
    ("13\tct=9|junk|lui=0", "probe chunk without '=': 'junk'"),
    ("14\tct=x|bh=|lui=0", "invalid literal for int() with base 10: 'x'"),
    ("15\tcs=1.5|bh=|lui=0", "invalid literal for int() with base 10: '1.5'"),
    ("16\tra=|bh=|lui=0", "invalid literal for int() with base 10: ''"),
    ("17\tcp=12a|bh=|lui=0", "invalid literal for int() with base 10: '12a'"),
    ("18\tct=9|cw=b|cp=12|bh=1:a:1:6:0:#2:b:1:12:0:#|lui=", None),
    ("19\tct=9|bh=|lui=1#x", "invalid literal for int() with base 10: 'x'"),
    ("20\tct=9|bh=2:b:1:12:0:|lui=0", "bh field does not end with its '#' terminator"),
    ("21\tct=9|bh=" + "".join(f"{n}:u:1:{6 * n}:0:#" for n in range(1, 12)) + "|lui=0",
     "bh field lists 11 bids, the feed never sends more than 10"),
    ("22\tct=9|bh=2:b:1:12:0:#3:c:1:18:0:x#|lui=0",
     "malformed bid tuple 1 in bh field: '3:c:1:18:0:x'"),
    ("23\tct=9|bh=3:c:1:18:0:#2:b:1:12:0:#|lui=0",
     "bid numbers within one bh field must increase strictly"),
    ("24\tct=9|bh=2:b:one:12:0:#|bh=3:c:1:18:0:#|lui=0",
     "malformed bid tuple 0 in bh field: '2:b:one:12:0:'"),
    ("25\tzz=opaque|bh=2:b:1:12:0:#3:c:2:18:1:#|bh=|lui=0|cs=20", None),
    ("26\tct=1|cs=20|bh=2:b:1:12:0:#3:c:2:18:1:#4:a:1:24:0:#", None),
    ("27\tct=5|cs=1|cw=c|lui=0", None),
]


def test_trace_file_diagnoses_each_kind_of_line_and_keeps_the_rest():
    diagnostics = []
    parsed = parse_trace_file([line + "\n" for line, _ in MIXED_TRACE], diagnostics)
    assert diagnostics == [f"line {n}: {message}"
                           for n, (_, message) in enumerate(MIXED_TRACE, start=1) if message]
    accepted = [line.split("\t") for line, message in MIXED_TRACE if message is None]
    assert list(parsed) == [parse_probe_line(text, float(stamp)) for stamp, text in accepted]
    # a later bh field's bids replace an earlier one's; the entries keep both
    assert parsed[2].bids == () and parsed[2].serialize() == accepted[2][1]
    assert [b.bidnumber for b in parsed[3].bids] == [2, 3, 4]


def test_repeated_tuple_carries_each_probe_stamp():
    lines = ["10\tct=1|bh=1:a:1:6:0:#2:b:1:12:0:#|lui=0",
             "20\tct=1|bh=1:a:1:6:0:#2:b:1:12:0:#3:a:2:18:0:#|lui=0"]
    first, second = parse_trace_file(lines)
    assert [b.timestamp for b in first.bids] == [10.0, 10.0]
    assert [b.timestamp for b in second.bids] == [20.0, 20.0, 20.0]
    for a, b in zip(first.bids, second.bids):
        assert astuple(a)[:-1] == astuple(b)[:-1] and a != b
    assert second == parse_probe_line(lines[1].split("\t")[1], observed_at=20.0)
    bids, missing = reconstruct_bids([first, second])
    assert [(b.bidnumber, b.timestamp) for b in bids] == [(1, 10.0), (2, 10.0), (3, 20.0)]
    assert missing == 0


def test_one_user_bids_share_one_username_string():
    lines = [f"{10 + n}\tct=1|bh=" + "".join(f"{k}:{'bid' + 'der' + str(k % 2)}:1:{6 * k}:0:#"
                                             for k in range(n + 1, n + 4)) + "|lui=0"
             for n in range(4)]
    bids, missing = reconstruct_bids(parse_trace_file(lines))
    assert missing == 0 and len(bids) == 6
    by_user: dict = {}
    for b in bids:
        assert by_user.setdefault(b.username, b.username) is b.username


def test_bid_numbers_and_prices_are_shared_across_files(shared_ints):
    first, = parse_trace_file(["10\tct=1|bh=1001:a:1:6006:0:#|lui=0"])
    second, = parse_trace_file(["20\tct=1|bh=1001:b:1:6006:0:#|lui=0"])
    a, b = first.bids[0], second.bids[0]
    assert (a.bidnumber, a.price_cents) == (1001, 6006)
    assert a.bidnumber is b.bidnumber and a.price_cents is b.price_cents


def test_shared_int_cache_stops_at_its_bound(shared_ints, monkeypatch):
    monkeypatch.setattr(trace_analytics, "_SHARED_INTS_MAX", 4)
    runs = []
    for start in (1001, 1001, 2001):
        lines = [f"{t}\tct=1|bh={n}:u:1:{6 * n}:0:#|lui=0"
                 for t, n in enumerate(range(start, start + 5))]
        runs.append(parse_trace_file(lines))
        assert len(shared_ints) <= 4
    for run, start in zip(runs, (1001, 1001, 2001)):
        assert [(p.bids[0].bidnumber, p.bids[0].price_cents) for p in run] == [
            (n, 6 * n) for n in range(start, start + 5)]
    # the first two values of the first file are cached and shared, later ones
    # are equal but their own objects
    assert set(shared_ints) == {1001, 6006, 1002, 6012}
    assert runs[0][1].bids[0].price_cents is runs[1][1].bids[0].price_cents
    assert runs[0][2].bids[0].bidnumber is not runs[1][2].bids[0].bidnumber


# ---------------------------------------------------------------------------
# bid stream reconstruction


def test_reconstruct_deduplicates_and_keeps_first_sighting():
    def probe(nums, t):
        body = "".join(f"{n}:u{n}:1:{6 * n}:0:#" for n in nums)
        return parse_probe_line(f"ct=1|cs=1|bh={body}|lui=0#0#0#0", observed_at=t)

    bids, missing = reconstruct_bids([probe([1, 2, 3], 10.0), probe([2, 3, 4, 5], 20.0)])
    assert [b.bidnumber for b in bids] == [1, 2, 3, 4, 5]
    assert missing == 0
    assert [b.timestamp for b in bids] == [10.0, 10.0, 10.0, 20.0, 20.0]

    bids, missing = reconstruct_bids([probe([10], 10.0), probe([25], 20.0)])
    assert missing == 14

    with pytest.raises(ValueError):
        reconstruct_bids([probe([5, 6], 10.0), probe([3], 20.0)])


@pytest.mark.parametrize("stamp", [math.nan, math.inf, -math.inf])
def test_reconstruct_rejects_a_non_finite_observation_stamp(stamp):
    # NaN fails every ordering comparison, so only an explicit check sees it
    probes = [parse_probe_line(f"ct=1|cs=1|bh={n}:u{n}:1:{6 * n}:0:#|lui=0#0#0#0", observed_at=t)
              for n, t in ((1, 10.0), (2, stamp))]
    with pytest.raises(ValueError, match="observation timestamp is not finite"):
        reconstruct_bids(probes)


# ---------------------------------------------------------------------------
# profit margins


def test_example_row_margin():
    report = profit_margin(parse_outcome_rows([EXAMPLE_ROW]))
    entry = report.per_auction[0]
    assert entry.bids_estimate == 521
    assert entry.profit_cents == 16386
    assert entry.margin == pytest.approx(0.9103333333333333, abs=1e-12)
    assert report.aggregate_margin == pytest.approx(0.9103333333333333, abs=1e-12)


def test_margin_exclusions_and_aggregate():
    rows = [
        outcome_row(4, "tv", "TV", 100, 0, 0, 6, 60, "", 0),              # never sold
        outcome_row(5, "tv", "TV", 100, 20, 29.99, 0, 60, "x", 3, fixed=1),
        outcome_row(6, "tv", "TV", 100, 12, 12, 6, 60, "y", 9),
        outcome_row(7, "tv", "TV", 100, 6, 6, 6, 60, "z", 9),
    ]
    report = profit_margin(parse_outcome_rows(rows))
    assert report.skipped_no_sale == 1
    assert report.skipped_fixed_price == 1
    assert report.included == 2
    by_id = {e.auction_id: e for e in report.per_auction}
    assert by_id[6].bids_estimate == 200
    assert by_id[6].profit_cents == 200 * 60 + 1200 - 10000
    # aggregate is total profit over total retail, not a mean of ratios
    total_profit = sum(e.profit_cents for e in report.per_auction)
    assert report.aggregate_margin == pytest.approx(total_profit / 20000.0, abs=1e-12)


def test_margin_without_fee_assumption():
    report = profit_margin(parse_outcome_rows([EXAMPLE_ROW]), assumed_bidfee_cents=0)
    assert report.per_auction[0].profit_cents == 3126 - 18000


@pytest.mark.parametrize("price, increment, bids", [
    ("90071992547409.93", 1, 9_007_199_254_740_993),  # past 2**53: a float quotient is off by one
    ("0.05", 2, 2), ("0.07", 2, 4), ("0.03", 2, 2),  # halves round to even
    ("0.07", 3, 2), ("0.08", 3, 3),
])
def test_bid_estimate_is_exact(price, increment, bids):
    rows = [outcome_row(1, "tv", "TV", 100, price, price, increment, 60, "w", 5)]
    records = parse_outcome_rows(rows)
    final = records[0].finalprice_cents
    entry, = profit_margin(records).per_auction
    assert entry.bids_estimate == bids
    assert entry.profit_cents == bids * 60 + final - 10000
    table = aggression_table({1: []}, records)
    assert table[0]["mean_revenue_pct_of_retail"] == 100.0 * ((bids * 60 + final) / 10000)


def test_bid_estimate_is_an_int_whatever_the_record_holds(shared_ints):
    record, = parse_outcome_rows([outcome_row(1, "tv", "TV", 100, 31.26, 31.26, 6, 60, "w", 5)])
    entry, = profit_margin([replace(record, price_cents=3126.0)]).per_auction
    assert entry.bids_estimate == 521 and type(entry.bids_estimate) is int
    assert all(type(v) is int for v in shared_ints)


def test_margin_zero_increment_on_ascending_record_is_an_error():
    rows = [outcome_row(8, "tv", "TV", 100, 12, 12, 0, 60, "y", 9)]
    report = profit_margin(parse_outcome_rows(rows))
    assert report.included == 0
    assert report.errors


# ---------------------------------------------------------------------------
# activity over time


def test_active_fraction_all_bids_at_the_end():
    late = [bid(i + 1, f"u{i % 4}", 3540.0 + i) for i in range(10)]
    series = active_bidder_fraction(late, auction_end=3600.0, sample_interval=600,
                                    window=900, auction_start=0.0)
    assert series[-1] == (0.0, 1.0)
    assert all(frac == 0.0 for _, frac in series[:-1])
    assert len(series) == 7


def test_active_fraction_uniform_arrivals():
    # ten distinct bidders, one bid every 6 minutes; a 15 minute window can
    # hold at most three of them, so no sample should pass 0.3
    uniform = [bid(i + 1, f"u{i}", 360.0 * i) for i in range(10)]
    series = active_bidder_fraction(uniform, auction_end=3600.0, sample_interval=600,
                                    window=900, auction_start=0.0)
    assert series == [(3600.0, 0.1), (3000.0, 0.2), (2400.0, 0.3), (1800.0, 0.3),
                      (1200.0, 0.2), (600.0, 0.3), (0.0, 0.2)]


def test_active_fraction_requires_bids():
    with pytest.raises(ValueError):
        active_bidder_fraction([], auction_end=100.0)


def test_active_fraction_refuses_a_grid_it_could_not_finish():
    # 180.0 + 1e-14 == 180.0: the offset would stop growing and the samples
    # would fill memory; the grid is refused before one sample is taken
    bids = [bid(1, "a", 0.0), bid(2, "b", 180.0)]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="more than 10000000 samples"):
            active_bidder_fraction(bids, auction_end=360.0, sample_interval=1e-14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000
    # one sample past ten million is refused too
    with pytest.raises(ValueError):
        active_bidder_fraction(bids, auction_end=1e7, sample_interval=1.0)
    assert len(active_bidder_fraction(bids, auction_end=360.0, sample_interval=1.0)) == 361


@pytest.mark.parametrize("grid", [{"sample_interval": math.nan}, {"window": math.nan}])
def test_active_fraction_rejects_a_nan_interval_or_window(grid):
    # a NaN interval used to give the single sample (0.0, 1.0) and a NaN
    # window a fraction of 0.0 everywhere
    bids = [bid(i + 1, "ab"[i % 2], 10.0 * i) for i in range(10)]
    with pytest.raises(ValueError, match="must be positive"):
        active_bidder_fraction(bids, auction_end=90.0, **grid)


@pytest.mark.parametrize("stamp", [math.nan, math.inf, -math.inf])
def test_metrics_reject_non_finite_stamps(stamp):
    bids = [bid(1, "a", 10.0), bid(2, "b", stamp), bid(3, "a", 30.0)]
    with pytest.raises(ValueError, match="bid 2 has a non-finite timestamp"):
        active_bidder_fraction(bids, auction_end=30.0, auction_start=0.0)
    with pytest.raises(ValueError, match="bid 2 has a non-finite timestamp"):
        bidder_stats(bids, 100, 6, "a")


@pytest.mark.parametrize("bounds", [
    {"auction_end": math.inf},
    {"auction_end": math.nan},
    {"auction_end": 30.0, "auction_start": -math.inf},
    {"auction_end": 30.0, "auction_start": math.nan},
])
def test_active_fraction_rejects_non_finite_bounds(bounds):
    # an infinite end or start would leave the sampling grid without end
    with pytest.raises(ValueError, match="is not finite"):
        active_bidder_fraction([bid(1, "a", 10.0)], **bounds)


def quadratic_active_fraction(bids, auction_end, sample_interval, window, auction_start):
    """active_bidder_fraction by its definition: rescan every bid per sample."""
    begin = min(b.timestamp for b in bids) if auction_start is None else auction_start
    total = len({b.username for b in bids})
    samples = []
    offset = 0.0
    while auction_end - offset >= begin:
        at = auction_end - offset
        recent = {b.username for b in bids if at - window < b.timestamp <= at}
        samples.append((offset, len(recent) / total))
        offset += sample_interval
    samples.reverse()
    return samples


@settings(max_examples=300, deadline=None)
@given(stamped=st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                                  st.sampled_from("abcde")), min_size=1, max_size=40),
       unit=st.sampled_from([1.0, 0.25, 0.1]),
       interval=st.integers(min_value=1, max_value=12),
       ratio=st.sampled_from([0.5, 1.0, 2.5]) | st.floats(min_value=0.05, max_value=8.0),
       end=st.integers(min_value=0, max_value=45),
       start=st.none() | st.integers(min_value=-5, max_value=45))
def test_active_fraction_matches_the_quadratic_definition(stamped, unit, interval, ratio,
                                                          end, start):
    # stamps on a grid repeat and land exactly on window edges; a unit of 0.1
    # makes the edges inexact floats, so membership must use the same bounds
    bids = [bid(i + 1, user, n * unit) for i, (n, user) in enumerate(stamped)]
    args = (end * unit, interval * unit, interval * unit * ratio,
            None if start is None else start * unit)
    assert active_bidder_fraction(bids, *args) == quadratic_active_fraction(bids, *args)


# ---------------------------------------------------------------------------
# per-bidder statistics


def test_aggression_interleaved_fixture():
    bids = [bid(i + 1, "u1" if i % 2 == 0 else "u2", 2.0 * i) for i in range(20)]
    stats = {s.username: s for s in bidder_stats(bids, 30000, 720, "u2")}
    # u1 opened the auction, so one of its ten bids has no response time;
    # both bidders still average exactly 2 seconds per timed bid
    assert stats["u1"].timed_bids == 9
    assert stats["u2"].timed_bids == 10
    for s in stats.values():
        assert s.bids == 10
        assert s.avg_response_time == pytest.approx(2.0, abs=1e-12)
        assert s.aggression == pytest.approx(5.0, abs=1e-12)


def test_aggression_scales_with_rate():
    # same bid count, half the spacing, twice the aggression
    fast = [bid(i + 1, "u1" if i % 2 == 0 else "u2", 1.0 * i) for i in range(20)]
    stats = {s.username: s for s in bidder_stats(fast, 30000, 720, "u2")}
    assert stats["u2"].aggression == pytest.approx(10.0, abs=1e-12)


def test_opening_only_bidder_has_no_aggression():
    bids = [bid(1, "opener", 0.0)] + [bid(i + 2, "x" if i % 2 else "y", 2.0 + i)
                                      for i in range(4)]
    stats = {s.username: s for s in bidder_stats(bids, 30000, 36, "x")}
    opener = stats["opener"]
    assert opener.all_bids_untimed
    assert opener.avg_response_time is None
    assert opener.aggression == 0.0


def test_outcome_classes():
    bids = [bid(i + 1, "winner" if i % 2 else "loser", 1.0 * i) for i in range(10)]
    stats = {s.username: s for s in bidder_stats(bids, retail_cents=10000,
                                                 finalprice_cents=60,
                                                 winner="winner")}
    w, l = stats["winner"], stats["loser"]
    assert WON_AUCTION in w.outcome_classes
    assert IN_THE_BLACK in w.outcome_classes      # 5 bids at 60c plus 60c final
    assert IN_THE_RED not in w.outcome_classes
    assert IN_THE_RED in l.outcome_classes
    assert WON_AUCTION not in l.outcome_classes

    # an expensive win lands in the red even while winning
    pricey = {s.username: s for s in bidder_stats(bids, retail_cents=200,
                                                  finalprice_cents=60,
                                                  winner="winner")}
    assert IN_THE_RED in pricey["winner"].outcome_classes
    assert WON_AUCTION in pricey["winner"].outcome_classes


def test_equal_outcome_classes_are_one_object():
    bids = [bid(i + 1, "winner" if i % 2 else "loser" + str(i % 4), 1.0 * i) for i in range(12)]
    one = bidder_stats(bids, 10000, 60, "winner")
    two = bidder_stats(bids, 20000, 60, "winner")
    classes = [s.outcome_classes for s in one + two]
    assert classes[0] == {IN_THE_RED} and len(set(classes)) < len(classes)
    for c in classes:
        assert next(d for d in classes if d == c) is c


def test_bidder_stats_pickle_replace_and_compare():
    bids = [bid(i + 1, "winner" if i % 2 else "loser", 1.0 * i) for i in range(6)]
    stats = bidder_stats(bids, 10000, 60, "winner")[0]
    assert not hasattr(stats, "__dict__")
    assert pickle.loads(pickle.dumps(stats)) == stats
    assert replace(stats, bids=stats.bids) == stats
    assert replace(stats, bids=stats.bids + 1) != stats


def test_bidder_stats_require_timestamps():
    with pytest.raises(ValueError):
        bidder_stats([BidEvent(1, "u", 1, 6, 0, timestamp=None)], 100, 6, "u")


# ---------------------------------------------------------------------------
# duels


def test_duel_detected_in_terminal_alternation():
    mixed = [bid(i + 1, ["a", "b", "c"][i % 3], float(i)) for i in range(8)]
    tail = [bid(9 + i, "x" if i % 2 == 0 else "y", 8.0 + i) for i in range(12)]
    duel = detect_duels(mixed + tail, min_len=10)
    assert duel is not None
    assert duel.length == 12
    assert set(duel.participants) == {"x", "y"}
    assert duel.start_index == 8


def test_duel_requires_minimum_length():
    mixed = [bid(i + 1, ["a", "b", "c"][i % 3], float(i)) for i in range(9)]
    tail = [bid(10 + i, "x" if i % 2 == 0 else "y", 9.0 + i) for i in range(6)]
    assert detect_duels(mixed + tail, min_len=10) is None
    assert detect_duels(mixed + tail, min_len=6).length == 6


def test_duel_broken_by_repeat_bidder():
    # x bidding twice in a row breaks strict alternation
    tail = [bid(i + 1, "x" if i % 2 == 0 else "y", float(i)) for i in range(12)]
    tail[5] = bid(6, "x", 5.0)
    assert detect_duels(tail, min_len=10) is None


def test_whole_auction_duel():
    tail = [bid(i + 1, "x" if i % 2 == 0 else "y", float(i)) for i in range(14)]
    duel = detect_duels(tail, min_len=10)
    assert duel.length == 14
    assert duel.start_index == 0


# ---------------------------------------------------------------------------
# bid pack economics


def test_bidpack_cost_from_outcomes_only():
    rows = [
        outcome_row(1, "300-bids-voucher", "300 Bids Voucher", 180, 31.26, 31.26, 6, 60,
                    "alice", 100, free=10),
        outcome_row(2, "camera-x", "Nice Camera", 300, 50, 50, 6, 60, "bob", 40),
        outcome_row(3, "50-bids-pack", "50 Bids Voucher", 30, 6, 6, 6, 60, "alice", 5),
    ]
    report = bidpack_cost(parse_outcome_rows(rows))
    assert len(report.buyers) == 1
    buyer = report.buyers[0]
    assert buyer.username == "alice"
    assert buyer.packs_won == 2
    # paid bids only: 3126 + 90 * 60 and 600 + 5 * 60
    assert buyer.cost_cents == 3126 + 90 * 60 + 600 + 5 * 60
    assert buyer.value_cents == 21000
    assert report.cost_ratio == pytest.approx(buyer.cost_cents / 21000.0, abs=1e-12)


def test_bidpack_custom_matcher():
    rows = [outcome_row(2, "camera-x", "Nice Camera", 300, 50, 50, 6, 60, "bob", 40)]
    report = bidpack_cost(parse_outcome_rows(rows),
                          matcher=lambda rec: "camera" in rec.item)
    assert report.buyers[0].username == "bob"


def test_bidpack_traces_add_losing_bids():
    rows = [
        outcome_row(1, "300-bids-voucher", "300 Bids Voucher", 180, 31.26, 31.26, 6, 60,
                    "alice", 100, free=10),
        outcome_row(2, "100-bids-voucher", "100 Bids Voucher", 60, 0.18, 0.18, 6, 60,
                    "carol", 3),
    ]
    records = parse_outcome_rows(rows)
    # alice lost auction 2 after 2 bids there; auction 2's winner placed 1
    traces = {2: [bid(1, "alice", 1.0), bid(2, "alice", 2.0), bid(3, "carol", 3.0)]}
    report = bidpack_cost(records, traces=traces)
    buyers = {b.username: b for b in report.buyers}
    assert report.traced_auctions == 1
    assert buyers["alice"].cost_cents == 3126 + 90 * 60 + 2 * 60
    # carol's trace shows 1 paid bid for her win
    assert buyers["carol"].cost_cents == 18 + 1 * 60


# ---------------------------------------------------------------------------
# aggression table


def test_aggression_table_buckets():
    hot = [bid(i + 1, "hot" if i % 2 == 0 else "cold", 1.0 * i) for i in range(12)]
    calm = [bid(i + 1, "slow" if i % 2 == 0 else "slower", 40.0 * i) for i in range(12)]
    lone = [bid(1, "single", 0.0)] + [bid(2 + i, "fast", 1.0 + i) for i in range(4)] \
        + [bid(6, "single", 30.0)]
    rows = [
        outcome_row(1, "tv", "TV", 300, 0.72, 0.72, 6, 60, "hot", 6),
        outcome_row(2, "tv", "TV", 300, 0.72, 0.72, 6, 60, "slow", 6),
        outcome_row(3, "tv", "TV", 300, 0.24, 0.24, 6, 60, "fast", 4),
    ]
    records = parse_outcome_rows(rows)
    stats = {
        1: bidder_stats(hot, 30000, 72, "hot"),
        2: bidder_stats(calm, 30000, 72, "slow"),
        3: bidder_stats(lone, 30000, 24, "fast"),
    }
    table = {entry["aggressive_bidders"]: entry
             for entry in aggression_table(stats, records, threshold=3.0)}
    assert table[">=2"]["auctions"] == 1
    assert table["0"]["auctions"] == 1
    assert table["1"]["auctions"] == 1
    # revenue percentage: (estimated fees + final price) / retail, in percent
    assert table[">=2"]["mean_revenue_pct_of_retail"] == pytest.approx(
        (12 * 60 + 72) / 30000 * 100, abs=1e-9)
    assert table["1"]["mean_revenue_pct_of_retail"] == pytest.approx(
        (4 * 60 + 24) / 30000 * 100, abs=1e-9)


# ---------------------------------------------------------------------------
# parsed tables and histories: held off the collector, read like lists


def test_parsed_data_leaves_the_collector_almost_nothing_to_walk():
    rows = [outcome_row(aid, "tv", "TV", 100 + aid, 31.26, 31.26, 6, 60, f"w{aid % 50}", 5)
            for aid in range(10_000)]
    lines = [f"{10 + n}\tct=1|bh={n}:u{n % 7}:1:{6 * n}:0:#|lui=0" for n in range(1, 5_001)]
    gc.collect()
    before = len(gc.get_objects())
    probes = parse_trace_file(lines)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert len(probes) == 5_000
    # a tracked object per probe line or per event would add thousands
    assert grown <= 20
    before += grown
    table = parse_outcome_rows(rows)
    bids, missing = reconstruct_bids(probes)
    report = profit_margin(table)
    gc.collect()
    grown = len(gc.get_objects()) - before
    assert (len(table), len(bids), missing, report.included) == (10_000, 5_000, 0, 10_000)
    # a tracked object per record, per event or per margin would add thousands
    assert grown <= 20


def retained_bytes(build):
    """(what build() returns, the bytes it still holds once it returns)."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        gc.collect()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


MEMORY_ROWS = [outcome_row(100_000 + aid, "tv", "TV", 100 + aid, 31.26, 31.26, 6, 60,
                           f"w{aid % 50}", 5) for aid in range(10_000)]


def test_a_parsed_outcome_row_holds_few_bytes(shared_ints):
    table, held = retained_bytes(lambda: parse_outcome_rows(MEMORY_ROWS))
    # as a tuple of 17 fields with int objects for its ids and retail price a
    # row takes about 292 bytes; as 17 column slots and its end time, about 187
    assert len(table) == 10_000 and held / 10_000 < 240
    # rows past the first chunks come back in order and whole
    assert [(r.auction_id, r.retail_cents, r.winner) for r in table[4_090:4_100]] == [
        (100_000 + aid, 10_000 + 100 * aid, f"w{aid % 50}") for aid in range(4_090, 4_100)]
    assert table[-1] == parse_outcome_rows(MEMORY_ROWS[-1:])[0]


def test_an_auction_margin_holds_few_bytes(shared_ints):
    table = parse_outcome_rows(MEMORY_ROWS)
    report, held = retained_bytes(lambda: profit_margin(table))
    # a slotted AuctionMargin with its profit and margin objects takes about
    # 129 bytes; four column slots take 32
    assert report.included == 10_000 and held / 10_000 < 64


# A traced bidpack auction with a closing duel, and rows of every kind the
# outcome reports tell apart: a second bidpack, a plain sale, a fixed-price
# row, an unsold one, one past 2**63 cents and one with a zero increment.
TRACE_LINES = [
    "100.0\tct=9|bh=1:c:1:6:0:#2:a:1:12:0:#|lui=0",
    "130.5\tct=9|bh=2:a:1:12:0:#3:b:2:18:0:#4:a:1:24:0:#|lui=0",
    "131.0\tct=9|bh=4:a:1:24:0:#5:b:1:30:0:#|lui=0",
    "190.0\tct=9|bh=6:a:1:36:1:#7:b:1:42:0:#|lui=0",
]
TABLE_ROWS = [
    outcome_row(1, "300-bids-voucher", "300 Bids Voucher", 180, 0.42, 0.42, 6, 60, "b", 7),
    outcome_row(2, "voucher", "50 Bids Voucher", 30, 1.20, 1.20, 6, 60, "a", 20, free=3),
    outcome_row(3, "tv", "TV", 500, 12.34, 12.34, 1, 60, "c", 1234, click=1),
    outcome_row(4, "tv", "TV", 500, 99.00, 99.00, 0, 60, "c", 9, fixed=1),
    outcome_row(5, "tv", "TV", 500, 0, 0, 6, 60, "", 0),
    outcome_row(6, "yacht", "Yacht", "92233720368547758.09", "92233720368547758.09",
                "92233720368547758.09", 1, 60, "a", 5),
    outcome_row(7, "tv", "TV", 500, 1.00, 1.00, 0, 60, "b", 5),
]
REPORTS = {
    "bidder_stats": lambda bids, records: bidder_stats(bids, 18000, 42, "b"),
    "detect_duels": lambda bids, records: detect_duels(bids, min_len=2),
    "active_bidder_fraction": lambda bids, records: active_bidder_fraction(
        bids, 190.0, sample_interval=10.0, window=30.0),
    "profit_margin": lambda bids, records: profit_margin(records),
    "bidpack_cost": lambda bids, records: bidpack_cost(records, traces={1: bids}),
    "aggression_table": lambda bids, records: aggression_table(
        {1: [SimpleNamespace(aggression=a) for a in (5.0, 4.0)], 2: [],
         3: [SimpleNamespace(aggression=3.0)], 6: []}, records),
}


@pytest.mark.parametrize("report", sorted(REPORTS))
def test_reports_read_parsed_sequences_and_lists_alike(report):
    bids, missing = reconstruct_bids(parse_trace_file(TRACE_LINES))
    records = parse_outcome_rows(TABLE_ROWS)
    assert missing == 0 and len(bids) == 7 and len(records) == len(TABLE_ROWS)
    want = REPORTS[report](bids, records)
    assert REPORTS[report](list(bids), list(records)) == want
    # a list in another order reads the same: the per-bid reports sort it
    assert REPORTS[report](list(bids)[::-1], list(records)) == want
    assert want not in ([], None)


def test_parsed_sequences_read_like_lists():
    bids, _ = reconstruct_bids(parse_trace_file(TRACE_LINES))
    events = list(bids)
    assert [b.bidnumber for b in events] == list(range(1, 8))
    assert events[2] == BidEvent(3, "b", 2, 18, 0, 130.5)
    assert events[5] == BidEvent(6, "a", 1, 36, 1, 190.0)
    assert bids == events and events == bids and not bids != events
    assert bids[-1] == events[-1] and bids[1:6:2] == events[1:6:2] and bids[::-1] == events[::-1]
    assert bids != events[:-1] and bids != tuple(events)
    assert pickle.loads(pickle.dumps(bids)) == events
    with pytest.raises(IndexError):
        bids[7]
    with pytest.raises(TypeError):
        hash(bids)
    records = parse_outcome_rows(TABLE_ROWS)
    assert records == list(records) and records[-2:] == list(records)[-2:]
    assert type(records[0]) is AuctionOutcomeRecord and records[0].winner == "b"
    assert records[5].price_cents == 2**63 + 1
    margins = profit_margin(records).per_auction
    assert margins == list(margins) and margins[1:] == list(margins)[1:]
    assert type(margins[0]) is trace_analytics.AuctionMargin
    assert margins[-1].profit_cents == 60 * (2**63 + 1)
    assert reconstruct_bids([]) == ([], 0) and parse_outcome_rows([]) == []
    assert profit_margin([]).per_auction == []


def test_parsed_probes_read_like_a_list():
    probes = parse_trace_file(TRACE_LINES)
    lines = [parse_probe_line(text, float(stamp))
             for stamp, text in (line.split("\t") for line in TRACE_LINES)]
    assert len(probes) == 4 and list(probes) == lines and [p for p in probes] == lines
    assert probes == lines and lines == probes and not probes != lines
    assert probes[-1] == lines[-1] and probes[-1].observed_at == 190.0
    assert probes[1:3] == lines[1:3] and type(probes[1:3]) is list
    assert probes != lines[:-1] and probes != tuple(lines)
    assert pickle.loads(pickle.dumps(probes)) == lines
    first, second = parse_trace_file(TRACE_LINES[:2])
    assert (first, second) == tuple(lines[:2])
    with pytest.raises(IndexError):
        probes[4]


def test_reconstruct_reads_parsed_probes_and_probe_lists_alike():
    probes = parse_trace_file(TRACE_LINES + ["200.0\tct=9|bh=7:b:1:42:0:#9:c:1:54:0:#|lui=0"])
    assert reconstruct_bids(probes) == reconstruct_bids(list(probes))
    assert reconstruct_bids(probes)[1] == 1
    refused = {
        "probes must be sorted by observation time": TRACE_LINES[1::-1],
        "bid 3 first appeared after bid 4, the trace is inconsistent": [
            "10\tct=9|bh=1:a:1:6:0:#2:b:1:12:0:#|lui=0", "20\tct=9|bh=4:a:1:24:0:#|lui=0",
            "30\tct=9|bh=3:c:1:18:0:#4:a:1:24:0:#|lui=0"],
    }
    for message, lines in refused.items():
        for probes in (parse_trace_file(lines), list(parse_trace_file(lines))):
            with pytest.raises(ValueError) as err:
                reconstruct_bids(probes)
            assert str(err.value) == message
    # events a caller stamped otherwise than their probe keep their own stamps
    probes = [trace_analytics.ProbeLine(entries=(), observed_at=10.0,
                                        bids=(bid(1, "a", 4.5), bid(2, "b", 9.0))),
              trace_analytics.ProbeLine(entries=(), observed_at=20.0,
                                        bids=(bid(2, "b", 19.0), bid(3, "a", 12.5)))]
    bids, missing = reconstruct_bids(probes)
    assert missing == 0 and bids == [bid(1, "a", 4.5), bid(2, "b", 9.0), bid(3, "a", 12.5)]


def test_bid_numbers_and_prices_past_63_bits_survive():
    big = 2**63
    lines = [f"10.0\tct=1|bh={big}:a:1:{big * 4}:0:#{big + 1}:b:1:{-big - 1}:0:#|lui=0",
             f"20.0\tct=1|bh={big + 1}:b:1:{-big - 1}:0:#{big + 2}:a:{big}:7:{big}:#|lui=0"]
    bids, missing = reconstruct_bids(parse_trace_file(lines))
    assert missing == 0
    assert bids == [BidEvent(big, "a", 1, big * 4, 0, 10.0),
                    BidEvent(big + 1, "b", 1, -big - 1, 0, 10.0),
                    BidEvent(big + 2, "a", big, 7, big, 20.0)]
    events = list(bids)
    assert bidder_stats(bids, 100, 7, "a") == bidder_stats(events, 100, 7, "a")
    assert detect_duels(bids, min_len=3) == Duel(3, ("a", "b"), 0)
    assert active_bidder_fraction(bids, 20.0) == active_bidder_fraction(events, 20.0)
    records = parse_outcome_rows([outcome_row(9, "300-bids-voucher", "v", 1, 1, 1, 6, 60,
                                              "a", 1)])
    assert bidpack_cost(records, traces={9: bids}) == bidpack_cost(records, traces={9: events})


def test_a_caller_history_keeps_its_own_values():
    # int stamps, which a float column would round past 2**53, and a
    # missing stamp read back unchanged
    events = [BidEvent(1, "a", 1, 6, 0, 10), BidEvent(2, "b", 1, 12, 0, 2**60 + 1)]
    probes = [trace_analytics.ProbeLine(entries=(), observed_at=10.0, bids=tuple(events))]
    bids, _ = reconstruct_bids(probes)
    assert bids == events
    assert [type(b.timestamp) for b in bids] == [int, int] and bids[1].timestamp == 2**60 + 1
    with pytest.raises(ValueError, match="bid 3 has no timestamp"):
        bidder_stats(events + [BidEvent(3, "c", 1, 18, 0)], 100, 18, "c")


# ---------------------------------------------------------------------------
# property tests


@settings(max_examples=60, deadline=None)
@given(nums=st.lists(st.integers(min_value=1, max_value=3000), min_size=1,
                     max_size=60, unique=True))
def test_missing_count_arithmetic(nums):
    nums = sorted(nums)
    chunks = [nums[i:i + 10] for i in range(0, len(nums), 10)]
    probes = []
    for i, chunk in enumerate(chunks):
        body = "".join(f"{n}:u:1:{6 * n}:0:#" for n in chunk)
        probes.append(parse_probe_line(f"ct=1|cs=1|bh={body}|lui=0#0#0#0",
                                       observed_at=float(i)))
    bids, missing = reconstruct_bids(probes)
    assert len(bids) == len(nums)
    assert missing == (nums[-1] - nums[0] + 1) - len(nums)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(min_value=2, max_value=40),
       gap=st.floats(min_value=0.25, max_value=60.0))
def test_aggression_formula_on_even_spacing(count, gap):
    bids = [bid(i + 1, "solo", gap * i) for i in range(count)]
    others = [bid(count + 1, "other", gap * count)]
    stats = {s.username: s for s in bidder_stats(bids + others, 10**6, 6, "other")}
    solo = stats["solo"]
    # opener excluded: count - 1 timed bids, each gap seconds after the last
    assert solo.avg_response_time == pytest.approx(gap, rel=1e-9)
    assert solo.aggression == pytest.approx(count / gap, rel=1e-9)
