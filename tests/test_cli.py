"""End-to-end checks of the command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from paybid import __version__
from paybid.asymmetry_models import (
    CommittedPolicy,
    PopulationBelief,
    ShillPolicy,
    ascending_underestimate_revenue,
    bidfee_asymmetry_chain,
    collusion_chain,
    committed_player_profit,
    mixed_estimates_chain,
    shill_profit,
    uncertain_population_beta,
    underestimate_uniform,
    valuation_asymmetry_chain,
)
from paybid.cli import main, sweep_values
from paybid.core_model import AuctionSpec
from paybid.markov_engine import absorption_closed_form

FIX = AuctionSpec.fixed_price(100, 1, 0, 50)
ASC = AuctionSpec.ascending(100, 1, 0.25, 50)


def run(tmp_path, *argv, fmt="csv", name="out"):
    """Run the CLI writing to a temp file, return the output text."""
    out = tmp_path / f"{name}.{fmt}"
    code = main([*argv, "--format", fmt, "--out", str(out)])
    assert code == 0
    return out.read_text(encoding="utf-8")


def csv_rows(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def meta_lines(text):
    out = {}
    for line in text.splitlines():
        if not line.startswith("# ") or "=" not in line:
            continue
        key, _, value = line[2:].partition("=")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# analyze


def test_analyze_underestimate_csv(tmp_path):
    text = run(tmp_path, "analyze", "--scenario", "underestimate")
    assert text.splitlines()[0] == f"# paybid {__version__}"
    assert "config_hash" in meta_lines(text)
    header, rows = csv_rows(text)
    assert header == ["k", "mu", "expected_revenue"]
    mu, revenue = underestimate_uniform(FIX, 5)
    assert rows[0]["k"] == "5"
    # floats are serialized with repr, full precision
    assert rows[0]["mu"] == repr(mu)
    assert rows[0]["expected_revenue"] == repr(revenue)


def test_analyze_set_overrides(tmp_path):
    text = run(tmp_path, "analyze", "--scenario", "underestimate", "--set", "k=10")
    _, rows = csv_rows(text)
    assert rows[0]["expected_revenue"] == repr(underestimate_uniform(FIX, 10)[1])


def test_analyze_ascending_variant(tmp_path):
    text = run(tmp_path, "analyze", "--scenario", "underestimate",
               "--set", "variant=ascending", "--set", "k=5")
    header, rows = csv_rows(text)
    assert header == ["k", "expected_revenue"]
    asc = AuctionSpec.ascending(100, 1, 0.25, 50)
    assert rows[0]["expected_revenue"] == repr(ascending_underestimate_revenue(asc, 5))


def test_analyze_json(tmp_path):
    text = run(tmp_path, "analyze", "--scenario", "underestimate", fmt="json")
    payload = json.loads(text)
    assert payload["meta"]["version"] == __version__
    assert len(payload["meta"]["config_hash"]) == 16
    assert payload["rows"][0]["expected_revenue"] == pytest.approx(
        underestimate_uniform(FIX, 5)[1], rel=1e-15)
    # JSON output is sorted for diff-friendliness
    assert list(payload.keys()) == sorted(payload.keys())
    assert list(payload["rows"][0].keys()) == sorted(payload["rows"][0].keys())


def _chain_row(chain, **echo):
    summary = absorption_closed_form(chain)
    return summary, {**echo, "expected_revenue": summary.expected_revenue}


def _expected_mixed():
    summary, row = _chain_row(mixed_estimates_chain(FIX, 10), k=10)
    return {**row, "expected_bids": summary.expected_bids,
            "win_prob_underestimators": float(summary.win_probs[0])}


def _expected_uncertain():
    result = uncertain_population_beta(FIX, PopulationBelief((30, 70), (0.5, 0.5)))
    return {"beta_known": result.beta_known, "beta_uncertain": result.beta_uncertain,
            "uplift": result.beta_uncertain - result.beta_known,
            "residual": result.residual}


def _expected_bidfee():
    summary, row = _chain_row(bidfee_asymmetry_chain(FIX, 5, 0.5, 1.0),
                              k=5, b_a=0.5, b_b=1.0)
    return {**row, "expected_bids": summary.expected_bids,
            "win_prob_cheap_group": float(summary.win_probs[0])}


def _expected_valuation():
    summary, row = _chain_row(valuation_asymmetry_chain(FIX, 25, 2.0), k=25, alpha=2.0)
    return {**row, "win_prob_offvalue_group": float(summary.win_probs[0])}


def _expected_collusion():
    summary, row = _chain_row(collusion_chain(FIX, 5, "many_bidders"),
                              k=5, coordination="many_bidders")
    ring, outsider = float(summary.win_probs[0]), float(summary.win_probs[1]) / 45
    return {**row, "ring_win_prob": ring, "per_outsider_win_prob": outsider,
            "win_ratio": ring / outsider}


def _expected_shill():
    outcome = shill_profit(ASC, ShillPolicy(entry_prob=1.0, bid_budget=10, identities=1))
    return {"rho": 1.0, "L": 10, "identities": 1, "expected_profit": outcome.expected_profit,
            "win_prob_shill": outcome.win_prob_shill}


def _expected_committed():
    outcome = committed_player_profit(ASC, CommittedPolicy(retail_multiplier=1.5))
    return {"alpha": 1.5, "player_profit": outcome.player_profit,
            "auctioneer_profit": outcome.auctioneer_profit,
            "committed_win_prob": outcome.committed_win_prob}


# scenario -> (library row at the defaults, Monte Carlo columns or None)
EVERY_SCENARIO = {
    "underestimate": (lambda: dict(zip(("k", "mu", "expected_revenue"),
                                       (5, *underestimate_uniform(FIX, 5)))),
                      ["mc_revenue", "mc_se", "mc_success_rate"]),
    "mixed": (_expected_mixed, ["mc_revenue", "mc_se", "mc_win_prob_underestimators"]),
    "uncertain": (_expected_uncertain, None),
    "bidfee": (_expected_bidfee, ["mc_revenue", "mc_se", "mc_bids", "mc_bids_se"]),
    "valuation": (_expected_valuation,
                  ["mc_revenue", "mc_se", "mc_win_prob_offvalue_group"]),
    "collusion": (_expected_collusion,
                  ["mc_revenue", "mc_se", "mc_ring_win_prob", "mc_ring_win_se"]),
    "shill": (_expected_shill, ["mc_profit", "mc_se", "mc_win_prob_shill"]),
    "committed": (_expected_committed,
                  ["mc_player_profit", "mc_player_se", "mc_auctioneer_profit",
                   "mc_auctioneer_se", "mc_max_player_loss"]),
}


@pytest.mark.parametrize("scenario", sorted(EVERY_SCENARIO))
def test_every_scenario_columns_and_values(tmp_path, scenario):
    expected_row, mc_columns = EVERY_SCENARIO[scenario]
    expected = expected_row()
    header, rows = csv_rows(run(tmp_path, "analyze", "--scenario", scenario, name="a"))
    assert header == list(expected)
    # numbers as repr of the library value, a chosen rule name as typed
    assert rows[0] == {column: value if isinstance(value, str) else repr(value)
                       for column, value in expected.items()}
    if mc_columns is None:
        return
    header, _ = csv_rows(run(tmp_path, "simulate", "--scenario", scenario,
                             "--trials", "200", "--seed", "1", name="s"))
    assert header == list(expected) + mc_columns


def test_analyze_stdout(tmp_path, capsys):
    assert main(["analyze", "--scenario", "underestimate"]) == 0
    text = capsys.readouterr().out
    assert text.startswith(f"# paybid {__version__}")
    assert "expected_revenue" in text


def test_config_file_with_set_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n\nk = 5   # trailing comment\nv = 100\n",
                   encoding="utf-8")
    only_file = run(tmp_path, "analyze", "--scenario", "underestimate",
                    "--config", str(cfg), name="a")
    assert csv_rows(only_file)[1][0]["k"] == "5"
    overridden = run(tmp_path, "analyze", "--scenario", "underestimate",
                     "--config", str(cfg), "--set", "k=1", name="b")
    _, rows = csv_rows(overridden)
    assert rows[0]["k"] == "1"
    assert rows[0]["expected_revenue"] == repr(underestimate_uniform(FIX, 1)[1])


def test_config_hash_tracks_parameters(tmp_path):
    base = meta_lines(run(tmp_path, "analyze", "--scenario", "underestimate", name="a"))
    same = meta_lines(run(tmp_path, "analyze", "--scenario", "underestimate", name="b"))
    other = meta_lines(run(tmp_path, "analyze", "--scenario", "underestimate",
                           "--set", "k=10", name="c"))
    assert base["config_hash"] == same["config_hash"]
    assert base["config_hash"] != other["config_hash"]


def test_bad_invocations_exit(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("this line has no equals sign\n", encoding="utf-8")
    for argv in (
        ["analyze", "--scenario", "nosuch"],
        ["analyze", "--scenario", "underestimate", "--set", "zz=3"],
        ["analyze", "--scenario", "underestimate", "--set", "k10"],
        ["analyze", "--scenario", "underestimate", "--set", "k=ten"],
        ["analyze", "--scenario", "underestimate", "--config", str(cfg)],
    ):
        with pytest.raises(SystemExit):
            main(argv)


def usage_error(capsys, argv):
    """Run the CLI expecting a usage error; return the stderr lines."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("argv, where", [
    (["analyze", "--scenario", "underestimate", "--set", "k=60"],
     "scenario 'underestimate' with k=60: "),
    (["analyze", "--scenario", "uncertain", "--set", "spread=0"],
     "scenario 'uncertain' with spread=0: "),
    (["sweep", "--scenario", "uncertain", "--param", "spread", "--from", "0", "--to", "10",
      "--step", "5"], "scenario 'uncertain' at spread=0: "),
    (["sweep", "--scenario", "collusion", "--param", "k", "--from", "1", "--to", "9",
      "--step", "4"], "scenario 'collusion' at k=1: "),
    (["simulate", "--scenario", "mixed", "--set", "k=60", "--trials", "10"],
     "scenario 'mixed' with k=60: "),
    (["analyze", "--scenario", "shill", "--set", "variant=nope"],
     "scenario 'shill' with variant=nope: variant must be"),
    (["analyze", "--scenario", "collusion", "--set", "coordination=nope"],
     "scenario 'collusion' with coordination=nope: coordination must be"),
    (["analyze", "--scenario", "committed", "--set", "alpha=inf"],
     "scenario 'committed' with alpha=inf: retail multiplier must be finite"),
    (["analyze", "--scenario", "committed", "--set", "alpha=nan"],
     "scenario 'committed' with alpha=nan: retail multiplier must be finite"),
    (["simulate", "--scenario", "committed", "--set", "variant=fixed", "--set", "alpha=nan",
      "--trials", "10"], "scenario 'committed' with variant=fixed alpha=nan: retail"),
    (["analyze", "--scenario", "mixed", "--set", "v=inf"],
     "scenario 'mixed' with v=inf: currency amount is not finite"),
    (["analyze", "--scenario", "mixed", "--set", "v=nan"],
     "scenario 'mixed' with v=nan: currency amount is not finite"),
    (["analyze", "--scenario", "mixed", "--set", "v=1e308"],
     "scenario 'mixed' with v=1e308: currency amount out of range"),
    (["analyze", "--scenario", "underestimate", "--set", "k=48", "--set", "v=1e7"],
     "scenario 'underestimate' with k=48 v=1e7: the expected revenue overflows a float"),
], ids=["underestimate-k", "uncertain-spread", "sweep-spread", "sweep-ring", "simulate-mixed",
        "variant", "coordination", "alpha-inf", "alpha-nan", "simulate-alpha-nan", "value-inf",
        "value-nan", "value-out-of-range", "revenue-overflow"])
def test_model_error_is_a_one_line_usage_error(tmp_path, capsys, argv, where):
    lines = usage_error(capsys, [*argv, "--out", str(tmp_path / "x.csv")])
    assert len(lines) == 1
    assert lines[0].startswith("paybid: error: " + where)
    assert not (tmp_path / "x.csv").exists()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_grid(tmp_path):
    text = run(tmp_path, "sweep", "--scenario", "underestimate", "--param", "k",
               "--from", "0", "--to", "10", "--step", "5")
    header, rows = csv_rows(text)
    assert header == ["k", "mu", "expected_revenue"]
    assert [r["k"] for r in rows] == ["0", "5", "10"]
    for row in rows:
        expected = underestimate_uniform(FIX, int(row["k"]))[1]
        assert row["expected_revenue"] == repr(expected)


def test_sweep_validation(tmp_path):
    base = ["sweep", "--scenario", "underestimate"]
    for extra in (
        ["--param", "zz", "--from", "0", "--to", "1", "--step", "1"],
        ["--param", "variant", "--from", "0", "--to", "1", "--step", "1"],
        ["--param", "k", "--from", "5", "--to", "1", "--step", "1"],
        ["--param", "k", "--from", "0", "--to", "2", "--step", "0"],
        ["--param", "k", "--from", "0", "--to", "2", "--step", "0.5"],
    ):
        with pytest.raises(SystemExit):
            main(base + extra + ["--out", str(tmp_path / "x.csv")])


def test_sweep_values_unit():
    assert sweep_values(0, 10, 5, int) == [0, 5, 10]
    assert sweep_values(1, 2, 0.5, float) == [1.0, 1.5, 2.0]
    assert sweep_values(3, 3, 1, int) == [3]
    with pytest.raises(SystemExit):
        sweep_values(0, 2, 0.4, int)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_underestimate(tmp_path):
    text = run(tmp_path, "simulate", "--scenario", "underestimate", "--set", "k=1",
               "--trials", "2000", "--seed", "3", fmt="json")
    row = json.loads(text)["rows"][0]
    exact = underestimate_uniform(FIX, 1)[1]
    assert row["expected_revenue"] == pytest.approx(exact, rel=1e-12)
    assert row["mc_se"] > 0
    assert abs(row["mc_revenue"] - exact) < 6 * row["mc_se"]
    assert 0 < row["mc_success_rate"] <= 1


def test_simulate_deterministic_bytes(tmp_path):
    argv = ["simulate", "--scenario", "underestimate", "--set", "k=1",
            "--trials", "1500", "--seed", "9"]
    first = run(tmp_path, *argv, name="a")
    second = run(tmp_path, *argv, name="b")
    assert first == second
    assert "# seed=9" in first
    reseeded = run(tmp_path, *argv[:-1], "10", name="c")
    assert reseeded != first


def test_simulate_uncertain_has_no_monte_carlo(tmp_path):
    with pytest.raises(SystemExit, match="no Monte Carlo"):
        main(["simulate", "--scenario", "uncertain",
              "--out", str(tmp_path / "x.csv")])


# ---------------------------------------------------------------------------
# trace reports


def outcome_line(aid, item, desc, retail, price, final, inc, fee, winner, placed,
                 free=0, click=0, fixed=0, sep="\t"):
    fields = [str(aid), "1", item, desc, str(retail), str(price), str(final),
              str(inc), str(fee), winner, str(placed), str(free), "ts",
              str(click), "0", str(fixed), "0"]
    return sep.join(fields)


def write_trace(tmp_path, auction_id, users_prices, start_ts=1700000000):
    """One probe per bid, each listing the last ten bids, fully covering."""
    lines = []
    for i in range(len(users_prices)):
        window = users_prices[max(0, i - 9):i + 1]
        first = max(0, i - 9)
        body = "".join(f"{first + j + 1}:{u}:1:{p}:0:#" for j, (u, p) in enumerate(window))
        user, price = users_prices[i]
        lines.append(f"{start_ts + i}\tct=1|cs=1|ra=0|cw={user}|cp={price}|bh={body}|lui=0#0#0#0")
    path = tmp_path / f"{auction_id}.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


EXAMPLE_ROW = ("259070\t10011706\t300-bids-voucher\t300 Bids Voucher\t180\t31.26"
               "\t31.26\t6\t60\tSchonmir1500\t106\t0\t13:29 PDT 12-12-2009\t1\t0\t0\t0")


def test_trace_margins_report(tmp_path):
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text("\n".join([
        EXAMPLE_ROW,
        outcome_line(4, "tv", "TV", 100, 0, 0, 6, 60, "", 0),
        outcome_line(5, "tv", "TV", 100, 20, 29.99, 0, 60, "x", 3, fixed=1),
        outcome_line(6, "tv", "TV", 100, 12, 12, 6, 60, "y", 9),
    ]) + "\n", encoding="utf-8")
    text = run(tmp_path, "trace", "--report", "margins", "--outcomes", str(outcomes))
    header, rows = csv_rows(text)
    assert header == ["auction_id", "bids_estimate", "profit_cents", "margin"]
    assert {r["auction_id"]: r["bids_estimate"] for r in rows} == {"259070": "521",
                                                                   "6": "200"}
    meta = meta_lines(text)
    assert meta["included"] == "2"
    assert meta["skipped_no_sale"] == "1"
    assert meta["skipped_fixed_price"] == "1"
    assert meta["aggregate_margin"] == repr((16386 + 3200) / 28000)

    filtered = run(tmp_path, "trace", "--report", "margins", "--outcomes",
                   str(outcomes), "--nailbiter-only", name="nb")
    # only the click-only auction survives the filter
    assert meta_lines(filtered)["aggregate_margin"] == repr(16386 / 18000)
    assert len(csv_rows(filtered)[1]) == 1


def test_trace_margins_skip_a_row_with_an_infinite_amount(tmp_path):
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text("\n".join([
        EXAMPLE_ROW,
        outcome_line(6, "tv", "TV", "Infinity", 12, 12, 6, 60, "y", 9),
    ]) + "\n", encoding="utf-8")
    text = run(tmp_path, "trace", "--report", "margins", "--outcomes", str(outcomes))
    meta = meta_lines(text)
    assert meta["outcome_rows_rejected"] == "1"
    assert meta["included"] == "1"
    assert [r["auction_id"] for r in csv_rows(text)[1]] == ["259070"]


def test_trace_margins_comma_with_header(tmp_path):
    outcomes = tmp_path / "outcomes.csv"
    outcomes.write_text(
        "auction_id,product_id,item,desc,retail,price,finalprice,bidincrement,"
        "bidfee,winner,placedbids,freebids,endtime_str,flg_click_only,"
        "flg_beginnerauction,flg_fixedprice,flg_endprice\n"
        + outcome_line(6, "tv", "TV", 100, 12, 12, 6, 60, "y", 9, sep=",") + "\n",
        encoding="utf-8")
    text = run(tmp_path, "trace", "--report", "margins", "--outcomes", str(outcomes),
               "--delimiter", "comma", "--header")
    meta = meta_lines(text)
    assert meta["included"] == "1"
    assert meta["outcome_rows_rejected"] == "0"
    assert csv_rows(text)[1][0]["profit_cents"] == "3200"


def test_trace_aggression_report(tmp_path):
    users_prices = [("hot" if i % 2 == 0 else "cold", 6 * (i + 1)) for i in range(12)]
    trace = write_trace(tmp_path, 101, users_prices)
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text(
        outcome_line(101, "tv", "TV", 300, 0.72, 0.72, 6, 60, "cold", 6) + "\n",
        encoding="utf-8")
    text = run(tmp_path, "trace", "--report", "aggression", "--outcomes",
               str(outcomes), "--traces", str(trace), "--threshold", "2.5")
    header, rows = csv_rows(text)
    assert header == ["auction_id", "username", "bids", "avg_response_time",
                      "aggression", "spend_cents", "classes"]
    by_user = {r["username"]: r for r in rows}
    # probes arrive a second apart, so every bid answers within one second
    assert by_user["hot"]["aggression"] == repr(6.0)
    assert by_user["cold"]["aggression"] == repr(6.0)
    assert by_user["hot"]["spend_cents"] == "360"
    assert by_user["hot"]["classes"] == "in_the_red"
    assert by_user["cold"]["classes"] == "in_the_black;won_auction"
    assert "# bucket_>=2=auctions=1 revenue_pct=2.6" in text.splitlines()
    assert meta_lines(text)["traces_skipped_incomplete"] == "0"


def test_trace_duels_report_and_incomplete_trace(tmp_path):
    alternating = [("x" if i % 2 == 0 else "y", 6 * (i + 1)) for i in range(14)]
    good = write_trace(tmp_path, 202, alternating)
    # a trace with a gap: bids 1,2 then 25, so 22 bids were never observed
    gap = tmp_path / "303.trace"
    gap.write_text(
        "1700000000\tct=1|cs=1|bh=1:a:1:6:0:#2:b:1:12:0:#|lui=0#0#0#0\n"
        "1700000500\tct=1|cs=1|bh=25:a:1:150:0:#|lui=0#0#0#0\n",
        encoding="utf-8")
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text(
        outcome_line(202, "tv", "TV", 100, 0.84, 0.84, 6, 60, "y", 7) + "\n",
        encoding="utf-8")
    text = run(tmp_path, "trace", "--report", "duels", "--outcomes", str(outcomes),
               "--traces", str(good), str(gap))
    _, rows = csv_rows(text)
    assert len(rows) == 1
    assert rows[0] == {"auction_id": "202", "length": "14",
                       "last_bidder": "y", "other_bidder": "x"}
    meta = meta_lines(text)
    assert meta["traces_skipped_incomplete"] == "1"
    assert meta["traces_skipped_inconsistent"] == "0"
    assert meta["auctions_scanned"] == "1"
    assert meta["max_duel_length"] == "14"


def test_trace_inconsistent_trace_is_skipped_and_counted(tmp_path):
    alternating = [("x" if i % 2 == 0 else "y", 6 * (i + 1)) for i in range(14)]
    good = write_trace(tmp_path, 202, alternating)
    # bid 3 first shows up after bids 5 and 6 were seen: no order of the
    # bids fits both probes, so the trace cannot be reconstructed
    bad = tmp_path / "1.trace"
    bad.write_text(
        "1700000000\tct=1|cs=1|bh=5:a:1:30:0:#6:b:1:36:0:#|lui=0#0#0#0\n"
        "1700000001\tct=1|cs=1|bh=3:c:1:18:0:#|lui=0#0#0#0\n",
        encoding="utf-8")
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text(
        outcome_line(202, "tv", "TV", 100, 0.84, 0.84, 6, 60, "y", 7) + "\n",
        encoding="utf-8")
    text = run(tmp_path, "trace", "--report", "duels", "--outcomes", str(outcomes),
               "--traces", str(bad), str(good))
    _, rows = csv_rows(text)
    assert [r["auction_id"] for r in rows] == ["202"]
    meta = meta_lines(text)
    assert meta["traces_skipped_inconsistent"] == "1"
    assert meta["traces_skipped_incomplete"] == "0"
    assert meta["auctions_scanned"] == "1"


def test_trace_with_a_malformed_probe_line_is_skipped_and_counted(tmp_path):
    # the second probe, the only one showing bid 2, has a bad bid price: the
    # first probe alone would pass for a complete one-bid auction
    bad = tmp_path / "7.trace"
    bad.write_text(
        "1700000000\tct=1|cs=1|bh=1:a:1:6:0:#|lui=0#0#0#0\n"
        "1700000001\tct=1|cs=1|bh=2:b:x:12:0:#|lui=0#0#0#0\n",
        encoding="utf-8")
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text(
        outcome_line(7, "tv", "TV", 100, 0.12, 0.12, 6, 60, "b", 2) + "\n",
        encoding="utf-8")
    text = run(tmp_path, "trace", "--report", "duels", "--outcomes", str(outcomes),
               "--traces", str(bad))
    meta = meta_lines(text)
    assert meta["traces_skipped_malformed"] == "1"
    assert meta["traces_skipped_incomplete"] == "0"
    assert meta["traces_skipped_inconsistent"] == "0"
    assert meta["auctions_scanned"] == "0"


@pytest.mark.parametrize("stamp", ["nan", "inf"])
def test_trace_with_a_non_finite_probe_stamp_is_skipped_and_counted(tmp_path, stamp):
    bad = tmp_path / "7.trace"
    bad.write_text(
        "1700000000\tct=1|cs=1|bh=1:a:1:6:0:#|lui=0#0#0#0\n"
        f"{stamp}\tct=1|cs=1|bh=1:a:1:6:0:#2:b:1:12:0:#|lui=0#0#0#0\n",
        encoding="utf-8")
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text(
        outcome_line(7, "tv", "TV", 100, 0.12, 0.12, 6, 60, "b", 2) + "\n",
        encoding="utf-8")
    text = run(tmp_path, "trace", "--report", "duels", "--outcomes", str(outcomes),
               "--traces", str(bad))
    meta = meta_lines(text)
    assert meta["traces_skipped_malformed"] == "1"
    assert meta["auctions_scanned"] == "0"


def test_trace_active_report(tmp_path):
    cycle = [(f"u{i % 4}", 6 * (i + 1)) for i in range(10)]
    trace = write_trace(tmp_path, 404, cycle)
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text(
        outcome_line(404, "tv", "TV", 100, 0.60, 0.60, 6, 60, "u1", 3) + "\n",
        encoding="utf-8")
    text = run(tmp_path, "trace", "--report", "active", "--outcomes", str(outcomes),
               "--traces", str(trace), "--interval", "5", "--window", "3",
               "--at", "0,5")
    _, rows = csv_rows(text)
    # ten bids a second apart, four distinct bidders, a three second window
    # catches three bids wherever it lands
    assert [(r["seconds_before_end"], r["fraction"]) for r in rows] == [
        ("5.0", "0.75"), ("0.0", "0.75")]
    meta = meta_lines(text)
    assert meta["mean_fraction_at_0s"] == repr(0.75)
    assert meta["mean_fraction_at_5s"] == repr(0.75)


def test_trace_bidpacks_report(tmp_path):
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text("\n".join([
        outcome_line(1, "300-bids-voucher", "300 Bids Voucher", 180, 31.26, 31.26,
                     6, 60, "alice", 100, free=10),
        outcome_line(2, "camera-x", "Nice Camera", 300, 50, 50, 6, 60, "bob", 40),
        outcome_line(3, "50-bids-pack", "50 Bids Voucher", 30, 6, 6, 6, 60,
                     "alice", 5),
    ]) + "\n", encoding="utf-8")
    text = run(tmp_path, "trace", "--report", "bidpacks", "--outcomes", str(outcomes))
    _, rows = csv_rows(text)
    assert rows == [{"username": "alice", "packs_won": "2",
                     "cost_cents": "9426", "value_cents": "21000"}]
    meta = meta_lines(text)
    assert meta["cost_ratio"] == repr(9426 / 21000)
    assert meta["traced_auctions"] == "0"


def test_trace_file_name_must_be_auction_id(tmp_path):
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text(EXAMPLE_ROW + "\n", encoding="utf-8")
    stray = tmp_path / "notanid.trace"
    stray.write_text("1700000000\tct=1|cs=1|bh=1:a:1:6:0:#|lui=0#0#0#0\n",
                     encoding="utf-8")
    with pytest.raises(SystemExit, match="auction id"):
        main(["trace", "--report", "duels", "--outcomes", str(outcomes),
              "--traces", str(stray), "--out", str(tmp_path / "x.csv")])


def test_trace_offsets_must_be_seconds(tmp_path, capsys):
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text(EXAMPLE_ROW + "\n", encoding="utf-8")
    lines = usage_error(capsys, ["trace", "--report", "active", "--outcomes", str(outcomes),
                                 "--at", "600,abc", "--out", str(tmp_path / "x.csv")])
    assert lines[-1].endswith("argument --at: expected comma-separated seconds, got '600,abc'")


def test_trace_delimiter_must_be_one_character(tmp_path, capsys):
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text(EXAMPLE_ROW + "\n", encoding="utf-8")
    lines = usage_error(capsys, ["trace", "--report", "margins", "--outcomes", str(outcomes),
                                 "--delimiter", "ab", "--out", str(tmp_path / "x.csv")])
    assert lines == ["paybid: error: --delimiter must be tab, comma or one character, "
                     "got 'ab'"]


@pytest.mark.parametrize("report, flags, message", [
    ("active", ["--interval", "0"], "sample interval and window must be positive"),
    ("active", ["--window", "-5"], "sample interval and window must be positive"),
    ("duels", ["--min-len", "0"], "a duel needs at least two bids"),
    ("bidpacks", [], "no bidpack auctions in the outcome records"),
], ids=["interval", "window", "min-len", "no-bidpacks"])
def test_trace_report_error_is_a_one_line_usage_error(tmp_path, capsys, report, flags, message):
    cycle = [(f"u{i % 4}", 6 * (i + 1)) for i in range(10)]
    trace = write_trace(tmp_path, 404, cycle)
    outcomes = tmp_path / "outcomes.tsv"
    outcomes.write_text(
        outcome_line(404, "tv", "TV", 100, 0.60, 0.60, 6, 60, "u1", 3) + "\n",
        encoding="utf-8")
    lines = usage_error(capsys, ["trace", "--report", report, "--outcomes", str(outcomes),
                                 "--traces", str(trace), *flags,
                                 "--out", str(tmp_path / "x.csv")])
    assert lines == [f"paybid: error: report {report!r}: {message}"]


@pytest.mark.parametrize("report, flags, message", [
    ("active", ["--interval", "0"], "sample interval and window must be positive"),
    ("active", ["--window", "-5"], "sample interval and window must be positive"),
    ("active", ["--interval", "nan"], "sample interval and window must be positive"),
    ("active", ["--window", "inf"], "sample interval and window must be finite"),
    ("duels", ["--min-len", "0"], "a duel needs at least two bids"),
], ids=["interval", "window", "interval-nan", "window-inf", "min-len"])
def test_trace_flags_are_checked_without_traces(tmp_path, capsys, report, flags, message):
    # the outcome file does not exist: the flags fail before it is opened
    lines = usage_error(capsys, ["trace", "--report", report,
                                 "--outcomes", str(tmp_path / "missing.tsv"), *flags,
                                 "--out", str(tmp_path / "x.csv")])
    assert lines == [f"paybid: error: report {report!r}: {message}"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flags", [["trace", "--report", "margins", "--outcomes"],
                                   ["analyze", "--scenario", "underestimate", "--config"]],
                         ids=["outcomes", "config"])
def test_missing_input_file_is_a_usage_error(tmp_path, capsys, flags):
    missing = str(tmp_path / "missing.txt")
    lines = usage_error(capsys, [*flags, missing, "--out", str(tmp_path / "x.csv")])
    assert lines == [f"paybid: error: cannot read {missing}: No such file or directory"]


def modules_after(statement: str) -> set:
    """The modules a fresh interpreter holds after running statement."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = f"import sys; {statement}; print(*sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return set(done.stdout.split())


NUMPY_AND_MODELS = {"numpy", "paybid.core_model", "paybid.markov_engine",
                 "paybid.asymmetry_models", "paybid.simulator"}


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # importing the package and its command line front end pulls in
    loaded = modules_after("import paybid, paybid.cli")
    assert sorted(m for m in loaded if m.split(".")[0] == "scipy") == []


@pytest.mark.parametrize("module", ["paybid", "paybid.trace_analytics"])
def test_import_loads_neither_numpy_nor_the_model_modules(module):
    loaded = modules_after(f"import {module}")
    assert module in loaded
    assert sorted(loaded & NUMPY_AND_MODELS) == []


def test_import_cli_loads_every_layer_module():
    # the benchmark's tracer imports paybid.cli and then wraps the functions
    # of every layer module it finds loaded
    layers = {f"paybid.{m}" for m in ("core_model", "markov_engine", "asymmetry_models",
                                      "simulator", "trace_analytics", "cli")}
    assert layers <= modules_after("import paybid.cli")
