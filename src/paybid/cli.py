"""Command line front end.

Subcommands:
  analyze    closed-form / chain quantities of one scenario at one point
  sweep      the same quantities over a grid of one parameter
  simulate   Monte Carlo cross-check of one scenario
  trace      reports over scraped outcome tables and bid trace files

Model scenarios are the entries of SCENARIOS, one table: each declares its
parameters with their defaults and its analyze and (if it has a Monte Carlo
form) simulate side. The scenarios read off one two-group chain declare the
chain, the parameters they echo and a reader per output column. They are
configured with --set key=value (repeatable) or a flat config file of
"key = value" lines; explicit --set flags win over the file.
Outputs are CSV (comment header with tool version, config hash, and seed,
then regular rows) or JSON, written to --out or stdout. A fixed config and
seed always produce byte-identical output.

The exit status is 0 on success and 2 on a usage error, reported as one
stderr line "paybid: error: <message>" (argparse's own errors for a bad flag
print the usage first). When a model rejects a parameter the message names the
scenario, the overrides and, in a sweep, the grid point:
  paybid: error: scenario 'uncertain' with n=40 at spread=0: belief sizes must be distinct
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn, Optional, Sequence

import numpy as np

from . import __version__
from .asymmetry_models import (
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
    underestimate_chain,
    underestimate_uniform,
    valuation_asymmetry_chain,
)
from .core_model import AuctionSpec
from .markov_engine import AbsorptionSummary, TwoGroupChain, absorption_closed_form
from .simulator import simulate_chain, simulate_committed, simulate_shill
from .trace_analytics import (
    active_bidder_fraction,
    aggression_table,
    bidder_stats,
    bidpack_cost,
    detect_duels,
    parse_outcome_rows,
    parse_trace_file,
    profit_margin,
    reconstruct_bids,
)

# ---------------------------------------------------------------------------
# Scenario registry


@dataclass(frozen=True)
class Param:
    kind: type
    default: object
    help: str = ""


@dataclass(frozen=True)
class Scenario:
    name: str
    description: str
    params: dict
    analyze: Callable[[dict], dict]
    simulate: Optional[Callable[[dict, int, int], dict]] = None


def _params(variant: Optional[str] = None, **own: Param) -> dict:
    """The auction's parameters; then, for a scenario with an ascending form,
    the increment and the variant with its default; then the scenario's own."""
    params = {"n": Param(int, 50, "number of players"),
              "v": Param(float, 100.0, "item value, dollars"),
              "b": Param(float, 1.0, "bid fee, dollars"),
              "p": Param(float, 0.0, "fixed price, dollars")}
    if variant:
        params["s"] = Param(float, 0.25, "price increment, dollars")
        params["variant"] = Param(str, variant, "fixed or ascending")
    return {**params, **own}


def _spec(p: dict) -> AuctionSpec:
    """The auction of one parameter set: fixed-price unless variant=ascending."""
    variant = p.get("variant", "fixed")
    if variant == "ascending":
        return AuctionSpec.ascending(p["v"], p["b"], p["s"], p["n"])
    if variant == "fixed":
        return AuctionSpec.fixed_price(p["v"], p["b"], p["p"], p["n"])
    raise ValueError(f"variant must be 'fixed' or 'ascending', got {variant!r}")


def _on_chain(build: Callable[[dict], TwoGroupChain], echo: tuple, exact: dict,
              monte_carlo: dict) -> tuple[Callable, Callable]:
    """The analyze and simulate sides of a scenario read off one two-group chain.

    analyze solves the chain in closed form; its row holds the `echo`
    parameters, then each `exact` column as reader(AbsorptionSummary, params).
    simulate runs the chain simulator; its row holds each `monte_carlo` column
    as reader(ChainEstimate).
    """

    def analyze(p: dict) -> dict:
        summary = absorption_closed_form(build(p))
        row = {name: p[name] for name in echo}
        row.update((column, read(summary, p)) for column, read in exact.items())
        return row

    def simulate(p: dict, trials: int, seed: int) -> dict:
        est = simulate_chain(build(p), trials, seed)
        return {column: read(est) for column, read in monte_carlo.items()}

    return analyze, simulate


def _outsider_win(summary: AbsorptionSummary, p: dict) -> float:
    return float(summary.win_probs[1]) / (p["n"] - p["k"])


def _win_ratio(summary: AbsorptionSummary, p: dict) -> float:
    outsider = _outsider_win(summary, p)
    return float(summary.win_probs[0]) / outsider if outsider > 0 else math.inf


_MC_REVENUE = {"mc_revenue": lambda est: est.mean_revenue,
               "mc_se": lambda est: est.se_revenue}


def _analyze_underestimate(p: dict) -> dict:
    spec = _spec(p)
    if spec.is_ascending:
        return {"k": p["k"], "expected_revenue": ascending_underestimate_revenue(spec, p["k"])}
    mu, revenue = underestimate_uniform(spec, p["k"])
    return {"k": p["k"], "mu": mu, "expected_revenue": revenue}


def _belief_from_params(p: dict) -> PopulationBelief:
    if p["belief"]:
        sizes = []
        weights = []
        for piece in p["belief"].split(","):
            size_text, _, weight_text = piece.partition(":")
            if not weight_text:
                raise ValueError(f"belief entry needs size:weight, got {piece!r}")
            sizes.append(int(size_text))
            weights.append(float(weight_text))
        return PopulationBelief(sizes=tuple(sizes), weights=tuple(weights))
    spread = p["spread"]
    return PopulationBelief(sizes=(p["n"] - spread, p["n"] + spread), weights=(0.5, 0.5))


def _analyze_uncertain(p: dict) -> dict:
    result = uncertain_population_beta(_spec(p), _belief_from_params(p))
    return {"beta_known": result.beta_known, "beta_uncertain": result.beta_uncertain,
            "uplift": result.beta_uncertain - result.beta_known, "residual": result.residual}


def _shill_policy(p: dict) -> ShillPolicy:
    return ShillPolicy(entry_prob=p["rho"], bid_budget=p["L"], identities=p["identities"])


def _analyze_shill(p: dict) -> dict:
    outcome = shill_profit(_spec(p), _shill_policy(p))
    return {"rho": p["rho"], "L": p["L"], "identities": p["identities"],
            "expected_profit": outcome.expected_profit,
            "win_prob_shill": outcome.win_prob_shill}


def _simulate_shill(p: dict, trials: int, seed: int) -> dict:
    sim = simulate_shill(_spec(p), _shill_policy(p), trials, seed)
    return {"mc_profit": sim.mean_profit, "mc_se": sim.se_profit,
            "mc_win_prob_shill": sim.win_prob_shill}


def _analyze_committed(p: dict) -> dict:
    outcome = committed_player_profit(_spec(p), CommittedPolicy(retail_multiplier=p["alpha"]))
    return {"alpha": p["alpha"], "player_profit": outcome.player_profit,
            "auctioneer_profit": outcome.auctioneer_profit,
            "committed_win_prob": outcome.committed_win_prob}


def _simulate_committed(p: dict, trials: int, seed: int) -> dict:
    sim = simulate_committed(_spec(p), p["alpha"], trials, seed)
    return {"mc_player_profit": sim.mean_player_profit, "mc_player_se": sim.se_player_profit,
            "mc_auctioneer_profit": sim.mean_auctioneer_profit,
            "mc_auctioneer_se": sim.se_auctioneer_profit,
            "mc_max_player_loss": sim.max_player_loss}


SCENARIOS = {scenario.name: scenario for scenario in (
    Scenario(
        "underestimate", "everyone believes the population is n - k",
        _params("fixed", k=Param(int, 5, "how many players everyone fails to see")),
        _analyze_underestimate,  # mu and the ascending revenue come from closed forms
        _on_chain(lambda p: underestimate_chain(_spec(p), p["k"]), (), {},
                  {**_MC_REVENUE, "mc_success_rate": lambda est: est.success_rate})[1]),
    Scenario(
        "mixed", "offsetting population misestimates",
        _params(k=Param(int, 10, "half see n - k players, half n + k")),
        *_on_chain(lambda p: mixed_estimates_chain(_spec(p), p["k"]), ("k",),
                   {"expected_revenue": lambda s, p: s.expected_revenue,
                    "expected_bids": lambda s, p: s.expected_bids,
                    "win_prob_underestimators": lambda s, p: float(s.win_probs[0])},
                   {**_MC_REVENUE, "mc_win_prob_underestimators": lambda est: est.win_prob_a})),
    Scenario(
        "uncertain", "players know only a distribution over the population",
        _params(spread=Param(int, 20, "two-point belief n - spread / n + spread"),
                belief=Param(str, "", "explicit belief, e.g. 30:0.5,70:0.5")),
        _analyze_uncertain),
    Scenario(
        "bidfee", "k players quietly pay a lower bid fee",
        _params(k=Param(int, 5, "size of the discounted group"),
                b_a=Param(float, 0.5, "discounted fee, dollars"),
                b_b=Param(float, 1.0, "regular fee, dollars")),
        *_on_chain(lambda p: bidfee_asymmetry_chain(_spec(p), p["k"], p["b_a"], p["b_b"]),
                   ("k", "b_a", "b_b"),
                   {"expected_revenue": lambda s, p: s.expected_revenue,
                    "expected_bids": lambda s, p: s.expected_bids,
                    "win_prob_cheap_group": lambda s, p: float(s.win_probs[0])},
                   {**_MC_REVENUE, "mc_bids": lambda est: est.mean_bids,
                    "mc_bids_se": lambda est: est.se_bids})),
    Scenario(
        "valuation", "k players value the item differently, everyone knows",
        _params(k=Param(int, 25, "size of the off-value group"),
                alpha=Param(float, 2.0, "value multiplier of that group")),
        *_on_chain(lambda p: valuation_asymmetry_chain(_spec(p), p["k"], p["alpha"]),
                   ("k", "alpha"),
                   {"expected_revenue": lambda s, p: s.expected_revenue,
                    "win_prob_offvalue_group": lambda s, p: float(s.win_probs[0])},
                   {**_MC_REVENUE, "mc_win_prob_offvalue_group": lambda est: est.win_prob_a})),
    Scenario(
        "collusion", "a ring of k players stops competing internally",
        _params(k=Param(int, 5, "ring size"),
                coordination=Param(str, "many_bidders", "many_bidders or single_bidder")),
        *_on_chain(lambda p: collusion_chain(_spec(p), p["k"], p["coordination"]),
                   ("k", "coordination"),
                   {"expected_revenue": lambda s, p: s.expected_revenue,
                    "ring_win_prob": lambda s, p: float(s.win_probs[0]),
                    "per_outsider_win_prob": _outsider_win, "win_ratio": _win_ratio},
                   {**_MC_REVENUE, "mc_ring_win_prob": lambda est: est.win_prob_a,
                    "mc_ring_win_se": lambda est: est.se_win_a})),
    # ascending by default where the reference experiments are ascending
    Scenario(
        "shill", "house bidder with a bid budget",
        _params("ascending", rho=Param(float, 1.0, "entry probability"),
                L=Param(int, 10, "shill bid budget"),
                identities=Param(int, 1, "identities the shill wears (1 or 2)")),
        _analyze_shill, _simulate_shill),
    Scenario(
        "committed", "one player will own the item no matter what",
        _params("ascending", alpha=Param(float, 1.5, "retail backstop as a multiple of v")),
        _analyze_committed, _simulate_committed),
)}


# ---------------------------------------------------------------------------
# Parameter resolution and output plumbing


def _usage_error(message: str) -> NoReturn:
    """Print `paybid: error: <message>` as one line on stderr and exit with
    status 2, as argparse does for a bad flag. The exception's text is the
    message, for a caller that catches it."""
    sys.stderr.write(f"paybid: error: {message}\n")
    error = SystemExit(message)
    error.code = 2
    raise error


def _open_input(path: str):
    try:
        return open(path, encoding="utf-8")
    except OSError as exc:
        _usage_error(f"cannot read {path}: {exc.strerror}")


def _read_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; blank lines ignored."""
    values = {}
    with _open_input(path) as handle:
        text = handle.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            _usage_error(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _cast_param(name: str, param: Param, text: str):
    try:
        if param.kind is int:
            return int(text)
        if param.kind is float:
            return float(text)
        return text
    except ValueError:
        _usage_error(f"parameter {name} expects {param.kind.__name__}, got {text!r}")


def _resolve_params(scenario: Scenario, overrides: dict) -> dict:
    params = {name: spec.default for name, spec in scenario.params.items()}
    for key, text in overrides.items():
        if key not in scenario.params:
            known = ", ".join(sorted(scenario.params))
            _usage_error(f"unknown parameter {key!r} for scenario "
                         f"{scenario.name!r} (known: {known})")
        params[key] = _cast_param(key, scenario.params[key], text)
    return params


def _collect_overrides(args) -> dict:
    overrides = {}
    if getattr(args, "config", None):
        overrides.update(_read_config_file(args.config))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            _usage_error(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _plain(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _format_cell(value) -> str:
    value = _plain(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_output(rows: list, meta: dict, out: Optional[str], fmt: str) -> None:
    if fmt == "json":
        payload = {"meta": {k: _plain(v) for k, v in meta.items()},
                   "rows": [{k: _plain(v) for k, v in row.items()} for row in rows]}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"# paybid {meta.get('version', __version__)}"]
        for key in sorted(meta):
            if key == "version":
                continue
            lines.append(f"# {key}={_format_cell(meta[key])}")
        if rows:
            columns = list(rows[0].keys())
            lines.append(",".join(columns))
            for row in rows:
                lines.append(",".join(_format_cell(row.get(c, "")) for c in columns))
        text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _meta(args, config: dict) -> dict:
    meta = {"version": __version__, "config_hash": _config_hash(config)}
    if getattr(args, "seed", None) is not None:
        meta["seed"] = args.seed
    return meta


# ---------------------------------------------------------------------------
# Subcommand drivers


def _get_scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        _usage_error(f"unknown scenario {name!r} (known: {known})")
    return SCENARIOS[name]


def _solve(scenario: Scenario, overrides: dict, side: Callable, *args, at: str = ""):
    """Call one side of a scenario. A ValueError from the model (a
    NonAbsorbingChainError among them) is a usage error naming the scenario,
    its overrides and, in a sweep, the grid point."""
    try:
        return side(*args)
    except ValueError as exc:
        where = f"scenario {scenario.name!r}"
        if overrides:
            where += " with " + " ".join(f"{key}={text}" for key, text in overrides.items())
        if at:
            where += f" at {at}"
        _usage_error(f"{where}: {exc}")


def run_analyze(args) -> None:
    scenario = _get_scenario(args.scenario)
    overrides = _collect_overrides(args)
    params = _resolve_params(scenario, overrides)
    row = _solve(scenario, overrides, scenario.analyze, params)
    config = {"command": "analyze", "scenario": scenario.name, "params": params}
    _write_output([row], _meta(args, config), args.out, args.format)


_MAX_SWEEP_POINTS = 1_000_000


def sweep_values(start: float, stop: float, step: float, kind: type) -> list:
    """Inclusive grid from start to stop; integer parameters must land on ints.

    A grid of more than _MAX_SWEEP_POINTS points is refused, counted from the
    bounds before any point is built, and again while they are built. So is
    a grid with a point equal to the one before it, which a step below the
    ulp of the start makes (start + i * step rounds back to the last point).
    """
    if not all(math.isfinite(x) for x in (start, stop, step)):
        _usage_error("--from, --to and --step must be finite")
    if step <= 0:
        _usage_error("--step must be positive")
    if stop < start:
        _usage_error("--to must not be below --from")
    too_many = f"the sweep grid has more than {_MAX_SWEEP_POINTS} points"
    if (stop - start + 1e-9) / step >= _MAX_SWEEP_POINTS:  # its floor, plus one, points
        _usage_error(too_many)
    values = []
    for i in range(_MAX_SWEEP_POINTS + 1):
        raw = start + i * step
        if raw > stop + 1e-9:
            break
        if kind is int:
            rounded = round(raw)
            if abs(raw - rounded) > 1e-9:
                _usage_error(f"parameter grid value {raw} is not an integer")
            value = int(rounded)
        else:
            value = float(raw)
        if values and value == values[-1]:
            _usage_error(f"--step {step} is too small to move the grid past {value}")
        values.append(value)
    else:
        _usage_error(too_many)
    if not values:
        _usage_error("empty sweep range")
    return values


def run_sweep(args) -> None:
    scenario = _get_scenario(args.scenario)
    if args.param not in scenario.params:
        known = ", ".join(sorted(scenario.params))
        _usage_error(f"unknown sweep parameter {args.param!r} (known: {known})")
    overrides = _collect_overrides(args)
    base = _resolve_params(scenario, overrides)
    kind = scenario.params[args.param].kind
    if kind is str:
        _usage_error(f"parameter {args.param!r} is not numeric, cannot sweep it")
    values = sweep_values(args.sweep_from, args.sweep_to, args.step, kind)
    rows = []
    for value in values:
        point = dict(base)
        point[args.param] = value
        row = {args.param: value}
        row.update(_solve(scenario, overrides, scenario.analyze, point,
                          at=f"{args.param}={value}"))
        rows.append(row)
    config = {"command": "sweep", "scenario": scenario.name, "params": base,
              "param": args.param, "from": args.sweep_from, "to": args.sweep_to,
              "step": args.step}
    _write_output(rows, _meta(args, config), args.out, args.format)


def run_simulate(args) -> None:
    scenario = _get_scenario(args.scenario)
    if scenario.simulate is None:
        _usage_error(f"scenario {scenario.name!r} has no Monte Carlo form")
    overrides = _collect_overrides(args)
    params = _resolve_params(scenario, overrides)
    row = _solve(scenario, overrides, scenario.analyze, params)
    row.update(_solve(scenario, overrides, scenario.simulate, params, args.trials, args.seed))
    config = {"command": "simulate", "scenario": scenario.name, "params": params,
              "trials": args.trials, "seed": args.seed}
    _write_output([row], _meta(args, config), args.out, args.format)


def _load_outcomes(args) -> tuple:
    delimiter = {"tab": "\t", "comma": ","}.get(args.delimiter, args.delimiter)
    if len(delimiter) != 1:
        _usage_error(f"--delimiter must be tab, comma or one character, got {args.delimiter!r}")
    diagnostics: list = []
    with _open_input(args.outcomes) as handle:
        records = parse_outcome_rows(handle, delimiter=delimiter,
                                     has_header=args.header, diagnostics=diagnostics)
    if args.nailbiter_only:
        records = [r for r in records if r.flg_click_only]
    return records, diagnostics


def _load_traces(args) -> tuple:
    """Returns ({auction_id: bids}, skip counts) keeping only well-formed,
    complete, consistent traces; the counts are meta keys of the report. A
    trace with a rejected probe line is skipped whole, since the dropped
    line may have held its last bids."""
    histories = {}
    malformed = incomplete = inconsistent = 0
    for path in args.traces or []:
        stem = Path(path).stem
        try:
            auction_id = int(stem)
        except ValueError:
            _usage_error(f"trace file name must be the auction id, got {stem!r}")
        rejected: list = []
        with _open_input(path) as handle:
            probes = parse_trace_file(handle, rejected)
        if rejected:
            malformed += 1
            continue
        try:
            bids, missing = reconstruct_bids(probes)
        except ValueError:
            inconsistent += 1
            continue
        if missing > 0 or not bids:
            incomplete += 1
            continue
        histories[auction_id] = bids
    return histories, {"traces_skipped_malformed": malformed,
                       "traces_skipped_incomplete": incomplete,
                       "traces_skipped_inconsistent": inconsistent}


def _trace_report(args, records: Sequence) -> tuple:
    """(rows, meta) of the report args.report asks for."""
    rows: list = []
    meta: dict = {}
    if args.report == "margins":
        report = profit_margin(records, assumed_bidfee_cents=args.fee)
        rows = [{"auction_id": m.auction_id, "bids_estimate": m.bids_estimate,
                 "profit_cents": m.profit_cents, "margin": m.margin}
                for m in report.per_auction]
        meta.update(aggregate_margin=report.aggregate_margin, included=report.included,
                    skipped_fixed_price=report.skipped_fixed_price,
                    skipped_no_sale=report.skipped_no_sale,
                    row_errors=len(report.errors))
    elif args.report in ("aggression", "duels", "active"):
        histories, skipped = _load_traces(args)
        meta.update(skipped)
        if args.report == "aggression":
            by_id = {r.auction_id: r for r in records}
            stats_by_auction = {}
            for auction_id, bids in sorted(histories.items()):
                record = by_id.get(auction_id)
                if record is None:
                    continue
                stats = bidder_stats(bids, record.retail_cents, record.finalprice_cents,
                                     record.winner, assumed_bidfee_cents=args.fee)
                stats_by_auction[auction_id] = stats
                for s in stats:
                    rows.append({
                        "auction_id": auction_id,
                        "username": s.username,
                        "bids": s.bids,
                        "avg_response_time": s.avg_response_time
                        if s.avg_response_time is not None else "",
                        "aggression": s.aggression,
                        "spend_cents": s.spend_cents,
                        "classes": ";".join(sorted(s.outcome_classes)),
                    })
            for bucket in aggression_table(stats_by_auction, records,
                                           threshold=args.threshold,
                                           assumed_bidfee_cents=args.fee):
                key = f"bucket_{bucket['aggressive_bidders']}"
                meta[key] = (f"auctions={bucket['auctions']} "
                             f"revenue_pct={bucket['mean_revenue_pct_of_retail']:.1f}")
        elif args.report == "duels":
            max_len = 0
            for auction_id, bids in sorted(histories.items()):
                duel = detect_duels(bids, min_len=args.min_len)
                if duel is None:
                    continue
                max_len = max(max_len, duel.length)
                rows.append({"auction_id": auction_id, "length": duel.length,
                             "last_bidder": duel.participants[0],
                             "other_bidder": duel.participants[1]})
            meta.update(auctions_scanned=len(histories), duels_found=len(rows),
                        max_duel_length=max_len)
        else:
            offsets = [float(x) for x in args.at.split(",")] if args.at else []
            sums = {o: [0.0, 0] for o in offsets}
            for auction_id, bids in sorted(histories.items()):
                end = bids[-1].timestamp  # stamps never fall along a history
                for before_end, fraction in active_bidder_fraction(
                        bids, end, sample_interval=args.interval, window=args.window):
                    rows.append({"auction_id": auction_id,
                                 "seconds_before_end": before_end,
                                 "fraction": fraction})
                    for o in offsets:
                        if abs(before_end - o) < 1e-9:
                            sums[o][0] += fraction
                            sums[o][1] += 1
            for o in offsets:
                total, count = sums[o]
                meta[f"mean_fraction_at_{int(o)}s"] = total / count if count else math.nan
    else:
        histories, skipped = _load_traces(args)
        meta.update(skipped)
        report = bidpack_cost(records, traces=histories or None,
                              assumed_bidfee_cents=args.fee)
        rows = [{"username": b.username, "packs_won": b.packs_won,
                 "cost_cents": b.cost_cents, "value_cents": b.value_cents}
                for b in report.buyers]
        meta.update(cost_ratio=report.cost_ratio, traced_auctions=report.traced_auctions)
    return rows, meta


def _check_report_flags(args) -> None:
    """The flags a report uses are checked before any file is read, so that
    a bad one fails even when no trace reaches the report."""
    if args.report == "active":
        for value in (args.interval, args.window):
            if not value > 0:
                _usage_error("report 'active': sample interval and window must be positive")
            if value == math.inf:
                _usage_error("report 'active': sample interval and window must be finite")
    elif args.report == "duels" and args.min_len < 2:
        _usage_error("report 'duels': a duel needs at least two bids")


def run_trace_report(args) -> None:
    """A bad flag of the report, or a ValueError the report raises on its
    input (no bidpack auction, a sampling grid too large), is a usage error
    naming the report."""
    _check_report_flags(args)
    records, diagnostics = _load_outcomes(args)
    try:
        rows, meta = _trace_report(args, records)
    except ValueError as exc:
        _usage_error(f"report {args.report!r}: {exc}")
    meta["outcome_rows_rejected"] = len(diagnostics)
    config = {"command": "trace", "report": args.report, "outcomes": str(args.outcomes),
              "traces": sorted(str(t) for t in (args.traces or [])),
              "fee": args.fee, "nailbiter_only": args.nailbiter_only,
              "min_len": args.min_len, "interval": args.interval,
              "window": args.window, "at": args.at, "threshold": args.threshold,
              "header": args.header, "delimiter": args.delimiter}
    _write_output(rows, {**_meta(args, config), **meta}, args.out, args.format)


# ---------------------------------------------------------------------------
# Argument parsing


def _offsets(text: str) -> str:
    """--at: comma-separated seconds. The text is kept as typed, since the
    configuration hash records it."""
    for piece in text.split(",") if text else ():
        try:
            seconds = float(piece)
        except ValueError:
            seconds = math.nan
        if not math.isfinite(seconds):
            raise argparse.ArgumentTypeError(f"expected comma-separated seconds, got {text!r}")
    return text


def _add_model_flags(sub, with_trials: bool) -> None:
    sub.add_argument("--scenario", required=True, help="model scenario name")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one scenario parameter (repeatable)")
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--out", help="write output here instead of stdout")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if with_trials:
        sub.add_argument("--trials", type=int, default=10_000)
        sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paybid",
        description="equilibrium analysis, simulation, and trace reports "
                    "for pay-per-bid auctions")
    parser.add_argument("--version", action="version", version=f"paybid {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    analyze = subs.add_parser("analyze", help="closed-form quantities at one point")
    _add_model_flags(analyze, with_trials=False)
    analyze.set_defaults(func=run_analyze)

    sweep = subs.add_parser("sweep", help="closed-form quantities over a grid")
    _add_model_flags(sweep, with_trials=False)
    sweep.add_argument("--param", required=True, help="parameter to sweep")
    sweep.add_argument("--from", dest="sweep_from", type=float, required=True)
    sweep.add_argument("--to", dest="sweep_to", type=float, required=True)
    sweep.add_argument("--step", type=float, required=True)
    sweep.set_defaults(func=run_sweep)

    simulate = subs.add_parser("simulate", help="Monte Carlo cross-check")
    _add_model_flags(simulate, with_trials=True)
    simulate.set_defaults(func=run_simulate)

    trace = subs.add_parser("trace", help="reports over outcome tables and bid traces")
    trace.add_argument("--report", required=True,
                       choices=("margins", "aggression", "duels", "active", "bidpacks"))
    trace.add_argument("--outcomes", required=True, help="outcome table file")
    trace.add_argument("--traces", nargs="*", help="trace files, named <auction_id>.*")
    trace.add_argument("--delimiter", default="tab", help="outcome delimiter: tab, comma, or literal")
    trace.add_argument("--header", action="store_true", help="outcome file has a header row")
    trace.add_argument("--nailbiter-only", action="store_true",
                       help="keep only click-only auctions")
    trace.add_argument("--fee", type=int, default=60, help="assumed bid fee, cents")
    trace.add_argument("--min-len", type=int, default=10, help="minimum duel length")
    trace.add_argument("--interval", type=float, default=60.0, help="sampling interval, seconds")
    trace.add_argument("--window", type=float, default=900.0, help="activity window, seconds")
    trace.add_argument("--at", default="600,300", type=_offsets,
                       help="offsets before end (seconds) to average in the active report")
    trace.add_argument("--threshold", type=float, default=3.0,
                       help="aggression threshold, bids^2 per second")
    trace.add_argument("--out", help="write output here instead of stdout")
    trace.add_argument("--format", choices=("csv", "json"), default="csv")
    trace.set_defaults(func=run_trace_report)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
