"""Per-layer probes: fixed inputs, one layer at a time.

`startup_probes` imports each module alone in fresh interpreters,
`cli_probes` times each subcommand as a fresh process, and `layer_probes`
times single calls into core_model, markov_engine, asymmetry_models,
simulator and trace_analytics in this process. Inputs do not depend on the
benchmark seed, so the figures compare across workloads and runs.
"""

from __future__ import annotations

import statistics
import time

import common
import dataset
from tracer import LAYERS

# Imports one layer module in a fresh interpreter, without the package's
# __init__ (which imports every module). The cli is imported through the
# package, as the `paybid` command does.
_IMPORT_ONE = """
import importlib, importlib.util, sys, time, types
name = {name!r}
if name != "cli":
    pkg = types.ModuleType("paybid")
    pkg.__path__ = list(importlib.util.find_spec("paybid").submodule_search_locations)
    sys.modules["paybid"] = pkg
start = time.perf_counter()
importlib.import_module("paybid." + name)
print(repr(time.perf_counter() - start))
"""


def startup_probes(repeats: int = 2) -> dict:
    out = {}
    for name in LAYERS:
        common.run_child(["-c", _IMPORT_ONE.format(name=name)])  # warm the caches
        samples = [float(common.run_child(["-c", _IMPORT_ONE.format(name=name)])[1])
                   for _ in range(repeats)]
        out[f"startup.import_{name}_s"] = common.median(samples)
    return out


def cli_probes(workdir, repeats: int = 2) -> dict:
    ds = dataset.generate(workdir / "probe-data", 1, "small")
    commands = {
        "analyze": ["analyze", "--scenario", "shill"],
        "sweep": ["sweep", "--scenario", "underestimate", "--param", "k", "--from", "0",
                  "--to", "10", "--step", "1"],
        "simulate": ["simulate", "--scenario", "collusion", "--trials", "5000", "--seed", "1"],
        "trace": ["trace", "--report", "margins", "--outcomes", str(ds.outcomes)],
    }
    return {f"cli.{name}_s": common.median([common.paybid_command(argv)[0] for _ in range(repeats)])
            for name, argv in commands.items()}


def _per_call(fn, calls: int, passes: int = 5) -> float:
    """Median over passes of the mean seconds per call."""
    samples = []
    for _ in range(passes):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _once(fn, passes: int = 3) -> tuple:
    """(median seconds of one call, last result)."""
    samples, result = [], None
    for _ in range(passes):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def shill_expected_bids(spec, policy) -> float:
    """Expected bids of an entered shill's auction: the recurrence of
    shill_profit over (leader, shill bids placed), summing live mass."""
    from paybid import shill_chain
    phases = shill_chain(spec, policy)
    opening = phases.active.opening_row()
    shill = {1: opening.to_a}
    legit = {0: opening.to_b}
    total, t = 1.0, 1
    while True:
        new_shill: dict = {}
        new_legit: dict = {}
        for leader, masses in (("A", shill), ("B", legit)):
            for placed, mass in masses.items():
                row = phases.at(placed).transitions(t + 1, leader)
                new_shill[placed + 1] = new_shill.get(placed + 1, 0.0) + mass * row.to_a
                new_legit[placed] = new_legit.get(placed, 0.0) + mass * row.to_b
        shill, legit, t = new_shill, new_legit, t + 1
        live = sum(shill.values()) + sum(legit.values())
        if live < 1e-12:
            return total
        total += live


def layer_probes(workdir) -> dict:
    from paybid import (AuctionSpec, CommittedPolicy, PopulationBelief, ShillPolicy,
                        absorption_closed_form, ascending_underestimate_revenue,
                        build_transitions, committed_player_profit, estimate, evolve_recurrence,
                        shill_profit, simulate_chain, simulate_committed, simulate_shill,
                        symmetric_beta, symmetric_policies, uncertain_population_beta,
                        underestimate_chain)
    from paybid import trace_analytics as ta

    FIX = AuctionSpec.fixed_price(100, 1, 0, 50)
    ASC = AuctionSpec.ascending(100, 1, 0.25, 50)
    m = {}
    qs = range(1, 398)
    m["core_model.symmetric_beta_us"] = 1e6 * _per_call(
        lambda: [symmetric_beta(ASC, q) for q in qs], 1) / len(qs)

    beta = symmetric_beta(FIX, 2)
    m["markov_engine.build_transitions_us"] = 1e6 * _per_call(
        lambda: build_transitions(25, 25, beta, beta, "uniform", 2, "B"), 200)
    chain = underestimate_chain(FIX, 5)
    m["markov_engine.closed_form_us"] = 1e6 * _per_call(lambda: absorption_closed_form(chain), 200)
    for key, spec, k in (("fixed", FIX, 0), ("ascending", ASC, 5)):
        chain = underestimate_chain(spec, k)
        seconds, series = _once(lambda: evolve_recurrence(chain))
        m[f"markov_engine.recurrence_{key}_us_per_step"] = 1e6 * seconds / len(series.steps)

    m["asymmetry_models.shill_profit_ms"] = 1e3 * _once(
        lambda: shill_profit(ASC, ShillPolicy(1.0, 50)))[0]
    m["asymmetry_models.committed_ascending_ms"] = 1e3 * _once(
        lambda: committed_player_profit(ASC, CommittedPolicy(1.5)))[0]
    m["asymmetry_models.committed_fixed_ms"] = 1e3 * _once(
        lambda: committed_player_profit(FIX, CommittedPolicy(1.5)), passes=1)[0]
    m["asymmetry_models.ascending_underestimate_us"] = 1e6 * _per_call(
        lambda: ascending_underestimate_revenue(ASC, 5), 20)
    belief = PopulationBelief((30, 70), (0.5, 0.5))
    m["asymmetry_models.uncertain_beta_us"] = 1e6 * _per_call(
        lambda: uncertain_population_beta(FIX, belief), 50)

    # Trial-rounds are computed: trials times the exact expected bid count.
    trials = 10_000
    chain = underestimate_chain(FIX, 0)
    rounds = trials * absorption_closed_form(chain).expected_bids
    m["simulator.chain_ns_per_trial_round"] = 1e9 * _once(
        lambda: simulate_chain(chain, trials, 1), passes=1)[0] / rounds
    policy = ShillPolicy(1.0, 10)
    rounds = trials * shill_expected_bids(ASC, policy)
    m["simulator.shill_ns_per_trial_round"] = 1e9 * _once(
        lambda: simulate_shill(ASC, policy, trials, 1), passes=1)[0] / rounds
    rounds = trials * committed_player_profit(ASC, CommittedPolicy(1.5)).expected_total_bids
    m["simulator.committed_ns_per_trial_round"] = 1e9 * _once(
        lambda: simulate_committed(ASC, 1.5, trials, 1), passes=1)[0] / rounds
    spec = AuctionSpec.fixed_price(50, 1, 0, 10)
    m["simulator.oracle_us_per_trial"] = 1e6 * _once(
        lambda: estimate(spec, symmetric_policies(spec), 100, 1), passes=1)[0] / 100

    ds = dataset.generate(workdir / "probe-data", 1, "small")
    lines = ds.outcomes.read_text(encoding="utf-8").splitlines()
    seconds, records = _once(lambda: ta.parse_outcome_rows(lines, diagnostics=[]))
    m["trace_analytics.outcome_us_per_row"] = 1e6 * seconds / len(lines)
    m["trace_analytics.margin_us_per_row"] = 1e6 * _once(
        lambda: ta.profit_margin(records))[0] / len(records)
    texts = [t.path.read_text(encoding="utf-8").splitlines() for t in ds.traces if not t.inconsistent]
    n_lines = sum(len(t) for t in texts)
    seconds, parsed = _once(lambda: [ta.parse_trace_file(t) for t in texts])
    m["trace_analytics.probe_us_per_line"] = 1e6 * seconds / n_lines
    seconds, rebuilt = _once(lambda: [ta.reconstruct_bids(p) for p in parsed])
    m["trace_analytics.reconstruct_us_per_probe"] = 1e6 * seconds / n_lines
    complete = {t.auction_id: bids for t, (bids, missing)
                in zip([t for t in ds.traces if not t.inconsistent], rebuilt) if missing == 0}
    n_bids = sum(len(b) for b in complete.values())
    m["trace_analytics.bidder_stats_us_per_bid"] = 1e6 * _once(lambda: [
        ta.bidder_stats(bids, *ds.records[aid][:3]) for aid, bids in complete.items()])[0] / n_bids
    m["trace_analytics.duels_us_per_bid"] = 1e6 * _once(
        lambda: [ta.detect_duels(b) for b in complete.values()])[0] / n_bids
    m["trace_analytics.active_ms_per_auction"] = 1e3 * _once(lambda: [
        ta.active_bidder_fraction(b, max(x.timestamp for x in b)) for b in complete.values()],
        passes=1)[0] / len(complete)
    m["trace_analytics.bidpack_ms"] = 1e3 * _once(
        lambda: ta.bidpack_cost(records, traces=complete))[0]
    return m
