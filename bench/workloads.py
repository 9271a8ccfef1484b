"""The four workloads. Each call into paybid is one operation: it is timed
alone and its output checked afterwards, outside the timed region.

A workload object is built from (seed, size, checker, ops, work directory),
makes its inputs in `prepare` and runs one whole round of its operations in
`round`. Part 1 and part 2 of a round are the two uses of the layer it
stresses (see README.md). The size "small" runs every check on small inputs
for the self-check.
"""

from __future__ import annotations

import json
import math
import random

import common
import dataset
import reference as ref

V, B, S, N = 100.0, 1.0, 0.25, 50


class Analysis:
    """Exact solves over the paper's grids: fixed price (part 1), ascending (part 2)."""

    def __init__(self, seed, size, check, ops, workdir):
        from paybid import AuctionSpec
        self.seed, self.check, self.ops = seed, check, ops
        self.FIX = AuctionSpec.fixed_price(V, B, 0, N)
        self.ASC = AuctionSpec.ascending(V, B, S, N)
        full = size == "full"
        self.fixed_k = list(range(11)) if full else [0, 1, 5]
        self.asc_k = list(range(49)) if full else [0, 5, 10]
        self.budgets = list(range(0, 51, 5)) if full else [0, 5, 10]
        self.alphas = [1.1, 1.55, 2.0] if full else [1.5, 2.0]
        self.n_beliefs = 200 if full else 10

    def prepare(self):
        from paybid import PopulationBelief
        rng = random.Random(self.seed)
        self.beliefs = []
        for _ in range(self.n_beliefs):
            style = rng.randrange(3)
            if style == 0:
                d = rng.randint(1, 48)
                self.beliefs.append(PopulationBelief((N - d, N + d), (0.5, 0.5)))
            elif style == 1:
                low, high = rng.randint(2, 49), rng.randint(51, 199)
                w = (high - N) / (high - low)
                self.beliefs.append(PopulationBelief((low, high), (w, 1 - w)))
            else:
                d = rng.randint(1, 48)
                center = rng.uniform(0.1, 0.8)
                half = (1 - center) / 2
                self.beliefs.append(PopulationBelief((N - d, N, N + d), (half, center, half)))
        self.full_info = []
        for _ in range(20):
            n = rng.randint(3, 11)
            eta = [-rng.uniform(0.01, 0.5) for _ in range(n)]
            total = sum(eta)
            self.full_info.append([V * math.exp(total - e) for e in eta])

    def round(self):
        self.fixed_price()
        self.ascending()

    # -- helpers ----------------------------------------------------------

    def _recurrence(self, part, label, make_chain):
        """Solve a chain by recurrence; check conservation and total mass."""
        from paybid import evolve_recurrence, expected_revenue_from_series

        def solve():
            series = evolve_recurrence(make_chain())
            return series, expected_revenue_from_series(series)

        ok, out = self.ops.call(part, solve)
        if not ok:
            return None
        series, revenue = out
        self.check.at_most(f"{label} recurrence conservation error", series.max_conservation_error, 1e-9)
        self.check.close(f"{label} recurrence absorbed + residual mass",
                         series.win_prob_a + series.win_prob_b + series.residual, 1.0, abs_tol=1e-9)
        return series, revenue

    def _closed_form(self, label, make_chain):
        from paybid import absorption_closed_form
        ok, summary = self.ops.call(1, lambda: absorption_closed_form(make_chain()))
        if not ok:
            return None
        worst = max(abs(row.sum() - 1.0) for row in summary.absorption_probs)
        self.check.at_most(f"{label} closed-form absorption rows sum to 1", worst, 1e-9)
        return summary

    def _agree(self, label, closed, series, rel=1e-8):
        if closed is None or series is None:
            return
        self.check.close(f"{label} recurrence revenue = closed form", series[1],
                         closed.expected_revenue, rel=rel)
        self.check.close(f"{label} recurrence bids = closed form", series[0].expected_bids,
                         closed.expected_bids, rel=rel)

    def _symmetric(self, part, spec, label):
        from paybid import symmetric_expected_revenue
        for conditioned in (True, False):
            ok, got = self.ops.call(part, symmetric_expected_revenue, spec, conditioned)
            if ok:
                self.check.close(f"{label} symmetric revenue conditioned={conditioned}", got,
                                 ref.symmetric_revenue(V, B, conditioned), abs_tol=1e-12)

    def _shill_grid(self, part, spec, label, diminishing):
        from paybid import ShillPolicy, shill_profit
        for identities in (1, 2):
            profits = []
            for budget in self.budgets:
                ok, out = self.ops.call(part, shill_profit, spec, ShillPolicy(1.0, budget, identities))
                if not ok:
                    return
                name = f"{label} shill L={budget} identities={identities}"
                profits.append(out.expected_profit)
                self.check.at_most(f"{name} shill bids within budget", out.entered_shill_bids,
                                   budget + 1e-9)
                if identities == 2:
                    # the shill may top its own bid, so it places its whole budget
                    self.check.close(f"{name} shill places its budget", out.entered_shill_bids,
                                     float(budget), abs_tol=1e-6)
            self.check.equal(f"{label} shill L=0 identities={identities} earns nothing",
                             profits[0], 0.0)
            steps = [b - a for a, b in zip(profits, profits[1:])]
            self.check.at_least(f"{label} shill identities={identities} profit nondecreasing",
                                min(steps), -1e-12)
            if diminishing:
                self.check.at_most(f"{label} shill identities={identities} increments diminish",
                                   max(b - a for a, b in zip(steps, steps[1:])), 1e-12)

    def _committed_grid(self, part, spec, label):
        from paybid import CommittedPolicy, committed_player_profit
        house = []
        for alpha in self.alphas:
            ok, out = self.ops.call(part, committed_player_profit, spec, CommittedPolicy(alpha))
            if not ok:
                return
            self.check.at_least(f"{label} committed alpha={alpha} loss within (alpha-1)v",
                                out.player_profit, -(alpha - 1.0) * V - 1e-9)
            self.check.at_most(f"{label} committed alpha={alpha} win probability",
                               out.committed_win_prob, 1.0)
            house.append(out.auctioneer_profit)
        self.check.at_least(f"{label} committed auctioneer profit rises in alpha",
                            min(b - a for a, b in zip(house, house[1:])), 1e-12)

    # -- the two halves ---------------------------------------------------

    def fixed_price(self):
        from paybid import (TwoGroupChain, absorption_closed_form, bidfee_asymmetry_chain,
                            build_transitions, collusion_chain, full_info_equilibrium,
                            mixed_estimates_chain, uncertain_population_beta,
                            underestimate_chain, underestimate_uniform, valuation_asymmetry_chain)
        FIX, ops, check = self.FIX, self.ops, self.check
        self._symmetric(1, FIX, "fixed")
        for k in self.fixed_k:
            label = f"fixed underestimate k={k}"
            expected = ref.underestimate_revenue(V, B, 0.0, N, k)
            ok, out = ops.call(1, underestimate_uniform, FIX, k)
            if ok:
                check.close(f"{label} closed form = b(b/(v-p))^(-(n-1)/(n-k-1))+p",
                            out.expected_revenue, expected, rel=1e-10)
            closed = self._closed_form(label, lambda: underestimate_chain(FIX, k))
            if closed is not None:
                check.close(f"{label} chain closed form = paper", closed.expected_revenue,
                            expected, rel=1e-9)
            self._agree(label, closed, self._recurrence(1, label, lambda: underestimate_chain(FIX, k)))
        mixed = []
        for k in self.fixed_k:
            label = f"mixed k={k}"
            closed = self._closed_form(label, lambda: mixed_estimates_chain(FIX, k))
            self._agree(label, closed, self._recurrence(1, label, lambda: mixed_estimates_chain(FIX, k)))
            if closed is not None:
                mixed.append(closed.expected_revenue)
        if mixed:
            check.close("mixed k=0 is the symmetric auction", mixed[0], V, rel=1e-9)
            check.at_least("mixed revenue nondecreasing in k (optimists dominate)",
                           min(b - a for a, b in zip(mixed, mixed[1:])), -1e-9)
        for fee_b in (0.8, 1.0, 1.5):
            label = f"bidfee fee_b={fee_b}"
            make = lambda: bidfee_asymmetry_chain(FIX, 5, 0.5, fee_b)  # noqa: E731
            closed = self._closed_form(label, make)
            series = self._recurrence(1, label, make)
            self._agree(label, closed, series)
            if series is not None:
                check.close(f"{label} length = (v-p)/b_A", series[0].expected_bids,
                            ref.bidfee_length(V, 0.0, 0.5), rel=1e-8)
        for alpha in (0.5, 1.0, 1.5, 2.0):
            label = f"valuation alpha={alpha}"
            make = lambda: valuation_asymmetry_chain(FIX, 25, alpha)  # noqa: E731
            closed = self._closed_form(label, make)
            self._agree(label, closed, self._recurrence(1, label, make))
            if alpha == 1.0 and closed is not None:
                check.close(f"{label} is the symmetric auction", closed.expected_revenue, V, rel=1e-9)
        for rule in ("many_bidders", "single_bidder"):
            revenues = []
            for k in (2, 5, 10):
                label = f"collusion {rule} k={k}"
                make = lambda: collusion_chain(FIX, k, rule)  # noqa: E731
                closed = self._closed_form(label, make)
                self._agree(label, closed, self._recurrence(1, label, make))
                if closed is not None:
                    ratio = closed.win_probs[0] / (closed.win_probs[1] / (N - k))
                    check.at_least(f"{label} win ratio exceeds k", float(ratio), k + 1e-9)
                    revenues.append(closed.expected_revenue)
            if len(revenues) == 3:
                check.at_most(f"collusion {rule} revenue falls with ring size",
                              max(b - a for a, b in zip(revenues, revenues[1:])), 0.0)
        for k_a, k_b, ba, bb in ((1, 2, 0.3, 0.55), (2, 2, 0.45, 0.2), (2, 3, 0.6, 0.35),
                                 (3, 4, 0.15, 0.4)):
            label = f"two-state chain {k_a}+{k_b}"
            exact = ref.two_state_solve(k_a, k_b, ba, bb, 0.5, 1.0, 3.0)
            chain = TwoGroupChain(k_a, k_b, lambda q, lead, x=ba: x, lambda q, lead, x=bb: x,
                                  fee_a=0.5, fee_b=1.0, price=3.0, time_homogeneous=True)
            ok, summary = ops.call(1, absorption_closed_form, chain)
            if ok:
                for key, got in (("expected_bids", summary.expected_bids),
                                 ("win_a", float(summary.win_probs[0])),
                                 ("win_b", float(summary.win_probs[1])),
                                 ("revenue", summary.expected_revenue)):
                    check.close(f"{label} {key} = math.comb solve", got, exact[key], rel=1e-12)
            for leader, want in (("A", exact["rows"][0]), ("B", exact["rows"][1]),
                                 (None, exact["rows"][2])):
                ok, row = ops.call(1, build_transitions, k_a, k_b, ba, bb, "uniform", 2, leader)
                if ok:
                    check.at_most(f"{label} row leader={leader} = math.comb row",
                                  max(abs(g - w) for g, w in zip(row, want)), 1e-14)
        beta_known = ref.symmetric_later_beta(V, B, 0.0, N)
        for i, belief in enumerate(self.beliefs):
            ok, out = ops.call(1, uncertain_population_beta, FIX, belief)
            if ok:
                label = f"uncertain belief {i}"
                check.close(f"{label} known beta", out.beta_known, beta_known, rel=1e-12)
                check.at_most(f"{label} indifference residual", abs(ref.uncertain_residual(
                    V, B, 0.0, belief.sizes, belief.weights, out.beta_uncertain)), 1e-12)
                check.at_least(f"{label} uncertainty raises beta",
                               out.beta_uncertain - out.beta_known, 0.0)
        ok, eq = ops.call(1, full_info_equilibrium, [V] * N, [B] * N)
        if ok:
            check.at_most("full information, identical players = symmetric beta",
                          float(max(abs(x - beta_known) for x in eq.betas)), 1e-12)
        for i, fees in enumerate(self.full_info):
            ok, eq = ops.call(1, full_info_equilibrium, [V] * len(fees), fees)
            if ok:
                worst = max(abs(r) for r in ref.full_info_residuals(eq.betas, [V] * len(fees), fees))
                check.at_most(f"full information instance {i} indifference residual", worst, 1e-12)
        self._shill_grid(1, FIX, "fixed", diminishing=False)
        self._committed_grid(1, FIX, "fixed")

    def ascending(self):
        from paybid import ascending_underestimate_revenue, underestimate_chain
        ASC, ops, check = self.ASC, self.ops, self.check
        self._symmetric(2, ASC, "ascending")
        direct = []
        for k in self.asc_k:
            label = f"ascending underestimate k={k}"
            ok, revenue = ops.call(2, ascending_underestimate_revenue, ASC, k)
            series = self._recurrence(2, label, lambda: underestimate_chain(ASC, k))
            if ok:
                direct.append(revenue)
                if series is not None:
                    check.close(f"{label} recurrence = product formula", series[1], revenue, rel=1e-9)
        if direct:
            check.close("ascending k=0 telescopes to v", direct[0], V, abs_tol=1e-9)
            check.at_least("ascending revenue nondecreasing in k",
                           min(b - a for a, b in zip(direct, direct[1:])), -1e-12)
            # at most Q+1 bids, each bringing one fee and one increment
            check.at_most("ascending revenue within (Q+1)(b+s)", max(direct),
                          ((V - B) / S + 1) * (B + S))
        # The shill's increments diminish on the ascending auction; on fixed
        # price two identities earn a constant amount per bid, so only the one-
        # identity grid is held to it there (see README).
        self._shill_grid(2, ASC, "ascending", diminishing=True)
        self._committed_grid(2, ASC, "ascending")


class MonteCarlo:
    """Vectorized simulators (part 1) and the player-level oracle (part 2).

    Trial counts and simulation seeds are fixed, as in the test suite: every
    run plays the same trials, so neither its work nor its z-scores depend on
    --seed. Each mean must lie within 5 standard errors of the exact value.
    """

    def __init__(self, seed, size, check, ops, workdir):
        self.check, self.ops = check, ops
        full = size == "full"
        self.scale = 1.0 if full else 0.1
        self.oracle_batches, self.oracle_trials = (4, 125) if full else (2, 40)

    def prepare(self):
        from paybid import (AuctionSpec, CommittedPolicy, ShillPolicy, absorption_closed_form,
                            bidfee_asymmetry_chain, collusion_chain, committed_player_profit,
                            evolve_recurrence, expected_revenue_from_series, shill_profit,
                            underestimate_chain, valuation_asymmetry_chain)
        FIX = AuctionSpec.fixed_price(V, B, 0, N)
        ASC = self.ASC = AuctionSpec.ascending(V, B, S, N)
        # (label, chain, trials, exact revenue, exact bids, exact P(A wins))
        self.chains = []
        for label, chain, trials in (
                ("fixed k=0", underestimate_chain(FIX, 0), 20_000),
                ("fixed k=5", underestimate_chain(FIX, 5), 10_000),
                ("ascending k=5", underestimate_chain(ASC, 5), 15_000),
                ("collusion many_bidders k=5", collusion_chain(FIX, 5, "many_bidders"), 20_000),
                ("collusion single_bidder k=5", collusion_chain(FIX, 5, "single_bidder"), 20_000),
                ("bidfee k=5", bidfee_asymmetry_chain(FIX, 5, 0.5, 1.0), 10_000),
                ("valuation k=25 alpha=2", valuation_asymmetry_chain(FIX, 25, 2.0), 10_000)):
            if chain.time_homogeneous:
                s = absorption_closed_form(chain)
                exact = (s.expected_revenue, s.expected_bids, float(s.win_probs[0]))
            else:
                series = evolve_recurrence(chain)
                exact = (expected_revenue_from_series(series), series.expected_bids,
                         series.win_prob_a)
            self.chains.append((label, chain, int(trials * self.scale), *exact))
        # the paper's closed forms where they exist
        self.reference = {"fixed k=0": (ref.symmetric_revenue(V, B, True), V / B),
                          "fixed k=5": (ref.underestimate_revenue(V, B, 0.0, N, 5), None),
                          "bidfee k=5": (None, ref.bidfee_length(V, 0.0, 0.5))}
        self.shills = [(ShillPolicy(1.0, 10, ids), shill_profit(ASC, ShillPolicy(1.0, 10, ids)),
                        int(20_000 * self.scale)) for ids in (1, 2)]
        self.committed = (1.5, committed_player_profit(ASC, CommittedPolicy(1.5)),
                          int(20_000 * self.scale))
        self.oracle_spec = AuctionSpec.fixed_price(50, 1, 0, 10)

    def round(self):
        from paybid import estimate, simulate_chain, simulate_committed, simulate_shill, symmetric_policies
        ops, check = self.ops, self.check
        for i, (label, chain, trials, revenue, bids, win_a) in enumerate(self.chains):
            ok, est = ops.call(1, simulate_chain, chain, trials, 1000 + i)
            if not ok:
                continue
            check.within_se(f"mc {label} revenue", est.mean_revenue, est.se_revenue, revenue)
            check.within_se(f"mc {label} bids", est.mean_bids, est.se_bids, bids)
            if 0.0 < win_a < 1.0:
                se = math.sqrt(win_a * (1 - win_a) / est.successes)
                check.within_se(f"mc {label} P(A wins)", est.win_prob_a, se, win_a)
            closed_revenue, closed_bids = self.reference.get(label, (None, None))
            if closed_revenue is not None:
                check.close(f"{label} exact revenue = paper", revenue, closed_revenue, rel=1e-9)
            if closed_bids is not None:
                check.close(f"{label} exact bids = paper", bids, closed_bids, rel=1e-9)
        for i, (policy, exact, trials) in enumerate(self.shills):
            label = f"mc shill L=10 identities={policy.identities}"
            ok, sim = ops.call(1, simulate_shill, self.ASC, policy, trials, 1050 + i)
            if ok:
                check.within_se(f"{label} profit", sim.mean_profit, sim.se_profit, exact.expected_profit)
                p = exact.win_prob_shill
                check.within_se(f"{label} shill wins", sim.win_prob_shill,
                                math.sqrt(p * (1 - p) / trials), p)
        alpha, exact, trials = self.committed
        ok, sim = ops.call(1, simulate_committed, self.ASC, alpha, trials, 1060)
        if ok:
            check.within_se("mc committed alpha=1.5 player profit", sim.mean_player_profit,
                            sim.se_player_profit, exact.player_profit)
            check.within_se("mc committed alpha=1.5 auctioneer profit", sim.mean_auctioneer_profit,
                            sim.se_auctioneer_profit, exact.auctioneer_profit)
            check.at_most("mc committed alpha=1.5 worst loss within (alpha-1)v",
                          sim.max_player_loss, (alpha - 1.0) * V + 1e-9)
        spec = self.oracle_spec
        sale = 1.0 - spec.fee / spec.value  # P(opening bid) = mu_1 = 1 - b/(v-p)
        for batch in range(self.oracle_batches):
            ok, est = ops.call(2, lambda: estimate(spec, symmetric_policies(spec),
                                                   self.oracle_trials, 1070 + batch))
            if ok:
                label = f"oracle batch {batch}"
                check.within_se(f"{label} revenue = v", est.mean_revenue, est.se_revenue,
                                ref.symmetric_revenue(spec.value, spec.fee, True))
                check.within_se(f"{label} sale probability", est.success_rate,
                                math.sqrt(sale * (1 - sale) / est.trials), sale)


class TraceDataset:
    """Reading and parsing the files (part 1), the five reports (part 2)."""

    def __init__(self, seed, size, check, ops, workdir):
        self.seed, self.size, self.check, self.ops = seed, size, check, ops
        self.workdir = workdir

    def prepare(self):
        self.ds = dataset.generate_apart(self.workdir / "data", self.seed, self.size)
        self.truth = {t.auction_id: t for t in self.ds.traces}

    def _parse_outcomes(self):
        from paybid.trace_analytics import parse_outcome_rows
        diagnostics: list = []
        with open(self.ds.outcomes, encoding="utf-8") as handle:
            records = parse_outcome_rows(handle, diagnostics=diagnostics)
        return records, diagnostics

    def _tag(self, aid):
        """The kind of long input a per-trace report call gets, if any."""
        t = self.truth[aid]
        return "long_trace" if t.long_trace else "long_duel" if t.long_duel else None

    @staticmethod
    def _parse_trace(path):
        from paybid.trace_analytics import parse_trace_file
        diagnostics: list = []
        with open(path, encoding="utf-8") as handle:
            probes = parse_trace_file(handle, diagnostics=diagnostics)
        return probes, diagnostics

    def round(self):
        from paybid.trace_analytics import (active_bidder_fraction, aggression_table, bidder_stats,
                                            bidpack_cost, detect_duels, profit_margin,
                                            reconstruct_bids)
        ds, ops, check = self.ds, self.ops, self.check
        ok, out = ops.call(1, self._parse_outcomes)
        if not ok:
            return
        records, diagnostics = out
        check.equal("outcome rows parsed", len(records), ds.rows - len(ds.malformed_lines))
        check.equal("outcome rows rejected, by line",
                    [int(d.split(":")[0].split()[1]) for d in diagnostics], ds.malformed_lines)
        histories = {}
        for t in ds.traces:
            ok, out = ops.call(1, self._parse_trace, t.path)
            if not ok:
                continue
            probes, diagnostics = out
            check.equal(f"trace {t.auction_id} probes parsed", (len(probes), diagnostics),
                        (t.probes, []))
            if t.inconsistent:
                ok, err = ops.call(1, reconstruct_bids, probes, expect=ValueError)
                check.equal(f"trace {t.auction_id} inconsistent trace is refused",
                            type(err).__name__, "ValueError")
                continue
            ok, out = ops.call(1, reconstruct_bids, probes)
            if not ok:
                continue
            bids, missing = out
            check.equal(f"trace {t.auction_id} bids", [(b.bidnumber, b.username, b.bidtype,
                                                        b.price_cents, b.timestamp) for b in bids],
                        t.bids)
            check.equal(f"trace {t.auction_id} missing bids", missing, t.missing)
            if missing == 0:
                histories[t.auction_id] = bids
        check.equal("complete traces", sorted(histories),
                    sorted(t.auction_id for t in ds.complete_traces()))

        # part 2: margins, aggression, duels, active, bidpacks
        ok, report = ops.call(2, profit_margin, records)
        if ok:
            check.equal("margins per auction profit", {m.auction_id: m.profit_cents
                                                       for m in report.per_auction}, ds.profit)
            check.equal("margins skipped and errors",
                        (report.skipped_fixed_price, report.skipped_no_sale, len(report.errors)),
                        (ds.fixed_price, ds.unsold, ds.zero_increment))
            check.equal("margins aggregate", report.aggregate_margin,
                        sum(ds.profit.values()) / ds.retail_total)
        stats_by, hot_by = {}, {}
        for aid, bids in sorted(histories.items()):
            retail, final, winner, price, inc = ds.records[aid]
            ok, stats = ops.call(2, bidder_stats, bids, retail, final, winner, tag=self._tag(aid))
            if not ok:
                continue
            stats_by[aid] = stats
            rows, means, aggression = ref.bidder_table(self.truth[aid].bids, retail, final, winner,
                                                       dataset.FEE)
            hot_by[aid] = sum(1 for a in aggression if a >= 3.0)
            check.equal(f"aggression {aid} bidders", [(s.username, s.bids, s.timed_bids,
                                                       s.spend_cents, s.outcome_classes)
                                                      for s in stats], rows)
            got = [s.avg_response_time for s in stats]
            check.equal(f"aggression {aid} untimed bidders", [g is None for g in got],
                        [m is None for m in means])
            check.at_most(f"aggression {aid} response times", max(
                (abs(g - m) / max(abs(m), 1e-300) for g, m in zip(got, means)
                 if g is not None and m is not None), default=0.0), 1e-12)
            got = [s.aggression for s in stats]
            check.equal(f"aggression {aid} zero or infinite", [(g == 0, math.isinf(g)) for g in got],
                        [(a == 0, math.isinf(a)) for a in aggression])
            check.at_most(f"aggression {aid} aggression", max(
                (abs(g - a) / a for g, a in zip(got, aggression) if 0 < a < math.inf),
                default=0.0), 1e-12)
        ok, table = ops.call(2, aggression_table, stats_by, records)
        if ok:
            buckets = {0: [], 1: [], 2: []}
            for aid, hot in hot_by.items():
                retail, final, winner, price, inc = ds.records[aid]
                buckets[min(hot, 2)].append((price // inc * dataset.FEE + final) / retail)
            check.equal("aggression buckets", [b["auctions"] for b in table],
                        [len(buckets[k]) for k in (0, 1, 2)])
            for b, k in zip(table, (0, 1, 2)):
                if buckets[k]:
                    check.close(f"aggression bucket {k} revenue", b["mean_revenue_pct_of_retail"],
                                100.0 * sum(buckets[k]) / len(buckets[k]), rel=1e-12)
        for aid, bids in sorted(histories.items()):
            t = self.truth[aid]
            ok, duel = ops.call(2, detect_duels, bids, tag=self._tag(aid))
            if ok:
                check.equal(f"duel {aid}", (duel.length, duel.participants) if duel else None,
                            (t.duel, t.duel_users) if t.duel else None)
        for aid, bids in sorted(histories.items()):
            end = max(b.timestamp for b in bids)
            ok, samples = ops.call(2, active_bidder_fraction, bids, end, tag=self._tag(aid))
            if ok:
                check.equal(f"active {aid}", samples,
                            ref.activity_samples(self.truth[aid].bids, end, 60.0, 900.0))
        ok, report = ops.call(2, bidpack_cost, records, traces=histories)
        if ok:
            check.equal("bidpack buyers", {b.username: (b.packs_won, b.cost_cents, b.value_cents)
                                           for b in report.buyers}, ds.bidpacks)
            check.equal("bidpack traced auctions", report.traced_auctions, ds.bidpack_traced)


class CliSession:
    """Fresh `paybid` processes: model commands (part 1), trace commands (part 2)."""

    def __init__(self, seed, size, check, ops, workdir):
        self.seed, self.size, self.check, self.ops = seed, size, check, ops
        self.workdir = workdir
        self.tracer = None

    def prepare(self):
        self.ds = dataset.generate(self.workdir / "data", self.seed, "small")
        files = [str(t.path) for t in self.ds.traces if not t.inconsistent]
        outcomes = str(self.ds.outcomes)
        sim_seed = str(self.seed)
        full = self.size == "full"
        model = [
            (["analyze", "--scenario", "underestimate"], "csv", self._underestimate),
            (["analyze", "--scenario", "mixed"], "json", self._mixed),
            (["analyze", "--scenario", "uncertain"], "csv", self._uncertain),
            (["analyze", "--scenario", "bidfee"], "json", self._bidfee),
            (["analyze", "--scenario", "valuation"], "csv", self._valuation),
            (["analyze", "--scenario", "collusion"], "json", self._collusion),
            (["analyze", "--scenario", "shill"], "csv", self._shill),
            (["analyze", "--scenario", "committed"], "json", self._committed),
            (["sweep", "--scenario", "underestimate", "--param", "k", "--from", "0", "--to", "10",
              "--step", "1"], "csv", self._underestimate),
            (["sweep", "--scenario", "shill", "--param", "L", "--from", "0", "--to", "20",
              "--step", "10"], "csv", self._shill_sweep),
            (["simulate", "--scenario", "collusion", "--trials", "10000", "--seed", sim_seed],
             "json", self._simulate),
        ]
        trace = [
            (["trace", "--report", "margins", "--outcomes", outcomes], "csv", self._margins),
            (["trace", "--report", "duels", "--outcomes", outcomes, "--traces", *files],
             "json", self._duels),
        ]
        if not full:
            model = [model[0], model[3], model[10]]
            model[2][0][4] = "1000"
        self.commands = [(1, *c) for c in model] + [(2, *c) for c in trace]

    def _run(self, argv):
        if self.tracer is None:
            return common.paybid_command(argv)[1]
        spans = self.workdir / "child-spans.json"
        with self.tracer.span("process", "paybid"):
            out = common.run_child([str(common.BENCH_DIR / "trace_child.py"), str(spans), "--",
                                    *argv])[1]
            self.tracer.merge(json.loads(spans.read_text(encoding="utf-8")))
        return out

    def round(self):
        for part, argv, fmt, verify in self.commands:
            ok, out = self.ops.call(part, self._run, [*argv, "--format", fmt])
            if not ok:
                continue
            label = " ".join(argv[:3])
            try:
                meta, rows = _parse_output(out, fmt)
            except (ValueError, KeyError, IndexError) as exc:
                self.check.fail(label, f"unreadable {fmt} output: {exc}")
                continue
            self.check.equal(f"{label} config hash", len(meta.get("config_hash", "")), 16)
            verify(label, meta, rows)

    # -- verdicts, one per command -----------------------------------------

    def _underestimate(self, label, meta, rows):
        for row in rows:
            k = int(row["k"])
            self.check.close(f"{label} k={k} revenue", float(row["expected_revenue"]),
                             ref.underestimate_revenue(V, B, 0.0, N, k), rel=1e-12)

    def _mixed(self, label, meta, rows):
        self.check.at_least(f"{label} optimists dominate", float(rows[0]["expected_revenue"]), V)

    def _uncertain(self, label, meta, rows):
        row = rows[0]
        self.check.close(f"{label} known beta", float(row["beta_known"]),
                         ref.symmetric_later_beta(V, B, 0.0, N), rel=1e-12)
        self.check.at_least(f"{label} uplift", float(row["uplift"]), 0.0)
        self.check.at_most(f"{label} residual", abs(float(row["residual"])), 1e-12)

    def _bidfee(self, label, meta, rows):
        self.check.close(f"{label} length = (v-p)/b_A", float(rows[0]["expected_bids"]),
                         ref.bidfee_length(V, 0.0, 0.5), rel=1e-9)

    def _valuation(self, label, meta, rows):
        self.check.at_least(f"{label} high-value group wins more than its share",
                            float(rows[0]["win_prob_offvalue_group"]), 0.5)

    def _collusion(self, label, meta, rows):
        for row in rows:
            self.check.at_least(f"{label} k={row['k']} win ratio exceeds k",
                                float(row["win_ratio"]), int(row["k"]) + 1e-9)

    def _shill(self, label, meta, rows):
        self.check.at_least(f"{label} profit", float(rows[0]["expected_profit"]), 1e-9)

    def _shill_sweep(self, label, meta, rows):
        profits = [float(r["expected_profit"]) for r in rows]
        self.check.equal(f"{label} L=0 earns nothing", profits[0], 0.0)
        self.check.at_least(f"{label} nondecreasing", min(b - a for a, b in zip(profits, profits[1:])),
                            -1e-12)

    def _committed(self, label, meta, rows):
        row = rows[0]
        alpha = float(row["alpha"])
        self.check.at_least(f"{label} loss within (alpha-1)v", float(row["player_profit"]),
                            -(alpha - 1.0) * V)

    def _simulate(self, label, meta, rows):
        row = rows[0]
        self.check.within_se(f"{label} revenue", float(row["mc_revenue"]), float(row["mc_se"]),
                             float(row["expected_revenue"]))
        self.check.within_se(f"{label} ring wins", float(row["mc_ring_win_prob"]),
                             float(row["mc_ring_win_se"]), float(row["ring_win_prob"]))
        self.check.equal(f"{label} seed", int(meta["seed"]), self.seed)

    def _margins(self, label, meta, rows):
        ds = self.ds
        self.check.equal(f"{label} per auction profit",
                         {int(r["auction_id"]): int(r["profit_cents"]) for r in rows}, ds.profit)
        self.check.equal(f"{label} counts", tuple(int(meta[k]) for k in (
            "included", "skipped_fixed_price", "skipped_no_sale", "row_errors",
            "outcome_rows_rejected")), (len(ds.profit), ds.fixed_price, ds.unsold,
                                        ds.zero_increment, len(ds.malformed_lines)))

    def _duels(self, label, meta, rows):
        ds = self.ds
        want = {t.auction_id: (t.duel, *t.duel_users) for t in ds.complete_traces() if t.duel}
        self.check.equal(f"{label} duels", {int(r["auction_id"]): (int(r["length"]), r["last_bidder"],
                                                                   r["other_bidder"]) for r in rows}, want)
        self.check.equal(f"{label} incomplete traces skipped", int(meta["traces_skipped_incomplete"]),
                         sum(1 for t in ds.traces if not t.inconsistent and t.missing))


def _parse_output(text: str, fmt: str) -> tuple:
    """(meta, rows) of one paybid output, every value kept as text or JSON."""
    if fmt == "json":
        payload = json.loads(text)
        return payload["meta"], [{k: str(v) for k, v in row.items()} for row in payload["rows"]]
    lines = text.splitlines()
    if not lines[0].startswith("# paybid "):
        raise ValueError("missing version line")
    meta, i = {}, 1
    while i < len(lines) and lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        meta[key] = value
        i += 1
    header = lines[i].split(",") if i < len(lines) else []
    return meta, [dict(zip(header, line.split(","))) for line in lines[i + 1:]]


WORKLOADS = {
    "analysis": Analysis,
    "monte-carlo": MonteCarlo,
    "trace-dataset": TraceDataset,
    "cli-session": CliSession,
}
