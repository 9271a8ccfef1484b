"""Asymmetric player pools: misperception, uncertainty, fee and value splits,
collusion, shills, committed players, and the full-information system."""

import itertools
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paybid import asymmetry_models
from paybid.core_model import AuctionSpec, beta_from_mu, max_bids, symmetric_beta
from paybid.markov_engine import (_ROW_BLOCK, TwoGroupChain, evolve_recurrence,
                                  expected_revenue_from_series)
from paybid.asymmetry_models import (
    CommittedPolicy,
    GroupProfile,
    PopulationBelief,
    ShillPolicy,
    ascending_underestimate_revenue,
    bidfee_asymmetry_chain,
    chicken_payoffs,
    collusion_chain,
    committed_player_profit,
    full_info_equilibrium,
    mixed_estimates_chain,
    shill_chain,
    shill_profit,
    two_group_chain,
    underestimate_chain,
    underestimate_uniform,
    uncertain_population_beta,
    valuation_asymmetry_chain,
)
from paybid.asymmetry_models import (_MERGE_CHUNK, _committed_model, _counted_occupancy,
                                     _shill_model)

FIX = AuctionSpec.fixed_price(100, 1, 0, 50)
ASC = AuctionSpec.ascending(100, 1, 0.25, 50)


def chain_revenue(chain) -> float:
    return expected_revenue_from_series(evolve_recurrence(chain))


# ---------------------------------------------------------------------------
# generic two-group builder


def test_two_group_chain_collapses_to_symmetric():
    chain = two_group_chain(FIX, GroupProfile(size=25), GroupProfile(size=25))
    assert chain_revenue(chain) == pytest.approx(100.0, abs=1e-8)


def test_two_group_chain_first_bid_scaling():
    chain = underestimate_chain(FIX, 0)
    assert chain.beta_b(1, None) == pytest.approx(symmetric_beta(FIX, 1), abs=1e-15)
    assert chain.beta_b(2, "B") == pytest.approx(symmetric_beta(FIX, 2), abs=1e-15)


def test_two_group_chain_horizon_reaches_the_highest_value():
    # group A values the item at 200, so it bids up to index 797, twice as
    # far as the spec's value of 100 allows
    chain = two_group_chain(ASC, GroupProfile(25, value=200.0), GroupProfile(25))
    assert chain.horizon == 797
    assert evolve_recurrence(chain).residual < 1e-12


def test_group_profile_validation():
    with pytest.raises(ValueError):
        GroupProfile(size=-1)
    with pytest.raises(ValueError):
        GroupProfile(size=3, fee=-1.0)
    with pytest.raises(ValueError):
        GroupProfile(size=3, perceived_population=1)


# ---------------------------------------------------------------------------
# population underestimation, fixed price

# closed form b^(1-e) (v-p)^e + p with e = 49/(49-k), frozen at the defaults
UNDERESTIMATE_REVENUE = {
    0: 100.0,
    1: 110.06941712522092,
    5: 168.7612475788147,
    10: 325.7020655659783,
}


def test_underestimate_closed_form_frozen_values():
    for k, expected in UNDERESTIMATE_REVENUE.items():
        got = underestimate_uniform(FIX, k).expected_revenue
        assert got == pytest.approx(expected, rel=1e-12), k
        # same thing straight from the exponent identity
        assert got == pytest.approx(100.0 ** (49.0 / (49.0 - k)), rel=1e-10)


def test_underestimate_recurrence_matches_closed_form():
    for k, expected in UNDERESTIMATE_REVENUE.items():
        got = chain_revenue(underestimate_chain(FIX, k))
        assert got == pytest.approx(expected, rel=1e-6), k


def test_underestimate_requires_fixed_price():
    with pytest.raises(ValueError):
        underestimate_uniform(ASC, 1)


def test_underestimate_k_bounds():
    # perceived population n - k must stay at least 2
    assert underestimate_uniform(FIX, 48).expected_revenue > 0
    with pytest.raises(ValueError):
        underestimate_uniform(FIX, 49)
    assert underestimate_uniform(FIX, -48).expected_revenue == pytest.approx(
        100.0 ** (49.0 / 97.0), rel=1e-10)
    with pytest.raises(ValueError):
        underestimate_uniform(FIX, -49)


def test_underestimate_revenue_overflow_is_a_value_error():
    # b (b/v)^(-49) is about 1e343 here, past the largest float
    with pytest.raises(ValueError, match="overflows a float"):
        underestimate_uniform(AuctionSpec.fixed_price(10_000_000, 1, 0, 50), 48)


def test_overestimation_lowers_revenue():
    assert underestimate_uniform(FIX, -5).expected_revenue < 100.0


# ---------------------------------------------------------------------------
# population underestimation, ascending

ASC_UNDERESTIMATE = {
    0: 100.00000000000023,
    1: 107.51780401410568,
    5: 144.96090022415908,
    10: 211.18344217776084,
    40: 493.9035055562582,
}


def test_ascending_underestimate_frozen_values():
    for k, expected in ASC_UNDERESTIMATE.items():
        assert ascending_underestimate_revenue(ASC, k) == pytest.approx(
            expected, rel=1e-12), k


def test_ascending_underestimate_monotone_and_bounded():
    values = [ascending_underestimate_revenue(ASC, k) for k in range(0, 48)]
    assert all(b > a for a, b in zip(values, values[1:]))
    # never past the hard ceiling (Q + 1) (b + s)
    assert all(v < 496.25 for v in values)


def test_ascending_underestimate_requires_ascending():
    with pytest.raises(ValueError):
        ascending_underestimate_revenue(FIX, 1)


def looped_ascending_underestimate(spec, k):
    """The product formula one bid at a time, the reference for the
    cumulative products and sums of ascending_underestimate_revenue."""
    n = spec.population
    exponent = (n - 1) / (n - k - 1)
    total, running = 0.0, 1.0
    for t in range(1, int(max_bids(spec)) + 2):
        if t >= 2:
            pot = spec.value - spec.increment * (t - 1)
            mu = 1.0 - (spec.fee / pot) ** exponent if pot > spec.fee else 0.0
            running *= max(mu, 0.0)
            if running == 0.0:
                break
        total += running
    return (spec.fee + spec.increment) * total


# a fee within a cent of a huge value: every mu is ~1e-16, so the running
# product underflows to 0 at bid 24 of the 101 before the horizon
UNDERFLOW = AuctionSpec.ascending("100000000000001", "100000000000000", "0.01", 50)


@pytest.mark.parametrize("spec", [ASC, UNDERFLOW], ids=["ASC", "underflow"])
@pytest.mark.parametrize("k", [-48, -10, 0, 5, 48])
def test_ascending_underestimate_matches_the_loop(spec, k):
    assert ascending_underestimate_revenue(spec, k) == pytest.approx(
        looped_ascending_underestimate(spec, k), rel=1e-13, abs=0)


# ---------------------------------------------------------------------------
# mixed over and under estimation


def test_mixed_estimates_k0_is_symmetric():
    assert chain_revenue(mixed_estimates_chain(FIX, 0)) == pytest.approx(100.0, abs=1e-6)


def test_mixed_estimates_frozen_value():
    assert chain_revenue(mixed_estimates_chain(FIX, 4)) == pytest.approx(
        103.07264335833051, rel=1e-9)


def test_mixed_estimates_needs_even_population():
    odd = AuctionSpec.fixed_price(100, 1, 0, 49)
    with pytest.raises(ValueError):
        mixed_estimates_chain(odd, 2)


def test_mixed_estimates_k_too_large():
    with pytest.raises(ValueError):
        mixed_estimates_chain(FIX, 49)


# ---------------------------------------------------------------------------
# uncertain population beliefs


def test_uncertain_point_belief_recovers_known_beta():
    out = uncertain_population_beta(FIX, PopulationBelief((50,), (1.0,)))
    assert out.beta_uncertain == pytest.approx(out.beta_known, abs=1e-14)
    assert out.beta_known == pytest.approx(symmetric_beta(FIX, 2), abs=1e-14)
    assert abs(out.residual) <= 1e-12


def test_uncertain_spread_belief_frozen():
    out = uncertain_population_beta(FIX, PopulationBelief((25, 75), (0.5, 0.5)))
    assert out.beta_known == pytest.approx(0.08970182200847811, abs=1e-14)
    assert out.beta_uncertain == pytest.approx(0.15041983891868818, abs=1e-12)
    assert abs(out.residual) <= 1e-12
    assert out.beta_uncertain >= out.beta_known


def test_belief_mean_must_match_population():
    with pytest.raises(ValueError):
        uncertain_population_beta(FIX, PopulationBelief((30, 60), (0.5, 0.5)))


def test_belief_validation():
    with pytest.raises(ValueError):
        PopulationBelief((25, 75), (0.6, 0.6))
    with pytest.raises(ValueError):
        PopulationBelief((25, 75), (0.5,))
    with pytest.raises(ValueError):
        PopulationBelief((0, 100), (0.5, 0.5))


def test_belief_with_heavy_singleton_is_infeasible():
    # mass on "I am alone" above b / (v - p) leaves no root in (0, 1)
    spec = AuctionSpec.fixed_price(100, 1, 0, 50)
    belief = PopulationBelief((1, 99), (0.5, 0.5))
    with pytest.raises(ValueError):
        uncertain_population_beta(spec, belief)


def test_belief_with_fee_above_the_pot_is_infeasible():
    # b / (v - p) > 1 makes the residual negative on all of [0, 1]
    spec = AuctionSpec.fixed_price(100, 1, 99.5, 50)
    with pytest.raises(ValueError):
        uncertain_population_beta(spec, PopulationBelief((25, 75), (0.5, 0.5)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_uncertainty_never_lowers_the_bid_probability(data):
    # symmetric pairs around 50 keep the mean exactly at the population size
    offsets = data.draw(st.lists(st.integers(min_value=1, max_value=45),
                                 min_size=1, max_size=4, unique=True))
    sizes, weights = [], []
    total = 0.0
    for i, d in enumerate(offsets):
        w = data.draw(st.floats(min_value=0.05, max_value=1.0), label=f"w{i}")
        sizes += [50 - d, 50 + d]
        weights += [w, w]
        total += 2 * w
    weights = [w / total for w in weights]
    out = uncertain_population_beta(FIX, PopulationBelief(tuple(sizes), tuple(weights)))
    assert out.beta_uncertain >= out.beta_known - 1e-15
    assert abs(out.residual) <= 1e-12


# ---------------------------------------------------------------------------
# bid fee asymmetry

BIDFEE_REVENUE = {0.8: 149.55931973576378, 1.0: 179.17882617625696, 1.5: 246.15014692399544}


def test_bidfee_expected_length_ignores_the_other_fee():
    lengths = []
    for fee_b, expected_rev in BIDFEE_REVENUE.items():
        series = evolve_recurrence(bidfee_asymmetry_chain(FIX, 5, 0.5, fee_b))
        lengths.append(series.expected_bids)
        assert expected_revenue_from_series(series) == pytest.approx(expected_rev, rel=1e-9)
    # length pinned by the cheap group's fee alone: (v - p) / fee_a
    for length in lengths:
        assert length == pytest.approx(200.0, abs=1e-7)
    for one, two in zip(lengths, lengths[1:]):
        assert abs(one - two) <= 1e-9


def test_bidfee_equal_fees_collapse_to_symmetric():
    chain = bidfee_asymmetry_chain(FIX, 5, 1.0, 1.0)
    assert chain_revenue(chain) == pytest.approx(100.0, abs=1e-6)


def test_bidfee_k1_never_bids_when_leading():
    chain = bidfee_asymmetry_chain(FIX, 1, 0.5, 1.0)
    assert chain.beta_a(2, "A") == 0.0
    assert chain.beta_a(2, "B") > 0.0


def test_bidfee_corner_when_a_pays_more():
    chain = bidfee_asymmetry_chain(FIX, 5, 1.5, 1.0)
    assert any("corner" in note for note in chain.notes)
    assert chain.beta_a(2, "A") == 0.0


def test_bidfee_rejects_bad_k():
    with pytest.raises(ValueError):
        bidfee_asymmetry_chain(FIX, 0, 0.5)
    with pytest.raises(ValueError):
        bidfee_asymmetry_chain(FIX, 50, 0.5)


# ---------------------------------------------------------------------------
# valuation asymmetry


def test_valuation_multiplier_one_is_symmetric():
    assert chain_revenue(valuation_asymmetry_chain(FIX, 5, 1.0)) == pytest.approx(
        100.0, abs=1e-6)


def test_valuation_betas_ignore_the_leader():
    chain = valuation_asymmetry_chain(FIX, 5, 2.0)
    assert chain.beta_a(2, "A") == pytest.approx(chain.beta_a(2, "B"), abs=1e-15)
    assert chain.beta_a(2, "A") == pytest.approx(
        beta_from_mu(1 - 1.0 / 200.0, 49), abs=1e-14)


def test_valuation_single_high_value_player_frozen():
    # 49 players value the item at 5, one at 100; revenue collapses toward
    # the low valuation
    assert chain_revenue(valuation_asymmetry_chain(FIX, 49, 0.05)) == pytest.approx(
        5.297441298111961, rel=1e-9)


def test_valuation_degenerate_group_never_bids():
    chain = valuation_asymmetry_chain(FIX, 5, 0.005)
    assert any("degenerate" in note for note in chain.notes)
    assert chain.beta_a(2, "B") == 0.0


# ---------------------------------------------------------------------------
# collusion

COLLUSION = {
    # k: (revenue, coalition win probability, win ratio vs one outsider)
    ("many_bidders", 2): (99.61496348137787, 2.152759379141153),
    ("many_bidders", 5): (95.94141670462402, 6.695728288316671),
    ("many_bidders", 10): (81.54918863562249, 19.105239350792832),
    ("single_bidder", 2): (99.62452905966792, 2.0969413147516147),
    ("single_bidder", 5): (96.27764950209139, 6.066244086413427),
    ("single_bidder", 10): (83.93203790814638, 15.671208118866119),
}


def test_collusion_frozen_values_and_superlinear_wins():
    for (mode, k), (revenue, ratio) in COLLUSION.items():
        series = evolve_recurrence(collusion_chain(FIX, k, mode))
        got_rev = expected_revenue_from_series(series)
        got_ratio = series.win_prob_a / (series.win_prob_b / (50 - k))
        assert got_rev == pytest.approx(revenue, rel=1e-9), (mode, k)
        assert got_ratio == pytest.approx(ratio, rel=1e-9), (mode, k)
        assert got_ratio > k


def test_collusion_revenue_decreases_with_coalition_size():
    for mode in ("many_bidders", "single_bidder"):
        revenues = [chain_revenue(collusion_chain(FIX, k, mode)) for k in (2, 5, 10)]
        assert revenues[0] > revenues[1] > revenues[2]
        assert all(r < 100.0 for r in revenues)


def test_collusion_rejects_unknown_coordination():
    with pytest.raises(ValueError):
        collusion_chain(FIX, 5, "both_bid")


def test_collusion_single_bidder_uses_one_ticket():
    chain = collusion_chain(FIX, 5, "single_bidder")
    assert chain.tie_rule == "single_ticket"
    assert collusion_chain(FIX, 5).tie_rule == "uniform"


# ---------------------------------------------------------------------------
# shill bidding

SHILL_PROFIT = {0: 0.0, 5: 20.6132263557909, 10: 40.79849025786909}


def test_shill_profit_frozen_values():
    for budget, expected in SHILL_PROFIT.items():
        got = shill_profit(ASC, ShillPolicy(1.0, budget)).expected_profit
        assert got == pytest.approx(expected, rel=1e-9, abs=1e-12), budget


def test_shill_zero_budget_or_entry_is_exactly_zero():
    out = shill_profit(ASC, ShillPolicy(1.0, 0))
    assert out.expected_profit == 0.0 and out.win_prob_shill == 0.0
    out = shill_profit(ASC, ShillPolicy(0.0, 10))
    assert out.expected_profit == 0.0
    assert out.notes


def test_shill_profit_linear_in_entry_probability():
    full = shill_profit(ASC, ShillPolicy(1.0, 10))
    half = shill_profit(ASC, ShillPolicy(0.5, 10))
    assert half.expected_profit == pytest.approx(0.5 * full.expected_profit, rel=1e-12)
    assert half.entered_profit == pytest.approx(full.entered_profit, rel=1e-12)


def test_shill_single_bid_budget_changes_nothing():
    # A one-bid shill keeps entering lotteries until one of its tickets is
    # drawn, so it places exactly one bid (the auction cannot end while it
    # still has that bid to place), and the perceived extra rival raises the
    # legitimate bidding enough to pay for it: the extra profit is positive.
    expected = {ASC: 3.4371809266023803, FIX: 3.4447858581318513,
                AuctionSpec.ascending(80, 2, 0.5, 20): 4.894771346244994}
    for spec, profit in expected.items():
        out = shill_profit(spec, ShillPolicy(1.0, 1))
        assert out.entered_shill_bids == pytest.approx(1.0, abs=1e-12), spec
        assert out.expected_profit > 0.0
        assert out.expected_profit == pytest.approx(profit, rel=1e-9), spec


# (budget, identities) -> (expected_profit, entered_shill_bids, win_prob_shill)
# on the fixed-price default, from the bid-by-bid recurrence the level sweep
# replaced (it stepped the live mass down to 1e-12)
SHILL_FIXED_PRICE = {
    (5, 1): (20.780405888772805, 4.900995010000006, 0.04814827797688938),
    (5, 2): (16.89992509425332, 5.000000000000029, 0.009102981779915342),
    (10, 1): (41.4925098786572, 9.561792499119575, 0.09479848337584129),
    (10, 2): (33.81730140779082, 10.00000000000015, 0.00910298177991548),
    (50, 1): (174.53212427043337, 39.499393286246686, 0.39444574956399764),
    (50, 2): (169.15631191609745, 50.00000000000361, 0.00910298177991654),
}


def test_shill_fixed_price_frozen_values():
    for (budget, identities), expected in SHILL_FIXED_PRICE.items():
        out = shill_profit(FIX, ShillPolicy(1.0, budget, identities))
        got = (out.expected_profit, out.entered_shill_bids, out.win_prob_shill)
        assert got == pytest.approx(expected, rel=1e-9), (budget, identities)


@pytest.mark.parametrize("spec", [FIX, ASC], ids=["fixed", "ascending"])
@pytest.mark.parametrize("identities", [1, 2])
@pytest.mark.parametrize("budget", [1, 2, 5, 10, 20, 50])
def test_entered_shill_bids_never_exceed_the_budget(spec, identities, budget):
    # a two-identity shill places its whole budget on every path, and its
    # wins sum to 1 + 1e-15 in floats on both variants
    out = shill_profit(spec, ShillPolicy(1.0, budget, identities))
    assert out.entered_shill_bids <= budget
    if identities == 2:
        assert out.entered_shill_bids == pytest.approx(budget, rel=1e-12)


def test_shill_double_identity_frozen():
    out = shill_profit(ASC, ShillPolicy(1.0, 10, identities=2))
    assert out.expected_profit == pytest.approx(33.30425359843758, rel=1e-9)
    # topping its own bids makes winning outright much rarer
    single = shill_profit(ASC, ShillPolicy(1.0, 10))
    assert out.win_prob_shill < single.win_prob_shill


def test_shill_chain_perception_reverts_after_budget():
    phases = shill_chain(ASC, ShillPolicy(1.0, 5))
    # before its fifth bid the shill bids surely and the others solve a
    # 51-player world, whatever the bid index
    for placed in range(5):
        chain = phases.at(placed)
        assert chain.beta_b(2, "B") == pytest.approx(
            beta_from_mu(1 - 1 / 99.75, 50), abs=1e-14)
        assert chain.beta_b(12, "B") == pytest.approx(
            beta_from_mu(1 - 1 / (100 - 0.25 * 11), 50), abs=1e-14)
        assert chain.beta_a(12, "B") == 1.0
    # from the fifth placed bid on the plain 50-player solution returns and
    # the shill is silent
    for placed in (5, 6):
        chain = phases.at(placed)
        assert chain.beta_b(2, "B") == pytest.approx(
            beta_from_mu(1 - 1 / 99.75, 49), abs=1e-14)
        assert chain.beta_b(6, "B") == pytest.approx(
            beta_from_mu(1 - 1 / (100 - 0.25 * 5), 49), abs=1e-14)
        assert chain.beta_a(2, "B") == 0.0


def test_shill_policy_validation():
    with pytest.raises(ValueError):
        ShillPolicy(1.5, 5)
    with pytest.raises(ValueError):
        ShillPolicy(0.5, -1)
    with pytest.raises(ValueError):
        ShillPolicy(0.5, 5, identities=3)
    with pytest.raises(ValueError):
        shill_chain(ASC, ShillPolicy(1.0, 0))


@pytest.mark.parametrize("solve", [
    lambda spec: shill_profit(spec, ShillPolicy(1.0, 5)),
    lambda spec: committed_player_profit(spec, CommittedPolicy(1.5)),
], ids=["shill", "committed"])
def test_counted_solvers_build_row_tables_in_bounded_blocks(monkeypatch, solve):
    # the horizon, 2,901 bid indices, is longer than one block
    spans = []
    row_table = TwoGroupChain.row_table

    def spy(chain, leader, q_start, q_stop):
        spans.append(q_stop - q_start)
        return row_table(chain, leader, q_start, q_stop)

    monkeypatch.setattr(TwoGroupChain, "row_table", spy)
    solve(AuctionSpec.ascending(30, 1, 0.01, 10))
    assert spans and max(spans) <= _ROW_BLOCK


def stepped_counted(spec, model):
    """The counted-player occupancy one bid at a time, the reference for the
    chunked stepper: (wins and index-weighted wins per leader and count, the
    brute-force expectation of model.outcome over every (leader, count, bid
    index) end, the step it stopped at)."""
    bidding, silent, bids, outcome = model
    top = next(c for c in itertools.count(1) if not bids(c, 2))
    steps = int(max_bids(spec)) + top + 2  # every bidder has stopped by then
    tables = [{leader: np.array(chain.row_table(leader, 2, 2 + steps)) for leader in "AB"}
              for chain in (bidding, silent)]
    counts = np.arange(top + 1)
    a_won = np.array([[True], [False]])
    opening = bidding.opening_row()
    live = np.zeros((2, top + 1))
    live[0, 1], live[1, 0] = opening.to_a, opening.to_b
    wins, indexed = np.zeros_like(live), np.zeros_like(live)
    expected = 0.0
    for t in range(1, steps + 1):
        on = np.broadcast_to(bids(counts, t + 1), counts.shape)
        rows = np.array([[np.where(on, tables[0][leader][k, t - 1], tables[1][leader][k, t - 1])
                          for k in range(3)] for leader in "AB"])
        won = live * rows[:, 2]
        wins += won
        indexed += t * won
        ends = outcome(a_won, counts, np.full(won.shape, t))
        expected = expected + np.array([(won * payoff).sum() for payoff in ends])
        moved = live[0] * rows[0, :2] + live[1] * rows[1, :2]
        live = np.zeros_like(live)
        live[0, 1:] = moved[0, :-1]  # A's bid lifts its count
        live[1] = moved[1]
        if live.sum() < 1e-15:
            return wins, indexed, expected, t
    raise AssertionError("the reference did not finish")


def counted_case(spec, kind, x):
    """The model of a shill with budget x[0] and x[1] identities, or of a
    committed player with multiplier x."""
    if kind == "shill":
        return _shill_model(spec, ShillPolicy(1.0, *x))
    return _committed_model(spec, x)


def assert_counted_matches_the_loop(monkeypatch, spec, kind, x):
    model = counted_case(spec, kind, x)
    wins, indexed, _, stop = stepped_counted(spec, model)
    chunks = []
    merged = asymmetry_models._counted_rows

    def spy(*args):
        for rows in merged(*args):
            chunks.append(len(rows))
            yield rows

    monkeypatch.setattr(asymmetry_models, "_counted_rows", spy)
    got = _counted_occupancy(spec, model)
    assert got.wins == pytest.approx(wins, rel=1e-12, abs=0)
    assert got.indexed_wins == pytest.approx(indexed, rel=1e-12, abs=0)
    # the stepper reads no chunk past the one holding the stopping step
    assert sum(chunks[:-1]) < stop <= sum(chunks)
    return stop, chunks


@pytest.mark.parametrize("kind, x", [
    *(pytest.param("shill", (budget, identities), id=f"shill-L{budget}-identities{identities}")
      for budget in (1, 10, 50, 390) for identities in (1, 2)),
    *(pytest.param("committed", alpha, id=f"committed-{alpha}") for alpha in (1.1, 2.0, 3.0)),
])
def test_counted_chunks_match_the_step_by_step_loop(monkeypatch, kind, x):
    assert_counted_matches_the_loop(monkeypatch, ASC, kind, x)


def test_counted_stop_on_the_last_step_of_a_chunk(monkeypatch):
    # this shill's live mass first drops below 1e-15 at bid 352, the last
    # step of the eleventh chunk, well inside the 1,101-index horizon
    spec = AuctionSpec.ascending(12, 1, 0.01, 5)
    stop, chunks = assert_counted_matches_the_loop(monkeypatch, spec, "shill", (10, 1))
    assert stop == 11 * _MERGE_CHUNK
    assert chunks == [_MERGE_CHUNK] * 11


def test_lone_counted_player_places_at_most_q_plus_two_bids():
    # TINY (Q = 9): the committed player's stop rule allows 27 bids at
    # alpha = 3, but a player who cannot outbid itself places at most Q + 2
    spec = AuctionSpec.ascending(10, 1, 1, 3)
    model = counted_case(spec, "committed", 3.0)
    wins, indexed, _, _ = stepped_counted(spec, model)
    assert wins.shape == (2, 28)
    got = _counted_occupancy(spec, model)
    width = int(max_bids(spec)) + 3
    assert got.wins.shape == got.indexed_wins.shape == (2, width)
    # the uncapped reference puts no mass there
    assert not wins[:, width:].any() and not indexed[:, width:].any()
    assert got.wins == pytest.approx(wins[:, :width], rel=1e-12, abs=0)
    assert got.indexed_wins == pytest.approx(indexed[:, :width], rel=1e-12, abs=0)


@pytest.mark.parametrize("spec", [ASC, AuctionSpec.ascending(10, 1, 1, 3)], ids=["ASC", "TINY"])
@pytest.mark.parametrize("kind, x", [("shill", (5, 1)), ("shill", (10, 2)), ("committed", 1.5)],
                         ids=["shill", "shill-identities2", "committed"])
def test_expected_payoffs_match_the_brute_force_ends(spec, kind, x):
    # each payoff is affine in the total for a fixed winner and count, so
    # the mean end of each (leader, count) cell prices it exactly
    model = counted_case(spec, kind, x)
    _, _, want, _ = stepped_counted(spec, model)
    got, notes = asymmetry_models._expected(spec, model)
    assert notes == ()
    assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_huge_budget_or_backstop_solves_on_the_capped_count_axis():
    # without the cap these asked for 14.3 GiB and 2.38 GiB
    assert shill_profit(ASC, ShillPolicy(1.0, 10_000_000)) == shill_profit(ASC, ShillPolicy(1.0, 1000))
    assert (committed_player_profit(ASC, CommittedPolicy(1e5))
            == committed_player_profit(ASC, CommittedPolicy(1e3)))


def test_fixed_price_committed_sweep_ends_with_its_live_mass():
    # alpha = 1e5 lets the player place ten million bids, but the mass lifted
    # past a few thousand counts is below the tolerance, so the sweep stops
    # there and asks the stop rule once per level it reaches
    calls = 0
    model = _committed_model(FIX, 1e5)

    def bids(count, q):
        nonlocal calls
        calls += 1
        if calls > 100_000:
            raise AssertionError("the stop rule was asked more than 10^5 times")
        return model.bids(count, q)

    got = _counted_occupancy(FIX, model._replace(bids=bids))
    want = _counted_occupancy(FIX, _committed_model(FIX, 1e3))
    assert got.wins.shape[1] < 10_000
    np.testing.assert_array_equal(got.wins, want.wins)
    np.testing.assert_array_equal(got.indexed_wins, want.indexed_wins)
    assert (committed_player_profit(FIX, CommittedPolicy(1e5))
            == committed_player_profit(FIX, CommittedPolicy(1e3)))


def test_counted_step_cap_is_reported_in_the_notes(monkeypatch, caplog):
    assert shill_profit(ASC, ShillPolicy(1.0, 10)).notes == ()
    assert committed_player_profit(ASC, CommittedPolicy(1.5)).notes == ()
    monkeypatch.setattr(asymmetry_models, "_MAX_STEPS", 40)
    with caplog.at_level("WARNING", logger="paybid.asymmetry_models"):
        outcomes = shill_profit(ASC, ShillPolicy(1.0, 10)), committed_player_profit(ASC, CommittedPolicy(1.5))
    assert len(caplog.records) == 2
    for out in outcomes:
        (note,) = out.notes
        assert note.startswith("stopped at the step cap after 40 bids with live mass ")
        assert float(note.rsplit(" ", 1)[1]) > 1e-3


# ---------------------------------------------------------------------------
# committed player

TINY = AuctionSpec.ascending(10, 1, 1, 3)


def test_committed_tiny_case_frozen():
    out = committed_player_profit(TINY, CommittedPolicy(1.5))
    assert out.player_profit == pytest.approx(-0.17031949655514605, rel=1e-10)
    assert out.auctioneer_profit == pytest.approx(3.7437432715726, rel=1e-10)
    assert out.committed_win_prob == pytest.approx(0.9024690354565534, rel=1e-10)
    assert out.expected_total_bids == pytest.approx(6.823106153514576, rel=1e-10)


def test_lottery_share_of_the_committed_rows_matches_exact_binomial_sum():
    # The committed player's share of the lottery against m regulars is the
    # to_a of a regular-led row with a sure group-A bidder: E[1/(1+J)],
    # J ~ Bin(m, beta), here summed term by term in exact rationals
    betas = [0.0, 1.1125369292536007e-308, 1e-12, 0.02, 0.5, 1.0 - 1e-12, 1.0]
    for m in (0, 1, 2, 48, 49):
        for beta in betas:
            chain = TwoGroupChain(1, m + 1, beta_a=lambda q, leader: 1.0,
                                  beta_b=lambda q, leader: beta, fee_a=1.0, fee_b=1.0)
            got = chain.transitions(2, "B").to_a
            b = Fraction(beta)
            exact = sum(math.comb(m, j) * b ** j * (1 - b) ** (m - j) / (1 + j)
                        for j in range(m + 1))
            assert got == pytest.approx(float(exact), rel=1e-13), (m, beta)


# alpha -> (player_profit, auctioneer_profit, committed_win_prob,
# expected_total_bids) on the fixed-price default, from the bid-by-bid
# recurrence the level sweeps replaced (it stepped the live mass down to 1e-15)
COMMITTED_FIXED_PRICE = {
    1.1: (33.10330883210144, 258.4207024151209, 0.6656231431100846, 391.5240112472192),
    1.55: (21.05984461967329, 325.5659225204201, 0.787274296770978, 446.6257671400915),
    2.0: (13.397967485796814, 368.2827370099754, 0.8646669950929607, 481.68070449576913),
}


def test_committed_fixed_price_frozen_values():
    for alpha, expected in COMMITTED_FIXED_PRICE.items():
        out = committed_player_profit(FIX, CommittedPolicy(alpha))
        got = (out.player_profit, out.auctioneer_profit, out.committed_win_prob,
               out.expected_total_bids)
        assert got == pytest.approx(expected, rel=1e-9), alpha


# alpha -> (player_profit, auctioneer_profit, committed_win_prob,
# expected_total_bids) on the ascending default, from the bid-by-bid dynamic
# program over (leader, own bids) vectors that the shared stepper replaced.
# player_profit nets win and loss terms of order 100, so it is pinned in
# absolute terms; the other three keep their relative digits.
COMMITTED_ASCENDING = {
    1.1: (17.76083593691653, 128.57836912874404, 0.5330948386426024, 197.0713640525286),
    1.5: (3.8846191248539146, 166.04884596693446, 0.7772108745596104, 215.9467720734307),
    2.0: (2.3026068724486815e-05, 175.77268397267423, 0.9998991045152266, 220.61828823679227),
    3.0: (-0.00015578544758192148, 175.773117709685, 0.9999999999999997, 220.61849416774794),
}


@pytest.mark.parametrize("alpha", sorted(COMMITTED_ASCENDING))
def test_committed_ascending_frozen_values(alpha):
    player, auctioneer, win, bids = COMMITTED_ASCENDING[alpha]
    out = committed_player_profit(ASC, CommittedPolicy(alpha))
    assert out.player_profit == pytest.approx(player, rel=0.0, abs=1e-11)
    assert out.auctioneer_profit == pytest.approx(auctioneer, rel=1e-12)
    assert out.committed_win_prob == pytest.approx(win, rel=1e-12)
    assert out.expected_total_bids == pytest.approx(bids, rel=1e-12)


def test_committed_defaults_auctioneer_grows_with_backstop():
    profits = [committed_player_profit(ASC, CommittedPolicy(a)).auctioneer_profit
               for a in (1.1, 1.25, 1.5)]
    assert profits[0] < profits[1] < profits[2]


def test_committed_vacuous_below_value():
    out = committed_player_profit(TINY, CommittedPolicy(1.0))
    assert out.player_profit == 0.0 and out.auctioneer_profit == 0.0
    assert out.notes


def test_committed_overshoot_note():
    cramped = AuctionSpec.ascending(10, 9.5, 1, 3)
    out = committed_player_profit(cramped, CommittedPolicy(1.02))
    assert out.player_profit == 0.0
    assert any("overshoot" in note for note in out.notes)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_committed_policy_rejects_a_non_finite_multiplier(alpha):
    # an infinite backstop would keep the fixed-price stop-rule search running forever
    with pytest.raises(ValueError, match="finite"):
        CommittedPolicy(alpha)


def test_committed_loss_is_bounded_by_the_backstop():
    # losing costs exactly retail - v; winning costs strictly less
    for alpha in (1.1, 1.3, 2.0):
        out = committed_player_profit(TINY, CommittedPolicy(alpha))
        assert out.player_profit >= -(alpha - 1) * 10 - 1e-12


# ---------------------------------------------------------------------------
# array-valued betas

Q = int(max_bids(ASC))
BID_INDICES = [1, 2, Q, Q + 1, Q + 2, 1000]


def both_phases(phases):
    return [phases.active, phases.spent]


def committed_chains(spec):
    """The committed player's bidding and silent chains, which do not
    depend on the multiplier."""
    model = _committed_model(spec, 1.5)
    return [model.bidding, model.silent]


def both_specs(build):
    return [pytest.param(spec, build, id=name) for name, spec in (("FIX", FIX), ("ASC", ASC))]


@pytest.mark.parametrize("spec, build", [
    *both_specs(lambda spec: [underestimate_chain(spec, 5)]),
    *both_specs(lambda spec: [mixed_estimates_chain(spec, 5)]),
    pytest.param(FIX, lambda spec: [bidfee_asymmetry_chain(spec, 10, 0.5)], id="bidfee"),
    pytest.param(FIX, lambda spec: [valuation_asymmetry_chain(spec, 10, 1.5)], id="valuation"),
    *(pytest.param(FIX, lambda spec, rule=rule: [collusion_chain(spec, 5, rule)], id=rule)
      for rule in ("many_bidders", "single_bidder")),
    *(param for ids in (1, 2) for param in both_specs(
        lambda spec, ids=ids: both_phases(shill_chain(spec, ShillPolicy(1.0, 10, ids))))),
    *both_specs(lambda spec: committed_chains(spec)),
])
@pytest.mark.parametrize("leader", [None, "A", "B"])
def test_betas_of_an_array_of_bid_indices_match_scalar_calls(spec, build, leader):
    qs = np.array(BID_INDICES)
    for chain in build(spec):
        for beta in (chain.beta_a, chain.beta_b):
            scalars = [beta(q, leader) for q in BID_INDICES]
            assert all(isinstance(x, float) for x in scalars)
            got = np.broadcast_to(beta(qs, leader), qs.shape)
            np.testing.assert_array_max_ulp(got, np.array(scalars), maxulp=1)


@pytest.mark.parametrize("build", [
    lambda: [underestimate_chain(FIX, k) for k in (-40, 0, 5, 47)],
    lambda: [mixed_estimates_chain(FIX, k) for k in (0, 10, 48)],
    lambda: [bidfee_asymmetry_chain(FIX, 5, 0.5, fee_b) for fee_b in (0.8, 1.0, 1.5)],
    lambda: [valuation_asymmetry_chain(FIX, 25, alpha) for alpha in (0.5, 2.0)],
    *(lambda rule=rule: [collusion_chain(FIX, k, rule) for k in (2, 5, 48)]
      for rule in ("many_bidders", "single_bidder")),
    lambda: [chain for ids in (1, 2)
             for chain in both_phases(shill_chain(FIX, ShillPolicy(1.0, 10, ids)))],
    lambda: committed_chains(FIX),
    lambda: [two_group_chain(FIX, GroupProfile(a), GroupProfile(50 - a)) for a in (0, 50)],
], ids=["underestimate", "mixed", "bidfee", "valuation", "many_bidders", "single_bidder",
        "shill", "committed", "empty-group"])
def test_kernel_rows_are_the_one_row_paths_bit_for_bit(build):
    for chain in build():
        opening, led_a, led_b = chain._kernel().tolist()
        assert opening == list(chain.opening_row())
        assert led_a == list(chain.transitions(2, "A"))
        assert led_b == list(chain.transitions(2, "B"))
        for size, led in ((chain.group_a_size, led_a), (chain.group_b_size, led_b)):
            assert size or led == [0.0, 0.0, 1.0]  # an empty group never leads


# ---------------------------------------------------------------------------
# accuracy of the bid probabilities against the paper's formulas

D = Decimal


def no_bid_world(pot: Decimal, fee: Decimal, m: int) -> tuple:
    """No-bid probabilities of a symmetric world of m players by leader
    (opening bid, A leads, B leads): w^(1/m) and w^(1/(m-1)), w = fee/pot,
    and 1 once the fee covers the pot."""
    if pot <= fee:
        return D(1), D(1), D(1)
    w = fee / pot
    return w ** (D(1) / m), w ** (D(1) / (m - 1)), w ** (D(1) / (m - 1))


def paper_no_bids(spec, case: str, q: int) -> tuple:
    """(group A, group B) no-bid probabilities by leader at bid index q, in
    40-digit Decimal; None for a group whose probability is a constant.

    Fee-aware players (bidfee's group A) give (no-bid, kappa) pairs instead:
    their log no-bid probability is the sum log(w)/(n-1) + log(r)/e_A of two
    terms of opposite sign once A pays more, and kappa, the sum of the terms'
    sizes over the size of the sum, is how much that sum magnifies the
    terms' roundings; where the terms do not cancel it is 1."""
    n, fee = spec.population, D(spec.fee_cents) / 100

    def pot(value: Decimal) -> Decimal:
        paid = D(spec.increment_cents) * (q - 1) if spec.is_ascending else D(spec.price_cents)
        return value - paid / 100

    value = D(spec.value_cents) / 100
    plain = no_bid_world(pot(value), fee, n)
    w = fee / pot(value)
    if case == "mixed":
        return no_bid_world(pot(value), fee, n - 10), no_bid_world(pot(value), fee, n + 10)
    if case == "valuation":
        return no_bid_world(pot(D("1.5") * value), fee, n), plain
    if case == "collusion many_bidders":
        return (w ** (D(1) / n), D(1), w ** (D(1) / (n - 1))), plain
    if case == "collusion single_bidder":
        return (w ** (D(5) / n), D(1), w ** (D(5) / (n - 1))), plain
    if case.startswith("bidfee"):
        ratio = D(bidfee_fee_a(spec, case)) / fee
        b_leads, a_leads = (min(ratio ** (D(1) / e_a) * w ** (D(1) / (n - 1)), D(1))
                            for e_a in (5, 4))
        kappa_b, kappa_a = ((abs(w.ln()) / (n - 1) + abs(ratio.ln()) / e_a)
                            / abs(w.ln() / (n - 1) + ratio.ln() / e_a) for e_a in (5, 4))
        return ((b_leads ** (D(n - 1) / n), kappa_b), (a_leads, kappa_a),
                (b_leads, kappa_b)), plain
    if case == "shill":
        return None, no_bid_world(pot(value), fee, n + 2)
    return None, plain  # the committed player's regulars


def bidfee_fee_a(spec, case: str) -> float:
    """Group A's fee: half of B's, or above B's but below the pot."""
    if case == "bidfee lower":
        return spec.fee / 2
    return min(1.5 * spec.fee, (spec.fee + spec.value - spec.price) / 2)


def accuracy_chain(spec, case: str):
    if case == "mixed":
        return mixed_estimates_chain(spec, 10)
    if case == "valuation":
        return valuation_asymmetry_chain(spec, 10, 1.5)
    if case.startswith("collusion"):
        return collusion_chain(spec, 5, case.split()[1])
    if case.startswith("bidfee"):
        return bidfee_asymmetry_chain(spec, 5, bidfee_fee_a(spec, case))
    if case == "shill":
        return shill_chain(spec, ShillPolicy(1.0, 5, 2)).active
    return committed_chains(spec)[0]


FIXED_ONLY = ["valuation", "collusion many_bidders", "collusion single_bidder",
              "bidfee lower", "bidfee higher"]
ACCURACY_SPECS = {"FIX": FIX, "ASC": ASC,
                  "w=1e-8": AuctionSpec.fixed_price(1e6, 0.01, 0, 50),
                  "w=0.99": AuctionSpec.fixed_price(100, 99, 0, 50)}


@pytest.mark.parametrize("name, case", [
    (name, case) for name, spec in ACCURACY_SPECS.items()
    for case in ["mixed", "shill", "committed", *([] if spec.is_ascending else FIXED_ONLY)]])
def test_bid_probabilities_match_the_paper_within_four_ulps(name, case):
    spec = ACCURACY_SPECS[name]
    chain = accuracy_chain(spec, case)
    Q = int(max_bids(spec)) if spec.is_ascending else 1
    for q in sorted({1, 2, Q // 2, Q, Q + 1, Q + 2} - {0}):
        with localcontext() as ctx:
            ctx.prec = 40
            groups = paper_no_bids(spec, case, q)
        for beta, no_bids in zip((chain.beta_a, chain.beta_b), groups):
            if no_bids is None:
                continue
            for leader, no_bid in zip((None, "A", "B"), no_bids):
                no_bid, kappa = no_bid if isinstance(no_bid, tuple) else (no_bid, 1)
                want = float(1 - no_bid)
                got = beta(q, leader)
                assert abs(got - want) <= 4 * float(kappa) * math.ulp(want), (q, leader, got, want)


# ---------------------------------------------------------------------------
# chicken payoffs


def test_chicken_table_cells():
    cp = chicken_payoffs(value=100, alpha=1.5, gamma=0.25, spent=30)
    assert cp.quit_quit == pytest.approx((-30, -30))
    assert cp.quit_play == pytest.approx((-30, 25.0))
    assert cp.play_quit == pytest.approx((25.0, -30))
    assert cp.play_play == pytest.approx((-150.0, -150.0))
    arr = cp.as_array()
    assert arr.shape == (2, 2, 2)
    assert arr[0, 1, 1] == pytest.approx(25.0)


def test_chicken_symmetry():
    cp = chicken_payoffs(value=80, alpha=1.2, gamma=0.4, spent=12.5)
    assert cp.quit_play[0] == cp.play_quit[1]
    assert cp.quit_play[1] == cp.play_quit[0]
    assert cp.play_play[0] == cp.play_play[1] == -1.2 * 80


# ---------------------------------------------------------------------------
# full information equilibrium


def test_full_info_identical_players_match_symmetric():
    for n in (3, 5, 12):
        spec = AuctionSpec.fixed_price(100, 1, 0, n)
        out = full_info_equilibrium([100.0] * n, [1.0] * n)
        assert out.interior
        expected = symmetric_beta(spec, 2)
        assert np.allclose(out.betas, expected, atol=1e-12)
        assert np.max(np.abs(out.residuals)) <= 1e-12


def test_full_info_boundary_example():
    out = full_info_equilibrium([2, 2, 4], [1, 1, 1])
    assert out.betas == pytest.approx([0.5, 0.5, 0.0], abs=1e-12)
    assert out.interior
    assert np.max(np.abs(out.residuals)) <= 1e-12


def test_full_info_dominant_player_flags_non_interior():
    out = full_info_equilibrium([100, 2, 2], [1, 1, 1])
    assert not out.interior
    assert out.notes
    # the raw solution is reported anyway, with the impossible beta visible
    assert (out.betas < 0).any() or (out.betas > 1).any()


def test_full_info_requires_three_players():
    with pytest.raises(ValueError):
        full_info_equilibrium([10, 10], [1, 1])


def test_full_info_rejects_fee_at_or_above_pot():
    with pytest.raises(ValueError):
        full_info_equilibrium([10, 10, 1], [1, 1, 1])


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_full_info_constructed_interior_instances(data):
    # build instances that are interior by construction: pick the slack
    # eta_i < 0 freely, then back out log fee ratios zeta_i = sum(eta) - eta_i
    n = data.draw(st.integers(min_value=3, max_value=8))
    etas = [data.draw(st.floats(min_value=-3.0, max_value=-0.05), label=f"eta{i}")
            for i in range(n)]
    zetas = [sum(etas) - e for e in etas]
    values = [data.draw(st.floats(min_value=5.0, max_value=500.0), label=f"v{i}")
              for i in range(n)]
    fees = [v * math.exp(z) for v, z in zip(values, zetas)]
    out = full_info_equilibrium(values, fees)
    assert out.interior
    assert np.all(out.betas > 0) and np.all(out.betas < 1)
    assert np.max(np.abs(out.residuals)) <= 1e-12
