"""Monte Carlo cross-checks: the simulator must reproduce every analytic
number within sampling error, and identically under a fixed seed."""

import math

import numpy as np
import pytest

from paybid.core_model import AuctionSpec
from paybid.markov_engine import absorption_closed_form, evolve_recurrence
from paybid.asymmetry_models import (ShillPolicy, committed_player_profit, CommittedPolicy,
                                     underestimate_chain, valuation_asymmetry_chain)
from paybid.asymmetry_models import _committed_model, _expected, _shill_model
from paybid.simulator import (
    PlayerPolicy,
    estimate,
    simulate_chain,
    simulate_committed,
    simulate_one,
    simulate_shill,
    symmetric_policies,
)
from paybid.simulator import _simulate_model
from paybid import simulator

SMALL = AuctionSpec.ascending(10, 1, 1, 5)
FIX = AuctionSpec.fixed_price(100, 1, 0, 50)
ASC = AuctionSpec.ascending(100, 1, 0.25, 50)
TINY = AuctionSpec.ascending(10, 1, 1, 3)


def test_single_trial_accounting():
    trial = simulate_one(SMALL, symmetric_policies(SMALL), 123, record_trajectory=True)
    assert trial.winner is not None
    # ascending revenue is (fee + increment) per bid
    assert trial.revenue == pytest.approx(2.0 * trial.total_bids, abs=1e-12)
    # spend tracks fees only, one per bid
    assert trial.per_player_spend.sum() == pytest.approx(float(trial.total_bids), abs=1e-12)
    assert len(trial.trajectory) == trial.total_bids
    assert trial.trajectory[-1] == trial.winner


def test_single_trial_is_reproducible():
    one = simulate_one(SMALL, symmetric_policies(SMALL), 9)
    two = simulate_one(SMALL, symmetric_policies(SMALL), 9)
    assert one.winner == two.winner
    assert one.total_bids == two.total_bids
    assert np.array_equal(one.per_player_spend, two.per_player_spend)


@pytest.mark.parametrize("spec", [SMALL, FIX], ids=["ascending", "fixed"])
def test_symmetric_players_share_one_beta_per_round(monkeypatch, spec):
    # each round asks every contender for its bid probability; the players
    # share the round's beta, so a trial costs one symmetric_beta call per
    # round, bids placed plus the silent last one, with the same draws
    def unshared(q, first, spend):
        return simulator.symmetric_beta(spec, q, first)

    players = [PlayerPolicy(unshared, spec.fee) for _ in range(spec.population)]
    want = [simulate_one(spec, players, seed, record_trajectory=True) for seed in range(5)]
    calls = []
    beta = simulator.symmetric_beta

    def spy(*args, **kwargs):
        calls.append(args)
        return beta(*args, **kwargs)

    monkeypatch.setattr(simulator, "symmetric_beta", spy)
    for seed, expected in enumerate(want):
        calls.clear()
        got = simulate_one(spec, symmetric_policies(spec), seed, record_trajectory=True)
        assert len(calls) == got.total_bids + 1
        assert (got.winner, got.total_bids, got.revenue, got.trajectory) == (
            expected.winner, expected.total_bids, expected.revenue, expected.trajectory)
        np.testing.assert_array_equal(got.per_player_spend, expected.per_player_spend)


def test_no_bidders_no_winner():
    silent = [PlayerPolicy(bid_probability=lambda q, first, spend: 0.0, fee=1.0)
              for _ in range(SMALL.population)]
    trial = simulate_one(SMALL, silent, 4)
    assert trial.winner is None
    assert trial.total_bids == 0
    assert trial.revenue == 0.0


def test_estimate_matches_closed_form_within_three_se():
    est = estimate(SMALL, symmetric_policies(SMALL), trials=20_000, seed=11)
    assert abs(est.mean_revenue - 10.0) <= 3 * est.se_revenue
    # opening probability of the small spec is 1 - b/v = 0.9
    se_succ = math.sqrt(0.9 * 0.1 / est.trials)
    assert abs(est.success_rate - 0.9) <= 3 * se_succ
    # conditional expected length is v / (b + s) = 5
    assert est.mean_bids == pytest.approx(5.0, abs=0.15)


def test_estimate_is_deterministic():
    one = estimate(SMALL, symmetric_policies(SMALL), trials=2_000, seed=42)
    two = estimate(SMALL, symmetric_policies(SMALL), trials=2_000, seed=42)
    assert one.mean_revenue == two.mean_revenue
    assert one.successes == two.successes
    assert one.win_probs == two.win_probs


def test_estimate_matches_the_valuation_chain():
    """The player-level oracle against the two-group reduction of an
    asymmetric game: simulate_chain draws the chain's own rows, so only this
    check and the row enumeration tests stand outside the chain. Valuation
    betas depend on the bid index and whether it is the opening bid alone,
    which a PlayerPolicy can express. Bid-fee betas also depend on which
    group leads, which a PlayerPolicy cannot see, so the bidfee chain has no
    oracle test."""
    spec = AuctionSpec.fixed_price(10, 1, 0, 4)
    chain = valuation_asymmetry_chain(spec, 2, 2.0)
    exact = absorption_closed_form(chain)

    def policy(beta, group):
        # any leader stands for "not the opening bid": these betas ignore it
        return PlayerPolicy(bid_probability=lambda q, first, spend: beta(q, None if first else "B"),
                            fee=spec.fee, group=group)

    policies = [policy(chain.beta_a, "A")] * 2 + [policy(chain.beta_b, "B")] * 2
    est = estimate(spec, policies, trials=12_000, seed=23)
    assert abs(est.mean_revenue - exact.expected_revenue) <= 3 * est.se_revenue
    p_a = float(exact.win_probs[0])
    assert abs(est.win_probs["A"] - p_a) <= 3 * math.sqrt(p_a * (1 - p_a) / est.successes)
    opened = 1.0 - chain.opening_row().absorb
    assert abs(est.success_rate - opened) <= 3 * math.sqrt(opened * (1 - opened) / est.trials)


def test_chain_simulation_matches_recurrence():
    chain = underestimate_chain(FIX, 1)
    mc = simulate_chain(chain, 100_000, seed=5)
    assert abs(mc.mean_revenue - 110.06941712522092) <= 3 * mc.se_revenue
    series = evolve_recurrence(chain)
    assert abs(mc.mean_bids - series.expected_bids) <= 3 * mc.se_bids
    assert abs(mc.win_prob_a - series.win_prob_a) <= 3 * mc.se_win_a


def test_chain_simulation_keep_arrays():
    chain = underestimate_chain(FIX, 0)
    mc = simulate_chain(chain, 5_000, seed=8, keep_arrays=True)
    assert mc.total_bids.shape == (5_000,)
    assert mc.success.sum() == mc.successes
    # failed trials have no bids and no winner
    assert (mc.total_bids[~mc.success] == 0).all()
    assert ((mc.bids_a + mc.bids_b) == mc.total_bids).all()
    assert mc.success_rate == pytest.approx(0.99, abs=3 * math.sqrt(0.99 * 0.01 / 5_000))


@pytest.mark.parametrize("spec, sums, first", [
    (FIX, (333925, 166569, 989, 1983),
     [87, 96, 367, 228, 146, 96, 260, 321, 28, 72, 297, 46, 200, 186, 132, 233, 3, 102, 67, 142]),
    (ASC, (227949, 113784, 1025, 1983),
     [101, 137, 16, 92, 31, 102, 255, 294, 109, 252, 52, 99, 242, 52, 43, 98, 3, 306, 109, 339]),
], ids=["fixed", "ascending"])
def test_chain_simulation_sample_path_is_pinned(spec, sums, first):
    # frozen from a run at a fixed seed: a reordered or extra draw moves them
    mc = simulate_chain(underestimate_chain(spec, 5), 2_000, seed=31, keep_arrays=True)
    assert (int(mc.total_bids.sum()), int(mc.bids_a.sum()), int(mc.winner_is_a.sum()),
            int(mc.success.sum())) == sums
    assert mc.total_bids[:20].tolist() == first


def test_chain_simulation_is_deterministic():
    chain = underestimate_chain(FIX, 0)
    one = simulate_chain(chain, 3_000, seed=21, keep_arrays=True)
    two = simulate_chain(chain, 3_000, seed=21, keep_arrays=True)
    assert np.array_equal(one.total_bids, two.total_bids)
    assert np.array_equal(one.winner_is_a, two.winner_is_a)


def test_shill_simulation_matches_recurrence():
    from paybid.asymmetry_models import shill_profit

    mc = simulate_shill(ASC, ShillPolicy(1.0, 5), 150_000, seed=3)
    exact = shill_profit(ASC, ShillPolicy(1.0, 5))
    assert abs(mc.mean_profit - exact.expected_profit) <= 3 * mc.se_profit
    se_win = math.sqrt(exact.win_prob_shill * (1 - exact.win_prob_shill) / 150_000)
    assert abs(mc.win_prob_shill - exact.win_prob_shill) <= 3 * se_win


def test_shill_two_identity_simulation_matches_recurrence():
    # the shill tops its own bids here, so only a spent budget ends the auction
    from paybid.asymmetry_models import shill_profit

    mc = simulate_shill(ASC, ShillPolicy(1.0, 10, identities=2), 60_000, seed=8)
    exact = shill_profit(ASC, ShillPolicy(1.0, 10, identities=2))
    assert abs(mc.mean_profit - exact.expected_profit) <= 3 * mc.se_profit
    se_win = math.sqrt(exact.win_prob_shill * (1 - exact.win_prob_shill) / 60_000)
    assert abs(mc.win_prob_shill - exact.win_prob_shill) <= 3 * se_win


def test_shill_entry_coin():
    mc = simulate_shill(ASC, ShillPolicy(0.4, 5), 20_000, seed=6)
    stayed_out = ~mc.entered
    assert (mc.profits[stayed_out] == 0.0).all()
    se = math.sqrt(0.4 * 0.6 / 20_000)
    assert abs(mc.entered.mean() - 0.4) <= 3 * se


def test_shill_zero_budget_short_circuits():
    mc = simulate_shill(ASC, ShillPolicy(1.0, 0), 500, seed=1)
    assert (mc.profits == 0.0).all()
    assert not mc.shill_won.any()


def test_committed_simulation_matches_dynamic_program():
    dp = committed_player_profit(TINY, CommittedPolicy(1.5))
    mc = simulate_committed(TINY, 1.5, 200_000, seed=17)
    se_p = mc.player_profits.std(ddof=1) / math.sqrt(len(mc.player_profits))
    se_a = mc.auctioneer_profits.std(ddof=1) / math.sqrt(len(mc.auctioneer_profits))
    assert abs(mc.player_profits.mean() - dp.player_profit) <= 3 * se_p
    assert abs(mc.auctioneer_profits.mean() - dp.auctioneer_profit) <= 3 * se_a
    se_w = math.sqrt(dp.committed_win_prob * (1 - dp.committed_win_prob) / 200_000)
    assert abs(mc.committed_won.mean() - dp.committed_win_prob) <= 3 * se_w


def test_fixed_price_committed_simulation_matches_dynamic_program():
    spec = AuctionSpec.fixed_price(10, 1, 0, 4)
    dp = committed_player_profit(spec, CommittedPolicy(1.5))
    mc = simulate_committed(spec, 1.5, 50_000, seed=41)
    assert abs(mc.mean_player_profit - dp.player_profit) <= 3 * mc.se_player_profit
    assert abs(mc.mean_auctioneer_profit - dp.auctioneer_profit) <= 3 * mc.se_auctioneer_profit
    se_w = math.sqrt(dp.committed_win_prob * (1 - dp.committed_win_prob) / 50_000)
    assert abs(mc.committed_win_prob - dp.committed_win_prob) <= 3 * se_w


def test_committed_simulation_keeps_the_stop_rule_at_the_opening_bid():
    # one fee plus the fixed price already reach retail, so the committed
    # player never bids and every outcome is the dynamic program's zero
    spec = AuctionSpec.fixed_price(100, 1, 99.5, 5)
    dp = committed_player_profit(spec, CommittedPolicy(1.001))
    assert (dp.player_profit, dp.auctioneer_profit, dp.committed_win_prob) == (0.0, 0.0, 0.0)
    mc = simulate_committed(spec, 1.001, 1_000, seed=1)
    assert (mc.player_profits == 0.0).all()
    assert (mc.auctioneer_profits == 0.0).all()
    assert not mc.committed_won.any()
    assert (mc.total_bids == 0).all()


def test_committed_loss_never_exceeds_backstop_gap():
    # fee credit pins every losing path at retail - v exactly
    mc = simulate_committed(TINY, 1.5, 50_000, seed=30)
    assert mc.max_player_loss <= 5.0 + 1e-12
    lost = mc.player_profits[~mc.committed_won]
    assert np.allclose(lost, -5.0, atol=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_committed_simulation_is_zero_where_the_backstop_does_not_beat_the_item(alpha):
    # the dynamic program reports zero at 0 < alpha <= 1, and so does the simulator
    dp = committed_player_profit(TINY, CommittedPolicy(alpha))
    assert (dp.player_profit, dp.auctioneer_profit, dp.committed_win_prob) == (0.0, 0.0, 0.0)
    mc = simulate_committed(TINY, alpha, 100, seed=1)
    assert (mc.player_profits == 0.0).all()
    assert (mc.auctioneer_profits == 0.0).all()
    assert not mc.committed_won.any()
    assert (mc.total_bids == 0).all()


@pytest.mark.parametrize("alpha", [0.0, -1.0])
def test_committed_simulation_rejects_a_nonpositive_multiplier(alpha):
    with pytest.raises(ValueError, match="retail multiplier must be positive"):
        simulate_committed(TINY, alpha, 10, seed=1)


def test_max_player_loss_is_positive_zero_when_no_trial_loses():
    mc = simulate_committed(AuctionSpec.fixed_price(100, 1, 99.5, 5), 1.001, 100, seed=1)
    assert math.copysign(1.0, mc.max_player_loss) == 1.0


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_committed_simulation_rejects_a_non_finite_multiplier(alpha):
    # a small round cap keeps an unchecked infinite backstop from running long
    with pytest.raises(ValueError, match="finite"):
        simulate_committed(TINY, alpha, 10, seed=1, max_rounds=100)


def test_committed_simulation_is_deterministic():
    one = simulate_committed(TINY, 1.25, 5_000, seed=2)
    two = simulate_committed(TINY, 1.25, 5_000, seed=2)
    assert np.array_equal(one.player_profits, two.player_profits)
    assert np.array_equal(one.committed_won, two.committed_won)


def test_trial_counts_validated():
    with pytest.raises(ValueError):
        estimate(SMALL, symmetric_policies(SMALL), trials=0)
    with pytest.raises(ValueError):
        simulate_chain(underestimate_chain(FIX, 0), 0)
    with pytest.raises(ValueError):
        simulate_shill(ASC, ShillPolicy(1.0, 5), 0)


@pytest.mark.parametrize("spec", [FIX, ASC], ids=["FIX", "ASC"])
@pytest.mark.parametrize("build", [
    lambda spec: _shill_model(spec, ShillPolicy(1.0, 10)),
    lambda spec: _shill_model(spec, ShillPolicy(1.0, 10, identities=2)),
    lambda spec: _committed_model(spec, 1.5),
], ids=["shill", "shill-identities2", "committed"])
def test_counted_simulation_matches_the_exact_expectation(spec, build):
    # one model feeds both sides, so every payoff of the simulated trials
    # must average to the exact solve's expectation of it; rel covers a
    # payoff that never varies (a two-identity shill spends its whole budget)
    model = build(spec)
    trials = 20_000
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(22)))
    sims = _simulate_model(model, trials, rng, 1_000_000)
    exact, _ = _expected(model)
    for sim, want in zip(sims, exact, strict=True):
        assert sim.mean() == pytest.approx(want, rel=1e-12,
                                           abs=3 * sim.std(ddof=1) / math.sqrt(trials))
