"""Two-group absorbing chain: transition rows, closed form, recurrence."""

import logging
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from paybid.core_model import AuctionSpec, symmetric_beta
from paybid.markov_engine import (
    _ROW_BLOCK,
    NonAbsorbingChainError,
    RowTable,
    TwoGroupChain,
    absorption_closed_form,
    build_transitions,
    evolve_recurrence,
    expected_revenue_from_series,
    first_bid_distribution,
)
from paybid.asymmetry_models import mixed_estimates_chain, underestimate_chain


def test_uniform_row_by_exhaustive_enumeration():
    # k_a = k_b = 2, beta = 1/2 everywhere, A leads. One A player and two B
    # players flip coins; enumerating the 8 equally likely subsets gives
    # P(next leader in A) = 7/24, in B = 7/12, auction ends = 1/8.
    row = build_transitions(2, 2, 0.5, 0.5, tie_rule="uniform", q=2, leader="A")
    assert row.to_a == pytest.approx(7 / 24, abs=1e-15)
    assert row.to_b == pytest.approx(7 / 12, abs=1e-15)
    assert row.absorb == pytest.approx(1 / 8, abs=1e-15)


def test_unknown_tie_rule_error_names_the_rules():
    beta = lambda q, leader: 0.5  # noqa: E731
    for make in (lambda: build_transitions(2, 2, 0.5, 0.5, tie_rule="nope"),
                 lambda: TwoGroupChain(2, 2, beta, beta, 1.0, 1.0, tie_rule="nope")):
        with pytest.raises(ValueError, match=r"expected one of \('uniform', 'single_ticket'\)"):
            make()


def test_single_ticket_row_by_hand():
    # single_ticket collapses group A to one ticket with bid probability
    # beta_a no matter how large the group is. Against one B player, both at
    # 1/2: to_a = to_b = 3/8, absorb = 1/4.
    for k_a in (1, 3, 7):
        row = build_transitions(k_a, 1, 0.5, 0.5, tie_rule="single_ticket",
                                q=2, leader="A")
        assert row.to_a == pytest.approx(3 / 8, abs=1e-15)
        assert row.to_b == pytest.approx(3 / 8, abs=1e-15)
        assert row.absorb == pytest.approx(1 / 4, abs=1e-15)


def test_opening_row_with_certain_bidder():
    # A bids surely, two B players at 1/2; E[1/(1+j)] with j ~ Bin(2, 1/2)
    row = build_transitions(1, 2, 1.0, 0.5, tie_rule="uniform", q=1, leader=None)
    assert row.to_a == pytest.approx(7 / 12, abs=1e-14)
    assert row.to_b == pytest.approx(5 / 12, abs=1e-14)
    assert row.absorb == pytest.approx(0.0, abs=1e-15)


def test_leader_loses_eligibility():
    # with leader="B" one B player sits out; absorb = P(nobody bids)
    row = build_transitions(1, 3, 0.25, 0.5, tie_rule="uniform", q=2, leader="B")
    assert row.absorb == pytest.approx(0.75 * 0.5 ** 2, abs=1e-15)
    row_none = build_transitions(1, 3, 0.25, 0.5, tie_rule="uniform", q=2, leader=None)
    assert row_none.absorb == pytest.approx(0.75 * 0.5 ** 3, abs=1e-15)


def test_zero_eligible_group_with_certain_beta_still_absorbs():
    # a leading group of one has nobody eligible even at beta = 1; the other
    # group alone decides whether the auction continues
    row = build_transitions(1, 2, 1.0, 0.25, tie_rule="uniform", q=2, leader="A")
    assert row.to_a == pytest.approx(0.0, abs=1e-15)
    assert row.absorb == pytest.approx(0.75 ** 2, abs=1e-15)


@given(k_a=st.integers(min_value=1, max_value=40),
       k_b=st.integers(min_value=1, max_value=40),
       beta_a=st.floats(min_value=0.0, max_value=1.0),
       beta_b=st.floats(min_value=0.0, max_value=1.0),
       tie_rule=st.sampled_from(["uniform", "single_ticket"]),
       leader=st.sampled_from(["A", "B", None]))
# a subnormal beta once overflowed the binomial pmf grid
@example(k_a=1, k_b=2, beta_a=0.0, beta_b=1.1125369292536007e-308,
         tie_rule="uniform", leader="A")
def test_rows_are_stochastic(k_a, k_b, beta_a, beta_b, tie_rule, leader):
    row = build_transitions(k_a, k_b, beta_a, beta_b, tie_rule=tie_rule,
                            q=1 if leader is None else 2, leader=leader)
    assert row.to_a >= -1e-15 and row.to_b >= -1e-15 and row.absorb >= -1e-15
    assert row.to_a + row.to_b + row.absorb == pytest.approx(1.0, abs=1e-12)


SUBNORMAL = 1.1125369292536007e-308
# boundary and subnormal probabilities mixed into arbitrary ones
probabilities = st.one_of(st.sampled_from([0.0, 1.0, SUBNORMAL]),
                          st.floats(min_value=0.0, max_value=1.0))


def assert_table_matches_rows(chain, leader, q_start, table):
    assert isinstance(table, RowTable)
    for r, got in enumerate(zip(table.to_a, table.to_b, table.absorb)):
        want = build_transitions(chain.group_a_size, chain.group_b_size, chain.beta_a,
                                 chain.beta_b, tie_rule=chain.tie_rule, q=q_start + r,
                                 leader=leader)
        assert got == pytest.approx(tuple(want), abs=1e-15, rel=0), q_start + r


@settings(deadline=None)
@given(data=st.data(),
       k_a=st.integers(min_value=0, max_value=40),
       k_b=st.integers(min_value=0, max_value=40),
       tie_rule=st.sampled_from(["uniform", "single_ticket"]),
       q_start=st.integers(min_value=1, max_value=500))
def test_row_table_matches_build_transitions(data, k_a, k_b, tie_rule, q_start):
    if k_a + k_b == 0:
        k_b = 1
    leaders = [None] + (["A"] if k_a else []) + (["B"] if k_b else [])
    leader = data.draw(st.sampled_from(leaders))
    rows = data.draw(st.integers(min_value=1, max_value=12))
    betas_a = data.draw(st.lists(probabilities, min_size=rows, max_size=rows))
    betas_b = data.draw(st.lists(probabilities, min_size=rows, max_size=rows))
    chain = TwoGroupChain(
        group_a_size=k_a, group_b_size=k_b,
        beta_a=lambda q, lead: np.asarray(betas_a)[q - q_start],
        beta_b=lambda q, lead: np.asarray(betas_b)[q - q_start],
        fee_a=1.0, fee_b=1.0, tie_rule=tie_rule)
    table = chain.row_table(leader, q_start, q_start + rows)
    assert_table_matches_rows(chain, leader, q_start, table)


def test_row_table_edge_cases():
    # the stored subnormal beta next to certain and impossible bids, an empty
    # group, and the single_ticket rule
    betas = [0.0, 1.0, SUBNORMAL, 0.5]
    cases = [(1, 2, "uniform", "A"), (0, 3, "uniform", "B"), (0, 3, "uniform", None),
             (3, 0, "uniform", "A"), (4, 2, "single_ticket", "A"),
             (4, 2, "single_ticket", "B"), (0, 2, "single_ticket", "B")]
    for k_a, k_b, tie_rule, leader in cases:
        chain = TwoGroupChain(
            group_a_size=k_a, group_b_size=k_b,
            beta_a=lambda q, lead: np.asarray(betas)[q - 2],
            beta_b=lambda q, lead: np.asarray(betas[::-1])[q - 2],
            fee_a=1.0, fee_b=1.0, tie_rule=tie_rule)
        table = chain.row_table(leader, 2, 2 + len(betas))
        assert_table_matches_rows(chain, leader, 2, table)
        assert np.all(np.isfinite(table.to_a + table.to_b + table.absorb))
        assert table.to_a + table.to_b + table.absorb == pytest.approx(1.0, abs=1e-12)


def test_row_table_of_ascending_chain_past_the_last_rational_bid():
    # Q = 396: from bid index Q+1 on nobody bids (beta = 0) and every row absorbs
    asc = AuctionSpec.ascending(100, 1, 0.25, 50)
    chain = underestimate_chain(asc, 5)
    for leader in ("A", "B"):
        table = chain.row_table(leader, 380, 420)
        assert_table_matches_rows(chain, leader, 380, table)
        past = slice(397 - 380, None)
        assert chain.beta_a(397, leader) == chain.beta_b(400, leader) == 0.0
        assert np.all(table.absorb[past] == 1.0)
        assert np.all(table.to_a[past] == 0.0) and np.all(table.to_b[past] == 0.0)
        assert np.all(table.absorb[:past.start] < 1.0)


def test_row_table_rejects_a_bad_probability():
    chain = TwoGroupChain(group_a_size=2, group_b_size=2,
                          beta_a=lambda q, lead: np.where(q < 5, 0.5, 1.5),
                          beta_b=lambda q, lead: 0.5, fee_a=1.0, fee_b=1.0)
    chain.row_table("A", 2, 5)
    with pytest.raises(ValueError):
        chain.row_table("A", 2, 6)


def test_recurrence_step_counts_are_unchanged():
    # the step counts of the per-step row evaluation the row table replaced
    fix = AuctionSpec.fixed_price(100, 1, 0, 50)
    asc = AuctionSpec.ascending(100, 1, 0.25, 50)
    assert len(evolve_recurrence(underestimate_chain(fix, 0)).steps) == 2750
    assert len(evolve_recurrence(underestimate_chain(asc, 5)).steps) == 396


def test_recurrence_without_horizon_reads_the_table_in_blocks():
    # a chain that is not time homogeneous and has no horizon: the rows come
    # block by block, and the series must not depend on where blocks split
    def beta(q, leader):
        return 0.09 + 0.01 * np.sin(q / 7.0)

    chain = TwoGroupChain(group_a_size=20, group_b_size=30, beta_a=beta, beta_b=beta,
                          fee_a=1.0, fee_b=1.0)
    series = evolve_recurrence(chain)
    assert len(series.steps) > 1024
    p_a, p_b = first_bid_distribution(chain)
    for t in range(1, 1500):
        row_a, row_b = chain.transitions(t + 1, "A"), chain.transitions(t + 1, "B")
        if t in (1, 1023, 1024, 1025, 1499):
            assert series.p_a[t - 1] == pytest.approx(p_a, rel=1e-12, abs=1e-300)
            assert series.p_b[t - 1] == pytest.approx(p_b, rel=1e-12, abs=1e-300)
        p_a, p_b = p_a * row_a.to_a + p_b * row_b.to_a, p_a * row_a.to_b + p_b * row_b.to_b


def stepped_recurrence(chain, horizon=None, max_steps=10_000_000, residual_tol=1e-12):
    """The recurrence one step at a time over plain floats, the reference for
    evolve_recurrence's block steps: ([p_a, p_b, end_a, end_b] by step,
    residual, largest conservation error, whether max_steps stopped it)."""
    limit = min(horizon or max_steps, max_steps)
    rows = [np.array(chain.row_table(leader, 2, 2 + limit)).T.tolist() for leader in "AB"]
    p_a, p_b = (float(x) for x in first_bid_distribution(chain))
    history, ended, worst = [], 0.0, 0.0
    for t, ((aa, ab, a_end), (ba, bb, b_end)) in enumerate(zip(*rows), start=1):
        history.append((p_a, p_b, p_a * a_end, p_b * b_end))
        ended += p_a * a_end + p_b * b_end
        p_a, p_b = p_a * aa + p_b * ba, p_a * ab + p_b * bb
        worst = max(worst, abs(ended + p_a + p_b - 1.0))
        if p_a + p_b < residual_tol or t == horizon:
            return np.array(history).T, p_a + p_b, worst, False
        if t == max_steps:
            return np.array(history).T, p_a + p_b, worst, True
    raise AssertionError("the reference ran out of rows")


def constant_chain():
    beta = lambda q, leader: 0.09  # noqa: E731
    return TwoGroupChain(group_a_size=20, group_b_size=30, beta_a=beta, beta_b=beta,
                         fee_a=1.0, fee_b=1.0, time_homogeneous=True)


def varying_chain():
    # the groups' betas move out of phase, so that the kernels of different
    # bid indices do not commute and their order within a block matters
    return TwoGroupChain(group_a_size=20, group_b_size=30,
                         beta_a=lambda q, leader: 0.09 + 0.03 * np.sin(q / 7.0),
                         beta_b=lambda q, leader: 0.09 + 0.03 * np.cos(q / 5.0),
                         fee_a=1.0, fee_b=1.0)


@pytest.mark.parametrize("make", [constant_chain, varying_chain], ids=["homogeneous", "varying"])
@pytest.mark.parametrize("cap", ["horizon", "max_steps", "both"])
@pytest.mark.parametrize("steps", [_ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1])
def test_recurrence_blocks_match_the_step_by_step_loop(caplog, make, cap, steps):
    # both chains are still live after _ROW_BLOCK + 1 bids, so the cap stops them
    chain = make()
    kwargs = {"horizon": steps} if cap == "horizon" else {"max_steps": steps}
    if cap == "both":
        kwargs["horizon"] = steps  # the horizon stops it, not the cap
    want, residual, worst, capped = stepped_recurrence(chain, **kwargs)
    with caplog.at_level(logging.WARNING, logger="paybid.markov_engine"):
        series = evolve_recurrence(chain, **kwargs)
    assert len(series.steps) == steps
    assert np.array_equal(series.steps, np.arange(1, steps + 1))
    got = np.array([series.p_a, series.p_b, series.end_a, series.end_b])
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert series.residual == pytest.approx(residual, rel=1e-12)
    # both errors are rounding against a total mass of 1, in different orders
    assert series.max_conservation_error == pytest.approx(worst, abs=1e-13)
    assert capped == (cap == "max_steps")
    warned = [r for r in caplog.records if "max_steps" in r.getMessage()]
    assert len(warned) == capped
    assert bool(series.notes) == capped


def test_long_fixed_price_tail_keeps_its_step_count_and_closed_form():
    # mixed k = 36: 548,506 bids before the live mass drops below 1e-12
    chain = mixed_estimates_chain(AuctionSpec.fixed_price(100, 1, 0, 50), 36)
    series = evolve_recurrence(chain)
    summary = absorption_closed_form(chain)
    assert len(series.steps) == 548_506
    assert series.expected_bids == pytest.approx(summary.expected_bids, rel=1e-10)
    assert expected_revenue_from_series(series) == pytest.approx(summary.expected_revenue,
                                                                 rel=1e-10)


@pytest.mark.parametrize("k", [36, 44, 46, 48])
def test_mixed_rows_sum_to_one(k):
    # rows that missed 1 by 6.7e-16 at k = 44 leaked 7e-9 of mass over 10^7 steps
    chain = mixed_estimates_chain(AuctionSpec.fixed_price(100, 1, 0, 50), k)
    for leader in "AB":
        assert abs(math.fsum(chain.transitions(2, leader)) - 1.0) <= math.ulp(1.0), leader


def test_recurrence_at_the_step_cap_conserves_mass_and_says_so():
    # mixed k = 44 is still live after 10^7 bids, so the cap stops it
    chain = mixed_estimates_chain(AuctionSpec.fixed_price(100, 1, 0, 50), 44)
    series = evolve_recurrence(chain)
    assert len(series.steps) == 10_000_000
    assert series.max_conservation_error <= 1e-9
    assert series.residual > 0.99
    assert series.notes == (f"recurrence stopped at max_steps=10000000 with residual "
                            f"{series.residual:.3e}",)


def test_first_bid_distribution_conditioning():
    fix = AuctionSpec.fixed_price(100, 1, 0, 50)
    chain = underestimate_chain(fix, 0)
    cond = first_bid_distribution(chain)
    assert cond.sum() == pytest.approx(1.0, abs=1e-12)
    raw = first_bid_distribution(chain, conditioned=False)
    # 1% of symmetric default auctions never open
    assert raw.sum() == pytest.approx(0.99, abs=1e-12)
    assert cond == pytest.approx(raw / raw.sum(), abs=1e-15)


def test_closed_form_matches_recurrence_fixed_price():
    fix = AuctionSpec.fixed_price(100, 1, 0, 50)
    chain = underestimate_chain(fix, 0)
    cf = absorption_closed_form(chain)
    series = evolve_recurrence(chain)
    assert cf.expected_revenue == pytest.approx(
        expected_revenue_from_series(series), abs=1e-8)
    assert cf.expected_bids == pytest.approx(series.expected_bids, abs=1e-6)
    assert cf.win_probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert series.win_prob_a + series.win_prob_b == pytest.approx(1.0, abs=1e-10)


def test_symmetric_split_reproduces_value():
    fix = AuctionSpec.fixed_price(100, 1, 0, 50)
    chain = underestimate_chain(fix, 0)
    assert absorption_closed_form(chain).expected_revenue == pytest.approx(100.0, abs=1e-9)
    # equal groups of a symmetric population win in proportion to size
    cf = absorption_closed_form(chain)
    assert cf.win_probs[0] == pytest.approx(0.5, abs=1e-9)


def test_ascending_chain_conserves_mass():
    asc = AuctionSpec.ascending(100, 1, 0.25, 50)
    series = evolve_recurrence(underestimate_chain(asc, 0))
    assert series.residual <= 1e-12
    assert series.max_conservation_error <= 1e-10
    assert expected_revenue_from_series(series) == pytest.approx(100.0, abs=1e-9)
    assert series.expected_bids == pytest.approx(80.0, abs=1e-9)


def exact_uniform_row(elig_a, elig_b, beta_a, beta_b):
    """(to_a, to_b, absorb) as Fractions of a uniform draw among the heads of
    elig_a coins of probability beta_a and elig_b of beta_b: the float betas
    taken exactly, then every (A heads, B heads) outcome summed. The pmfs are
    integers over a common power of two and the shares i / (i + j) integers
    over lcm(1..elig_a + elig_b), so only the final Fractions reduce."""

    def pmf(m, beta):
        num, den = Fraction(beta).as_integer_ratio()
        return [math.comb(m, i) * num ** i * (den - num) ** (m - i) for i in range(m + 1)], den ** m

    (pa, den_a), (pb, den_b) = pmf(elig_a, beta_a), pmf(elig_b, beta_b)
    lcm = math.lcm(*range(1, elig_a + elig_b + 1))
    to_a = sum(pb[j] * sum(pa[i] * i * (lcm // (i + j)) for i in range(1, elig_a + 1))
               for j in range(elig_b + 1))
    to_b = sum(pa[i] * sum(pb[j] * j * (lcm // (i + j)) for j in range(1, elig_b + 1))
               for i in range(elig_a + 1))
    den = den_a * den_b
    return Fraction(to_a, lcm * den), Fraction(to_b, lcm * den), Fraction(pa[0] * pb[0], den)


def closed_form_absorb(elig_a, elig_b, beta_a, beta_b):
    """(1 - beta_a)^elig_a (1 - beta_b)^elig_b, each factor exp(elig log1p(-beta))
    and 1 for a group with no eligible coin."""
    factors = [np.exp(elig * np.log1p(-beta)) if elig and beta < 1.0 else float(elig == 0)
               for elig, beta in ((elig_a, beta_a), (elig_b, beta_b))]
    return factors[0] * factors[1]


LOTTERY_BETAS = [0.0, 1.0, 1e-300, SUBNORMAL, 5e-324, 1e-12, 1.0 - 1e-12, 0.02, 0.3, 0.77]


@pytest.mark.parametrize("tie_rule", ["uniform", "single_ticket"])
@pytest.mark.parametrize("k_a, k_b", [(49, 0), (45, 4), (25, 24), (10, 3), (1, 49), (0, 49)])
def test_row_table_matches_the_exact_lottery(k_a, k_b, tie_rule):
    # the opening row: nobody leads, so each group's eligible count is its
    # size, except that single_ticket gives group A one ticket
    pairs = np.array([(a, b) for a in LOTTERY_BETAS for b in LOTTERY_BETAS]).T
    chain = TwoGroupChain(k_a, k_b, beta_a=lambda q, leader: pairs[0][q],
                          beta_b=lambda q, leader: pairs[1][q], fee_a=1.0, fee_b=1.0,
                          tie_rule=tie_rule)
    table = chain.row_table(None, 0, pairs.shape[1])
    elig_a = 1 if tie_rule == "single_ticket" else k_a
    for r, (beta_a, beta_b) in enumerate(pairs.T):
        to_a, to_b, _ = exact_uniform_row(elig_a, k_b, beta_a, beta_b)
        for got, want in ((table.to_a[r], to_a), (table.to_b[r], to_b)):
            # a subnormal entry has fewer digits: allow two roundings on its grid
            error = float(abs(Fraction(got) - want))
            assert error <= 1e-14 * float(want) + 2 * math.ulp(0.0), (beta_a, beta_b, got)
        assert table.absorb[r] == closed_form_absorb(elig_a, k_b, beta_a, beta_b)


@pytest.mark.parametrize("k", [40, 44, 46, 47, 48])
def test_closed_form_keeps_its_digits_when_both_groups_rarely_stop(k):
    # Both absorb probabilities are tiny here (about 1e-25 at k = 47), so a
    # determinant formed as (1 - to_a)(1 - to_b) - ... loses every digit.
    # Reference: the 2x2 solve in rationals of rows rebuilt exactly from the
    # same float betas (a rational solve of the float rows would inherit
    # their rounding).
    chain = mixed_estimates_chain(AuctionSpec.fixed_price(100, 1, 0, 50), k)

    def exact_row(leader, q):
        return exact_uniform_row(chain.group_a_size - (leader == "A"),
                                 chain.group_b_size - (leader == "B"),
                                 chain.beta_a(q, leader), chain.beta_b(q, leader))

    (aa, ab, a_end), (ba, bb, b_end) = (exact_row(lead, 2) for lead in "AB")
    det = (1 - aa) * (1 - bb) - ab * ba
    open_a, open_b, _ = exact_row(None, 1)
    start_a, start_b = open_a / (open_a + open_b), open_b / (open_a + open_b)
    bids_a = (start_a * (1 - bb) + start_b * ba) / det
    bids_b = (start_a * ab + start_b * (1 - aa)) / det
    summary = absorption_closed_form(chain)
    # every bid costs 1 and the price is 0, so revenue is the bid count
    assert summary.expected_bids == pytest.approx(float(bids_a + bids_b), rel=1e-12)
    assert summary.expected_revenue == pytest.approx(float(bids_a + bids_b), rel=1e-12)
    assert summary.win_probs[0] == pytest.approx(float(bids_a * a_end), rel=1e-12)
    assert summary.win_probs[1] == pytest.approx(float(bids_b * b_end), rel=1e-12)


def test_closed_form_requires_time_homogeneity():
    asc = AuctionSpec.ascending(100, 1, 0.25, 50)
    with pytest.raises(ValueError):
        absorption_closed_form(underestimate_chain(asc, 0))


def test_everyone_always_bids_never_absorbs():
    chain = TwoGroupChain(
        group_a_size=2, group_b_size=2,
        beta_a=lambda q, leader: 1.0, beta_b=lambda q, leader: 1.0,
        fee_a=1.0, fee_b=1.0, price=0.0, tie_rule="uniform",
        time_homogeneous=True,
    )
    with pytest.raises(NonAbsorbingChainError):
        absorption_closed_form(chain)


def test_recurrence_accepts_scalar_or_callable_betas():
    fix = AuctionSpec.fixed_price(100, 1, 0, 50)
    beta = symmetric_beta(fix, 2)
    first = symmetric_beta(fix, 1)

    def from_q(q, leader):
        return np.where(q == 1, first, beta)

    a = TwoGroupChain(group_a_size=25, group_b_size=25, beta_a=from_q,
                      beta_b=from_q, fee_a=1.0, fee_b=1.0, price=0.0,
                      tie_rule="uniform", time_homogeneous=True)
    series = evolve_recurrence(a)
    assert expected_revenue_from_series(series) == pytest.approx(100.0, abs=1e-6)


def test_revenue_override_fees():
    fix = AuctionSpec.fixed_price(100, 1, 0, 50)
    series = evolve_recurrence(underestimate_chain(fix, 0))
    base = expected_revenue_from_series(series)
    doubled = expected_revenue_from_series(series, fee_a=2.0, fee_b=2.0)
    assert doubled == pytest.approx(2 * base, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=1, max_value=25),
       beta=st.floats(min_value=0.01, max_value=0.08))
def test_recurrence_occupancy_is_a_distribution(k, beta):
    # beta capped so the per-round stopping probability (1 - beta)^49 stays
    # above ~1.6%, keeping the recurrence horizon in the low thousands
    chain = TwoGroupChain(
        group_a_size=k, group_b_size=50 - k,
        beta_a=lambda q, leader: beta, beta_b=lambda q, leader: beta,
        fee_a=1.0, fee_b=1.0, price=0.0, tie_rule="uniform",
        time_homogeneous=True,
    )
    series = evolve_recurrence(chain)
    total = series.win_prob_a + series.win_prob_b
    assert total == pytest.approx(1.0, abs=1e-9)
    assert series.max_conservation_error <= 1e-10
