"""Exact player-level oracle for the two-group reduction.

For a handful of players the auction is solved player by player. The state
is the leading player. For each leader every coin outcome of the players who
may bid is enumerated, the bid goes to each head with weight 1/heads, and an
outcome with no head ends the auction; the fundamental matrix of the n x n
transient kernel then gives the bids and wins of every player. Each player's
bid probability is the chain's own beta_a or beta_b called with the leader's
group, so models whose betas depend on who leads (bidfee, collusion) are
covered too. The lottery is written out here: nothing reads the engine's
Gauss-Legendre nodes or lottery rows.
"""

import itertools

import numpy as np
import pytest

from paybid.core_model import AuctionSpec
from paybid.markov_engine import absorption_closed_form
from paybid.asymmetry_models import (
    ShillPolicy,
    _committed_model,
    bidfee_asymmetry_chain,
    collusion_chain,
    mixed_estimates_chain,
    shill_chain,
    valuation_asymmetry_chain,
)


def player_kernel(chain, q, leader):
    """(P(player j places bid q) for every j, P(nobody bids)) while player
    `leader` leads, or before the opening bid when it is None.

    Players 0 .. group_a_size - 1 form group A. Every player but the leader
    flips a coin, except that under single_ticket group A bids through one
    ticket, player 0's, whose probability is beta_a whoever leads.
    """
    groups = "A" * chain.group_a_size + "B" * chain.group_b_size
    led_by = None if leader is None else groups[leader]
    beta = {"A": chain.beta_a(q, led_by), "B": chain.beta_b(q, led_by)}
    if chain.tie_rule == "single_ticket":
        bidders = [j for j, g in enumerate(groups) if (j == 0 if g == "A" else j != leader)]
    else:
        bidders = [j for j in range(len(groups)) if j != leader]
    to = np.zeros(len(groups))
    nobody = 0.0
    for heads in itertools.product((False, True), repeat=len(bidders)):
        p = 1.0
        for j, head in zip(bidders, heads):
            p *= beta[groups[j]] if head else 1.0 - beta[groups[j]]
        picked = [j for j, head in zip(bidders, heads) if head]
        if not picked:
            nobody += p
        for j in picked:
            to[j] += p / len(picked)
    return to, nobody


def group_row(chain, q, leader_group):
    """(to_a, to_b, absorb) out of the state where a member of leader_group
    leads (None: the opening bid), summed over the players of each group."""
    leader = {None: None, "A": 0, "B": chain.group_a_size}[leader_group]
    to, nobody = player_kernel(chain, q, leader)
    return to[:chain.group_a_size].sum(), to[chain.group_a_size:].sum(), nobody


def player_level_solve(chain):
    """Bids by group, wins by group and expected revenue of a
    time-homogeneous chain, conditioned on an opening bid."""
    n, k = chain.population, chain.group_a_size
    kernel = [player_kernel(chain, 2, leader) for leader in range(n)]
    moves = np.array([to for to, _ in kernel])
    ends = np.array([nobody for _, nobody in kernel])
    opening, _ = player_kernel(chain, 1, None)
    start = opening / opening.sum()
    bids = np.linalg.solve((np.eye(n) - moves).T, start)  # start @ (I - T)^-1
    wins = bids * ends
    bids_by_group = np.array([bids[:k].sum(), bids[k:].sum()])
    revenue = (bids_by_group @ [chain.fee_a, chain.fee_b] + chain.price
               + chain.increment * bids.sum())
    return bids_by_group, np.array([wins[:k].sum(), wins[k:].sum()]), revenue


def fixed(n, price=0):
    return AuctionSpec.fixed_price(100, 1, price, n)


FIXED_PRICE_CHAINS = {
    "mixed n=4 k=2": lambda: mixed_estimates_chain(fixed(4), 2),
    "mixed n=10 k=3": lambda: mixed_estimates_chain(fixed(10), 3),
    "bidfee n=8 k=3 cheaper": lambda: bidfee_asymmetry_chain(fixed(8), 3, 0.5),
    "bidfee n=6 k=1": lambda: bidfee_asymmetry_chain(fixed(6), 1, 0.75),
    "bidfee n=7 k=4 dearer": lambda: bidfee_asymmetry_chain(fixed(7, 20), 4, 1.5),
    "valuation n=10 k=4": lambda: valuation_asymmetry_chain(fixed(10), 4, 1.5),
    "valuation n=5 k=1 p=30": lambda: valuation_asymmetry_chain(fixed(5, 30), 1, 3.0),
    "collusion many n=9 k=3": lambda: collusion_chain(fixed(9), 3, "many_bidders"),
    "collusion single n=10 k=4": lambda: collusion_chain(fixed(10), 4, "single_bidder"),
    "collusion single n=6 k=2 p=40": lambda: collusion_chain(fixed(6, 40), 2, "single_bidder"),
}


@pytest.mark.parametrize("name", sorted(FIXED_PRICE_CHAINS))
def test_closed_form_matches_the_player_level_chain(name):
    chain = FIXED_PRICE_CHAINS[name]()
    bids, wins, revenue = player_level_solve(chain)
    exact = absorption_closed_form(chain)
    assert exact.bids_by_group == pytest.approx(bids, rel=1e-12)
    assert exact.win_probs == pytest.approx(wins, rel=1e-12)
    assert exact.expected_revenue == pytest.approx(revenue, rel=1e-12)


def assert_rows_match(chain, last_q):
    """Opening row and, for every bid index up to last_q, each leader's row
    from transitions and from one row table, against the enumeration."""
    assert tuple(chain.opening_row()) == pytest.approx(group_row(chain, 1, None), rel=1e-12)
    for leader in ("A", "B"):
        table = chain.row_table(leader, 2, last_q + 1)
        for r, q in enumerate(range(2, last_q + 1)):
            expected = group_row(chain, q, leader)
            assert tuple(chain.transitions(q, leader)) == pytest.approx(expected, rel=1e-12), q
            got = (table.to_a[r], table.to_b[r], table.absorb[r])
            assert got == pytest.approx(expected, rel=1e-12), (leader, q)


SMALL_ASCENDING = AuctionSpec.ascending(10, 1, 1, 6)  # last rational bid: 10


@pytest.mark.parametrize("spec", [SMALL_ASCENDING, AuctionSpec.fixed_price(20, 1, 5, 7)],
                         ids=["ascending", "fixed"])
def test_committed_chains_match_the_player_level_rows(spec):
    # past the last rational bid the regulars fall silent: q = 12 covers it
    model = _committed_model(spec, 1.5)
    for chain in (model.bidding, model.silent):
        assert_rows_match(chain, 12)


@pytest.mark.parametrize("identities", [1, 2])
def test_shill_phases_match_the_player_level_rows(identities):
    # with two identities the shill's single ticket stays live while it leads
    phases = shill_chain(SMALL_ASCENDING, ShillPolicy(1.0, 3, identities))
    for chain in (phases.active, phases.spent):
        assert_rows_match(chain, 12)


def test_ascending_mixed_chain_matches_the_player_level_rows():
    chain = mixed_estimates_chain(SMALL_ASCENDING, 2)
    assert_rows_match(chain, chain.horizon)
