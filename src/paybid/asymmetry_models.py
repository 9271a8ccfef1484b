"""Closed forms and chain builders for auctions with asymmetric bidders.

Every model here perturbs the symmetric equilibrium along one axis: players
who underestimate how many rivals they face, coalitions that stop competing
internally, a shill who bids for free, one player with a committed exit
option, groups with different bid fees or different valuations. Each model is
expressed as a TwoGroupChain (solved by the engine exactly) and, where a
closed form exists, also as an explicit formula so the two can cross-check
each other.

Perception asymmetries follow one convention throughout: a player who believes
the world is a symmetric auction with population m best-responds with the
symmetric solution of that perceived game,

    beta = 1 - (fee / pot)^(1/(m-1)),    opening bid exponent 1/m,

where pot is the amount at stake for the bid in question. What actually
happens is then governed by the true population and the true tie lottery.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core_model import AuctionSpec, beta_from_mu, max_bids, symmetric_beta
from .markov_engine import _ROW_BLOCK, TwoGroupChain

__all__ = [
    "GroupProfile",
    "PopulationBelief",
    "ShillPolicy",
    "CommittedPolicy",
    "ChickenPayoffs",
    "UnderestimateResult",
    "UncertainBeta",
    "ShillOutcome",
    "ShillPhases",
    "CommittedOutcome",
    "FullInfoEquilibrium",
    "two_group_chain",
    "underestimate_uniform",
    "underestimate_chain",
    "ascending_underestimate_revenue",
    "mixed_estimates_chain",
    "uncertain_population_beta",
    "bidfee_asymmetry_chain",
    "valuation_asymmetry_chain",
    "collusion_chain",
    "shill_chain",
    "shill_profit",
    "committed_player_profit",
    "chicken_payoffs",
    "full_info_equilibrium",
]

log = logging.getLogger(__name__)

_SHILL_RESIDUAL_TOL = 1e-12
_MAX_SHILL_STEPS = 10_000_000


def _first_bid_scale(beta_later: float, perceived_n: int) -> float:
    """Opening-bid probability implied by the later-bid probability.

    Both solve the same indifference condition, only the exponent changes:
    1 - beta_first = (1 - beta_later)^((m-1)/m) for perceived population m.
    """
    if beta_later <= 0.0:
        return 0.0
    if beta_later >= 1.0:
        return 1.0
    return -math.expm1(math.log1p(-beta_later) * (perceived_n - 1) / perceived_n)


# ---------------------------------------------------------------------------
# Generic perceived-symmetric-world builder


@dataclass(frozen=True)
class GroupProfile:
    """One group of players who all best-respond to the same perceived game.

    fee / value default to the true auction parameters. perceived_population
    defaults to the true population. Members believe everyone else is like
    them, so the perceived game is symmetric and their bid probability is the
    symmetric solution for the perceived population at their own fee and
    value.
    """

    size: int
    fee: Optional[float] = None
    value: Optional[float] = None
    perceived_population: Optional[int] = None

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("group size must be nonnegative")
        if self.fee is not None and self.fee <= 0:
            raise ValueError("fee must be positive")
        if self.perceived_population is not None and self.perceived_population < 2:
            raise ValueError("perceived population must be at least 2")


def _resolve(profile: GroupProfile, spec: AuctionSpec) -> tuple[float, float, int]:
    fee = spec.fee if profile.fee is None else profile.fee
    value = spec.value if profile.value is None else profile.value
    perceived = spec.population if profile.perceived_population is None else profile.perceived_population
    return fee, value, perceived


def two_group_chain(spec: AuctionSpec, profile_a: GroupProfile,
                    profile_b: GroupProfile) -> TwoGroupChain:
    """Assemble a chain from two perceived-symmetric-world profiles.

    Bid probabilities are leader independent here; models where the lead
    changes a player's incentive (collusion, shills, fee-aware players) build
    their chains by hand instead.
    """
    if profile_a.size + profile_b.size != spec.population:
        raise ValueError("group sizes must add up to the auction population")
    price = 0.0 if spec.is_ascending else spec.price
    increment = spec.increment if spec.is_ascending else 0.0
    notes = []

    def make_beta(profile: GroupProfile):
        fee, value, perceived = _resolve(profile, spec)

        def beta(q: int, leader: Optional[str]) -> float:
            if spec.is_ascending:
                pot = value - increment * (q - 1)
            else:
                pot = value - price
            if pot <= fee:
                return 0.0
            mu_perceived = 1.0 - fee / pot
            eligible = perceived if leader is None else perceived - 1
            return beta_from_mu(mu_perceived, eligible)

        return beta, fee, value

    beta_a, fee_a, value_a = make_beta(profile_a)
    beta_b, fee_b, value_b = make_beta(profile_b)
    for name, fee, value in (("A", fee_a, value_a), ("B", fee_b, value_b)):
        pot0 = value - (0.0 if spec.is_ascending else price)
        if pot0 <= fee:
            notes.append(f"degenerate: group {name} never bids (fee covers the whole pot)")
    horizon = None
    if spec.is_ascending:
        # Bids beyond index Q+1 would stake less than the fee even for the
        # most optimistic perception, since the pot does not depend on beliefs.
        horizon = int(max_bids(spec)) + 1
    return TwoGroupChain(
        group_a_size=profile_a.size,
        group_b_size=profile_b.size,
        beta_a=beta_a,
        beta_b=beta_b,
        fee_a=fee_a,
        fee_b=fee_b,
        increment=increment,
        price=price,
        tie_rule="uniform",
        horizon=horizon,
        time_homogeneous=not spec.is_ascending,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Population misestimation


class UnderestimateResult(NamedTuple):
    mu: float
    expected_revenue: float


def _check_bias(spec: AuctionSpec, k: int) -> None:
    n = spec.population
    if not isinstance(k, int):
        raise TypeError("population bias k must be an integer")
    if not (1 - n < k <= n - 2):
        raise ValueError(f"population bias k must satisfy {1 - n} < k <= {n - 2}")


def underestimate_uniform(spec: AuctionSpec, k: int) -> UnderestimateResult:
    """All n players believe the population is n - k; fixed-price closed form.

    Each player uses the symmetric solution of the perceived (n-k)-player
    game, so the true continuation probability per bid is

        mu = 1 - (b / (v-p))^((n-1)/(n-k-1)),

    and the success-conditioned revenue is b / (1-mu) + p. Underestimation
    (k > 0) inflates revenue without bound as k approaches n - 2;
    overestimation (k < 0) deflates it below the item value.
    """
    if spec.is_ascending:
        raise ValueError("closed form applies to fixed-price auctions, "
                         "use ascending_underestimate_revenue for ascending ones")
    _check_bias(spec, k)
    n = spec.population
    w = spec.fee / (spec.value - spec.price)
    exponent = (n - 1) / (n - k - 1)
    mu = 1.0 - w ** exponent
    revenue = spec.fee * w ** (-exponent) + spec.price
    return UnderestimateResult(mu=mu, expected_revenue=revenue)


def underestimate_chain(spec: AuctionSpec, k: int) -> TwoGroupChain:
    """Chain form of uniform misestimation, for cross-checking the closed form.

    The population is split into two identical halves so the two-group engine
    can carry a one-group model.
    """
    _check_bias(spec, k)
    n = spec.population
    perceived = n - k
    half = n // 2
    return two_group_chain(
        spec,
        GroupProfile(size=half, perceived_population=perceived),
        GroupProfile(size=n - half, perceived_population=perceived),
    )


def ascending_underestimate_revenue(spec: AuctionSpec, k: int) -> float:
    """Success-conditioned revenue of an ascending auction under uniform bias.

    With mu_j the true probability that bid j gets placed after bid j-1,

        E[R | success] = (b + s) * sum_{t=1}^{Q+1} prod_{j=2}^{t} mu_j,

    since each bid brings the fee plus one increment of the final price. The
    empty product makes the t = 1 term 1. At k = 0 the sum telescopes back
    to v exactly.
    """
    if not spec.is_ascending:
        raise ValueError("ascending auctions only")
    _check_bias(spec, k)
    n = spec.population
    exponent = (n - 1) / (n - k - 1)
    limit = int(max_bids(spec)) + 1
    total = 0.0
    running = 1.0
    for t in range(1, limit + 1):
        if t >= 2:
            pot = spec.value - spec.increment * (t - 1)
            mu = 1.0 - (spec.fee / pot) ** exponent if pot > spec.fee else 0.0
            running *= max(mu, 0.0)
            if running == 0.0:
                break
        total += running
    return (spec.fee + spec.increment) * total


def mixed_estimates_chain(spec: AuctionSpec, k: int) -> TwoGroupChain:
    """Half the players perceive n - k rivals, half perceive n + k.

    The two biases do not cancel: revenue is convex in the perceived
    population error, so the optimists dominate. No closed form is exposed;
    solve the returned chain.
    """
    n = spec.population
    if n % 2 != 0:
        raise ValueError("mixed-bias model needs an even population")
    if not isinstance(k, int):
        raise TypeError("population bias k must be an integer")
    if not (0 <= k <= n - 2):
        raise ValueError(f"population bias k must satisfy 0 <= k <= {n - 2}")
    return two_group_chain(
        spec,
        GroupProfile(size=n // 2, perceived_population=n - k),
        GroupProfile(size=n // 2, perceived_population=n + k),
    )


# ---------------------------------------------------------------------------
# Uncertain population size


@dataclass(frozen=True)
class PopulationBelief:
    """Discrete belief over the number of players in the auction."""

    sizes: tuple
    weights: tuple

    def __post_init__(self):
        if len(self.sizes) != len(self.weights) or not self.sizes:
            raise ValueError("sizes and weights must be nonempty and of equal length")
        if len(set(self.sizes)) != len(self.sizes):
            raise ValueError("belief sizes must be distinct")
        for m in self.sizes:
            if not isinstance(m, int) or m < 1:
                raise ValueError("belief sizes must be integers >= 1")
        for z in self.weights:
            if z < 0:
                raise ValueError("belief weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > 1e-9:
            raise ValueError("belief weights must sum to 1")

    @property
    def mean(self) -> float:
        return float(sum(m * z for m, z in zip(self.sizes, self.weights)))


@dataclass(frozen=True)
class UncertainBeta:
    beta_known: float
    beta_uncertain: float
    residual: float


def uncertain_population_beta(spec: AuctionSpec, belief: PopulationBelief) -> UncertainBeta:
    """Later-bid probability when players know only a distribution over n.

    The indifference condition averages the no-rebid probability over the
    belief: sum_i z_i (1 - beta)^(i-1) = b / (v-p). Because x^(i-1) is convex
    in i, a mean-preserving spread forces beta above the known-population
    solution, so uncertainty alone raises revenue.

    The residual sum_i z_i (1 - beta)^(i-1) - w, w = b / (v-p), is monotone
    decreasing in beta on [0, 1]: it is 1 - w at beta = 0 and z_1 - w at
    beta = 1, where z_1 is the mass on i = 1. With w <= 1 and z_1 < w (both
    checked) the bracket [0, 1] holds a sign change, and bisection halves it
    until its ends are adjacent floats; the end with the smaller residual is
    returned.
    """
    if spec.is_ascending:
        raise ValueError("fixed-price auctions only")
    if abs(belief.mean - spec.population) > 1e-9:
        raise ValueError(
            f"belief mean {belief.mean} must equal the true population {spec.population}")
    w = spec.fee / (spec.value - spec.price)
    if w > 1.0:
        raise ValueError("the bid fee exceeds the pot, no indifference point exists")
    z1 = sum(z for m, z in zip(belief.sizes, belief.weights) if m == 1)
    if z1 >= w:
        raise ValueError("too much belief mass on being alone, no indifference point exists")
    terms = tuple(zip(belief.sizes, belief.weights))

    def residual_at(beta: float) -> float:
        return sum(z * (1.0 - beta) ** (m - 1) for m, z in terms) - w

    lo, hi = 0.0, 1.0
    res_lo, res_hi = residual_at(lo), residual_at(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        res_mid = residual_at(mid)
        if res_mid > 0.0:
            lo, res_lo = mid, res_mid
        else:
            hi, res_hi = mid, res_mid
    beta2, residual = (lo, res_lo) if abs(res_lo) <= abs(res_hi) else (hi, res_hi)
    beta1 = symmetric_beta(spec, 2)
    return UncertainBeta(beta_known=beta1, beta_uncertain=beta2, residual=residual)


# ---------------------------------------------------------------------------
# Bid-fee asymmetry


def bidfee_asymmetry_chain(spec: AuctionSpec, k: int, fee_a: float,
                           fee_b: Optional[float] = None) -> TwoGroupChain:
    """k players pay fee_a per bid, the rest pay fee_b, only the k know both.

    Group B believes everyone pays fee_b and plays that symmetric solution.
    Group A knows the split and mixes so that the indifference of whoever
    placed the last bid holds exactly; its probability therefore depends on
    which group currently leads. In equilibrium every continuation happens
    with probability 1 - fee_a/(v-p) regardless of the leader, which makes
    the expected auction length (v-p)/fee_a, independent of fee_b.
    """
    if spec.is_ascending:
        raise ValueError("fixed-price auctions only")
    n = spec.population
    if not (1 <= k <= n - 1):
        raise ValueError(f"group size k must satisfy 1 <= k <= {n - 1}")
    if fee_b is None:
        fee_b = spec.fee
    if fee_a <= 0 or fee_b <= 0:
        raise ValueError("fees must be positive")
    pot = spec.value - spec.price
    if fee_b >= pot or fee_a >= pot:
        raise ValueError("fees must stay below the amount at stake")
    ratio = fee_a / fee_b
    w = fee_b / pot
    notes = []
    if fee_a > fee_b:
        notes.append("corner equilibrium: group A pays the higher fee and its "
                     "probabilities are clamped at 0 where the formula turns negative")

    raw_a_leads = 1.0 - ratio ** (1.0 / (k - 1)) * w ** (1.0 / (n - 1)) if k >= 2 else 0.0
    raw_b_leads = 1.0 - ratio ** (1.0 / k) * w ** (1.0 / (n - 1))
    beta_a_leads = max(raw_a_leads, 0.0)
    beta_b_leads = max(raw_b_leads, 0.0)
    beta_a_first = _first_bid_scale(beta_b_leads, n)
    beta_b_later = 1.0 - w ** (1.0 / (n - 1))
    beta_b_first = _first_bid_scale(beta_b_later, n)

    def beta_a(q: int, leader: Optional[str]) -> float:
        if leader is None:
            return beta_a_first
        return beta_a_leads if leader == "A" else beta_b_leads

    def beta_b(q: int, leader: Optional[str]) -> float:
        return beta_b_first if leader is None else beta_b_later

    return TwoGroupChain(
        group_a_size=k,
        group_b_size=n - k,
        beta_a=beta_a,
        beta_b=beta_b,
        fee_a=fee_a,
        fee_b=fee_b,
        increment=0.0,
        price=spec.price,
        tie_rule="uniform",
        time_homogeneous=True,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Valuation asymmetry


def valuation_asymmetry_chain(spec: AuctionSpec, k: int, value_multiplier: float) -> TwoGroupChain:
    """k players value the item at multiplier * v, everyone knows it.

    Each group mixes so that members of the other group are indifferent,
    which pins both probabilities independently of the leader. A multiplier
    below b/(v-p) shrinkage point shuts the low-value group out entirely;
    that corner is clamped and flagged rather than rejected so sweeps can
    cross it.
    """
    if spec.is_ascending:
        raise ValueError("fixed-price auctions only")
    n = spec.population
    if not (1 <= k <= n - 1):
        raise ValueError(f"group size k must satisfy 1 <= k <= {n - 1}")
    if value_multiplier <= 0:
        raise ValueError("value multiplier must be positive")
    chain = two_group_chain(
        spec,
        GroupProfile(size=k, value=value_multiplier * spec.value),
        GroupProfile(size=n - k),
    )
    return chain


# ---------------------------------------------------------------------------
# Collusion


_COORDINATION = ("many_bidders", "single_bidder")


def collusion_chain(spec: AuctionSpec, k: int, coordination: str = "many_bidders") -> TwoGroupChain:
    """A ring of k players stops competing against itself.

    Outsiders do not notice and play the symmetric solution. Ring members
    never outbid a fellow member. In the many_bidders variant each member
    still bids independently when an outsider leads; in the single_bidder
    variant the ring acts through one hand per round, matching the collective
    pressure mu_A = 1 - w^(k/(n-1)) of k would-be bidders.
    """
    if spec.is_ascending:
        raise ValueError("fixed-price auctions only")
    if coordination not in _COORDINATION:
        raise ValueError(f"coordination must be one of {_COORDINATION}")
    n = spec.population
    if not (2 <= k <= n - 1):
        raise ValueError(f"ring size k must satisfy 2 <= k <= {n - 1}")
    w = spec.fee / (spec.value - spec.price)
    beta_later = 1.0 - w ** (1.0 / (n - 1))
    beta_first = _first_bid_scale(beta_later, n)

    def beta_b(q: int, leader: Optional[str]) -> float:
        return beta_first if leader is None else beta_later

    if coordination == "many_bidders":
        tie_rule = "uniform"

        def beta_a(q: int, leader: Optional[str]) -> float:
            if leader is None:
                return beta_first
            return 0.0 if leader == "A" else beta_later

    else:
        tie_rule = "single_ticket"
        ticket_later = 1.0 - w ** (k / (n - 1.0))
        ticket_first = 1.0 - w ** (k / float(n))

        def beta_a(q: int, leader: Optional[str]) -> float:
            if leader is None:
                return ticket_first
            return 0.0 if leader == "A" else ticket_later

    return TwoGroupChain(
        group_a_size=k,
        group_b_size=n - k,
        beta_a=beta_a,
        beta_b=beta_b,
        fee_a=spec.fee,
        fee_b=spec.fee,
        increment=0.0,
        price=spec.price,
        tie_rule=tie_rule,
        time_homogeneous=True,
    )


# ---------------------------------------------------------------------------
# Shill bidding


@dataclass(frozen=True)
class ShillPolicy:
    """House bidder: enters with probability entry_prob, then bids at every
    opportunity until it has placed bid_budget bids, then stops for good.

    The budget counts placed bids, not rounds: a round in which the shill
    enters the lottery but a legitimate player's ticket is drawn costs it
    nothing. With one identity an opportunity is every round a legitimate
    player leads (the shill never outbids itself); with two it is every
    round. identities is how many ordinary players the legitimate bidders
    believe the shill to be. They perceive n + identities players until the
    shill places its last budgeted bid and n from then on."""

    entry_prob: float
    bid_budget: int
    identities: int = 1

    def __post_init__(self):
        if not (0.0 <= self.entry_prob <= 1.0):
            raise ValueError("entry probability must be in [0, 1]")
        if self.bid_budget < 0:
            raise ValueError("bid budget must be nonnegative")
        if self.identities not in (1, 2):
            raise ValueError("the shill plays one or two identities")


@dataclass(frozen=True)
class ShillOutcome:
    """Extra profit and shill win probability, unconditional and (entered_*)
    given that the shill entered; entered_shill_bids is the expected number
    of bids an entered shill places, never more than its budget."""

    expected_profit: float
    win_prob_shill: float
    entered_profit: float
    entered_win_prob: float
    entered_shill_bids: float
    notes: tuple = ()


class ShillPhases(NamedTuple):
    """The two chains of one entered shill (group A) against n legitimate
    players, switched by how many bids the shill has placed.

    active governs while bids remain in the budget: the shill bids with
    probability one and the legitimate players best-respond to a symmetric
    world of n plus however many identities the shill wears. spent governs
    from the shill's last budgeted bid on: the shill is silent and the
    perceived population drops back to n.
    """

    active: TwoGroupChain
    spent: TwoGroupChain
    bid_budget: int

    def at(self, shill_bids: int) -> TwoGroupChain:
        """The chain in force once the shill has placed shill_bids bids."""
        return self.active if shill_bids < self.bid_budget else self.spent


def shill_chain(spec: AuctionSpec, policy: ShillPolicy) -> ShillPhases:
    """Both phases of an entered shill with a positive bid budget.

    With one identity the shill never outbids itself (a leading group of one
    has no eligible member); with two identities the single_ticket rule lets
    it top its own bid.
    """
    if policy.bid_budget < 1:
        raise ValueError("a chain needs a shill that bids at least once")
    n = spec.population
    increment = spec.increment if spec.is_ascending else 0.0
    price = 0.0 if spec.is_ascending else spec.price

    def phase(perceived: int, shill_bid_prob: float) -> TwoGroupChain:
        def legit_beta(q: int, leader: Optional[str]) -> float:
            pot = spec.value - (increment * (q - 1) if spec.is_ascending else price)
            if pot <= spec.fee:
                return 0.0
            eligible = perceived if leader is None else perceived - 1
            return beta_from_mu(1.0 - spec.fee / pot, eligible)

        return TwoGroupChain(
            group_a_size=1,
            group_b_size=n,
            beta_a=lambda q, leader: shill_bid_prob,
            beta_b=legit_beta,
            fee_a=0.0,
            fee_b=spec.fee,
            increment=increment,
            price=price,
            tie_rule="uniform" if policy.identities == 1 else "single_ticket",
            time_homogeneous=not spec.is_ascending,
        )

    return ShillPhases(
        active=phase(n + policy.identities, 1.0),
        spent=phase(n, 0.0),
        bid_budget=policy.bid_budget,
    )


def shill_profit(spec: AuctionSpec, policy: ShillPolicy) -> ShillOutcome:
    """Auctioneer's expected extra profit from planting a shill.

    Exact expected occupancy of the chain over (leader, shill bids placed s).
    Rows come from the phase in force, shill_chain(...).at(s): the shill bids
    with probability one while s < bid_budget, and the legitimate players,
    who cannot tell it from a real rival, play the symmetric solution for the
    inflated population until the shill's last budgeted bid and for the true
    one afterwards. The shill's own fees and any price it "pays" are house
    money, so profit counts legitimate fees, plus the final price when a
    legitimate player wins, minus the item handed over in that case; when
    the shill wins the house keeps the item. With a zero budget or zero entry
    probability nothing changes and the extra profit is exactly zero.

    A bid moves s up by one or leaves it alone, so at a fixed price, where
    the rows do not depend on the bid index, the occupancy is one forward
    sweep over s (_shill_by_bid_count). An ascending auction is stepped bid
    by bid over each phase's row table until the live mass drops below
    1e-12 (_shill_by_bid_index).
    """
    if policy.bid_budget == 0 or policy.entry_prob == 0.0:
        return ShillOutcome(0.0, 0.0, 0.0, 0.0, 0.0, notes=("shill never bids",))
    phases = shill_chain(spec, policy)
    solve = _shill_by_bid_index if spec.is_ascending else _shill_by_bid_count
    shill_bids, legit_bids, shill_wins, legit_wins, price_paid = solve(spec, phases)
    entered_profit = spec.fee * legit_bids + price_paid - spec.value * legit_wins
    return ShillOutcome(
        expected_profit=policy.entry_prob * entered_profit,
        win_prob_shill=policy.entry_prob * shill_wins,
        entered_profit=entered_profit,
        entered_win_prob=shill_wins,
        entered_shill_bids=shill_bids,
    )


def _shill_by_bid_count(spec: AuctionSpec, phases: ShillPhases) -> tuple[float, ...]:
    """Expected visits of a fixed-price shill chain, one level s at a time.

    Within level s the chain only moves from a shill lead to a legitimate
    one or stays with the legitimate players; a shill bid lifts it to s + 1.
    So the shill-led occupancy of level s is the mass lifted into it, and the
    legitimate-led occupancy solves one geometric series on top of that.
    Returns (shill bids, legitimate bids, shill wins, legitimate wins, price
    paid by legitimate winners).
    """
    opening = phases.active.opening_row()  # the shill bids, so absorb == 0
    active, spent = ((chain.transitions(2, "A"), chain.transitions(2, "B"))
                     for chain in (phases.active, phases.spent))
    shill_bids = legit_bids = shill_wins = legit_wins = 0.0
    lifted = 0.0
    for s in range(phases.bid_budget + 1):
        a_row, b_row = active if s < phases.bid_budget else spent
        shill_leads = lifted + (opening.to_a if s == 1 else 0.0)
        from_below = opening.to_b if s == 0 else 0.0
        legit_leads = (from_below + shill_leads * a_row.to_b) / (1.0 - b_row.to_b)
        shill_bids += shill_leads
        legit_bids += legit_leads
        shill_wins += shill_leads * a_row.absorb
        legit_wins += legit_leads * b_row.absorb
        lifted = shill_leads * a_row.to_a + legit_leads * b_row.to_a
    return shill_bids, legit_bids, shill_wins, legit_wins, legit_wins * spec.price


def _shill_by_bid_index(spec: AuctionSpec, phases: ShillPhases) -> tuple[float, ...]:
    """Occupancy of an ascending shill chain, stepped bid by bid.

    The state vectors are indexed by s. Rows are read from the two phases'
    row tables, merged once per table block: the active phase's row for s <
    bid_budget and the spent phase's for s = bid_budget. Returns the same
    tuple as _shill_by_bid_count.
    """
    budget = phases.bid_budget
    bidding = np.arange(budget + 1) < budget
    block = min(int(max_bids(spec)) + 1, _ROW_BLOCK)

    def rows(leader: str):
        # per bid index q = 2, 3, ...: (to_a, to_b, absorb), each indexed by s
        for q in itertools.count(2, block):
            active = phases.active.row_table(leader, q, q + block)
            spent = phases.spent.row_table(leader, q, q + block)
            yield from zip(*(np.where(bidding, a[:, None], z[:, None])
                             for a, z in zip(active, spent)))

    opening = phases.active.opening_row()  # the shill bids, so absorb == 0
    shill_leads = np.zeros(budget + 1)
    legit_leads = np.zeros(budget + 1)
    shill_leads[1] = opening.to_a
    legit_leads[0] = opening.to_b
    legit_bids = opening.to_b
    shill_bids = opening.to_a
    live = opening.to_a + opening.to_b
    shill_wins = legit_wins = price_paid = 0.0
    t = 1
    for (a_to_a, a_to_b, a_absorb), (b_to_a, b_to_b, b_absorb) in zip(rows("A"), rows("B")):
        if live < _SHILL_RESIDUAL_TOL:
            break
        if t > _MAX_SHILL_STEPS:
            log.warning("shill recurrence stopped at %d bids with live mass %.3e", t, live)
            break
        shill_wins += float(shill_leads @ a_absorb)
        ended = float(legit_leads @ b_absorb)
        legit_wins += ended
        price_paid += ended * (spec.increment * t)
        shill_bid = shill_leads * a_to_a + legit_leads * b_to_a
        legit_leads = shill_leads * a_to_b + legit_leads * b_to_b
        shill_leads[1:] = shill_bid[:-1]  # entry 0 stays 0: a shill lead means a placed bid
        placed, legit = float(shill_leads.sum()), float(legit_leads.sum())
        shill_bids += placed
        legit_bids += legit
        live = placed + legit
        t += 1
    return shill_bids, legit_bids, shill_wins, legit_wins, price_paid


# ---------------------------------------------------------------------------
# Committed player with a retail backstop


@dataclass(frozen=True)
class CommittedPolicy:
    """One player who will own the item no matter what.

    The item retails at retail_multiplier * v and fees already paid are
    credited against the retail purchase, so after losing the auction the
    player tops up to exactly the retail price. While the auction runs the
    player bids whenever winning right now would still cost less than retail:
    (own bids + 1) * b + current price + increment < retail.
    """

    retail_multiplier: float

    def __post_init__(self):
        if not math.isfinite(self.retail_multiplier):
            raise ValueError(f"retail multiplier must be finite, got {self.retail_multiplier}")
        if self.retail_multiplier <= 0:
            raise ValueError("retail multiplier must be positive")


@dataclass(frozen=True)
class CommittedOutcome:
    player_profit: float
    auctioneer_profit: float
    committed_win_prob: float
    expected_total_bids: float
    notes: tuple = ()


def committed_player_profit(spec: AuctionSpec, policy: CommittedPolicy) -> CommittedOutcome:
    """Exact dynamic program for the committed player against n-1 symmetric rivals.

    State: who leads (the committed player or a regular), total bids t, and
    the committed player's own bid count c. Regulars play the symmetric
    n-player solution throughout; the committed player bids with probability
    one whenever the stop rule allows. Losing paths cost the player exactly
    retail - v because the fee credit makes every top-up land on the retail
    price; winning paths cost strictly less, so the loss never exceeds
    (multiplier - 1) * v.

    A bid moves c up by one or leaves it alone. At a fixed price the rows and
    the stop rule do not depend on t, so the expected occupancy of each
    (leader, c) is one forward sweep over c, and a second sweep gives the
    sums of t times the occupancy that the t-dependent payoffs need
    (_committed_by_bid_count). An ascending auction is stepped bid by bid
    until the live mass drops below 1e-15, with its per-bid scalars computed
    once per bid index up front (_committed_by_bid_index).

    With multiplier <= 1 the backstop already beats the auction and committed
    play is vacuous; both profits are reported as zero with a note.
    """
    alpha = policy.retail_multiplier
    if alpha <= 1.0:
        return CommittedOutcome(0.0, 0.0, 0.0, 0.0,
                                notes=("backstop at or below the item value, nothing to commit to",))
    if not _committed_bids(spec, alpha, 0, 1):
        return CommittedOutcome(0.0, 0.0, 0.0, 0.0,
                                notes=("even one bid would overshoot the retail backstop",))
    solve = _committed_by_bid_index if spec.is_ascending else _committed_by_bid_count
    player, auctioneer, win_committed, expected_bids = solve(spec, alpha)
    return CommittedOutcome(
        player_profit=player,
        auctioneer_profit=auctioneer,
        committed_win_prob=win_committed,
        expected_total_bids=expected_bids,
        notes=(),
    )


def _committed_bids(spec: AuctionSpec, alpha: float, c, q: int):
    """The committed player's stop rule: with c own bids so far it places bid
    q only while winning right after it, (c + 1) fees plus the price after
    bid q, stays strictly below retail. Cents arithmetic keeps the comparison
    exact; c may be an array of own-bid counts."""
    price_c = spec.increment_cents * q if spec.is_ascending else spec.price_cents
    return (c + 1) * spec.fee_cents + price_c < alpha * spec.value_cents


def _committed_rows(spec: AuctionSpec) -> tuple[float, Iterator[tuple[float, float, float]]]:
    """The committed model's per-bid scalars against n - 1 symmetric regulars.

    Returns (share_first, rows). share_first is the committed player's share
    of the opening lottery against n - 1 regulars. rows yields, for bid index
    q = 2, 3, ... without end, (absorb_led, absorb_other, share): P(no
    regular rebids over the committed player), P(no regular bids over a
    regular) and the committed player's lottery share against n - 2
    regulars. At a fixed price every index has the same scalars; in an
    ascending auction the regulars stay silent past the last rational bid.
    """
    n = spec.population
    share_first = _mean_inv_one_plus(n - 1, [symmetric_beta(spec, 1)])[0]
    last = int(max_bids(spec)) + 1 if spec.is_ascending else 2
    betas = [symmetric_beta(spec, q, first_bid=False) for q in range(2, last + 1)]
    rows = zip([(1.0 - beta) ** (n - 1) for beta in betas],
               [(1.0 - beta) ** (n - 2) for beta in betas],
               _mean_inv_one_plus(n - 2, betas))
    if not spec.is_ascending:
        return share_first, itertools.repeat(next(rows))
    return share_first, itertools.chain(rows, itertools.repeat((1.0, 1.0, 1.0)))


def _mean_inv_one_plus(eligible: int, betas: Sequence[float]) -> list[float]:
    """E[1 / (1 + J)] with J ~ Binomial(eligible, beta), one value per beta:
    the committed player's chance of winning the tie lottery against J
    challengers.

    With m = eligible the sum has the closed form

        (1 - (1 - beta)^(m+1)) / ((m+1) beta),

    evaluated as -expm1((m+1) log1p(-beta)) / ((m+1) beta), which keeps full
    relative accuracy as beta -> 0, a subnormal beta included. beta = 0 (no
    challenger, share 1) and beta = 1 (all m challenge, share 1/(m+1)) are
    taken exactly.
    """
    if eligible <= 0:
        return [1.0] * len(betas)
    trials = eligible + 1
    shares = []
    for beta in betas:
        if beta == 0.0:
            shares.append(1.0)
        elif beta == 1.0:
            shares.append(1.0 / trials)
        else:
            shares.append(-math.expm1(trials * math.log1p(-beta)) / (trials * beta))
    return shares


def _committed_by_bid_count(spec: AuctionSpec, alpha: float) -> tuple[float, ...]:
    """Fixed-price committed model as two forward sweeps over c.

    Level c holds (committed leads, c) and (regular leads, c). The first is
    entered only from level c - 1, when the committed player wins the
    lottery, and the second only from the first (or from the opening bid at
    c = 0), so with x the opening distribution and P the transient kernel the
    occupancy N = x (I - P)^-1 comes out level by level. The time-weighted
    occupancy M = sum_t t x_t solves M (I - P) = N, the same sweep with N as
    its source. Returns (player profit, auctioneer profit, committed win
    probability, expected total bids).
    """
    v, b, price = spec.value, spec.fee, spec.price
    retail = alpha * v
    # the stop rule depends on c alone: c_stop is the first own-bid count at
    # which the committed player no longer bids
    c_stop = 0
    while _committed_bids(spec, alpha, c_stop, 2):
        c_stop += 1
    share_first, rows = _committed_rows(spec)
    absorb_led, absorb_other, share = next(rows)
    player = auctioneer = win_committed = expected_bids = 0.0
    lifted_n = lifted_m = 0.0  # occupancy and time-weighted occupancy entering the next level
    for c in range(c_stop + 1):
        bidding = c < c_stop
        leaves_other = share if bidding else absorb_other
        led_n = lifted_n + (share_first if c == 1 else 0.0)
        opened = 1.0 - share_first if c == 0 else 0.0
        other_n = (opened + led_n * (1.0 - absorb_led)) / leaves_other
        led_m = lifted_m + led_n
        other_m = (other_n + led_m * (1.0 - absorb_led)) / leaves_other
        won_n, won_m = led_n * absorb_led, led_m * absorb_led
        player += won_n * (v - c * b - price)
        auctioneer += b * won_m + (price - v) * won_n
        win_committed += won_n
        expected_bids += won_m
        if bidding:
            lifted_n, lifted_m = other_n * share, other_m * share
        else:
            # Fee credit tops the player up to exactly the retail price; the
            # auctioneer sells a second item at retail minus that credit.
            lost_n, lost_m = other_n * absorb_other, other_m * absorb_other
            player += lost_n * (v - retail)
            auctioneer += b * lost_m + lost_n * (price - v + (retail - c * b) - v)
            expected_bids += lost_m
    return player, auctioneer, win_committed, expected_bids


def _committed_by_bid_index(spec: AuctionSpec, alpha: float) -> tuple[float, ...]:
    """Ascending committed model stepped bid by bid over c-indexed vectors.

    The per-bid scalars depend on the bid index alone and come from
    _committed_rows, computed once for the whole rational range up front.
    Returns the same tuple as _committed_by_bid_count.
    """
    v = spec.value
    b = spec.fee
    retail = alpha * v

    c_cap = int(math.ceil(alpha * spec.value_cents / spec.fee_cents)) + 2
    cs = np.arange(c_cap, dtype=float)
    p_led = np.zeros(c_cap)      # committed player leads, indexed by own bids
    p_other = np.zeros(c_cap)    # a regular leads

    share_first, rows = _committed_rows(spec)
    p_led[1] = share_first
    p_other[0] = 1.0 - share_first

    player = 0.0
    auctioneer = 0.0
    win_committed = 0.0
    expected_bids = 0.0
    hard_cap = 10_000_000
    remaining = 1.0
    for t, (absorb_led, absorb_other, share) in enumerate(rows, start=1):
        if t >= hard_cap:
            break
        price = spec.increment * t
        # Committed player leads with c own bids: the n-1 regulars may rebid.
        won = p_led * absorb_led
        win_mass = float(np.sum(won))
        if win_mass > 0.0:
            player += float(np.sum(won * (v - cs * b - price)))
            auctioneer += win_mass * (b * t + price - v)
            win_committed += win_mass
            expected_bids += t * win_mass
        flow_led_to_other = p_led * (1.0 - absorb_led)
        # A regular leads: the committed player joins the lottery only while
        # the stop rule allows, against n-2 regular challengers.
        allows = _committed_bids(spec, alpha, cs, t + 1)
        blocked = p_other * (~allows)
        lost = blocked * absorb_other
        lost_mass = float(np.sum(lost))
        if lost_mass > 0.0:
            # Fee credit tops the player up to exactly the retail price; the
            # auctioneer sells a second item at retail minus that credit.
            player += lost_mass * (v - retail)
            auctioneer += float(np.sum(lost * (b * t + price - v + (retail - cs * b) - v)))
            expected_bids += t * lost_mass
        active = p_other * allows
        to_led = active * share
        if to_led[-1] > 0.0:
            raise ArithmeticError("committed bid count exceeded its cap")
        new_led = np.zeros(c_cap)
        new_led[1:] = to_led[:-1]
        new_other = blocked * (1.0 - absorb_other) + active * (1.0 - share) + flow_led_to_other
        p_led = new_led
        p_other = new_other
        remaining = float(p_led.sum() + p_other.sum())
        if remaining < 1e-15:
            break
    if remaining >= 1e-12:
        log.warning("committed-player recursion stopped with live mass %.3e", remaining)
    return player, auctioneer, win_committed, expected_bids


# ---------------------------------------------------------------------------
# Chicken endgame payoffs


@dataclass(frozen=True)
class ChickenPayoffs:
    """2x2 endgame between two bidders who both sank spend into the auction.

    Each can quit now (forfeiting the sunk spend) or play till the end. If
    both persist they burn alpha * v each; if one quits the survivor nets
    gamma * v. Entries are (row payoff, column payoff) with rows and columns
    ordered (quit, play)."""

    quit_quit: tuple
    quit_play: tuple
    play_quit: tuple
    play_play: tuple

    def as_array(self) -> np.ndarray:
        return np.array([
            [self.quit_quit, self.quit_play],
            [self.play_quit, self.play_play],
        ])


def chicken_payoffs(value: float, alpha: float, gamma: float, spent: float) -> ChickenPayoffs:
    """Payoff matrix of the two-player quit-or-persist endgame.

    spent is each player's sunk spend so far (a nonnegative amount, entered
    as the loss it turns into on quitting)."""
    if value <= 0:
        raise ValueError("item value must be positive")
    if spent < 0:
        raise ValueError("sunk spend cannot be negative")
    lose = -spent
    return ChickenPayoffs(
        quit_quit=(lose, lose),
        quit_play=(lose, gamma * value),
        play_quit=(gamma * value, lose),
        play_play=(-alpha * value, -alpha * value),
    )


# ---------------------------------------------------------------------------
# Full-information mixed equilibrium


@dataclass(frozen=True)
class FullInfoEquilibrium:
    betas: np.ndarray
    interior: bool
    residuals: np.ndarray
    notes: tuple = ()


def full_info_equilibrium(values: Sequence[float], fees: Sequence[float],
                          price: float = 0.0) -> FullInfoEquilibrium:
    """Stationary mixed equilibrium when all values and fees are public.

    Player i's indifference requires that nobody outbids them:

        prod_{j != i} (1 - beta_j) = b_i / (v_i - p).

    Taking eta_i = ln(1 - beta_i) and zeta_i = ln(b_i / (v_i - p)) turns this
    into the linear system sum(eta) - eta_i = zeta_i, solved by
    eta_i = sum(zeta)/(n-1) - zeta_i. A valid mixture needs eta_i <= 0; when
    some player's parameters push eta_i above 0 there is no interior
    equilibrium and the raw (out-of-range) solution is returned with the
    interior flag cleared.
    """
    values = np.asarray(values, dtype=float)
    fees = np.asarray(fees, dtype=float)
    if values.shape != fees.shape or values.ndim != 1:
        raise ValueError("values and fees must be equal-length vectors")
    n = len(values)
    if n < 3:
        raise ValueError("need at least three players, the two-player system is degenerate")
    pots = values - price
    if np.any(fees <= 0):
        raise ValueError("fees must be positive")
    if np.any(fees >= pots):
        raise ValueError("every fee must stay below the player's amount at stake")
    zeta = np.log(fees / pots)
    eta = zeta.sum() / (n - 1) - zeta
    interior = bool(np.all(eta <= 1e-12))
    betas = -np.expm1(eta)
    total = eta.sum()
    residuals = np.exp(total - eta) - fees / pots
    notes = () if interior else ("no interior equilibrium for these parameters",)
    return FullInfoEquilibrium(betas=betas, interior=interior, residuals=residuals, notes=notes)
