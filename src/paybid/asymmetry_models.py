"""Closed forms and chain builders for auctions with asymmetric bidders.

Every model here perturbs the symmetric equilibrium along one axis: players
who underestimate how many rivals they face, coalitions that stop competing
internally, a shill who bids for free, one player with a committed exit
option, groups with different bid fees or different valuations. Each model is
expressed as a TwoGroupChain (solved by the engine exactly) and, where a
closed form exists, also as an explicit formula so the two can cross-check
each other.

Every bid probability here is core_model._bid_prob, a power of w = fee / pot
in log space, with an exponent e and an offset d for each leader (opening
bid, A leads, B leads); _bid_probs is its numpy form, over the bid indices of
an ascending auction. Perception asymmetries follow one convention
throughout: a player who believes the world is a symmetric auction with
population m best-responds with the symmetric solution of that perceived
game, e = (1/m, 1/(m-1), 1/(m-1)) and d = 0, that is beta = 1 - (fee /
pot)^(1/(m-1)) after the opening bid. What actually happens is then governed
by the true population and the true tie lottery.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .core_model import AuctionSpec, _bid_prob, max_bids, symmetric_beta
from .markov_engine import (_MAX_STEPS, BetaFn, TransitionRow, TwoGroupChain, _blocking,
                            _led_block, _leader_tables)

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


_LEADERS = {None: 0, "A": 1, "B": 2}  # a group's parameters come in this order


def _bid_probs(excess, exponent):
    """core_model._bid_prob without an offset, elementwise over numpy arrays:
    eta is never positive and a pot at or below the fee gives log w = 0, so
    neither the cap nor the mask is needed."""
    eta = np.log1p(np.maximum(excess, 0.0)) * -exponent
    return 0.0 - np.expm1(eta)  # 0.0 - x is never -0.0


def _bid_probability(spec: AuctionSpec, fee_cents, value_cents, exponents,
                     offsets=None) -> BetaFn:
    """Bid probability of a group that pays fee_cents a bid and values the
    item at value_cents, with an exponent (and, if given, an offset) per
    leader in _LEADERS order.

    The pot is the value less the fixed price, or less the price the
    previous bid left in an ascending auction. At a fixed price it does not
    depend on q: the three are scalars of _bid_prob, as symmetric_beta is,
    and in an ascending auction _bid_probs runs over the bid indices. Only
    fixed-price chains take offsets.
    """
    if not spec.is_ascending:
        excess = (value_cents - spec.price_cents - fee_cents) / fee_cents
        betas = [_bid_prob(excess, e, d) for e, d in zip(exponents, offsets or (0.0,) * 3)]
        return lambda q, leader: betas[_LEADERS[leader]]

    def beta(q, leader: Optional[str]):
        at = _LEADERS[leader]
        excess = (value_cents - fee_cents - spec.increment_cents * (q - 1)) / fee_cents
        return _bid_probs(excess, exponents[at])

    return beta


def _symmetric_world(m: int) -> tuple:
    """Exponents of a symmetric world of m players: all m may place the
    opening bid, m - 1 (everyone but the leader) every later one."""
    return 1 / m, 1 / (m - 1), 1 / (m - 1)


def _chain(spec: AuctionSpec, stake_cents=None, **fields) -> TwoGroupChain:
    """A chain on the spec's price path: increment, price, time_homogeneous
    and an ascending chain's horizon come from the spec, every other field
    from the caller. Nobody bids past index Q + 1, Q = floor(stake /
    increment), the stake being the largest value less fee of any group (the
    spec's by default), so the rows from Q + 2 on are alike."""
    if not spec.is_ascending:
        return TwoGroupChain(price=spec.price, time_homogeneous=True, **fields)
    stake = spec.value_cents - spec.fee_cents if stake_cents is None else stake_cents
    return TwoGroupChain(increment=spec.increment,
                         horizon=max(1, int(stake // spec.increment_cents) + 1), **fields)


def two_group_chain(spec: AuctionSpec, profile_a: GroupProfile,
                    profile_b: GroupProfile) -> TwoGroupChain:
    """Assemble a chain from two perceived-symmetric-world profiles.

    Bid probabilities are leader independent here; models where the lead
    changes a player's incentive (collusion, shills, fee-aware players) build
    their chains by hand instead.
    """
    if profile_a.size + profile_b.size != spec.population:
        raise ValueError("group sizes must add up to the auction population")
    fees, betas, notes, stakes = [], [], [], []
    for name, profile in (("A", profile_a), ("B", profile_b)):
        fee_cents = spec.fee_cents if profile.fee is None else 100 * profile.fee
        value_cents = spec.value_cents if profile.value is None else 100 * profile.value
        stakes.append(value_cents - fee_cents)
        if value_cents - (0 if spec.is_ascending else spec.price_cents) <= fee_cents:
            notes.append(f"degenerate: group {name} never bids (fee covers the whole pot)")
        fees.append(spec.fee if profile.fee is None else profile.fee)
        perceived = profile.perceived_population or spec.population
        betas.append(_bid_probability(spec, fee_cents, value_cents, _symmetric_world(perceived)))
    # beliefs move no pot, so the largest stake bounds every group's bids
    return _chain(spec, max(stakes), group_a_size=profile_a.size, group_b_size=profile_b.size,
                  beta_a=betas[0], beta_b=betas[1], fee_a=fees[0], fee_b=fees[1],
                  notes=tuple(notes))


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
    pot_cents = spec.value_cents - spec.price_cents
    exponent = (n - 1) / (n - k - 1)
    mu = _bid_prob((pot_cents - spec.fee_cents) / spec.fee_cents, exponent)
    try:
        revenue = spec.fee * (pot_cents / spec.fee_cents) ** exponent + spec.price
    except OverflowError:
        revenue = math.inf
    if math.isinf(revenue):
        raise ValueError("the expected revenue overflows a float")
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
    # 1 - mu_q = (fee/pot)^((n-1)/(n-k-1)) for q = 2..Q+1: each of the n - 1
    # eligible players stays out with the (n-k)-player solution's probability
    exponent = (n - 1) / (n - k - 1)
    mus = _bid_probability(spec, spec.fee_cents, spec.value_cents, (exponent,) * 3)(
        np.arange(2, int(max_bids(spec)) + 2), "B")
    # the running products, and their sum term by term from t = 1 on
    products = np.cumprod(mus)
    total = np.cumsum(np.concatenate(([1.0], products)))[-1]
    return (spec.fee + spec.increment) * float(total)


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
        for z in self.weights:  # NaN fails each comparison
            if not z >= 0:
                raise ValueError(f"belief weights must be nonnegative, got {z}")
        if not abs(sum(self.weights) - 1.0) <= 1e-9:
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

    Newton solves f(eta) = sum_i z_i e^((i-1) eta) - w = 0 in eta = log(1 -
    beta), w = b / (v-p), from beta_known's own eta_0 = log w / (n-1). f is
    convex and increasing and f(eta_0) >= 0 by Jensen, so the steps fall and
    never pass the root; the first that does not fall ends the solve, and
    beta_uncertain >= beta_known by construction. f tends to z_1 - w (z_1 the
    mass on i = 1), so w <= 1 and z_1 < w, both checked, give a root.
    """
    if spec.is_ascending:
        raise ValueError("fixed-price auctions only")
    if abs(belief.mean - spec.population) > 1e-9:
        raise ValueError(
            f"belief mean {belief.mean} must equal the true population {spec.population}")
    pot_cents = spec.value_cents - spec.price_cents
    w = spec.fee_cents / pot_cents
    if w > 1.0:
        raise ValueError("the bid fee exceeds the pot, no indifference point exists")
    z1 = sum(z for m, z in zip(belief.sizes, belief.weights) if m == 1)
    if z1 >= w:
        raise ValueError("too much belief mass on being alone, no indifference point exists")
    terms = tuple(zip(belief.sizes, belief.weights))
    # symmetric_beta(spec, 2)'s eta bit for bit, which beta_uncertain >= beta_known needs
    eta = math.log1p((pot_cents - spec.fee_cents) / spec.fee_cents) * -(1 / (spec.population - 1))
    while True:
        residual, slope = -w, 0.0
        for m, z in terms:
            term = z * math.exp((m - 1) * eta)
            residual += term
            slope += (m - 1) * term
        next_eta = eta - residual / slope
        if not next_eta < eta:
            break
        eta = next_eta
    return UncertainBeta(beta_known=symmetric_beta(spec, 2), beta_uncertain=0.0 - math.expm1(eta),
                         residual=residual)


# ---------------------------------------------------------------------------
# Bid-fee asymmetry


def bidfee_asymmetry_chain(spec: AuctionSpec, k: int, fee_a: float,
                           fee_b: Optional[float] = None) -> TwoGroupChain:
    """k players pay fee_a per bid, the rest pay fee_b, only the k know both.

    Group B believes everyone pays fee_b and plays that symmetric solution.
    Group A knows the split and mixes so that the indifference of whoever
    placed the last bid holds exactly; its probability therefore depends on
    which group currently leads. For k >= 2 every continuation happens with
    probability 1 - fee_a/(v-p) regardless of the leader, which makes the
    expected auction length (v-p)/fee_a, independent of fee_b. A lone A
    (k = 1) cannot outbid itself, so an A-led round ends with probability
    fee_b/(v-p): 180.195 bids at the defaults, not 200.

    With w = fee_b/(v-p) and r = fee_a/fee_b, A's no-bid probability is
    r^(1/k) w^(1/(n-1)) when B leads and r^(1/(k-1)) w^(1/(n-1)) when A
    leads (a lone A never outbids itself), and the opening bid raises the
    B-led one to the power (n-1)/n: exponents (1/n, 1/(n-1), 1/(n-1)) and
    offsets ((n-1) log r / (n k), log r / (k-1), log r / k).
    """
    if spec.is_ascending:
        raise ValueError("fixed-price auctions only")
    n = spec.population
    if not (1 <= k <= n - 1):
        raise ValueError(f"group size k must satisfy 1 <= k <= {n - 1}")
    fee_b_cents = spec.fee_cents if fee_b is None else 100 * fee_b
    if fee_b is None:
        fee_b = spec.fee
    if fee_a <= 0 or fee_b <= 0:
        raise ValueError("fees must be positive")
    pot = spec.value - spec.price
    if fee_b >= pot or fee_a >= pot:
        raise ValueError("fees must stay below the amount at stake")
    notes = []
    if fee_a > fee_b:
        notes.append("corner equilibrium: group A pays the higher fee and its "
                     "probabilities are clamped at 0 where the formula turns negative")
    log_r = math.log1p((100 * fee_a - fee_b_cents) / fee_b_cents)
    # a lone A never outbids itself: exponent and offset 0 when A leads
    e_a_leads, d_a_leads = (1 / (n - 1), log_r / (k - 1)) if k >= 2 else (0.0, 0.0)
    return _chain(
        spec,
        group_a_size=k,
        group_b_size=n - k,
        beta_a=_bid_probability(spec, fee_b_cents, spec.value_cents,
                                (1 / n, e_a_leads, 1 / (n - 1)),
                                ((n - 1) * log_r / (n * k), d_a_leads, log_r / k)),
        beta_b=_bid_probability(spec, fee_b_cents, spec.value_cents, _symmetric_world(n)),
        fee_a=fee_a,
        fee_b=fee_b,
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
    many = coordination == "many_bidders"
    # a member never outbids a fellow member: exponent 0 when A leads
    ring = (1 / n, 0.0, 1 / (n - 1)) if many else (k / n, 0.0, k / (n - 1))
    return _chain(
        spec,
        group_a_size=k,
        group_b_size=n - k,
        beta_a=_bid_probability(spec, spec.fee_cents, spec.value_cents, ring),
        beta_b=_bid_probability(spec, spec.fee_cents, spec.value_cents, _symmetric_world(n)),
        fee_a=spec.fee,
        fee_b=spec.fee,
        tie_rule="uniform" if many else "single_ticket",
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

    The shill is a counted player (_counted_chains) who pays no fee, against
    n legitimate players who perceive n + identities players while it bids.
    With one identity the shill never outbids itself (a leading group of one
    has no eligible member); with two identities the single_ticket rule lets
    it top its own bid.
    """
    if policy.bid_budget < 1:
        raise ValueError("a chain needs a shill that bids at least once")
    active, spent = _counted_chains(*_shill_key(spec, policy.identities))
    return ShillPhases(active=active, spent=spent, bid_budget=policy.bid_budget)


def _shill_key(spec: AuctionSpec, identities: int) -> tuple:
    """The arguments of _counted_chains for a shill of that many identities."""
    n = spec.population
    return spec, n, n + identities, 0.0, "uniform" if identities == 1 else "single_ticket"


def _shill_model(spec: AuctionSpec, policy: ShillPolicy) -> _CountedModel | str:
    """An entered shill as a counted player (_CountedModel), or the note
    that it never bids. Its outcome is (extra profit, shill won, shill
    bids): its own fees and any price it "pays" are house money, so profit
    counts legitimate fees, plus the final price less the item handed over
    when a legitimate player wins; when the shill wins the house keeps it."""
    if policy.bid_budget == 0 or policy.entry_prob == 0.0:
        return "shill never bids"
    budget = policy.bid_budget

    def outcome(a_won, own, total):
        final_price = spec.increment * total if spec.is_ascending else spec.price
        return spec.fee * (total - own) + (final_price - spec.value) * ~a_won, a_won, own

    return _counted_model(_shill_key(spec, policy.identities), lambda count, q: count < budget,
                          outcome)


def shill_profit(spec: AuctionSpec, policy: ShillPolicy) -> ShillOutcome:
    """Auctioneer's expected extra profit from planting a shill.

    Exact expected occupancy of the chain over (leader, shill bids placed s).
    Rows come from the phase in force, shill_chain(...).at(s): the shill bids
    with probability one while s < bid_budget, and the legitimate players,
    who cannot tell it from a real rival, play the symmetric solution for the
    inflated population until the shill's last budgeted bid and for the true
    one afterwards. With a zero budget or zero entry probability nothing
    changes and the extra profit is exactly zero. _shill_model declares the
    shill once, for this solve and the simulator.
    """
    model = _shill_model(spec, policy)
    if isinstance(model, str):
        return ShillOutcome(0.0, 0.0, 0.0, 0.0, 0.0, notes=(model,))
    (profit, won, shill_bids), notes = _expected(model)
    # the wins sum to one only to within rounding, so a shill that places its
    # whole budget on every path can come out an ulp or two above it
    return ShillOutcome(policy.entry_prob * profit, policy.entry_prob * won, profit, won,
                        min(shill_bids, float(policy.bid_budget)), notes)


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

    _committed_model declares the player once, for this solve and the
    simulator. With multiplier <= 1 committed play is vacuous, and so it is
    when even the opening bid would overshoot retail: every payoff is zero,
    with a note.
    """
    model = _committed_model(spec, policy.retail_multiplier)
    if isinstance(model, str):
        return CommittedOutcome(0.0, 0.0, 0.0, 0.0, notes=(model,))
    payoffs, notes = _expected(model)
    return CommittedOutcome(*payoffs, notes=notes)


def _committed_model(spec: AuctionSpec, alpha: float) -> _CountedModel | str:
    """The committed player (group A) with retail multiplier alpha against
    n - 1 regulars on the symmetric n-player solution, as a counted player
    (_CountedModel), or the note why every payoff is zero.

    With c own bids so far A places bid q only while winning right after
    it, (c + 1) fees plus the price after bid q, stays strictly below retail
    (in cents, so exactly). The outcome is (player profit, auctioneer
    profit, committed won, total bids): the fee credit tops a losing player
    up to exactly retail, and the auctioneer sells a second item at retail
    minus that credit.
    """
    if alpha <= 1.0:
        return "backstop at or below the item value, nothing to commit to"

    def bids(c, q):
        price_c = spec.increment_cents * q if spec.is_ascending else spec.price_cents
        return (c + 1) * spec.fee_cents + price_c < alpha * spec.value_cents

    if not bids(0, 1):
        return "even one bid would overshoot the retail backstop"
    v, b, retail = spec.value, spec.fee, alpha * spec.value

    def outcome(a_won, own, total):
        price = spec.increment * total if spec.is_ascending else spec.price
        return (np.where(a_won, v - own * b - price, v - retail),
                (b * total + price - v) + np.where(a_won, 0.0, (retail - own * b) - v),
                a_won, total)

    return _counted_model((spec, spec.population - 1, spec.population, spec.fee, "uniform"),
                          bids, outcome)


def _counted_chains(spec: AuctionSpec, rivals: int, perceived: int, fee_a: float,
                    tie_rule: str) -> tuple[TwoGroupChain, TwoGroupChain]:
    """The bidding and silent chains of one counted player, group A, who
    pays fee_a a bid, against `rivals` players on the spec's fee and value.

    A bids with probability one in the first chain and never in the second.
    The rivals best-respond to a symmetric world of `perceived` players in
    the first and of the true population in the second. Both chains depend
    on these arguments alone, never on a budget, an entry probability or a
    backstop, so their rows are kept in a one-entry memo keyed on the
    arguments (_counted_tables): the opening row, the stationary kernels,
    and per chain and leader the first row block and the led rows past the
    horizon. One entry is what a sweep over one player's budget or backstop
    reuses; a round that takes several players in turn builds each one's
    rows anew. The chains themselves are built fresh on every call.
    """
    def chain(a_bids: float, world: int) -> TwoGroupChain:
        return _chain(spec, group_a_size=1, group_b_size=rivals,
                      beta_a=lambda q, leader: a_bids,
                      beta_b=_bid_probability(spec, spec.fee_cents, spec.value_cents,
                                              _symmetric_world(world)),
                      fee_a=fee_a, fee_b=spec.fee, tie_rule=tie_rule)

    return chain(1.0, perceived), chain(0.0, spec.population)


# ---------------------------------------------------------------------------
# One counted player against symmetric rivals


class _CountedModel(NamedTuple):
    """One counted player, group A, against symmetric rivals, read by the
    exact solve (_expected) and the simulator alike: the shill and the
    committed player (_shill_model, _committed_model).

    A bids with probability one while a predicate bids(count, q) of its own
    placed bids and the bid index allows, and is silent from then on: the
    rows out of (leader, count) at bid index q are the bidding chain's while
    bids(count, q) holds and the silent chain's otherwise. A's bid lifts the
    count by one, B's leaves it. A bids the opening bid, and the predicate
    never grows with the count or with q. outcome(a_won, own, total) gives
    the payoffs of finished auctions, elementwise over numpy arrays. For a
    fixed winner and own count each payoff must be affine in total, as a
    final price of increment * total or a fixed price keeps it.
    """

    bidding: TwoGroupChain
    silent: TwoGroupChain
    bids: Callable
    outcome: Callable
    key: tuple  # the arguments of _counted_chains that built the two chains


def _counted_model(key: tuple, bids: Callable, outcome: Callable) -> _CountedModel:
    """A counted player on the chains of _counted_chains(*key)."""
    return _CountedModel(*_counted_chains(*key), bids, outcome, key)


class _CountedRows:
    """The rows of a counted player's two chains, bidding then silent, that
    its stop rule does not touch, under the model's key. Each part is built
    on its first read, from the chains of the model it was made for, and is
    read-only."""

    def __init__(self, model: _CountedModel):
        self.key, self.chains = model.key, (model.bidding, model.silent)

    @cached_property
    def opening(self) -> TransitionRow:
        """The bidding chain's opening row."""
        return self.chains[0].opening_row()

    @cached_property
    def kernels(self) -> tuple:
        """Each chain's stationary kernel as TransitionRows (fixed price)."""
        return tuple(tuple(TransitionRow(*row) for row in chain._kernel().tolist())
                     for chain in self.chains)

    @cached_property
    def firsts(self) -> tuple:
        """Each chain's first block of _leader_tables."""
        firsts = tuple(next(_leader_tables(chain)) for chain in self.chains)
        for first in firsts:
            first.setflags(write=False)
        return firsts

    @cached_property
    def leds(self) -> tuple:
        """Each chain's led rows past its horizon, as one broadcast block."""
        return tuple(_led_block(chain) for chain in self.chains)


# The _CountedRows of the most recent counted player, if any. It has one
# entry: a sweep over a budget, a backstop or an entry probability builds
# the rows once, while a round over several players (shill of one and of two
# identities, committed player, on each variant) still builds each player's
# anew. However long the horizon, it holds one block per chain and leader;
# _leader_blocks streams the blocks past it.
_counted_memo: list = []


def _counted_tables(model: _CountedModel) -> _CountedRows:
    """The model's _CountedRows: the memo's if its key is the model's, else
    a new entry on the model's chains, which replaces it."""
    for rows in _counted_memo[-1:]:
        if rows.key == model.key:
            return rows
    rows = _CountedRows(model)
    _counted_memo[:] = [rows]
    return rows


def _leader_blocks(model: _CountedModel) -> Iterator[tuple]:
    """_leader_tables of the bidding and the silent chain in step, one
    (bidding, silent) pair of blocks at a time, the first block and the led
    rows read from the memo (_counted_tables). Blocks between the first and
    the horizon are built as they are read and are not kept."""
    rows = _counted_tables(model)

    def blocks(i: int) -> Iterator[np.ndarray]:
        yield rows.firsts[i]
        chain = rows.chains[i]
        horizon, block = _blocking(chain)
        if horizon is None or 2 + block <= horizon:
            yield from _leader_tables(chain, 2 + block)
        else:
            yield from itertools.repeat(rows.leds[i])

    return zip(blocks(0), blocks(1))


class _CountedOccupancy(NamedTuple):
    """Expected ends of a counted-player chain, each field indexed by the
    leading group, A then B, and A's count: wins[g, c] is the probability
    that the auction ends with g leading and A holding c bids, and
    indexed_wins[g, c] the final bid index summed over those ends, weighted
    by probability; notes says why the solve stopped early, if it did."""

    wins: np.ndarray
    indexed_wins: np.ndarray
    notes: tuple = ()


_LIVE_MASS_TOL = 1e-15
_MERGE_CHUNK = 32  # bid indices whose rows _counted_rows merges at once


def _expected(model: _CountedModel) -> tuple[tuple, tuple]:
    """Expected payoffs of a counted-player model, and the solve's notes:
    the outcome, affine in the total, at each (leader, count) cell's mean
    final bid index indexed_wins / wins, weighted by the cell's wins."""
    occupancy = _counted_occupancy(model)
    wins = occupancy.wins
    total = np.divide(occupancy.indexed_wins, wins, out=np.zeros_like(wins), where=wins > 0)
    payoffs = model.outcome(np.array([[True], [False]]), np.arange(wins.shape[1]), total)
    return tuple(float((wins * payoff).sum()) for payoff in payoffs), occupancy.notes


def _counted_occupancy(model: _CountedModel) -> _CountedOccupancy:
    """Solve a counted-player chain: one sweep over the count at a fixed
    price, where rows and predicate ignore the bid index, else bid by bid."""
    bidding, bids = model.bidding, model.bids
    if bidding.time_homogeneous:
        return _counted_by_level(model)
    # A never holds more bids than the first count at which it passes on
    # bid 2, since the predicate only shrinks with q; the opening gives it
    # one. A lone A under the uniform rule cannot outbid itself, so each of
    # its bids after the first follows a rival bid, and rivals stop after
    # the horizon, bid Q+1: it places at most Q+2 bids.
    cap = bidding.horizon + 1 if bidding.tie_rule == "uniform" else math.inf
    top = next(c for c in itertools.count(1) if c >= cap or not bids(c, 2))
    return _counted_by_bid_index(model, top)


def _counted_by_level(model: _CountedModel) -> _CountedOccupancy:
    """Fixed-price occupancy as one forward sweep over A's count c.

    Level c holds (A leads, c) and (B leads, c), on the bidding chain's rows
    while bids(c, 2) holds and on the silent chain's at the first level where
    it does not, which is the last. (A leads, c) is entered only from level
    c - 1, by A's bid, and (B leads, c) only from (A leads, c), by B
    rebidding, or from the opening bid at c = 0, so with x the opening
    distribution and P the transient kernel the occupancy N = x (I - P)^-1
    comes out level by level. The index-weighted occupancy M = sum_t t x_t
    solves M (I - P) = N, the same sweep with N as its source. The sweep
    also ends once the mass lifted into the next level is below
    _LIVE_MASS_TOL, so a backstop far past the reachable counts costs
    nothing. Both kernels come from the memo (_counted_tables).
    """
    # [opening, A leads, B leads]; A bids the opening surely, so its absorb == 0
    (opening, *bidding_rows), (_, *silent_rows) = _counted_tables(model).kernels
    bids = model.bids
    levels = []  # per level: wins and index-weighted wins, each of A then B
    lifted_n = lifted_m = 0.0  # occupancy and index-weighted occupancy lifted into level c
    for c in itertools.count():
        active = bids(c, 2)
        a_row, b_row = bidding_rows if active else silent_rows
        led_n = lifted_n + (opening.to_a if c == 1 else 0.0)
        led_m = lifted_m + led_n
        leave_b = b_row.to_a + b_row.absorb
        other_n = ((opening.to_b if c == 0 else 0.0) + led_n * a_row.to_b) / leave_b
        other_m = (other_n + led_m * a_row.to_b) / leave_b
        levels.append((led_n * a_row.absorb, other_n * b_row.absorb,
                       led_m * a_row.absorb, other_m * b_row.absorb))
        lifted_n = led_n * a_row.to_a + other_n * b_row.to_a
        lifted_m = led_m * a_row.to_a + other_m * b_row.to_a
        if not active or c and lifted_n < _LIVE_MASS_TOL:
            return _CountedOccupancy(*np.array(levels).T.reshape(2, 2, -1))


def _counted_by_bid_index(model: _CountedModel, top: int) -> _CountedOccupancy:
    """Ascending occupancy stepped bid by bid over (leader, A's count)
    arrays, until the live mass drops below _LIVE_MASS_TOL.

    Steps come a merged chunk of rows at a time (_counted_rows). Within a
    chunk the loop only applies each step's kernel, two ufunc calls into
    preallocated buffers; wins, index-weighted wins and the stop test
    then come out of the chunk's occupancies with numpy, cut at the
    first step whose live mass is below the tolerance. Stopping at
    _MAX_STEPS logs a warning and adds a note.

    A's bid lifts its count by one through the layout alone: a state is a
    row of 2 (top + 2) slots, A leading with count c at slot c and B leading
    at slot top + 2 + c, and the step writes what flows to (A, c + 1) and
    (B, c) into the slots from 1 on, both read as one (2, top + 1) block.
    Slot top + 1 takes A's lift out of count top, which is 0 (A is silent
    there), and is never read.
    """
    opening = _counted_tables(model).opening  # A bids surely, so absorb == 0
    width = top + 1
    slots = np.zeros((_MERGE_CHUNK + 1, 2 * (width + 1)))  # [r]: live before step t + r
    occupancy = slots.reshape(-1, 2, width + 1)[:, :, :width]  # [r, leader, count]
    after = slots[:, 1:2 * width + 1].reshape(-1, 2, width)  # [r]: what step r - 1 moves in
    sources = occupancy[:, :, None]  # [r, leader, 1, count], against a kernel
    flows = np.empty((2, 2, width))  # [leader, destination, count]
    from_a, from_b = flows
    occupancy[0, 0, 1], occupancy[0, 1, 0] = opening.to_a, opening.to_b
    wins, indexed = np.zeros((2, width)), np.zeros((2, width))
    notes = ()
    t = 1  # the step the chunk starts at
    for rows in _counted_rows(model, top):
        n = min(len(rows), _MAX_STEPS - t + 1)
        for source, kernel, moved in zip(sources[:n], rows[:n, :, :2], after[1:n + 1]):
            np.multiply(source, kernel, flows)
            np.add(from_a, from_b, moved)
        below = np.flatnonzero(occupancy[1:n + 1].sum((1, 2)) < _LIVE_MASS_TOL)
        if below.size:
            n = int(below[0]) + 1
        won = occupancy[:n] * rows[:n, :, 2]
        wins += won.sum(0)
        indexed += (np.arange(t, t + n)[:, None, None] * won).sum(0)
        t += n
        if below.size:
            break
        slots[0] = slots[n]
        if t > _MAX_STEPS:
            live = occupancy[0].sum()
            import logging  # loaded on the first warning, not with the model
            logging.getLogger(__name__).warning(
                "counted-player recurrence stopped at %d bids with live mass %.3e", t - 1, live)
            notes = (f"stopped at the step cap after {t - 1} bids with live mass {live:.3e}",)
            break
    return _CountedOccupancy(wins, indexed, notes)


def _counted_rows(model: _CountedModel, top: int):
    """Rows in force at q = 2, 3, ... without end, one rows[q, leader,
    to_a/to_b/absorb, count] array per chunk of up to _MERGE_CHUNK bid
    indices: the bidding chain's where the predicate holds, the silent
    chain's elsewhere.

    Each chain's rows come a block at a time (_leader_blocks; the two
    chains share a horizon, so their blocks line up): the first block and
    the led rows past the horizon out of the one-entry row memo, keyed on
    the _counted_chains arguments, so the points of a sweep over the budget
    or the backstop build them once, and any blocks between streamed and
    dropped. They are merged a chunk at a time, which keeps the merged
    array small however many counts there are.
    """
    bids, counts = model.bids, np.arange(top + 1)
    q = 2
    for pair in _leader_blocks(model):
        # tables[chain][r, leader, to_a/to_b/absorb, 0] for bid index q + r
        tables = [table.transpose(2, 0, 1)[..., None] for table in pair]
        block = len(tables[0])
        for r in range(0, block, _MERGE_CHUNK):
            qs = np.arange(q + r, q + min(r + _MERGE_CHUNK, block))
            on = bids(counts, qs[:, None, None, None])  # against [q, leader, column, count]
            yield np.where(on, *(table[r:r + len(qs)] for table in tables))
        q += block


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

    Taking eta_i = ln(1 - beta_i) and zeta_i = -log1p((v_i - p - b_i) / b_i)
    turns this into the linear system sum(eta) - eta_i = zeta_i, solved by
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
    zeta = -np.log1p((pots - fees) / fees)
    eta = zeta.sum() / (n - 1) - zeta
    interior = bool(np.all(eta <= 1e-12))
    betas = -np.expm1(eta)
    total = eta.sum()
    residuals = np.exp(total - eta) - fees / pots
    notes = () if interior else ("no interior equilibrium for these parameters",)
    return FullInfoEquilibrium(betas=betas, interior=interior, residuals=residuals, notes=notes)
