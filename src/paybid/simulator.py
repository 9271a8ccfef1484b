"""Monte Carlo oracle for the analytic machinery.

Two layers. simulate_one / estimate play the auction round by round at the
level of individual players and policies; they are slow but assume nothing,
so they can falsify the chain reduction itself. simulate_chain and
simulate_committed run many trials of the reduced two-group (or committed
player) dynamics in vectorized lockstep, fast enough for tight cross-checks
against closed forms.

Randomness is counter-based (Philox). estimate gives every trial its own
spawned stream, so results do not depend on how work is batched; the
vectorized simulators draw from one stream in a fixed round order, which is
just as reproducible for a fixed trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core_model import AuctionSpec, symmetric_beta
from .markov_engine import TwoGroupChain

__all__ = [
    "PlayerPolicy",
    "AuctionTrial",
    "EstimateSummary",
    "ChainEstimate",
    "ShillSim",
    "CommittedSim",
    "symmetric_policies",
    "simulate_one",
    "estimate",
    "simulate_chain",
    "simulate_shill",
    "simulate_committed",
]


@dataclass(frozen=True)
class PlayerPolicy:
    """One player's behavior: probability of bidding at bid index q.

    bid_probability(q, is_first_bid, own_spend) -> float. fee is what this
    player pays per bid (the house pays nothing for a shill). group tags the
    player for win-rate bookkeeping.
    """

    bid_probability: Callable[[int, bool, float], float]
    fee: float
    role: str = "regular"
    group: str = "B"


def symmetric_policies(spec: AuctionSpec) -> list[PlayerPolicy]:
    """The n symmetric equilibrium players of spec."""

    def proto(q: int, first: bool, spend: float) -> float:
        return symmetric_beta(spec, q, first_bid=first)

    return [PlayerPolicy(bid_probability=proto, fee=spec.fee) for _ in range(spec.population)]


@dataclass(frozen=True)
class AuctionTrial:
    winner: Optional[int]
    total_bids: int
    revenue: float
    per_player_spend: np.ndarray
    trajectory: Optional[list] = None


def _as_generator(rng_or_seed) -> np.random.Generator:
    if isinstance(rng_or_seed, np.random.Generator):
        return rng_or_seed
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(rng_or_seed)))


def simulate_one(
    spec: AuctionSpec,
    policies: Sequence[PlayerPolicy],
    rng_or_seed,
    record_trajectory: bool = False,
    max_rounds: int = 1_000_000,
) -> AuctionTrial:
    """Play the auction once, round by round.

    Each round every non-leading player flips its policy coin; one of the
    winners of the flip, chosen uniformly, places the bid and pays its fee.
    No coin coming up heads ends the auction. The opening round has no leader
    and q = 1.
    """
    if len(policies) != spec.population:
        raise ValueError("need one policy per player")
    rng = _as_generator(rng_or_seed)
    n = spec.population
    spend = np.zeros(n)
    leader: Optional[int] = None
    trajectory: Optional[list] = [] if record_trajectory else None
    t = 0
    for _ in range(max_rounds):
        q = t + 1
        first = leader is None
        contenders = [i for i in range(n) if i != leader]
        probs = np.array([policies[i].bid_probability(q, first, spend[i]) for i in contenders])
        heads = np.flatnonzero(rng.random(len(contenders)) < probs)
        if heads.size == 0:
            break
        pick = contenders[heads[rng.integers(heads.size)]] if heads.size > 1 else contenders[heads[0]]
        spend[pick] += policies[pick].fee
        leader = pick
        t += 1
        if trajectory is not None:
            trajectory.append(pick)
    else:
        raise RuntimeError(f"auction did not terminate within {max_rounds} rounds")

    fees = float(spend.sum())
    price_paid = 0.0
    if leader is not None and policies[leader].role != "shill":
        price_paid = spec.increment * t if spec.is_ascending else spec.price
    return AuctionTrial(
        winner=leader,
        total_bids=t,
        revenue=fees + price_paid,
        per_player_spend=spend,
        trajectory=trajectory,
    )


@dataclass(frozen=True)
class EstimateSummary:
    trials: int
    successes: int
    success_rate: float
    mean_revenue: float
    se_revenue: Optional[float]
    mean_bids: float
    win_probs: dict

    def within(self, target: float, sigmas: float = 3.0) -> bool:
        if self.se_revenue is None:
            raise ValueError("standard error undefined with fewer than two successes")
        return abs(self.mean_revenue - target) <= sigmas * self.se_revenue


def estimate(
    spec: AuctionSpec,
    policies: Sequence[PlayerPolicy],
    trials: int,
    seed: int = 0,
) -> EstimateSummary:
    """Run simulate_one many times; revenue statistics are success-conditioned.

    Every trial gets its own spawned Philox stream keyed by (seed, index), so
    a given (spec, policies, trials, seed) always reproduces byte for byte.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    revenues = []
    bids = []
    wins: dict = {}
    successes = 0
    for i in range(trials):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
        trial = simulate_one(spec, policies, rng)
        if trial.winner is None:
            continue
        successes += 1
        revenues.append(trial.revenue)
        bids.append(trial.total_bids)
        group = policies[trial.winner].group
        wins[group] = wins.get(group, 0) + 1
    if successes == 0:
        return EstimateSummary(trials, 0, 0.0, math.nan, None, math.nan, {})
    rev = np.array(revenues)
    se = float(rev.std(ddof=1) / math.sqrt(successes)) if successes > 1 else None
    win_probs = {g: c / successes for g, c in sorted(wins.items())}
    return EstimateSummary(
        trials=trials,
        successes=successes,
        success_rate=successes / trials,
        mean_revenue=float(rev.mean()),
        se_revenue=se,
        mean_bids=float(np.mean(bids)),
        win_probs=win_probs,
    )


@dataclass(frozen=True)
class ChainEstimate:
    trials: int
    successes: int
    success_rate: float
    mean_revenue: float
    se_revenue: float
    mean_bids: float
    se_bids: float
    win_prob_a: float
    se_win_a: float
    win_prob_b: float
    bids_a: Optional[np.ndarray] = None
    bids_b: Optional[np.ndarray] = None
    total_bids: Optional[np.ndarray] = None
    winner_is_a: Optional[np.ndarray] = None
    success: Optional[np.ndarray] = None


def simulate_chain(
    chain: TwoGroupChain,
    trials: int,
    seed: int = 0,
    keep_arrays: bool = False,
    max_rounds: int = 1_000_000,
) -> ChainEstimate:
    """Vectorized Monte Carlo of a two-group chain, all trials in lockstep.

    Each round draws the two groups' head counts from binomials with the
    proper eligible counts (the leader's group loses one coin; single_ticket
    caps group A at one), then settles the uniform lottery. Statistics are
    conditioned on the auction receiving an opening bid.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    k_a, k_b = chain.group_a_size, chain.group_b_size
    single = chain.tie_rule == "single_ticket"

    ba0 = chain.beta_a(1, None) if k_a > 0 else 0.0
    bb0 = chain.beta_b(1, None) if k_b > 0 else 0.0
    ea0 = (1 if k_a > 0 else 0) if single else k_a
    i = rng.binomial(ea0, ba0, size=trials)
    j = rng.binomial(k_b, bb0, size=trials)
    tot = i + j
    success = tot > 0
    u = rng.random(trials)
    leader_a = u * tot < i

    bids_a = np.where(leader_a & success, 1, 0).astype(np.int64)
    bids_b = np.where(~leader_a & success, 1, 0).astype(np.int64)
    total_bids = np.zeros(trials, dtype=np.int64)
    winner_a = np.zeros(trials, dtype=bool)
    active = success.copy()
    t = 1
    while active.any():
        if t > max_rounds:
            raise RuntimeError(f"chain simulation exceeded {max_rounds} rounds")
        q = t + 1
        idx = np.flatnonzero(active)
        la = leader_a[idx]
        beta_a_arr = np.where(la, chain.beta_a(q, "A") if k_a > 0 else 0.0,
                              chain.beta_a(q, "B") if k_a > 0 else 0.0)
        beta_b_arr = np.where(la, chain.beta_b(q, "A") if k_b > 0 else 0.0,
                              chain.beta_b(q, "B") if k_b > 0 else 0.0)
        if single:
            elig_a = np.ones(idx.size, dtype=np.int64) if k_a > 0 else np.zeros(idx.size, dtype=np.int64)
        else:
            elig_a = k_a - la.astype(np.int64)
        elig_b = k_b - (~la).astype(np.int64)
        i = rng.binomial(elig_a, beta_a_arr)
        j = rng.binomial(elig_b, beta_b_arr)
        tot = i + j
        ended = tot == 0
        done_idx = idx[ended]
        winner_a[done_idx] = la[ended]
        total_bids[done_idx] = t
        active[done_idx] = False
        cont = ~ended
        if cont.any():
            u = rng.random(int(cont.sum()))
            new_leader_a = u * tot[cont] < i[cont]
            cont_idx = idx[cont]
            leader_a[cont_idx] = new_leader_a
            bids_a[cont_idx] += new_leader_a
            bids_b[cont_idx] += ~new_leader_a
        t += 1

    successes = int(success.sum())
    if successes == 0:
        raise RuntimeError("no trial received an opening bid")
    revenue = (chain.fee_a * bids_a + chain.fee_b * bids_b
               + chain.increment * total_bids + chain.price)
    rev_s = revenue[success]
    bids_s = total_bids[success]
    win_a = winner_a[success]
    p_a = float(win_a.mean())
    out = ChainEstimate(
        trials=trials,
        successes=successes,
        success_rate=successes / trials,
        mean_revenue=float(rev_s.mean()),
        se_revenue=float(rev_s.std(ddof=1) / math.sqrt(successes)) if successes > 1 else math.nan,
        mean_bids=float(bids_s.mean()),
        se_bids=float(bids_s.std(ddof=1) / math.sqrt(successes)) if successes > 1 else math.nan,
        win_prob_a=p_a,
        se_win_a=float(math.sqrt(p_a * (1.0 - p_a) / successes)),
        win_prob_b=float(1.0 - p_a),
        bids_a=bids_a if keep_arrays else None,
        bids_b=bids_b if keep_arrays else None,
        total_bids=total_bids if keep_arrays else None,
        winner_is_a=winner_a if keep_arrays else None,
        success=success if keep_arrays else None,
    )
    return out


_MAX_SHILL_ROUNDS = 1_000_000


@dataclass(frozen=True)
class ShillSim:
    """Unconditional shill outcome: zeros where the shill stayed out."""

    profits: np.ndarray
    shill_won: np.ndarray
    entered: np.ndarray

    @property
    def mean_profit(self) -> float:
        return float(self.profits.mean())

    @property
    def se_profit(self) -> float:
        return float(self.profits.std(ddof=1) / math.sqrt(len(self.profits)))

    @property
    def win_prob_shill(self) -> float:
        return float(self.shill_won.mean())


def simulate_shill(spec: AuctionSpec, policy, trials: int, seed: int = 0) -> ShillSim:
    """Monte Carlo of the shill model including the entry coin.

    Trials where the shill stays out contribute exactly zero extra profit.
    Entered trials are played round by round, all in lockstep, and each
    counts its own shill bids: while bids remain in the budget the shill
    puts a ticket into every lottery it is eligible for (one identity: any
    round a legitimate player leads; two identities: every round) and the
    legitimate players flip coins at the active phase's probability; from
    the shill's last budgeted bid on the shill is silent and they use the
    spent phase's. Only the legitimate bid probabilities come from
    shill_chain, so the run checks shill_profit's rows and recurrence
    independently. Profit is legitimate fees plus the final price when a
    legitimate player wins, minus the item in that case.
    """
    from .asymmetry_models import shill_chain

    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    entered = rng.random(trials) < policy.entry_prob
    profits = np.zeros(trials)
    shill_won = np.zeros(trials, dtype=bool)
    n_in = int(entered.sum())
    if policy.bid_budget < 1 or n_in == 0:
        return ShillSim(profits=profits, shill_won=shill_won, entered=entered)

    phases = shill_chain(spec, policy)
    n = spec.population
    # Opening round: no leader, the shill bids against n legitimate coins.
    j = rng.binomial(n, phases.active.beta_b(1, None), size=n_in)
    shill_leads = rng.random(n_in) * (1 + j) < 1
    shill_bids = shill_leads.astype(np.int64)
    legit_bids = (~shill_leads).astype(np.int64)
    total_bids = np.ones(n_in, dtype=np.int64)
    live = np.ones(n_in, dtype=bool)
    t = 1
    while live.any():
        if t > _MAX_SHILL_ROUNDS:
            raise RuntimeError(f"shill simulation exceeded {_MAX_SHILL_ROUNDS} rounds")
        q = t + 1
        idx = np.flatnonzero(live)
        lead = shill_leads[idx]
        bidding = shill_bids[idx] < policy.bid_budget
        shill_ticket = bidding & ~lead if policy.identities == 1 else bidding
        beta = np.where(
            bidding,
            np.where(lead, phases.active.beta_b(q, "A"), phases.active.beta_b(q, "B")),
            np.where(lead, phases.spent.beta_b(q, "A"), phases.spent.beta_b(q, "B")),
        )
        # a leading legitimate player sits the round out
        tickets = shill_ticket + rng.binomial(n - (~lead).astype(np.int64), beta)
        ended = tickets == 0
        live[idx[ended]] = False
        go = idx[~ended]
        to_shill = rng.random(go.size) * tickets[~ended] < shill_ticket[~ended]
        shill_leads[go] = to_shill
        shill_bids[go] += to_shill
        legit_bids[go] += ~to_shill
        total_bids[go] += 1
        t += 1

    legit_win = ~shill_leads
    final_price = spec.increment * total_bids if spec.is_ascending else spec.price
    profits[entered] = spec.fee * legit_bids + (final_price - spec.value) * legit_win
    shill_won[entered] = shill_leads
    return ShillSim(profits=profits, shill_won=shill_won, entered=entered)


@dataclass(frozen=True)
class CommittedSim:
    player_profits: np.ndarray
    auctioneer_profits: np.ndarray
    committed_won: np.ndarray
    total_bids: np.ndarray

    @property
    def mean_player_profit(self) -> float:
        return float(self.player_profits.mean())

    @property
    def se_player_profit(self) -> float:
        return float(self.player_profits.std(ddof=1) / math.sqrt(len(self.player_profits)))

    @property
    def mean_auctioneer_profit(self) -> float:
        return float(self.auctioneer_profits.mean())

    @property
    def se_auctioneer_profit(self) -> float:
        return float(self.auctioneer_profits.std(ddof=1) / math.sqrt(len(self.auctioneer_profits)))

    @property
    def max_player_loss(self) -> float:
        return float(-self.player_profits.min())

    @property
    def committed_win_prob(self) -> float:
        return float(self.committed_won.mean())


def simulate_committed(spec: AuctionSpec, retail_multiplier: float, trials: int,
                       seed: int = 0, max_rounds: int = 10_000_000) -> CommittedSim:
    """Vectorized trajectories of the committed player against symmetric rivals.

    Mirrors the dynamic program: the committed player bids with probability
    one while (own bids + 1) * b plus the winning price stays strictly below
    the retail backstop; losing paths top up to retail with fees credited.
    """
    if not math.isfinite(retail_multiplier):
        raise ValueError(f"retail multiplier must be finite, got {retail_multiplier}")
    if retail_multiplier <= 1.0:
        raise ValueError("the committed strategy needs a retail price above the item value")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n = spec.population
    v = spec.value
    b = spec.fee
    fee_c = float(spec.fee_cents)
    retail = retail_multiplier * v
    retail_c = retail_multiplier * spec.value_cents
    inc_c = float(spec.increment_cents) if spec.is_ascending else 0.0

    def price_at(t: int) -> float:
        return spec.increment * t if spec.is_ascending else spec.price

    player = np.zeros(trials)
    auctioneer = np.zeros(trials)
    won = np.zeros(trials, dtype=bool)
    total = np.zeros(trials, dtype=np.int64)
    c = np.zeros(trials, dtype=np.int64)

    beta1 = symmetric_beta(spec, 1)
    j0 = rng.binomial(n - 1, beta1, size=trials)
    leader_c = rng.random(trials) * (1 + j0) < 1
    c[leader_c] = 1
    active = np.ones(trials, dtype=bool)
    t = 1
    while active.any():
        if t > max_rounds:
            raise RuntimeError("committed simulation did not terminate")
        q = t + 1
        try:
            beta = symmetric_beta(spec, q, first_bid=False)
        except ValueError:
            beta = 0.0
        idx = np.flatnonzero(active)
        lc = leader_c[idx]

        led = idx[lc]
        if led.size:
            jl = rng.binomial(n - 1, beta, size=led.size)
            fin = jl == 0
            done = led[fin]
            if done.size:
                player[done] = v - c[done] * b - price_at(t)
                auctioneer[done] = b * t + price_at(t) - v
                won[done] = True
                total[done] = t
                active[done] = False
            leader_c[led[~fin]] = False

        oth = idx[~lc]
        if oth.size:
            price_next_c = inc_c * (t + 1) if spec.is_ascending else float(spec.price_cents or 0)
            allows = (c[oth] + 1) * fee_c + price_next_c < retail_c
            stopped = oth[~allows]
            if stopped.size:
                js = rng.binomial(n - 2, beta, size=stopped.size)
                fin = js == 0
                done = stopped[fin]
                if done.size:
                    player[done] = v - retail
                    auctioneer[done] = (b * t + price_at(t) - v) + (retail - c[done] * b) - v
                    total[done] = t
                    active[done] = False
            bidding = oth[allows]
            if bidding.size:
                jb = rng.binomial(n - 2, beta, size=bidding.size)
                grab = rng.random(bidding.size) * (1 + jb) < 1
                took = bidding[grab]
                leader_c[took] = True
                c[took] += 1
        t += 1

    return CommittedSim(
        player_profits=player,
        auctioneer_profits=auctioneer,
        committed_won=won,
        total_bids=total,
    )
