"""Monte Carlo checks of the analytic machinery.

Two layers. simulate_one / estimate play the auction round by round at the
level of individual players and policies; they are slow but assume nothing,
so they are the independent check of the chain reduction itself, next to the
tests that build rows by enumerating every coin outcome. simulate_chain,
simulate_shill and simulate_committed share one sampling loop that runs many
trials of the reduced dynamics in vectorized lockstep: each round every live
trial draws one uniform against the row the analytic code already builds,
every one of them from TwoGroupChain._kernel. simulate_chain runs one
chain; the shill and the committed player each run the one declaration
their exact solvers read (asymmetry_models._CountedModel): its bidding and
silent chains, its stop rule and its payoffs. Sharing rows and payoffs,
they check the sums over those rows (closed form, recurrence, dynamic
programs), fast enough for tight cross-checks.

Randomness is counter-based (Philox). estimate gives every trial its own
spawned stream, so results do not depend on how work is batched; the
vectorized simulators draw from one stream in a fixed round order, which is
just as reproducible for a fixed trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .asymmetry_models import (CommittedPolicy, _committed_model, _counted_tables, _leader_blocks,
                               _shill_model)
from .core_model import AuctionSpec, symmetric_beta
from .markov_engine import TransitionRow, TwoGroupChain, _leader_tables

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
    """The n symmetric equilibrium players of spec. They share the last
    (q, first) asked for and its beta, so the players of one round cost one
    symmetric_beta call, not one each."""
    last = [None, 0.0]

    def proto(q: int, first: bool, spend: float) -> float:
        if last[0] != (q, first):
            last[:] = (q, first), symmetric_beta(spec, q, first_bid=first)
        return last[1]

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

    The chain's own rows drive _simulate_counted, with the chain in force
    whatever group A's count. Statistics are conditioned on the auction
    receiving an opening bid.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    success, winner_a, bids_a, total_bids = _simulate_counted(
        chain.opening_row(), ((table, table) for table in _leader_tables(chain)),
        lambda count, q: True, trials, rng, max_rounds)
    successes = int(success.sum())
    if successes == 0:
        raise RuntimeError("no trial received an opening bid")
    bids_b = total_bids - bids_a
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


def _simulate_counted(opening: TransitionRow, blocks: Iterator[tuple], bids: Callable,
                      trials: int, rng: np.random.Generator,
                      max_rounds: int) -> tuple[np.ndarray, ...]:
    """Lockstep trials of a two-group chain whose rows switch on A's count.

    Each trial counts group A's placed bids. The opening bid is drawn
    against the opening row; every later round each live trial draws one
    uniform against its leader's row at the current bid index, in the chain
    its count puts in force (the bidding chain while bids(count, q) holds,
    the silent one otherwise), the rows evolve_recurrence and the
    counted-player solvers step over: below absorb the auction ends, below
    absorb + to_a group A places the bid, otherwise group B does. Rows come
    a block at a time, as (bidding, silent) pairs of _leader_tables blocks:
    a lone chain's own, or a counted player's from
    asymmetry_models._leader_blocks, whose opening row, first block and led
    rows come out of a one-entry memo keyed on the _counted_chains
    arguments, so a sweep over one player's budget or backstop builds them
    once and the next player builds its own. Returns, per trial, whether
    the auction opened, whether A won, A's bids and all bids.
    """
    u = rng.random(trials)
    success = u >= opening.absorb
    live = np.flatnonzero(success)
    leads = u[live] < opening.absorb + opening.to_a
    placed = leads.astype(np.int64)
    won = np.zeros(trials, dtype=bool)
    bids_a = np.zeros(trials, dtype=np.int64)
    total_bids = np.zeros(trials, dtype=np.int64)
    # each step's rows[2 * (A bids) + (A leads), to_a/to_b/absorb]
    rows = (by_state for bidding, silent in blocks
            for by_state in np.concatenate((silent[::-1], bidding[::-1])).transpose(2, 0, 1))
    for t, by_state in enumerate(rows, start=1):
        if t > max_rounds:
            raise RuntimeError(f"simulation exceeded {max_rounds} rounds")
        to_a, _, absorb = by_state.T
        state = 2 * bids(placed, t + 1) + leads
        u = rng.random(live.size)
        ended = u < absorb[state]
        done = live[ended]
        won[done] = leads[ended]
        bids_a[done] = placed[ended]
        total_bids[done] = t
        go = ~ended
        live, placed = live[go], placed[go]
        leads = u[go] < (absorb + to_a)[state[go]]
        placed += leads
        if live.size == 0:
            break
    return success, won, bids_a, total_bids


def _simulate_model(model, trials: int, rng: np.random.Generator, max_rounds: int) -> tuple:
    """Per-trial payoffs of a counted player declared by an asymmetry model
    (_shill_model, _committed_model): _simulate_counted runs its chains and
    stop rule, its opening row and first row blocks read from the row memo
    (asymmetry_models._counted_tables), and the model's outcome prices each
    finished trial."""
    _, won, own, total = _simulate_counted(_counted_tables(model).opening, _leader_blocks(model),
                                           model.bids, trials, rng, max_rounds)
    return model.outcome(won, own, total)


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

    Trials where the shill stays out contribute exactly zero extra profit,
    as do all trials of a shill that never bids. Entered trials run on the
    shill's one declaration (asymmetry_models._shill_model), the chains,
    stop rule and payoffs shill_profit solves exactly.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    entered = rng.random(trials) < policy.entry_prob
    profits = np.zeros(trials)
    shill_won = np.zeros(trials, dtype=bool)
    n_in = int(entered.sum())
    model = _shill_model(spec, policy)
    if n_in and not isinstance(model, str):
        profits[entered], shill_won[entered], _ = _simulate_model(
            model, n_in, rng, _MAX_SHILL_ROUNDS)
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
        return float(0.0 - self.player_profits.min())  # 0.0 - x is never -0.0

    @property
    def committed_win_prob(self) -> float:
        return float(self.committed_won.mean())


def simulate_committed(spec: AuctionSpec, retail_multiplier: float, trials: int,
                       seed: int = 0, max_rounds: int = 10_000_000) -> CommittedSim:
    """Vectorized trajectories of the committed player against symmetric rivals.

    Runs on the committed player's one declaration
    (asymmetry_models._committed_model), the chains, stop rule and payoffs
    committed_player_profit solves exactly; the multiplier is checked as
    CommittedPolicy checks it. Where that solve reports zero, so does every
    trial.
    """
    model = _committed_model(spec, CommittedPolicy(retail_multiplier).retail_multiplier)
    if trials < 1:
        raise ValueError("need at least one trial")
    if isinstance(model, str):
        zeros = np.zeros(trials)
        return CommittedSim(zeros, zeros.copy(), np.zeros(trials, dtype=bool),
                            np.zeros(trials, dtype=np.int64))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    return CommittedSim(*_simulate_model(model, trials, rng, max_rounds))
