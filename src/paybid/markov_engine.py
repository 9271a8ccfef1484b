"""Absorbing Markov chain over two bidder groups.

Asymmetric auctions in this package reduce to two groups, A and B, whose
members share a bid probability within the group. The chain state is which
group holds the lead; W_A and W_B are the absorbing "auction over" states. One
transition is one bid: every eligible player (non-leaders only, the current
leader sits out) flips its coin, and if at least one wants to bid a uniformly
random one among them gets the bid in. If nobody bids the current leader wins.

The opening bid is handled outside the chain: there is no leader yet, so the
eligible counts and exponents differ. first_bid_distribution gives the state
the chain starts from, conditioned on the auction succeeding.

Two tie rules are supported. "uniform" is the lottery described above.
"single_ticket" lets group A put at most one ticket into the lottery (the
group acts through one hand per round); availability and probability of that
ticket are whatever beta_a returns for the round. Formally single_ticket is
the uniform rule with the eligible A count forced to one.

Bid probabilities are callables beta(q, leader) so that ascending auctions,
where the amount at stake shrinks with the bid index q, fit the same engine.
leader is "A", "B", or None for the opening bid. q is an int or an integer
array of bid indices (see BetaFn).

With e_A and e_B eligible coins the lottery is one integral per group,
to_a = e_A beta_A int_0^1 (1 - beta_A s)^(e_A - 1) (1 - beta_B s)^e_B ds,
whose polynomial integrand a Gauss-Legendre rule integrates exactly (see
_lottery_rows); the no-bid entry is (1 - beta_A)^e_A (1 - beta_B)^e_B.

Rows are tabulated: TwoGroupChain.row_table calls each beta callable once
with the array of a range's bid indices and builds every row of that range
in one vectorized pass of the lottery. It is the only row path:
TwoGroupChain.transitions, opening_row and build_transitions are its
one-row case. A time-homogeneous chain needs one row per leader;
evolve_recurrence reads that row, or for any other chain a table per block
of bid indices, and steps a whole block per numpy pass through prefix
products of the 2x2 kernels. The vectorized simulators draw against the
same rows, one bid index at a time (_rows_by_step).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple, Optional, Union

import numpy as np

__all__ = [
    "BetaFn",
    "TransitionRow",
    "RowTable",
    "TwoGroupChain",
    "AbsorptionSummary",
    "OccupancySeries",
    "NonAbsorbingChainError",
    "build_transitions",
    "first_bid_distribution",
    "absorption_closed_form",
    "evolve_recurrence",
    "expected_revenue_from_series",
]


#: beta(q, leader): the bid probability of one group member at bid index q
#: when `leader` leads. q is an int or an integer ndarray of bid indices; an
#: array q gives an array of its shape or one scalar, which stands for every
#: index, and an int q gives a float (a numpy float counts).
BetaFn = Callable[[Union[int, np.ndarray], Optional[str]], Union[float, np.ndarray]]

_TIE_RULES = ("uniform", "single_ticket")
_ROW_BLOCK = 1024  # bid indices per row-table block when no horizon bounds the chain


class TransitionRow(NamedTuple):
    """One row of the transition kernel: destination probabilities of a state."""

    to_a: float
    to_b: float
    absorb: float


class RowTable(NamedTuple):
    """Rows out of one leader's state for the bid indices q_start <= q <
    q_stop of TwoGroupChain.row_table; entry r belongs to q_start + r."""

    to_a: np.ndarray
    to_b: np.ndarray
    absorb: np.ndarray


class NonAbsorbingChainError(ValueError):
    """Raised when the chain cannot reach an absorbing state."""


def _check_probs(betas: np.ndarray) -> None:
    """Raise on the first entry of betas[group, r] outside [0, 1], A's first."""
    valid = (betas >= 0.0) & (betas <= 1.0)  # NaN fails the comparisons too
    if not valid.all():
        group, r = np.argwhere(~valid)[0]
        raise ValueError(f"beta_{'ab'[group]} must be a probability in [0, 1], "
                         f"got {betas[group, r]}")


@lru_cache(maxsize=64)
def _legendre_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of a count-point rule on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    rule = ((nodes + 1.0) / 2.0, weights / 2.0)
    for part in rule:
        part.setflags(write=False)  # shared by every caller through the cache
    return rule


def _lottery_rows(elig_a: int, elig_b: int,
                  betas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(to_a, to_b, absorb) for elig_a + elig_b independent coins and a
    uniform draw, one entry per pair (betas[0, r], betas[1, r]).

    A given A coin gets the bid with probability beta_a E[1 / (1 + Y)], Y the
    heads among the other coins, and E[1 / (1 + Y)] = int_0^1 E[s^Y] ds, so
    to_a = elig_a beta_a int_0^1 (1 - beta_a s)^(elig_a - 1) (1 - beta_b s)^elig_b ds
    (to_b likewise). The integrand is a polynomial of degree
    elig_a + elig_b - 1, which ceil((elig_a + elig_b) / 2) Gauss-Legendre
    nodes integrate exactly, with positive weights, so nothing cancels.
    absorb is the closed form (1 - beta_a)^elig_a (1 - beta_b)^elig_b with
    each factor taken in log space (1 for a group with no eligible coin), and
    to_a and to_b are scaled to sum to its complement, so every row sums to 1
    within a rounding.
    """
    elig = np.array([elig_a, elig_b], dtype=float)[:, None]
    nodes, weights = _legendre_nodes(max(1, (elig_a + elig_b + 1) // 2))
    stay = 1.0 - betas[:, :, None] * nodes  # [group, r, node], positive as nodes < 1
    powers = stay ** elig[:, :, None]
    # (1 - beta_a s)^elig_a (1 - beta_b s)^elig_b over one factor of the
    # group's own; for a group with no eligible coin the elig factor zeroes it
    moves = elig * betas * (powers[0] * powers[1] / stay @ weights)
    with np.errstate(divide="ignore"):  # log1p(-1) is -inf: that group always bids
        logs = np.multiply(elig, np.log1p(-betas), out=np.zeros_like(betas), where=elig > 0)
    moved = -np.expm1(logs[0] + logs[1])
    total = moves[0] + moves[1]  # 0 only where no coin can come up heads
    moves *= moved / np.where(total > 0.0, total, 1.0)
    factors = np.exp(logs)
    return moves[0], moves[1], factors[0] * factors[1]


def _eligible_counts(k_a: int, k_b: int, leader: Optional[str], tie_rule: str) -> tuple[int, int]:
    if leader not in ("A", "B", None):
        raise ValueError(f"leader must be 'A', 'B', or None, got {leader!r}")
    if leader == "A" and k_a <= 0:
        raise ValueError("group A cannot lead, it has no members")
    if leader == "B" and k_b <= 0:
        raise ValueError("group B cannot lead, it has no members")
    elig_b = k_b - 1 if leader == "B" else k_b
    if tie_rule == "single_ticket":
        # One hand per round for group A; whether the ticket is live is encoded
        # in beta_a (builders set it to 0 when the group cannot bid).
        elig_a = 1
    else:
        elig_a = k_a - 1 if leader == "A" else k_a
    return elig_a, elig_b


def build_transitions(
    k_a: int,
    k_b: int,
    beta_a,
    beta_b,
    tie_rule: str = "uniform",
    q: int = 2,
    leader: Optional[str] = "B",
) -> TransitionRow:
    """Transition row out of the state where `leader` holds the lead.

    k_a and k_b are the group sizes. beta_a / beta_b may be plain floats or
    callables of (q, leader). The leader's own group loses one eligible coin.
    This is TwoGroupChain.transitions of the chain with those groups.
    """
    betas = [beta if callable(beta) else (lambda q, leader, x=beta: x) for beta in (beta_a, beta_b)]
    return TwoGroupChain(k_a, k_b, *betas, fee_a=0.0, fee_b=0.0,
                         tie_rule=tie_rule).transitions(q, leader)


@dataclass
class TwoGroupChain:
    """A fully specified two-group auction chain.

    Fees are per-bid dollar amounts charged to whichever group places the bid.
    Exactly one of increment / price should be nonzero except for the 100%-off
    case where both are 0. time_homogeneous marks chains whose rows do not
    depend on q, which unlocks the closed-form absorption solve.
    """

    group_a_size: int
    group_b_size: int
    beta_a: BetaFn
    beta_b: BetaFn
    fee_a: float
    fee_b: float
    increment: float = 0.0
    price: float = 0.0
    tie_rule: str = "uniform"
    horizon: Optional[int] = None
    time_homogeneous: bool = False
    notes: tuple = ()

    def __post_init__(self):
        if self.tie_rule not in _TIE_RULES:
            raise ValueError(f"unknown tie rule {self.tie_rule!r}, expected one of {_TIE_RULES}")
        if self.group_a_size < 0 or self.group_b_size < 0:
            raise ValueError("group sizes must be nonnegative")
        if self.group_a_size + self.group_b_size < 1:
            raise ValueError("chain needs at least one player")
        if self.increment < 0 or self.price < 0:
            raise ValueError("increment and price must be nonnegative")
        if self.increment > 0 and self.price > 0:
            raise ValueError("a chain is either ascending or fixed price, not both")
        if self.horizon is not None and self.horizon < 1:
            raise ValueError("horizon must be at least 1")

    @property
    def population(self) -> int:
        return self.group_a_size + self.group_b_size

    def transitions(self, q: int, leader: str) -> TransitionRow:
        """Row out of `leader`'s state at bid index q, the one-row case of
        row_table."""
        return TransitionRow(*(column.item() for column in self.row_table(leader, q, q + 1)))

    def row_table(self, leader: str, q_start: int, q_stop: int) -> RowTable:
        """Rows out of `leader`'s state for every bid index q_start <= q < q_stop.

        Each beta is called once, with the array of bid indices; all rows
        then come out of one vectorized pass of the lottery (see
        _lottery_rows).
        """
        qs = np.arange(q_start, q_stop)
        betas = np.empty((2, len(qs)))  # a scalar beta fills its whole row
        betas[0], betas[1] = self.beta_a(qs, leader), self.beta_b(qs, leader)
        _check_probs(betas)
        elig_a, elig_b = _eligible_counts(self.group_a_size, self.group_b_size, leader,
                                          self.tie_rule)
        return RowTable(*_lottery_rows(elig_a, elig_b, betas))

    def opening_row(self) -> TransitionRow:
        """Outcome split of the opening bid: (goes to A, goes to B, no bid)."""
        return self.transitions(1, None)


def first_bid_distribution(chain: TwoGroupChain, conditioned: bool = True):
    """Initial state distribution (P(A leads), P(B leads)) after bid one.

    With conditioned=True (the default) the no-bid event is removed and the
    two probabilities sum to one. Raises if no player ever makes the opening
    bid.
    """
    row = chain.opening_row()
    mass = row.to_a + row.to_b
    if mass <= 0.0:
        raise NonAbsorbingChainError("no opening bid is possible in this chain")
    if not conditioned:
        return np.array([row.to_a, row.to_b])
    return np.array([row.to_a / mass, row.to_b / mass])


@dataclass
class AbsorptionSummary:
    """Closed-form absorption quantities of a time-homogeneous chain.

    expected_visits[i, j] is the expected number of bids placed by group j
    when the chain starts with group i leading (the fundamental matrix).
    absorption_probs[i, j] is the probability of ending in W_j from start i.
    Aggregates use start_distribution, the success-conditioned opening split.
    """

    expected_visits: np.ndarray
    absorption_probs: np.ndarray
    start_distribution: np.ndarray
    expected_bids: float
    bids_by_group: np.ndarray
    win_probs: np.ndarray
    expected_revenue: float


def absorption_closed_form(chain: TwoGroupChain, q: int = 2) -> AbsorptionSummary:
    """Solve a time-homogeneous chain exactly.

    The transient part is the 2x2 matrix T with rows (from A-led, from B-led);
    the fundamental matrix N = (I - T)^-1 is inverted symbolically, so the
    only failure mode is a vanishing determinant, reported as non-absorbing.
    The expected revenue charges each group its fee per bid and adds the fixed
    price (the chain must be time homogeneous, so there is no increment part
    unless the increment happens to enter the betas as a constant).
    """
    if not chain.time_homogeneous:
        raise ValueError("closed form needs a time-homogeneous chain, use evolve_recurrence")
    row_a = chain.transitions(q, "A") if chain.group_a_size > 0 else TransitionRow(0.0, 0.0, 1.0)
    row_b = chain.transitions(q, "B") if chain.group_b_size > 0 else TransitionRow(0.0, 0.0, 1.0)
    if row_a.absorb <= 0.0 and row_b.absorb <= 0.0:
        raise NonAbsorbingChainError("chain never absorbs (no state can end the auction)")
    # 1 - to_a of the A-led row is its other two entries (same for B), so
    # det = (1 - to_a^A)(1 - to_b^B) - to_b^A to_a^B expands without a
    # subtraction: nothing cancels when both absorb probabilities are tiny.
    leave_a = row_a.to_b + row_a.absorb
    leave_b = row_b.to_a + row_b.absorb
    det = row_a.absorb * leave_b + row_a.to_b * row_b.absorb
    if det <= 1e-300:
        raise NonAbsorbingChainError("chain never absorbs (fundamental matrix is singular)")
    n_mat = np.array([
        [leave_b, row_a.to_b],
        [row_b.to_a, leave_a],
    ]) / det
    absorb = np.array([row_a.absorb, row_b.absorb])
    absorption_probs = n_mat * absorb[None, :]
    start = first_bid_distribution(chain, conditioned=True)
    bids_by_group = start @ n_mat
    expected_bids = float(bids_by_group.sum())
    win_probs = start @ absorption_probs
    fees = np.array([chain.fee_a, chain.fee_b])
    revenue = float(bids_by_group @ fees) + chain.price + chain.increment * expected_bids
    return AbsorptionSummary(
        expected_visits=n_mat,
        absorption_probs=absorption_probs,
        start_distribution=start,
        expected_bids=expected_bids,
        bids_by_group=bids_by_group,
        win_probs=win_probs,
        expected_revenue=revenue,
    )


@dataclass
class OccupancySeries:
    """Occupancy trajectory of a chain, one entry per bid index.

    p_a[t-1] is the probability that after t bids the auction is still live
    with group A leading; end_a[t-1] the probability it ended at exactly t
    bids with A winning. residual is the transient mass left when iteration
    stopped (0 for chains that terminate within the horizon). notes says why
    the recurrence stopped early, if max_steps stopped it.
    """

    steps: np.ndarray
    p_a: np.ndarray
    p_b: np.ndarray
    end_a: np.ndarray
    end_b: np.ndarray
    residual: float
    max_conservation_error: float
    chain: TwoGroupChain
    notes: tuple = ()

    @property
    def win_prob_a(self) -> float:
        return float(self.end_a.sum())

    @property
    def win_prob_b(self) -> float:
        return float(self.end_b.sum())

    @property
    def bids_by_a(self) -> float:
        return float(self.p_a.sum())

    @property
    def bids_by_b(self) -> float:
        return float(self.p_b.sum())

    @property
    def expected_bids(self) -> float:
        return float(self.p_a.sum() + self.p_b.sum())


_MAX_STEPS = 10_000_000


def _row_tables(chain: TwoGroupChain, leader: str, block: int) -> Iterator[np.ndarray]:
    """Rows out of `leader`'s state at q = 2, 3, ..., without end, as one
    [to_a/to_b/absorb, r] array per `block` bid indices.

    A group with no members never leads, so its rows just absorb. A
    time-homogeneous chain repeats one table of its one row; any other chain
    reads a row table per block.
    """
    size = chain.group_a_size if leader == "A" else chain.group_b_size
    if size == 0 or chain.time_homogeneous:
        row = chain.transitions(2, leader) if size else (0.0, 0.0, 1.0)
        yield from itertools.repeat(np.repeat(np.array(row)[:, None], block, axis=1))
    else:
        for q in itertools.count(2, block):
            yield np.array(chain.row_table(leader, q, q + block))


def _rows_by_step(chain: TwoGroupChain, leader: str,
                  horizon: Optional[int] = None) -> Iterator[tuple[float, float, float]]:
    """(to_a, to_b, absorb) out of `leader`'s state at q = 2, 3, ... as floats,
    without end, from tables of min(horizon, _ROW_BLOCK) bid indices."""
    block = _ROW_BLOCK if horizon is None else min(horizon, _ROW_BLOCK)
    for table in _row_tables(chain, leader, block):
        yield from zip(*table.tolist())


def _prefix_products(kernels: np.ndarray) -> np.ndarray:
    """Inclusive prefix products K_0 K_1 ... K_r of a run of 2x2 kernels,
    kernels[i, j, r] being entry (i, j) of K_r.

    Doubling: the pass with span d multiplies each product by the one d
    places before it, so after log2(len) passes entry r covers K_0..K_r.
    Every term is a product of nonnegative numbers, so nothing cancels.
    """
    prods = kernels.copy()
    span = 1
    while span < prods.shape[2]:
        left, right = prods[..., :-span], prods[..., span:]
        prods[..., span:] = left[:, :1] * right[None, 0] + left[:, 1:] * right[None, 1]
        span *= 2
    return prods


def evolve_recurrence(
    chain: TwoGroupChain,
    horizon: Optional[int] = None,
    residual_tol: float = 1e-12,
    max_steps: int = _MAX_STEPS,
) -> OccupancySeries:
    """Propagate the occupancy recurrence forward from the opening bid.

        P_A(t+1) = P_A(t) row_A.to_a + P_B(t) row_B.to_a    (same for B)
        end_X(t) = P_X(t) * row_X.absorb(q = t+1)

    Iteration stops when the live mass drops below residual_tol, at the
    horizon (chain's own, or the argument), or after max_steps, which logs a
    warning and adds a note. Steps are taken a block of bid indices at a time: within a
    block the occupancy after each step is the block's entry occupancy times
    an inclusive prefix product of the 2x2 kernels (_prefix_products), and
    ends, the running absorbed mass and the conservation error follow with
    numpy, the absorbed mass summed in step order. A time-homogeneous chain
    computes its products once for every block; any other chain computes
    them from a row table per block of min(horizon, _ROW_BLOCK) bid indices.
    """
    if horizon is None:
        horizon = chain.horizon
    if horizon is not None and horizon < 1:
        raise ValueError("horizon must be at least 1")
    occupancy = first_bid_distribution(chain, conditioned=True)
    # the most steps to take; the first is taken whatever max_steps says
    limit = max(1, max_steps if horizon is None else min(horizon, max_steps))
    block = _ROW_BLOCK if horizon is None else min(horizon, _ROW_BLOCK)
    blocks = []  # [p_a, p_b, end_a, end_b] by step, one array per block
    notes = ()
    max_err = 0.0
    ended = 0.0
    tables = zip(*(_row_tables(chain, leader, block) for leader in ("A", "B")))
    for t, rows in zip(itertools.count(1, block), tables):  # t: the block's first step
        rows = np.array(rows)  # rows[leader, to_a/to_b/absorb, r] at q = t + 1 + r
        if t == 1 or not chain.time_homogeneous:
            prods = _prefix_products(rows[:, :2])
        n = min(block, limit - t + 1)
        after = occupancy[0] * prods[0, :, :n] + occupancy[1] * prods[1, :, :n]
        history = np.empty((4, n))
        history[:2, 0] = occupancy
        history[:2, 1:] = after[:, :-1]
        np.multiply(history[:2], rows[:, 2, :n], out=history[2:])
        absorbed = np.cumsum(np.concatenate(([ended], history[2] + history[3])))[1:]
        live = after[0] + after[1]
        below = np.flatnonzero(live < residual_tol)
        if below.size:
            n = int(below[0]) + 1
        max_err = max(max_err, float(np.abs(absorbed[:n] + live[:n] - 1.0).max()))
        blocks.append(history[:, :n])
        ended, occupancy, residual = absorbed[n - 1], after[:, n - 1], float(live[n - 1])
        last = t + n - 1
        if below.size or last == horizon:
            break
        if last >= max_steps:
            notes = (f"recurrence stopped at max_steps={max_steps} with residual {residual:.3e}",)
            import logging  # loaded on the first warning, not with the model
            logging.getLogger(__name__).warning(notes[0])
            break
    if max_err > 1e-9:
        raise ArithmeticError(f"occupancy mass leaked by {max_err:.3e}, chain rows are inconsistent")
    p_a, p_b, end_a, end_b = np.concatenate(blocks, axis=1)
    return OccupancySeries(
        steps=np.arange(1, last + 1),
        p_a=p_a,
        p_b=p_b,
        end_a=end_a,
        end_b=end_b,
        residual=residual,
        max_conservation_error=max_err,
        chain=chain,
        notes=notes,
    )


def expected_revenue_from_series(
    series: OccupancySeries,
    fee_a: Optional[float] = None,
    fee_b: Optional[float] = None,
) -> float:
    """Expected revenue implied by an occupancy series.

    Fee revenue charges each group its per-bid fee for every expected visit.
    The price part is s * E[final bid count] for ascending chains and the
    fixed price times the probability of finishing (1 minus residual) for
    fixed-price chains.
    """
    chain = series.chain
    if fee_a is None:
        fee_a = chain.fee_a
    if fee_b is None:
        fee_b = chain.fee_b
    fees = fee_a * series.bids_by_a + fee_b * series.bids_by_b
    finished = series.end_a + series.end_b
    price_part = chain.price * float(finished.sum())
    increment_part = chain.increment * float((series.steps * finished).sum())
    return fees + price_part + increment_part
