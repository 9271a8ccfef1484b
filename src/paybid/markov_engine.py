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

Every row of a chain comes from TwoGroupChain._kernel: the rows of a set of
(bid index, leader) states in one lottery pass, each beta called once per
state with an int or an array of bid indices. Its default is the stationary
kernel (opening, A-led and B-led rows); transitions, opening_row, row_table
and build_transitions are its one-state cases. A chain's rows share one
Gauss-Legendre rule and sum their nodes outside BLAS, so a row has one value
however it is requested. evolve_recurrence and the vectorized simulators
read the led rows a block of bid indices at a time (_leader_tables), and
evolve_recurrence steps each block through prefix products of 2x2 kernels.
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
_STATIONARY = ((1, None), (2, "A"), (2, "B"))  # (bid index, leader) of a chain's kernel
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
    """Raise on the first entry of betas[group, ...] outside [0, 1], A's first."""
    valid = (betas >= 0.0) & (betas <= 1.0)  # NaN fails the comparisons too
    if not valid.all():
        index = tuple(np.argwhere(~valid)[0])
        raise ValueError(f"beta_{'ab'[index[0]]} must be a probability in [0, 1], "
                         f"got {betas[index]}")


@lru_cache(maxsize=64)
def _legendre_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of a count-point rule on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(count)
    rule = ((nodes + 1.0) / 2.0, weights / 2.0)
    for part in rule:
        part.setflags(write=False)  # shared by every caller through the cache
    return rule


def _lottery_rows(elig: np.ndarray, betas: np.ndarray, count: int) -> np.ndarray:
    """[row, to_a/to_b/absorb, ...] for elig[0] + elig[1] independent coins
    and a uniform draw, per pair (betas[0][row, ...], betas[1][row, ...]).

    A given A coin gets the bid with probability beta_a E[1 / (1 + Y)], Y the
    heads among the other coins, and E[1 / (1 + Y)] = int_0^1 E[s^Y] ds, so
    to_a = elig_a beta_a int_0^1 (1 - beta_a s)^(elig_a - 1) (1 - beta_b s)^elig_b ds
    (to_b likewise). The integrand is a polynomial of degree
    elig_a + elig_b - 1, which count Gauss-Legendre nodes integrate exactly
    where 2 count >= elig_a + elig_b, with positive weights, so nothing
    cancels; einsum sums the nodes in an order set by count alone, never
    through BLAS, so a row's value does not depend on its batch.
    absorb is the closed form (1 - beta_a)^elig_a (1 - beta_b)^elig_b with
    each factor taken in log space (1 for a group with no eligible coin), and
    to_a and to_b are scaled to sum to its complement. That sum misses 1 by
    a rounding or two, so the row's exact residual, from two error-free sums
    (Fast2Sum), comes off its larger move wherever that move is at least
    absorb: such a row sums to 1 exactly (math.fsum), and absorb is never
    touched.
    """
    nodes, weights = _legendre_nodes(count)
    stay = 1.0 - betas[..., None] * nodes  # [group, ..., node], positive as nodes < 1
    powers = stay ** elig[..., None]
    # (1 - beta_a s)^elig_a (1 - beta_b s)^elig_b over one factor of the
    # group's own; for a group with no eligible coin the elig factor zeroes it
    moves = elig * betas * np.einsum("...n,n->...", powers[0] * powers[1] / stay, weights)
    with np.errstate(divide="ignore"):  # log1p(-1) is -inf: that group always bids
        logs = np.multiply(elig, np.log1p(-betas), out=np.zeros(betas.shape), where=elig > 0)
    moved = 0.0 - np.expm1(logs[0] + logs[1])  # +0.0, not -0.0, where no coin can bid
    total = moves[0] + moves[1]  # 0 only where no coin can come up heads
    moves *= moved / np.where(total > 0.0, total, 1.0)
    factors = np.exp(logs)
    absorb = factors[0] * factors[1]
    to_a, to_b = moves
    larger, smaller = np.maximum(to_a, to_b), np.minimum(to_a, to_b)
    # Two Fast2Sums: larger >= smaller, and pair >= absorb in every row
    # that is mended; row - 1 is exact, as row is within a few ulps of 1
    pair = larger + smaller
    row = pair + absorb
    residual = (row - 1.0) + ((smaller - (pair - larger)) + (absorb - (row - pair)))
    a_larger, mend = to_a >= to_b, larger >= absorb
    np.subtract(to_a, residual, out=to_a, where=a_larger & mend)
    np.subtract(to_b, residual, out=to_b, where=mend > a_larger)
    return np.stack((to_a, to_b, absorb), axis=1)


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
        """Row out of `leader`'s state at bid index q."""
        return TransitionRow(*self._kernel(((q, leader),))[0].tolist())

    def row_table(self, leader: str, q_start: int, q_stop: int) -> RowTable:
        """Rows out of `leader`'s state for every bid index q_start <= q < q_stop.

        Each beta is called once, with the array of bid indices; all rows
        then come out of one vectorized pass of the lottery (see _kernel).
        """
        return RowTable(*self._kernel(((np.arange(q_start, q_stop), leader),))[0])

    def opening_row(self) -> TransitionRow:
        """Outcome split of the opening bid: (goes to A, goes to B, no bid)."""
        return self.transitions(1, None)

    def _kernel(self, states=_STATIONARY) -> np.ndarray:
        """Rows out of each (bid index, leader) state, leader None being the
        opening bid, as [state, to_a/to_b/absorb] plus the shape of the bid
        indices (ints, or int arrays of one shape), from one lottery pass;
        by default the stationary kernel of opening, A-led and B-led rows.
        A group with no members never leads: its led row has no coin and
        absorbs. All states share one Gauss-Legendre rule, sized for the
        opening row, whose degree is the chain's highest.
        """
        k_a, k_b = self.group_a_size, self.group_b_size
        ticket = self.tie_rule == "single_ticket"
        elig = {None: (1 if ticket else k_a, k_b),
                "A": (1 if ticket else k_a - 1, k_b) if k_a else None,
                "B": (1 if ticket else k_a, k_b - 1) if k_b else None}
        shape = np.shape(states[0][0])
        counts = np.zeros((2, len(states)) + (1,) * len(shape))  # broadcast over q
        betas = np.zeros((2, len(states)) + shape)  # a scalar beta fills its whole row
        for i, (q, leader) in enumerate(states):
            if leader not in elig:
                raise ValueError(f"leader must be 'A', 'B', or None, got {leader!r}")
            if elig[leader]:
                counts[:, i].flat = elig[leader]
                betas[0, i], betas[1, i] = self.beta_a(q, leader), self.beta_b(q, leader)
        _check_probs(betas)
        return _lottery_rows(counts, betas, (sum(elig[None]) + 1) // 2)


def first_bid_distribution(chain: TwoGroupChain, conditioned: bool = True):
    """Initial state distribution (P(A leads), P(B leads)) after bid one.

    With conditioned=True (the default) the no-bid event is removed and the
    two probabilities sum to one. Raises if no player ever makes the opening
    bid.
    """
    row = chain.opening_row()
    split = _opening_split(row)
    return split if conditioned else np.array([row.to_a, row.to_b])


def _opening_split(opening: TransitionRow) -> np.ndarray:
    """(P(A leads), P(B leads)) after an opening bid drawn from the opening
    row, given that one is placed; raises if no player ever places it."""
    mass = opening.to_a + opening.to_b
    if mass <= 0.0:
        raise NonAbsorbingChainError("no opening bid is possible in this chain")
    return np.array([opening.to_a / mass, opening.to_b / mass])


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
    kernel = chain._kernel(((1, None), (q, "A"), (q, "B"))).tolist()
    opening, row_a, row_b = (TransitionRow(*row) for row in kernel)
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
    start = _opening_split(opening)
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


def _leader_tables(chain: TwoGroupChain, block: int) -> Iterator[np.ndarray]:
    """Rows out of A's and B's leads at q = 2, 3, ..., without end, as one
    [A/B leads, to_a/to_b/absorb, r] array per `block` bid indices: a
    time-homogeneous chain repeats its kernel's two led rows, any other
    chain reads a row table per leader and block.
    """
    if chain.time_homogeneous:
        yield from itertools.repeat(np.repeat(chain._kernel()[1:, :, None], block, axis=2))
    else:
        for q in itertools.count(2, block):
            yield np.array([chain.row_table(leader, q, q + block) for leader in ("A", "B")])


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
    fields = [[], [], [], []]  # p_a, p_b, end_a, end_b by step, one array per block
    notes = ()
    max_err = 0.0
    ended = 0.0
    # rows[leader, to_a/to_b/absorb, r] at q = t + 1 + r; t: the block's first step
    for t, rows in zip(itertools.count(1, block), _leader_tables(chain, block)):
        if t == 1 or not chain.time_homogeneous:
            prods = _prefix_products(rows[:, :2])
        n = min(block, limit - t + 1)
        after = occupancy[0] * prods[0, :, :n] + occupancy[1] * prods[1, :, :n]
        p_a, p_b = np.empty(n), np.empty(n)
        p_a[0], p_b[0] = occupancy
        p_a[1:], p_b[1:] = after[:, :-1]
        end_a, end_b = p_a * rows[0, 2, :n], p_b * rows[1, 2, :n]
        absorbed = np.cumsum(np.concatenate(([ended], end_a + end_b)))[1:]
        live = after[0] + after[1]
        below = np.flatnonzero(live < residual_tol)
        if below.size:
            n = int(below[0]) + 1
        max_err = max(max_err, float(np.abs(absorbed[:n] + live[:n] - 1.0).max()))
        for field, block_field in zip(fields, (p_a, p_b, end_a, end_b)):
            field.append(block_field[:n])
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
    # Each field's blocks are released once it is joined, so the history is
    # never held twice; steps are built after every block is gone.
    joined = []
    for blocks in fields:
        joined.append(np.concatenate(blocks))
        blocks.clear()
    p_a, p_b, end_a, end_b = joined
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
