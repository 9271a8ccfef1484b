"""Symmetric pay-per-bid auction model.

An item worth v is auctioned among n players. Every bid costs a nonrefundable
fee b. In the ascending variant each bid also raises the price by an increment
s; in the fixed-price variant the winner instead pays a preset price p (p = 0
is the "100%-off" special case). The last bidder wins. Timing is abstracted
away: at each price level every non-leading player decides whether to bid, and
if several want to, one of them gets there first at random.

Equilibrium probabilities come from the indifference condition. The player who
places bid q is betting the fee that nobody places bid q+1, so in equilibrium

    b = (v - s*q) * (1 - mu_{q+1})        (ascending)
    b = (v - p) * (1 - mu)                (fixed price)

where mu_q is the collective probability that bid q gets placed at all. The
per-player probability beta_q then solves 1 - mu_q = (1 - beta_q)^(n-1); the
very first bid has no leader, so its exponent is n instead of n-1.

Monetary amounts are integer cents at the interface (exact), floats internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Optional

__all__ = [
    "AuctionSpec",
    "EquilibriumPoint",
    "UNBOUNDED",
    "to_cents",
    "max_bids",
    "symmetric_mu",
    "symmetric_beta",
    "symmetric_expected_revenue",
    "success_probability",
    "equilibrium_point",
    "beta_from_mu",
    "mu_from_beta",
]

#: Distinguished "no rational bid limit" value for fixed-price auctions.
UNBOUNDED = math.inf


def to_cents(amount) -> int:
    """Convert a dollar amount to an exact integer number of cents.

    Accepts int, str, Decimal, or float. Floats are read through repr so that
    0.1 means ten cents. Sub-cent amounts are rejected rather than rounded,
    and so are infinities, NaN and amounts of 10^26 dollars or more, as the
    trace parser rejects them.
    """
    if isinstance(amount, bool):
        raise TypeError("bool is not a currency amount")
    try:
        d = Decimal(repr(amount)) if isinstance(amount, float) else Decimal(str(amount))
    except InvalidOperation as exc:
        raise ValueError(f"not a currency amount: {amount!r}") from exc
    if not d.is_finite():
        raise ValueError(f"currency amount is not finite: {amount!r}")
    _, digits, exponent = d.as_tuple()
    if any(digits) and d.adjusted() > 25:
        raise ValueError(f"currency amount out of range: {amount!r}")
    # Any nonzero digit below the cent place is sub-cent. Read it off the
    # digits: d * 100 rounds to 28 digits, and underflows to zero far below
    # one cent, so it could hide one.
    if any(digits[max(len(digits) + exponent + 2, 0):]):
        raise ValueError(f"sub-cent amount not representable: {amount!r}")
    return int(d * 100)


@dataclass(frozen=True)
class AuctionSpec:
    """True parameters of one auction.

    Exactly one of increment_cents (ascending price) or price_cents (fixed
    price) is set. All amounts are integer cents.
    """

    value_cents: int
    fee_cents: int
    population: int
    increment_cents: Optional[int] = None
    price_cents: Optional[int] = None

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be at least 2")
        if self.fee_cents <= 0:
            raise ValueError("bid fee must be positive")
        if self.value_cents < 0:
            raise ValueError("item value must be nonnegative")
        if (self.increment_cents is None) == (self.price_cents is None):
            raise ValueError("exactly one of increment_cents / price_cents must be set")
        if self.increment_cents is not None and self.increment_cents <= 0:
            raise ValueError("price increment must be positive")
        if self.price_cents is not None and not (0 <= self.price_cents < self.value_cents):
            raise ValueError("fixed price must satisfy 0 <= p < v")
        if self.fee_cents > self.value_cents:
            raise ValueError("bid fee exceeds item value, no bid is ever rational")

    @classmethod
    def ascending(cls, value, fee, increment, population) -> "AuctionSpec":
        return cls(
            value_cents=to_cents(value),
            fee_cents=to_cents(fee),
            population=population,
            increment_cents=to_cents(increment),
        )

    @classmethod
    def fixed_price(cls, value, fee, price, population) -> "AuctionSpec":
        return cls(
            value_cents=to_cents(value),
            fee_cents=to_cents(fee),
            population=population,
            price_cents=to_cents(price),
        )

    @property
    def is_ascending(self) -> bool:
        return self.increment_cents is not None

    @property
    def value(self) -> float:
        return self.value_cents / 100.0

    @property
    def fee(self) -> float:
        return self.fee_cents / 100.0

    @property
    def increment(self) -> float:
        if self.increment_cents is None:
            raise ValueError("not an ascending-price auction")
        return self.increment_cents / 100.0

    @property
    def price(self) -> float:
        if self.price_cents is None:
            raise ValueError("not a fixed-price auction")
        return self.price_cents / 100.0


@dataclass(frozen=True)
class EquilibriumPoint:
    """Collective and per-player bid probabilities for one bid index."""

    mu: float
    beta: float
    first_bid: bool


def max_bids(spec: AuctionSpec):
    """Largest rational bid index Q.

    In an ascending auction no rational player places bid Q+1 where
    Q = floor((v - b) / s), since the item price plus the fee would exceed the
    value. Fixed-price auctions have no such bound; UNBOUNDED is returned.
    The floor is exact (integer cents arithmetic).
    """
    if not spec.is_ascending:
        return UNBOUNDED
    return (spec.value_cents - spec.fee_cents) // spec.increment_cents


def _check_bid_index(spec: AuctionSpec, q: int) -> None:
    if q < 1:
        raise ValueError(f"bid index must be >= 1, got {q}")
    if spec.is_ascending:
        limit = max_bids(spec) + 1
        if q > limit:
            raise ValueError(f"bid index {q} beyond the last rational bid ({limit})")


def symmetric_mu(spec: AuctionSpec, q: int) -> float:
    """Collective probability that bid q is placed, given q-1 bids so far.

    Derived from the indifference condition of the player who placed bid q-1.
    The raw expression is clamped at 0; with (v-b)/s an integer the clamp never
    fires for q <= Q+1 and mu_{Q+1} is exactly 0.
    """
    _check_bid_index(spec, q)
    if spec.is_ascending:
        at_stake = spec.value_cents - spec.increment_cents * (q - 1)
    else:
        at_stake = spec.value_cents - spec.price_cents
    raw = 1.0 - spec.fee_cents / at_stake
    return max(raw, 0.0)


def beta_from_mu(mu: float, eligible: int) -> float:
    """Per-player probability when `eligible` players jointly produce mu.

    Solves 1 - mu = (1 - beta)^eligible through logs to stay accurate for
    large exponents.
    """
    if eligible < 1:
        raise ValueError("need at least one eligible player")
    if mu <= 0.0:
        return 0.0
    if mu >= 1.0:
        return 1.0
    return -math.expm1(math.log1p(-mu) / eligible)


def mu_from_beta(beta: float, eligible: int) -> float:
    """Collective bid probability of `eligible` independent players."""
    if eligible < 0:
        raise ValueError("eligible count must be nonnegative")
    if eligible == 0 or beta <= 0.0:
        return 0.0
    if beta >= 1.0:
        return 1.0
    return -math.expm1(eligible * math.log1p(-beta))


def symmetric_beta(spec: AuctionSpec, q: int, first_bid: Optional[bool] = None) -> float:
    """Per-player equilibrium bid probability for bid q.

    first_bid selects the exponent: the opening bid has n potential bidders
    (nobody leads yet) while every later bid has n-1. When omitted it is
    inferred from q == 1.
    """
    if first_bid is None:
        first_bid = q == 1
    mu = symmetric_mu(spec, q)
    eligible = spec.population if first_bid else spec.population - 1
    return beta_from_mu(mu, eligible)


def equilibrium_point(spec: AuctionSpec, q: int) -> EquilibriumPoint:
    first = q == 1
    return EquilibriumPoint(mu=symmetric_mu(spec, q), beta=symmetric_beta(spec, q, first), first_bid=first)


def success_probability(spec: AuctionSpec) -> float:
    """Probability the auction receives at least one bid, 1 - (1-beta_1)^n."""
    return symmetric_mu(spec, 1)


def symmetric_expected_revenue(spec: AuctionSpec, conditioned_on_success: bool = True) -> float:
    """Expected revenue of the symmetric auction, in dollars.

    Conditioned on at least one bid the auctioneer recoups exactly the item
    value: the item is handed over and every bid placed is a fair bet. Without
    conditioning, the no-bid event (probability (1-beta_1)^n = 1 - mu_1)
    contributes zero, so the revenue is v * mu_1. For ascending auctions and
    for 100%-off auctions that equals v - b.
    """
    v = spec.value_cents / 100.0
    if conditioned_on_success:
        return v
    return v * success_probability(spec)
