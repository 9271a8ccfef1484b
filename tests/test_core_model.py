"""Symmetric equilibrium building blocks: cents handling, bid probabilities,
revenue identities."""

import math

import pytest
from hypothesis import given, strategies as st

from paybid.core_model import (
    UNBOUNDED,
    AuctionSpec,
    beta_from_mu,
    equilibrium_point,
    max_bids,
    mu_from_beta,
    success_probability,
    symmetric_beta,
    symmetric_expected_revenue,
    symmetric_mu,
    to_cents,
)

ASC = AuctionSpec.ascending(100, 1, 0.25, 50)
FIX = AuctionSpec.fixed_price(100, 1, 0, 50)

# First-bid probability at the defaults, pinned once here and reused in the
# acceptance suite: 1 - 0.01^(1/50).
BETA_FIRST_DEFAULT = 0.08798916064409024


def test_to_cents_exact_dollars():
    assert to_cents(100) == 10000
    assert to_cents(0.25) == 25
    assert to_cents(31.26) == 3126
    assert to_cents("1.10") == 110
    assert to_cents(0) == 0


def test_to_cents_rejects_subcent_amounts():
    with pytest.raises(ValueError):
        to_cents(0.001)
    with pytest.raises(ValueError):
        to_cents(1.005)


@pytest.mark.parametrize("amount", ["1e-1000030", "1e-9999999999", "-1e-3",
                                    "0.01" + "0" * 30 + "1"])
def test_to_cents_rejects_amounts_below_one_cent_however_small(amount):
    # amount * 100 underflows to an integral zero in Decimal's context, or
    # rounds to 28 digits and drops the sub-cent one
    with pytest.raises(ValueError, match="sub-cent"):
        to_cents(amount)
    assert to_cents("0e-1000030") == 0


@pytest.mark.parametrize("amount", ["1e999999", 1e308, 10 ** 26, "-1e26"])
def test_to_cents_rejects_amounts_out_of_range(amount):
    # 10^26 dollars or more, the trace parser's bound; 1e999999 raised
    # decimal.Overflow and 1e308 overflowed AuctionSpec.value
    with pytest.raises(ValueError, match="out of range"):
        to_cents(amount)
    assert to_cents("9" * 26) == int("9" * 26 + "00")


@pytest.mark.parametrize("amount", ["0e30", "-0e30", "0E+26"])
def test_to_cents_reads_zero_whatever_its_exponent(amount):
    # the range check read the exponent of a zero and called it out of range
    assert to_cents(amount) == 0


@pytest.mark.parametrize("amount", [math.inf, -math.inf, math.nan, "Infinity", "NaN", "sNaN"])
def test_to_cents_rejects_non_finite_amounts(amount):
    with pytest.raises(ValueError, match="not finite"):
        to_cents(amount)


def test_spec_requires_exactly_one_of_increment_or_price():
    with pytest.raises(ValueError):
        AuctionSpec(value_cents=10000, fee_cents=100, population=50)
    with pytest.raises(ValueError):
        AuctionSpec(value_cents=10000, fee_cents=100, population=50,
                    increment_cents=25, price_cents=0)


def test_spec_rejects_nonsense_parameters():
    with pytest.raises(ValueError):
        AuctionSpec.ascending(100, 0, 0.25, 50)
    with pytest.raises(ValueError):
        AuctionSpec.ascending(100, 1, 0, 50)
    with pytest.raises(ValueError):
        AuctionSpec.ascending(100, 1, 0.25, 1)
    with pytest.raises(ValueError):
        AuctionSpec.fixed_price(100, 1, -5, 50)
    with pytest.raises(ValueError):
        AuctionSpec.fixed_price(1, 2, 0, 50)


def test_dollar_properties_roundtrip():
    assert ASC.value == 100.0
    assert ASC.fee == 1.0
    assert ASC.increment == 0.25
    assert FIX.price == 0.0
    assert ASC.is_ascending and not FIX.is_ascending


def test_max_bids_defaults():
    # floor((10000 - 100) / 25) in cents
    assert max_bids(ASC) == 396
    assert max_bids(FIX) is UNBOUNDED


def test_max_bids_exact_boundary():
    # v - b an exact multiple of s: floor must land on the multiple itself
    spec = AuctionSpec.ascending(10, 1, 0.09, 5)
    assert max_bids(spec) == 100


def test_symmetric_mu_values():
    assert symmetric_mu(FIX, 1) == pytest.approx(0.99, abs=1e-15)
    assert symmetric_mu(FIX, 7) == pytest.approx(0.99, abs=1e-15)
    # ascending: pot shrinks by s per prior bid
    assert symmetric_mu(ASC, 1) == pytest.approx(0.99, abs=1e-15)
    assert symmetric_mu(ASC, 2) == pytest.approx(1 - 1 / 99.75, abs=1e-15)
    # last rational bid index is Q + 1 where the pot just covers the fee
    assert symmetric_mu(ASC, 397) == pytest.approx(0.0, abs=1e-15)


def test_symmetric_mu_past_the_end_is_an_error():
    with pytest.raises(ValueError):
        symmetric_mu(ASC, 398)


def test_first_bid_beta_default():
    b1 = symmetric_beta(FIX, 1)
    assert b1 == pytest.approx(BETA_FIRST_DEFAULT, abs=1e-15)
    assert symmetric_beta(ASC, 1) == pytest.approx(b1, abs=1e-15)
    # the defining property: no opener at all with probability 1 - mu_1
    assert (1 - b1) ** 50 == pytest.approx(0.01, abs=1e-14)


def test_later_bid_beta_uses_n_minus_one():
    b2 = symmetric_beta(FIX, 2)
    assert (1 - b2) ** 49 == pytest.approx(1 - symmetric_mu(FIX, 2), abs=1e-14)
    # explicit override: treat q=5 as a first bid
    b5f = symmetric_beta(FIX, 5, first_bid=True)
    assert (1 - b5f) ** 50 == pytest.approx(1 - symmetric_mu(FIX, 5), abs=1e-14)


def test_equilibrium_point_is_consistent():
    pt = equilibrium_point(ASC, 3)
    assert pt.mu == symmetric_mu(ASC, 3)
    assert pt.beta == symmetric_beta(ASC, 3)
    assert not pt.first_bid
    assert equilibrium_point(ASC, 1).first_bid


def test_conditioned_revenue_equals_item_value():
    assert symmetric_expected_revenue(FIX) == 100.0
    assert symmetric_expected_revenue(ASC) == 100.0


def test_unconditioned_revenue_is_value_minus_fee():
    assert symmetric_expected_revenue(FIX, conditioned_on_success=False) == 99.0
    assert symmetric_expected_revenue(ASC, conditioned_on_success=False) == 99.0


def test_success_probability_is_mu_one():
    assert success_probability(FIX) == pytest.approx(0.99, abs=1e-15)
    assert success_probability(ASC) == pytest.approx(0.99, abs=1e-15)


def test_fixed_price_above_zero():
    spec = AuctionSpec.fixed_price(100, 1, 40, 50)
    assert symmetric_mu(spec, 1) == pytest.approx(1 - 1 / 60, abs=1e-15)
    assert symmetric_expected_revenue(spec) == 100.0
    assert symmetric_expected_revenue(spec, conditioned_on_success=False) == pytest.approx(
        100 * (1 - 1 / 60), abs=1e-12)


@given(mu=st.floats(min_value=1e-9, max_value=1 - 1e-9),
       eligible=st.integers(min_value=1, max_value=500))
def test_mu_beta_roundtrip(mu, eligible):
    beta = beta_from_mu(mu, eligible)
    assert 0.0 <= beta <= 1.0
    back = mu_from_beta(beta, eligible)
    assert back == pytest.approx(mu, rel=1e-12, abs=1e-12)


@given(value=st.integers(min_value=2, max_value=10_000),
       fee=st.integers(min_value=1, max_value=500),
       population=st.integers(min_value=2, max_value=300),
       q=st.integers(min_value=1, max_value=12))
def test_indifference_residual(value, fee, population, q):
    """(1 - beta)^eligible must reproduce 1 - mu at every reachable q."""
    if fee >= value:
        return
    spec = AuctionSpec(value_cents=value * 100, fee_cents=fee * 100,
                       population=population, price_cents=0)
    mu = symmetric_mu(spec, q)
    beta = symmetric_beta(spec, q)
    eligible = population if q == 1 else population - 1
    assert (1 - beta) ** eligible == pytest.approx(1 - mu, abs=1e-12)


@given(population=st.integers(min_value=2, max_value=200))
def test_beta_decreases_with_more_rivals(population):
    b = symmetric_beta(AuctionSpec.fixed_price(100, 1, 0, population), 2)
    b_more = symmetric_beta(AuctionSpec.fixed_price(100, 1, 0, population + 1), 2)
    assert b_more < b
