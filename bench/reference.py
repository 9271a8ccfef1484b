"""Reference computations made apart from the program.

Nothing here calls paybid: these are the paper's closed forms, a two-state
absorbing chain built from `math.comb` rows and solved by hand, and the
trace metrics recomputed from the generator's ground truth by other means
than the program uses (per-user bisection for the activity windows).
"""

from __future__ import annotations

import bisect
import math


# ---------------------------------------------------------------------------
# Closed forms of the paper


def symmetric_revenue(v: float, b: float, conditioned: bool) -> float:
    """Conditioned on a sale the auctioneer recoups v; unconditioned v - b
    (ascending auctions and p = 0 fixed-price auctions)."""
    return v if conditioned else v - b


def underestimate_revenue(v: float, b: float, p: float, n: int, k: int) -> float:
    """b * (b / (v - p))^(-(n-1)/(n-k-1)) + p, the uniform-underestimation
    revenue; 100^(49/(49-k)) at v = 100, b = 1, p = 0, n = 50."""
    return b * (b / (v - p)) ** (-(n - 1) / (n - k - 1)) + p


def bidfee_length(v: float, p: float, fee_a: float) -> float:
    """The fee-asymmetric auction lasts (v - p) / b_A bids, for every b_B."""
    return (v - p) / fee_a


def symmetric_later_beta(v: float, b: float, p: float, n: int) -> float:
    """Per-player probability of every later bid: 1 - (b / (v - p))^(1/(n-1))."""
    return 1.0 - (b / (v - p)) ** (1.0 / (n - 1))


def uncertain_residual(v: float, b: float, p: float, sizes, weights, beta: float) -> float:
    """sum_i z_i (1 - beta)^(m_i - 1) - b / (v - p); zero at the solution."""
    return math.fsum(z * (1.0 - beta) ** (m - 1) for m, z in zip(sizes, weights)) - b / (v - p)


def full_info_residuals(betas, values, fees, price: float = 0.0) -> list:
    """log prod_{j != i} (1 - beta_j) - log(b_i / (v_i - p)) for every player."""
    logs = [math.log1p(-x) for x in betas]
    total = math.fsum(logs)
    return [total - li - math.log(f / (v - price)) for li, f, v in zip(logs, fees, values)]


# ---------------------------------------------------------------------------
# A two-state chain from math.comb rows


def comb_row(elig_a: int, elig_b: int, beta_a: float, beta_b: float) -> tuple:
    """(to A, to B, absorb) for elig_a + elig_b coins and a uniform lottery."""
    to_a = to_b = 0.0
    for i in range(elig_a + 1):
        pa = math.comb(elig_a, i) * beta_a ** i * (1 - beta_a) ** (elig_a - i)
        for j in range(elig_b + 1):
            if i + j == 0:
                continue
            pab = pa * math.comb(elig_b, j) * beta_b ** j * (1 - beta_b) ** (elig_b - j)
            to_a += pab * i / (i + j)
            to_b += pab * j / (i + j)
    absorb = (1 - beta_a) ** elig_a * (1 - beta_b) ** elig_b
    return to_a, to_b, absorb


def two_state_solve(k_a: int, k_b: int, beta_a: float, beta_b: float,
                    fee_a: float, fee_b: float, price: float) -> dict:
    """Expected bids, win probabilities and revenue of a time-homogeneous
    two-group chain whose members bid with fixed probabilities.

    The leader's group loses one coin; the opening bid (no leader) sets the
    start distribution, conditioned on a sale. N = (I - T)^-1 by Cramer.
    """
    ra = comb_row(k_a - 1, k_b, beta_a, beta_b)
    rb = comb_row(k_a, k_b - 1, beta_a, beta_b)
    op = comb_row(k_a, k_b, beta_a, beta_b)
    start = (op[0] / (op[0] + op[1]), op[1] / (op[0] + op[1]))
    det = (1 - ra[0]) * (1 - rb[1]) - ra[1] * rb[0]
    n = ((1 - rb[1]) / det, ra[1] / det), (rb[0] / det, (1 - ra[0]) / det)
    bids = [start[0] * n[0][c] + start[1] * n[1][c] for c in (0, 1)]
    wins = [bids[0] * ra[2], bids[1] * rb[2]]
    return {
        "rows": (ra, rb, op),
        "expected_bids": bids[0] + bids[1],
        "win_a": wins[0],
        "win_b": wins[1],
        "revenue": fee_a * bids[0] + fee_b * bids[1] + price,
    }


# ---------------------------------------------------------------------------
# Trace metrics from the ground truth


def bidder_table(bids: list, retail: int, final: int, winner: str, fee: int) -> tuple:
    """Per bidder, in order of first bid: (user, bids, timed bids, spend,
    classes), the mean gap to the preceding bid and the aggression, by the
    report's rules. Aggression is bids over mean gap: 0 for a bidder with no
    timed bid, infinite when the mean gap is 0."""
    counts: dict = {}
    gaps: dict = {}
    prev = None
    for _, user, _, _, stamp in bids:
        counts[user] = counts.get(user, 0) + 1
        gaps.setdefault(user, [])
        if prev is not None:
            gaps[user].append(stamp - prev)
        prev = stamp
    rows, means, aggression = [], [], []
    for user, n in counts.items():
        spend = n * fee
        classes = set()
        if user == winner:
            classes.add("won_auction")
            if spend + final < retail:
                classes.add("in_the_black")
        if spend + (final - retail if user == winner else 0) > 0:
            classes.add("in_the_red")
        rows.append((user, n, len(gaps[user]), spend, frozenset(classes)))
        mean = sum(gaps[user]) / len(gaps[user]) if gaps[user] else None
        means.append(mean)
        aggression.append(0.0 if mean is None else n / mean if mean > 0 else math.inf)
    return rows, means, aggression


def activity_samples(bids: list, end: float, interval: float, window: float) -> list:
    """(seconds before end, share of all bidders active in (t - window, t])."""
    stamps: dict = {}
    for _, user, _, _, stamp in bids:
        stamps.setdefault(user, []).append(stamp)
    for s in stamps.values():
        s.sort()
    begin = min(b[4] for b in bids)
    out = []
    offset = 0.0
    while end - offset >= begin:
        at = end - offset
        active = 0
        for s in stamps.values():
            # any stamp with at - window < stamp <= at
            k = bisect.bisect_right(s, at)
            if k and s[k - 1] > at - window:
                active += 1
        out.append((offset, active / len(stamps)))
        offset += interval
    out.reverse()
    return out
