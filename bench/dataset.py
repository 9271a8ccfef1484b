"""Seeded synthetic trace dataset, in Swoopo's file formats, with its ground truth.

`generate(directory, seed, profile)` writes an outcome table (`outcomes.tsv`,
17 tab-separated fields per row, no header) and one probe file per traced
auction (`<auction_id>.txt`, "<epoch>\\t<probe>" per line), and returns a
`Dataset` holding what the files were made from:

* every row's kind: normal, bidpack, fixed-price, unsold, zero increment
  (a margin error) or malformed (one of six defects the parser must reject);
* every traced bid's number, user, type, price and time, where the time is
  that of the first probe that shows it, as the feed reports it;
* which traces have gaps (more than ten bids between two probes) and how many
  bids the gaps hide, and which trace is inconsistent;
* the length of the duel planted at the end of each trace (None when the
  final bids rotate among three users);
* each bidpack buyer's cost and face value, counted as the bidpack report
  documents, with the complete traces passed beside the outcome table.

Items and user names hold no quote, tab, pipe, colon, '#' or '=' character,
so every field survives the formats unchanged.

The formats are those `paybid.trace_analytics` parses. The make-up of the
traffic is not: the shares of row kinds, the trace and duel lengths and the
bid gaps in PROFILES and `generate` are assumptions with no source, since no
real traces are in the repository. README.md lists them.

`generate_apart` runs `generate` in a child interpreter and loads only the
returned truth, so the generator's own memory never counts in the peak of the
process that times the program.
"""

from __future__ import annotations

import os
import pickle
import random
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

FEE = 60  # the reports' assumed bid fee, cents

PROFILES = {
    # ~1e5 outcome rows, ~5e4 probes, ~3e5 traced bids
    "full": dict(rows=100_000, traced=700, bids=(60, 640), gap_traces=40, long_traces=3,
                 long_bids=(3000, 5000), long_duels=4, bidpack_rows=600, bidpack_traced=40),
    "small": dict(rows=2_000, traced=30, bids=(40, 200), gap_traces=3, long_traces=1,
                  long_bids=(600, 800), long_duels=1, bidpack_rows=20, bidpack_traced=4),
}

_ITEMS = [("ipod-nano-8gb", "Apple iPod nano 8GB"), ("wii-console", "Nintendo Wii console"),
          ("canon-eos-450d", "Canon EOS 450D camera"), ("ps3-slim", "Sony PlayStation 3 slim"),
          ("gift-card-50", "Gift card worth 50 dollars"), ("tomtom-one", "TomTom ONE navigator"),
          ("macbook-13", "Apple MacBook 13 inch"), ("lcd-tv-32", "Samsung LCD TV 32 inch")]
_PACKS = (50, 100, 300, 500)
_MALFORMED = ("short", "extra", "bad_dollar", "subcent", "bad_flag", "bad_int")


@dataclass
class TraceTruth:
    auction_id: int
    path: Path
    columns: tuple        # shown bids by column: numbers, users, types, prices, times
    missing: int          # interior bid numbers no probe showed
    duel: Optional[int]   # planted duel length, None without one
    duel_users: tuple     # (last bidder, the other one) of the planted duel
    probes: int
    inconsistent: bool = False
    long_trace: bool = False  # one of the profile's long traces
    long_duel: bool = False   # ends in one of the profile's long duels

    @property
    def bids(self) -> list:
        """Shown bids as (number, user, type, price cents, first-seen time).

        Kept by column and rebuilt on demand, so the truth held beside the
        program's outputs stays small.
        """
        return list(zip(*self.columns))

    @property
    def complete(self) -> bool:
        return not self.inconsistent and self.missing == 0


@dataclass
class Dataset:
    outcomes: Path
    rows: int
    malformed_lines: list
    fixed_price: int
    unsold: int
    zero_increment: int
    profit: dict          # auction id -> profit cents, rows the margin report includes
    retail_total: int     # retail cents summed over the same rows
    records: dict         # traced auction id -> (retail, final price, winner, price, increment)
    traces: list
    bidpacks: dict        # buyer -> (packs won, cost cents, value cents)
    bidpack_traced: int

    def complete_traces(self) -> list:
        return [t for t in self.traces if t.complete]


def _write(path: Path, text: str) -> None:
    """Write and fsync, so no write-back of the inputs overlaps the timed rounds."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())


def _dollars(cents: int) -> str:
    return f"{cents // 100}.{cents % 100:02d}"


def _row(aid, pid, item, desc, retail, price, final, inc, fee, winner, placed, free,
         endtime, click, beginner, fixed) -> list:
    return [str(aid), str(pid), item, desc, _dollars(retail), _dollars(price), _dollars(final),
            str(inc), str(fee), winner, str(placed), str(free), endtime,
            str(click), str(beginner), str(fixed), "0"]


def _endtime(rng: random.Random) -> str:
    return (f"{rng.randrange(24):02d}:{rng.randrange(60):02d} PDT "
            f"{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}-2009")


def _stream(rng: random.Random, n: int, users: list, duel: Optional[int]) -> tuple:
    """Bidder of each bid; nobody outbids themselves.

    With a duel the last `duel` bids alternate between X and Y and the bid
    before them comes from a third user, so the alternating suffix is exactly
    `duel` long. Without one the last three bids come from three different
    users, so the suffix is two long.
    """
    x, y, z = rng.sample(users, 3)
    tail = [z] + [x if i % 2 == 0 else y for i in range(duel)] if duel else [x, y, z]
    out: list = []
    for _ in range(n - len(tail)):
        prev = out[-1] if out else None
        nxt = rng.choice(users)
        while nxt == prev or (len(out) == n - len(tail) - 1 and nxt == tail[0]):
            nxt = rng.choice(users)
        out.append(nxt)
    out.extend(tail)
    pair = (tail[-1], tail[-2]) if duel else ()
    return out, pair


def _sizes(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """(bids, mean gap in seconds) of count traces, in a seeded order.

    Bids are evenly spaced over [lo, hi] and mean gaps over [2, 20], paired
    by one fixed shuffle. Every seed gets the same pairs, only who gets which
    changes, so the reports' work does not move with the seed:
    `active_bidder_fraction` costs bids times duration, and a seeded pairing
    of a long trace with a long gap would change it several-fold.
    """
    gaps = [2.0 + 18.0 * (i + 0.5) / count for i in range(count)]
    random.Random(count).shuffle(gaps)
    pairs = [(round(lo + (hi - lo) * (i + 0.5) / count), gaps[i]) for i in range(count)]
    rng.shuffle(pairs)
    return pairs


def _write_trace(rng: random.Random, path: Path, aid: int, stream: list, inc: int,
                 gaps: bool, duel: Optional[int], pair: tuple, mean_gap: float) -> TraceTruth:
    n = len(stream)
    t = 1_260_000_000.0 + rng.randrange(10_000_000)
    times = []
    for i in range(n):
        in_duel = duel is not None and i >= n - duel
        t += max(0.05, rng.expovariate(1.0 / (2.0 if in_duel else mean_gap)))
        times.append(t)
    types = [2 if rng.random() < 0.1 else 1 for _ in range(n)]
    # Probe after bid `end` (1-based) shows bids end-9..end. A step of more
    # than ten bids hides the bids no window covers.
    end = min(rng.randint(1, 10), n)
    ends = [end]
    gap_at = rng.randrange(1, max(2, n // 20)) if gaps else -1
    while end < n:
        end = min(end + (rng.randint(11, 25) if len(ends) == gap_at else rng.randint(2, 10)), n)
        ends.append(end)
    lines = []
    seen: dict = {}
    for e in ends:
        nxt = times[e] if e < n else times[e - 1] + 30.0
        obs = round(times[e - 1] + min(0.5, (nxt - times[e - 1]) / 2), 2)
        shown = range(max(1, e - 9), e + 1)
        bh = "".join(f"{k}:{stream[k - 1]}:{types[k - 1]}:{k * inc}:0:#" for k in shown)
        state = 20 if e == n else 1
        lines.append(f"{obs!r}\tct={rng.randint(1, 20)}|cs={state}|ra=0|cw={stream[e - 1]}"
                     f"|cp={e * inc}|bh={bh}|lui=4#1#0#0\n")
        for k in shown:
            if k not in seen:
                seen[k] = (k, stream[k - 1], types[k - 1], k * inc, obs)
    _write(path, "".join(lines))
    numbers = sorted(seen)
    users, types, prices, stamps = zip(*(seen[k][1:] for k in numbers))
    columns = (array("q", numbers), users, bytes(types), array("q", prices), array("d", stamps))
    missing = (numbers[-1] - numbers[0] + 1) - len(numbers)
    return TraceTruth(aid, path, columns, missing, duel, pair, len(lines))


def generate(directory: Path, seed: int, profile: str = "full") -> Dataset:
    cfg = PROFILES[profile]
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    users = [f"bidder{i:04d}" for i in range(5000)]
    buyers = [f"packfan{i:02d}" for i in range(25)]
    rows = cfg["rows"]
    n_traced = cfg["traced"] + cfg["long_traces"]
    kinds = (["traced"] * n_traced + ["pack_traced"] * cfg["bidpack_traced"]
             + ["pack"] * (cfg["bidpack_rows"] - cfg["bidpack_traced"]))
    kinds.append("inconsistent")
    rest = rows - len(kinds)
    for _ in range(rest):
        u = rng.random()
        kinds.append("malformed" if u < 0.02 else "fixed" if u < 0.07 else "unsold" if u < 0.10
                     else "zero_inc" if u < 0.102 else "normal")
    rng.shuffle(kinds)
    gap_slots = set(rng.sample([i for i, k in enumerate(kinds) if k == "traced"], cfg["gap_traces"]))
    traced_slots = [i for i, k in enumerate(kinds) if k == "traced"]
    # a long trace never has gaps: an incomplete trace skips part 2, and its
    # share of part 2 would then move with the seed
    long_slots = set(rng.sample([i for i in traced_slots if i not in gap_slots],
                                cfg["long_traces"]))
    long_duel_slots = set(rng.sample([i for i in traced_slots if i not in long_slots
                                      and i not in gap_slots], cfg["long_duels"]))

    sizes = _sizes(rng, *cfg["bids"], cfg["traced"] + cfg["bidpack_traced"])
    long_sizes = _sizes(rng, *cfg["long_bids"], cfg["long_traces"])
    out_rows: list = []
    ds = Dataset(outcomes=directory / "outcomes.tsv", rows=rows, malformed_lines=[],
                 fixed_price=0, unsold=0, zero_increment=0, profit={}, retail_total=0,
                 records={}, traces=[], bidpacks={}, bidpack_traced=0)
    packs: list = []  # (aid, winner, final, retail, winner bids untraced or None, trace)
    for slot, kind in enumerate(kinds):
        aid = 300_000 + slot
        pid = 10_000_000 + rng.randrange(1_000_000)
        item, desc = rng.choice(_ITEMS)
        inc = rng.choice((1, 6, 12, 15, 24))
        fee = rng.choice((60, 75))
        retail = rng.randrange(1_000, 150_000)
        click, beginner = int(rng.random() < 0.3), int(rng.random() < 0.1)
        endtime = _endtime(rng)
        if kind in ("traced", "pack_traced"):
            is_pack = kind == "pack_traced"
            if is_pack:
                size = rng.choice(_PACKS)
                item, desc, retail = f"{size}-bids-voucher", f"{size} Bids Voucher", size * FEE
                pool = rng.sample(buyers, 6) + rng.sample(users, 4)
                n, mean_gap = sizes.pop()
            elif slot in long_slots:
                pool = rng.sample(users, 40)
                n, mean_gap = long_sizes.pop()
            else:
                pool = rng.sample(users, rng.randint(4, 30))
                n, mean_gap = sizes.pop()
            gaps = slot in gap_slots
            if slot in long_duel_slots:
                duel = rng.randint(300, 600) if profile == "full" else rng.randint(60, 120)
                n = max(n, duel + 20)
            elif gaps or rng.random() < 0.4:
                duel = None
            else:
                duel = rng.randint(10, min(60, n - 5))
            stream, pair = _stream(rng, n, pool, duel)
            truth = _write_trace(rng, directory / f"{aid}.txt", aid, stream, inc, gaps, duel, pair,
                                 mean_gap)
            truth.long_trace = slot in long_slots
            truth.long_duel = slot in long_duel_slots
            ds.traces.append(truth)
            winner = stream[-1]
            price = n * inc
            placed = stream.count(winner)
            out_rows.append(_row(aid, pid, item, desc, retail, price, price, inc, fee, winner,
                                 placed, 0, endtime, click, beginner, 0))
            ds.records[aid] = (retail, price, winner, price, inc)
            ds.profit[aid] = n * FEE + price - retail
            ds.retail_total += retail
            if is_pack:
                packs.append((aid, winner, price, retail, None, truth, stream))
        elif kind == "inconsistent":
            path = directory / f"{aid}.txt"
            _write(path, "1260000000.0\tcs=1|cw=b|cp=36|bh=5:a:1:30:0:#6:b:1:36:0:#\n"
                         "1260000001.0\tcs=1|cw=c|cp=18|bh=3:c:1:18:0:#\n")
            ds.traces.append(TraceTruth(aid, path, ((),) * 5, 0, None, (), 2,
                                        inconsistent=True))
            out_rows.append(_row(aid, pid, item, desc, retail, 36, 36, 6, fee, "b", 1, 0,
                                 endtime, click, beginner, 0))
            ds.profit[aid] = 6 * FEE + 36 - retail
            ds.retail_total += retail
        elif kind == "pack":
            size = rng.choice(_PACKS)
            n = rng.randint(20, 2000)
            winner = rng.choice(buyers)
            placed = rng.randint(1, max(1, n // 3))
            free = rng.randint(0, placed) if rng.random() < 0.2 else 0
            price = n * inc
            out_rows.append(_row(aid, pid, f"{size}-bids-voucher", f"{size} Bids Voucher",
                                 size * FEE, price, price, inc, fee, winner, placed, free,
                                 endtime, click, beginner, 0))
            ds.profit[aid] = n * FEE + price - size * FEE
            ds.retail_total += size * FEE
            packs.append((aid, winner, price, size * FEE, placed - free, None, None))
        elif kind == "normal":
            n = rng.randint(1, 3000)
            price = n * inc
            placed = rng.randint(1, max(1, n // 4))
            out_rows.append(_row(aid, pid, item, desc, retail, price, price, inc, fee,
                                 rng.choice(users), placed, 0, endtime, click, beginner, 0))
            ds.profit[aid] = n * FEE + price - retail
            ds.retail_total += retail
        elif kind == "fixed":
            price = rng.randrange(100, retail)
            out_rows.append(_row(aid, pid, item, desc, retail, price, price, 0, fee,
                                 rng.choice(users), rng.randint(1, 50), 0, endtime, click,
                                 beginner, 1))
            ds.fixed_price += 1
        elif kind == "unsold":
            out_rows.append(_row(aid, pid, item, desc, retail, 0, 0, inc, fee, "", 0, 0,
                                 endtime, click, beginner, 0))
            ds.unsold += 1
        elif kind == "zero_inc":
            price = rng.randrange(1, 5000)
            out_rows.append(_row(aid, pid, item, desc, retail, price, price, 0, fee,
                                 rng.choice(users), 5, 0, endtime, click, beginner, 0))
            ds.zero_increment += 1
        else:  # malformed
            fields = _row(aid, pid, item, desc, retail, 600, 600, 6, fee, rng.choice(users),
                          10, 0, endtime, click, beginner, 0)
            defect = rng.choice(_MALFORMED)
            if defect == "short":
                fields = fields[:rng.randint(1, 16)]
            elif defect == "extra":
                fields = fields + ["surplus"]
            elif defect == "bad_dollar":
                fields[4] = "n/a"
            elif defect == "subcent":
                fields[5] = "6.005"
            elif defect == "bad_flag":
                fields[13] = "2"
            else:
                fields[1] = f"P{pid}"
            out_rows.append(fields)
            ds.malformed_lines.append(slot + 1)

    _write(ds.outcomes, "".join("\t".join(r) + "\n" for r in out_rows))
    ds.bidpacks, ds.bidpack_traced = _bidpack_truth(packs)
    return ds


def _bidpack_truth(packs: list) -> tuple:
    """Each buyer's cost and face value with the complete traces passed in.

    A pack won costs its final price plus the winner's own bids at FEE, the
    bids counted in the trace when it is complete and from the outcome row
    otherwise; a complete trace also charges every other pack winner for the
    bids they placed in that auction and lost.
    """
    winners = sorted({w for _, w, *_ in packs})
    cost = {u: 0 for u in winners}
    value = {u: 0 for u in winners}
    won = {u: 0 for u in winners}
    traced = 0
    for aid, winner, final, retail, paid_bids, truth, stream in packs:
        if truth is not None and truth.complete:
            traced += 1
            for u in winners:
                if u != winner:
                    cost[u] += stream.count(u) * FEE
            paid_bids = stream.count(winner)
        elif truth is not None:
            paid_bids = stream.count(winner)  # the outcome row's placed bids, free = 0
        cost[winner] += final + paid_bids * FEE
        value[winner] += retail
        won[winner] += 1
    return {u: (won[u], cost[u], value[u]) for u in winners}, traced


def generate_apart(directory: Path, seed: int, profile: str = "full") -> Dataset:
    """`generate` in a child interpreter; the truth comes back pickled."""
    import common
    truth = directory.parent / f"{directory.name}-truth.pickle"
    common.run_child([__file__, str(directory), str(seed), profile, str(truth)])
    try:
        with open(truth, "rb") as handle:
            return pickle.load(handle)
    finally:
        truth.unlink()


if __name__ == "__main__":
    import dataset  # pickle the truth under the module's name, not __main__
    out_dir, seed_arg, profile_arg, truth_path = sys.argv[1:]
    made = dataset.generate(Path(out_dir), int(seed_arg), profile_arg)
    with open(truth_path, "wb") as out:
        pickle.dump(made, out, protocol=pickle.HIGHEST_PROTOCOL)
