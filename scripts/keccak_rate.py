"""Keccak-f[1600] cost per call and Keccak-256 cost per message, by width.

    python3 scripts/keccak_rate.py             # W = 1, 2, 5, 16; 11 repetitions
    python3 scripts/keccak_rate.py --reps 3    # a quick smoke run

For each width W it prints the microseconds of:

- one `keccak._permute` call on W packed states (and that per state);
- `keccak256_many` per message, on batches of W one-block messages of 56
  bytes (an empty block's hash preimage: number, parent hash, tick, salt)
  and of W two-block messages of 200 bytes (the size of a tx or an event
  preimage);
- block sealing: the header of a block with W txs and W events (number,
  parent hash, tick, salt and W tx hashes, 56 + 32 W bytes, then W event
  digests) hashed along with the next block's runs, a batch of W 200-byte
  tx preimages and a batch of W 200-byte event preimages. ``header_us``
  carries the header in both runs (`keccak.Sponge`, one block per
  permutation, the rest at W = 1), as a chain does; ``plain_us`` runs the
  two batches alone and finishes the header at W = 1.

Below the table, one row for W = 5 tx-shaped messages of 196 bytes (a
request tx's preimage; 5 of them share 4 first blocks, as 5 requests from 4
senders do): the microseconds per message of `keccak256_many` through a
first-block memo that holds their first blocks (``remembered_us``) and
through an empty one (``not_remembered_us``). Then one row for a W = 5
batch of mixed lengths, messages of 1, 1, 2, 2 and 3 blocks: the Keccak-f
calls that batch costs (``permutations``: one packed run as long as its
longest message, 3) and the microseconds per message of `keccak256_many`
(``message_us``).

Last, the Keccak-f calls of one batch of each benchmark workload at seed 7
(the inputs `perfbench/workloads.py` generates, each World set up and run
from a cold selector cache, as perfbench runs a batch), in all and by
packing width W: an exact count, where the times above are noisy. A batch
of several Worlds (`threat_sweep`, one per threat-matrix row) also gets one
line per World, so that a change in the total shows which row it is in.

Each figure is the median over the repetitions; every repetition times all
widths, in reverse order on odd repetitions, so a drift in the host's speed
spreads over the widths instead of landing on one. It is a measurement, not
a gate: the exit status is 1 only if a digest differs from `keccak256` of
one message at a time.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import statistics
import sys
import time
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
WIDTHS = (1, 2, 5, 16)
SHORT, LONG = 56, 200  # message bytes: one block, two blocks
TX, TX_W, TX_HEADS = 196, 5, 4  # tx-shaped messages: bytes, batch, first blocks
MIXED = (56, 56, 200, 200, 300)  # message bytes: 1, 1, 2, 2 and 3 blocks
CALLS = 50  # timed per repetition and width
SEED = 7  # the seed of perfbench's claimed runs
COLUMNS = ("permute_us", "per_state_us", "message_us", "message200_us",
           "header_us", "plain_us")


def per_call(fn, number: int) -> float:
    """Microseconds per call of ``fn``, over ``number`` calls."""
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - t0) / number * 1e6


def batch_permutations(bs, workload, seed: int) -> list[tuple[str, Counter]]:
    """Keccak-f calls by packing width W of each World in one batch of
    ``workload``, with its label, in batch order."""
    keccak, permute, rows = bs.keccak, bs.keccak._permute, []

    def counted(s, mask=keccak._M, rcs=keccak._ROUND_CONSTANTS):
        rows[-1][1][(mask.bit_length() + 64) // 128] += 1  # 128 W - 64 bits
        return permute(s, mask, rcs)

    bs.codec.selector.cache_clear()
    keccak._permute = counted
    try:
        for item in workload.items(bs, seed):
            rows.append((item.label, Counter()))
            bs.scenario.World(item.config).run()
    finally:
        keccak._permute = permute
    return rows


def calls_line(name: str, widths: Counter) -> str:
    return f"{name:>27} {sum(widths.values()):>6}" + "".join(
        f"  W = {w}: {n}" for w, n in sorted(widths.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=11)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be positive")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from collections import OrderedDict

    import bridgesim as bs
    from bridgesim import keccak
    from perfbench import workloads

    def carried(header, txs, events):
        sponge = keccak.Sponge(header)
        return (keccak.keccak256_many(txs, carry=sponge),
                keccak.keccak256_many(events, carry=sponge), sponge())

    def plain(header, txs, events):
        return (keccak.keccak256_many(txs), keccak.keccak256_many(events),
                keccak.Sponge(header)())

    rng = random.Random(7)
    states, short, long, events, header = {}, {}, {}, {}, {}
    for w in WIDTHS:
        mask = keccak._width(w)[0]
        states[w] = [rng.getrandbits(128 * w) & mask for _ in range(25)]
        short[w] = [rng.randbytes(SHORT) for _ in range(w)]
        long[w] = [rng.randbytes(LONG) for _ in range(w)]
        events[w] = [rng.randbytes(LONG) for _ in range(w)]
        header[w] = rng.randbytes(SHORT + 32 * w) + b"".join(
            keccak.keccak256(m) for m in events[w])
        one_at_a_time = [keccak.keccak256(m) for m in long[w]]
        sealed = (one_at_a_time, [keccak.keccak256(m) for m in events[w]],
                  keccak.keccak256(header[w]))
        if (keccak.keccak256_many(short[w]) != [
                keccak.keccak256(m) for m in short[w]]
                or keccak.keccak256_many(long[w]) != one_at_a_time
                or carried(header[w], long[w], events[w]) != sealed
                or plain(header[w], long[w], events[w]) != sealed):
            print(f"W={w}: a batch differs from keccak256")
            return 1
    heads = [rng.randbytes(keccak._RATE) for _ in range(TX_HEADS)]
    txs = [heads[k % TX_HEADS] + rng.randbytes(TX - keccak._RATE)
           for k in range(TX_W)]
    warm = OrderedDict()
    for memo in (OrderedDict(), warm, warm):  # cold, filling, remembered
        if keccak.keccak256_many(txs, memo) != [
                keccak.keccak256(m) for m in txs]:
            print(f"W={TX_W}: a tx batch through a memo differs")
            return 1
    tx_times = {"remembered_us": [], "not_remembered_us": []}
    mixed = [rng.randbytes(n) for n in MIXED]
    permute, calls = keccak._permute, []

    def counted(*args):
        calls.append(args)
        return permute(*args)

    keccak._permute = counted
    try:
        digests = keccak.keccak256_many(mixed)
    finally:
        keccak._permute = permute
    if digests != [keccak.keccak256(m) for m in mixed]:
        print(f"W={len(MIXED)}: a mixed-length batch differs")
        return 1
    mixed_times = []

    times = {w: {c: [] for c in COLUMNS if c != "per_state_us"}
             for w in WIDTHS}
    for rep in range(args.reps):
        for w in WIDTHS if rep % 2 == 0 else WIDTHS[::-1]:
            mask, rcs = keccak._width(w)
            s = list(states[w])
            t = times[w]
            t["permute_us"].append(per_call(
                lambda: keccak._permute(s, mask, rcs), CALLS))
            for column, batch in (("message_us", short[w]),
                                  ("message200_us", long[w])):
                t[column].append(per_call(
                    lambda: keccak.keccak256_many(batch), CALLS) / w)
            for column, fn in (("header_us", carried), ("plain_us", plain)):
                t[column].append(per_call(
                    lambda: fn(header[w], long[w], events[w]), CALLS))
            if w == TX_W:
                tx_times["remembered_us"].append(per_call(
                    lambda: keccak.keccak256_many(txs, warm), CALLS) / w)
                tx_times["not_remembered_us"].append(per_call(
                    lambda: keccak.keccak256_many(txs, OrderedDict()),
                    CALLS) / w)
                mixed_times.append(per_call(
                    lambda: keccak.keccak256_many(mixed), CALLS) / len(MIXED))

    print(f"{'W':>3}" + "".join(f" {c:>13}" for c in COLUMNS))
    for w in WIDTHS:
        med = {c: statistics.median(v) for c, v in times[w].items()}
        med["per_state_us"] = med["permute_us"] / w
        print(f"{w:>3}" + "".join(f" {med[c]:>13.1f}" for c in COLUMNS))
    print(f"\n{TX}-byte txs at W = {TX_W}, per message:" + "".join(
        f" {c} {statistics.median(v):.1f}" for c, v in tx_times.items()))
    print(f"mixed lengths {MIXED} bytes at W = {len(MIXED)}: permutations "
          f"{len(calls)} message_us {statistics.median(mixed_times):.1f}")
    print(f"\nKeccak-f calls in one batch at seed {SEED}, and in each World of"
          " a batch of several:")
    for name, workload in workloads.WORKLOADS.items():
        rows = batch_permutations(bs, workload, SEED)
        print(calls_line(name, sum((w for _, w in rows), Counter())))
        if len(rows) > 1:
            for label, widths in rows:
                print(calls_line(label, widths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
