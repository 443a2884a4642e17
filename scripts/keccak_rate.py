"""Keccak-f[1600] cost per call and Keccak-256 cost per message, by width.

    python3 scripts/keccak_rate.py             # W = 1, 2, 5, 16; 11 repetitions
    python3 scripts/keccak_rate.py --reps 3    # a quick smoke run

For each width W it prints the microseconds of one `keccak._permute` call on
W packed states and of `keccak256_many` per message, on batches of W
one-block messages of 56 bytes (an empty block's hash preimage: number,
parent hash, tick, salt); at W = 1 `keccak256_many` hands its message to the
scalar `keccak256`. Each figure is the median over the repetitions; every
repetition times all widths, in reverse order on odd repetitions, so a drift
in the host's speed spreads over the widths instead of landing on one. It is
a measurement, not a gate: the exit status is 1 only if a batch's digests
differ from `keccak256` one message at a time.
"""

from __future__ import annotations

import argparse
import pathlib
import random
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
WIDTHS = (1, 2, 5, 16)
MESSAGE_BYTES = 56
CALLS = 50  # timed per repetition and width


def per_call(fn, number: int) -> float:
    """Microseconds per call of ``fn``, over ``number`` calls."""
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - t0) / number * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=11)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be positive")
    sys.path.insert(0, str(ROOT / "src"))
    from bridgesim import keccak

    rng = random.Random(7)
    states, batches = {}, {}
    for w in WIDTHS:
        mask = keccak._width(w)[0]
        states[w] = [rng.getrandbits(128 * w) & mask for _ in range(25)]
        batches[w] = [rng.randbytes(MESSAGE_BYTES) for _ in range(w)]
        if keccak.keccak256_many(batches[w]) != [
                keccak.keccak256(m) for m in batches[w]]:
            print(f"W={w}: keccak256_many differs from keccak256")
            return 1

    permute = {w: [] for w in WIDTHS}
    message = {w: [] for w in WIDTHS}
    for rep in range(args.reps):
        for w in WIDTHS if rep % 2 == 0 else WIDTHS[::-1]:
            mask, rcs = keccak._width(w)
            s = list(states[w])
            permute[w].append(per_call(
                lambda: keccak._permute(s, mask, rcs), CALLS))
            batch = batches[w]
            message[w].append(per_call(
                lambda: keccak.keccak256_many(batch), CALLS) / w)

    print(f"{'W':>3} {'permute_us':>11} {'per_state_us':>13} "
          f"{'message_us':>11}")
    for w in WIDTHS:
        p = statistics.median(permute[w])
        print(f"{w:>3} {p:>11.1f} {p / w:>13.1f} "
              f"{statistics.median(message[w]):>11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
