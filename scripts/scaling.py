"""World.run wall time on the happy path at growing transfer counts.

    python3 scripts/scaling.py                  # 1k, 2k and 5k transfers
    python3 scripts/scaling.py --sizes 50 100   # a quick smoke run

Each size is one run of the benchmark's happy workload (the transfers that
`perfbench/workloads.py` generates at seed 7, default chains, 3 honest
signatories) against the package under `src/`. It prints, per size, the wall
time of `World.run` (set-up excluded), delivered transfers per second and the
number of signatures `codec.verify` checked in full, then t(b)/t(a) for each
pair of consecutive sizes (the linear target is b/a: t(2n)/t(n) of about 2).
It is a measurement, not a gate: the exit status is 1 only if some transfer
is not delivered.
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import random
import sys
import time
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 7  # the seed of perfbench's claimed happy_stream runs


def measure(bs, workloads, n: int) -> tuple[float, int, int]:
    """(World.run seconds, delivered transfers, full verifies) of one run."""
    per_tick = workloads.HappyStream.per_tick
    world = bs.scenario.World(bs.scenario.ScenarioConfig(
        seed=SEED,
        workload=workloads._transfers(random.Random(SEED), n, per_tick),
        max_ticks=1000 + 4 * n))
    # `codec.verify` builds a key only for a signature it checks in full
    with mock.patch.object(bs.codec, "Ed25519PublicKey",
                           wraps=bs.codec.Ed25519PublicKey) as keys:
        gc.collect()
        t0 = time.perf_counter()
        report = world.run()
        wall = time.perf_counter() - t0
    return wall, len(report.delivered), keys.from_public_bytes.call_count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1000, 2000, 5000])
    args = parser.parse_args(argv)
    if any(n < 1 for n in args.sizes):
        parser.error("--sizes must be positive")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import bridgesim as bs
    from perfbench import workloads

    print(f"{'transfers':>9} {'wall_s':>9} {'transfers/s':>12} "
          f"{'full_verifies':>13}")
    walls, complete = {}, True
    for n in args.sizes:
        wall, delivered, full = measure(bs, workloads, n)
        walls[n] = wall
        complete &= delivered == n
        print(f"{n:>9} {wall:>9.3f} {delivered / wall:>12.1f} {full:>13}"
              + ("" if delivered == n else f"  ({delivered} delivered)"))
    for a, b in zip(args.sizes, args.sizes[1:]):
        print(f"t({b})/t({a}) = {walls[b] / walls[a]:.2f} "
              f"(linear: {b / a:.2f})")
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
