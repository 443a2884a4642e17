"""Bytecode instructions executed in bridgesim for one batch of each workload.

    python3 scripts/opcount.py              # happy_stream cut to 200 transfers
    python3 scripts/opcount.py --happy 50   # a quick smoke run

For each benchmark workload at seed 7 it runs one batch as perfbench does:
the inputs `perfbench/workloads.py` generates, from a cold selector cache,
each World set up and run. Meanwhile a `sys.settrace` hook turns on
`f_trace_opcodes` in every frame whose code is in the `bridgesim` package
and counts the opcode events of those frames. `happy_stream` is cut to its
first ``--happy`` transfers, since tracing each instruction slows a run
down many times over.

The count is exact: the same tree gives the same count on every run, where
wall time is noisy, so two trees can be compared by one run each. It counts
Python bytecode only. A call into C (a builtin, `hashlib`, `cryptography`)
is one instruction however long it runs, and frames outside the package
(the standard library, `perfbench`) are not counted at all.
"""

from __future__ import annotations

import argparse
import copy
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 7  # the seed of perfbench's claimed runs


def batch_instructions(bs, workload, seed: int) -> int:
    """Opcode events in ``bs`` frames during one batch of ``workload``."""
    package = os.path.dirname(bs.__file__) + os.sep
    count = 0

    def instruction(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return instruction

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return instruction

    bs.codec.selector.cache_clear()
    sys.settrace(call)
    try:
        for item in workload.items(bs, seed):
            bs.scenario.World(item.config).run()
    finally:
        sys.settrace(None)
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--happy", type=int, default=200,
                        help="happy_stream transfers (default 200)")
    args = parser.parse_args(argv)
    if args.happy < 1:
        parser.error("--happy must be positive")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import bridgesim as bs
    from perfbench import workloads

    happy = copy.copy(workloads.WORKLOADS["happy_stream"])
    happy.transfers = args.happy
    print(f"Bytecode instructions in one batch at seed {SEED}:")
    for name, workload in workloads.WORKLOADS.items():
        if name == "happy_stream":
            workload, name = happy, f"{name} ({args.happy} transfers)"
        print(f"{name:>30} {batch_instructions(bs, workload, SEED):>12,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
