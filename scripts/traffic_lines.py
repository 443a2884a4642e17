"""Lines of bridgesim functions that no shipped scenario or workload runs.

    python3 scripts/traffic_lines.py              # happy_stream cut to 200
    python3 scripts/traffic_lines.py --happy 50   # a quick smoke run

It runs, with a `sys.settrace` line hook on the `bridgesim` package: every
file in `scenarios/` and in `src/bridgesim/threats/`, each as `bridgesim run`
loads it, and one batch of each benchmark workload at seed 7 (the inputs
`perfbench/workloads.py` generates; `happy_stream` cut to its first
``--happy`` transfers). The package is imported under the hook, so what runs
at import counts too. Then, for each module, it prints the lines inside a
function (a line that starts a statement of a function, method, lambda or
comprehension body) that none of these runs executed, with their text.

A line listed here is code that no shipped input reaches: dead, reached
only by tests, or a gap in the inputs. It is a reading aid, not a gate.
"""

from __future__ import annotations

import argparse
import copy
import dis
import inspect
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 7  # the seed of perfbench's claimed runs


def function_lines(path: pathlib.Path) -> set[int]:
    """The lines at which some function body in ``path`` starts a statement."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        if code.co_flags & inspect.CO_NEWLOCALS:  # not a module or class body
            lines.update(line for _, line in dis.findlinestarts(code)
                         if line is not None)
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
    return lines


def traced_runs(happy: int) -> dict[str, set[int]]:
    """Filename -> the lines executed in package frames while importing
    bridgesim and running every shipped scenario and workload batch."""
    package = str(ROOT / "src" / "bridgesim")
    executed: dict[str, set[int]] = {}

    def line(frame, event, arg):
        executed[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(package):
            return None
        executed.setdefault(name, set()).add(frame.f_lineno)
        return line

    sys.settrace(call)
    try:
        import bridgesim as bs
        from perfbench import workloads

        files = sorted((ROOT / "scenarios").glob("*.json"))
        files += sorted((ROOT / "src" / "bridgesim" / "threats").glob("*.json"))
        for path in files:
            bs.scenario.World(
                bs.ScenarioConfig.from_json(path.read_text())).run()
        for name, workload in workloads.WORKLOADS.items():
            if name == "happy_stream":
                workload = copy.copy(workload)
                workload.transfers = happy
            for item in workload.items(bs, SEED):
                bs.scenario.World(item.config).run()
    finally:
        sys.settrace(None)
    return executed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--happy", type=int, default=200,
                        help="happy_stream transfers (default 200)")
    args = parser.parse_args(argv)
    if args.happy < 1:
        parser.error("--happy must be positive")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    executed = traced_runs(args.happy)
    total = 0
    for path in sorted((ROOT / "src" / "bridgesim").glob("*.py")):
        unrun = sorted(function_lines(path) - executed.get(str(path), set()))
        total += len(unrun)
        print(f"{path.name}: {len(unrun)} lines")
        text = path.read_text().splitlines()
        for number in unrun:
            print(f"  {number:>4}  {text[number - 1].strip()}")
    print(f"total: {total} lines in functions that no shipped input runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
