"""Lines of bridgesim functions that no shipped scenario or workload runs.

    python3 scripts/traffic_lines.py              # happy_stream cut to 200
    python3 scripts/traffic_lines.py --happy 50   # a quick smoke run
    python3 scripts/traffic_lines.py --check scripts/traffic_lines.json

It runs, with a `sys.settrace` line hook on the `bridgesim` package: every
file in `scenarios/` and in `src/bridgesim/threats/`, each as `bridgesim run`
loads it, and one batch of each benchmark workload at seed 7 (the inputs
`perfbench/workloads.py` generates; `happy_stream` cut to its first
``--happy`` transfers). The package is imported under the hook, so what runs
at import counts too. Then, for each module, it prints the lines inside a
function (a line that starts a statement of a function, method, lambda or
comprehension body) that none of these runs executed, with their text.

A line listed here is code that no shipped input reaches: dead, reached
only by tests, or a gap in the inputs. The listing is a reading aid.

``--check FILE`` is a gate. FILE maps a module name to its known unrun
lines, each ``{"function": ..., "line": ..., "reason": ...}``: the name of
the function around the line (a lambda or comprehension takes its
enclosing function's), the line's stripped text and why it stays. A line
is keyed by these two, not by its number, so edits elsewhere leave it
alone. For each module FILE names, the check exits 1 if an unrun line has
no entry (reach it, or list it with a reason) or an entry matches no unrun
line (it is reached or gone: drop it).
"""

from __future__ import annotations

import argparse
import copy
import dis
import inspect
import json
import pathlib
import sys
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
SEED = 7  # the seed of perfbench's claimed runs


def function_lines(path: pathlib.Path) -> dict[int, str]:
    """Each line at which some function body in ``path`` starts a statement,
    with the name of the innermost function around it; a lambda or
    comprehension takes its enclosing function's name."""
    lines: dict[int, str] = {}
    todo = [(compile(path.read_text(), str(path), "exec"), "")]
    while todo:
        code, name = todo.pop()
        if code.co_flags & inspect.CO_NEWLOCALS:  # not a module or class body
            if not (name and code.co_name.startswith("<")):
                name = code.co_name
            lines.update((line, name) for _, line in dis.findlinestarts(code)
                         if line is not None)
        todo.extend((c, name) for c in code.co_consts if inspect.iscode(c))
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


def check(unrun: dict[str, list], path: pathlib.Path) -> int:
    """0 if each module ``path`` names has exactly its listed unrun lines,
    each with a reason; else 1, after a line per difference."""
    failures = 0
    for module, entries in json.loads(path.read_text()).items():
        for e in entries:
            if not e.get("reason"):
                failures += 1
                print(f"{module}: {e['function']}: {e['line']!r} has no reason")
        listed = Counter((e["function"], e["line"]) for e in entries)
        found = Counter((function, line)
                        for _, function, line in unrun.get(module, ()))
        for function, line in sorted((found - listed).elements()):
            failures += 1
            print(f"{module}: {function}: {line!r} is run by no shipped "
                  f"input; reach it, or list it in {path.name} with a reason")
        for function, line in sorted((listed - found).elements()):
            failures += 1
            print(f"{module}: {function}: {line!r} is listed in {path.name} "
                  "but is run now, or gone; drop its entry")
        print(f"{module}: {sum(found.values())} unrun lines, "
              f"{sum(listed.values())} listed")
    print("traffic check:", f"{failures} failures" if failures else "ok")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--happy", type=int, default=200,
                        help="happy_stream transfers (default 200)")
    parser.add_argument("--check", type=pathlib.Path, metavar="FILE",
                        help="exit 1 unless the unrun lines of each module "
                             "FILE names are exactly the ones it lists")
    args = parser.parse_args(argv)
    if args.happy < 1:
        parser.error("--happy must be positive")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    executed = traced_runs(args.happy)
    unrun = {}  # module -> (number, function, stripped text) of each unrun line
    for path in sorted((ROOT / "src" / "bridgesim").glob("*.py")):
        lines = function_lines(path)
        text = path.read_text().splitlines()
        unrun[path.name] = [
            (number, lines[number], text[number - 1].strip())
            for number in sorted(lines.keys() - executed.get(str(path), set()))]
    if args.check:
        return check(unrun, args.check)
    for module, lines in unrun.items():
        print(f"{module}: {len(lines)} lines")
        for number, _, line in lines:
            print(f"  {number:>4}  {line}")
    total = sum(map(len, unrun.values()))
    print(f"total: {total} lines in functions that no shipped input runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
