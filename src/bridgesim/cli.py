"""Command-line front end.

Three subcommands:

- ``run``: execute a scenario file (JSON) and print or save the report.
- ``demo``: a minimal happy-path run, printing the event trace.
- ``suite``: run the built-in threat matrix and compare outcomes against
  the trust model's predictions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .adapter import ConfigError
from .scenario import ScenarioConfig, World
from .suite import run_suite


def _cmd_run(args) -> int:
    try:
        with open(args.scenario) as fh:
            config = ScenarioConfig.from_json(fh.read())
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
    except OSError as exc:
        print(f"error: cannot read scenario file: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"error: invalid scenario file: {exc}", file=sys.stderr)
        return 2
    try:
        world = World(config)
        report = world.run()
    except ConfigError as exc:  # a reorg deeper than the chain
        print(f"error: invalid scenario file: {exc}", file=sys.stderr)
        return 2
    text = report.to_text()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.journal:
        with open(args.journal, "w") as fh:
            for line in world.bridge.journal:
                fh.write(line + "\n")
    return 0


def _cmd_demo(args) -> int:
    workload = [{
        "tick": 1, "action": "request_transfer", "sender": "alice",
        "recipient": "storage",
        "call": {"signature": "setValue(uint128)", "args": [1]},
    }]
    config = ScenarioConfig(workload=workload, max_ticks=300)
    world = World(config)
    report = world.run()

    def dump_events(chain_name):
        chain = world.chains[chain_name]
        adapter = world.adapters[chain_name]
        for ev in chain.get_events(adapter.address, None, 0,
                                   chain.head_number()):
            def fmt(v: bytes) -> str:
                if v.isalpha():
                    return v.decode()
                if len(v) > 8:
                    return v.hex()
                return str(int.from_bytes(v, "big"))
            attrs = ", ".join(f"{k}={fmt(v)}" for k, v in ev.attributes)
            print(f"  [{chain_name} block {ev.block_number}] "
                  f"{ev.name}({attrs})")

    print("requesting setValue(1) across the bridge:")
    dump_events("source")
    dump_events("dest")
    from .scenario import contract_address
    value = world.dest.contracts[
        contract_address(world.dest.config.network_id, "storage")
    ].state["value"]
    print(f"destination storage value: {value}")
    print(f"classification: {report.classification}")
    return 0 if value == 1 and report.classification == "low" else 1


def _cmd_suite(args) -> int:
    failures = 0
    print(f"{'scenario':34s} {'risk':8s} {'predicted':10s} {'actual':10s} verdict")
    results = run_suite()
    for entry, report in results:
        match = report.classification == entry.expected
        failures += 0 if match else 1
        print(f"{entry.name:34s} {entry.risk:8s} {entry.expected:10s} "
              f"{report.classification:10s} {'match' if match else 'MISMATCH'}")
    print(f"{len(results)} scenarios, {failures} mismatches")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bridgesim",
        description="deterministic cross-chain bridge fault-injection testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON scenario file")
    p_run.add_argument("scenario", help="path to scenario JSON")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--report", help="write the report here instead of stdout")
    p_run.add_argument("--journal", help="write the bridge journal here")
    p_run.set_defaults(func=_cmd_run)

    p_demo = sub.add_parser("demo", help="happy-path walkthrough")
    p_demo.set_defaults(func=_cmd_demo)

    p_suite = sub.add_parser("suite", help="run the built-in threat matrix")
    p_suite.set_defaults(func=_cmd_suite)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
