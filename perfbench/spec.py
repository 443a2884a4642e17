"""Metric names, units and bounds: the single source of BENCHMARK.json.

    python3 perfbench/spec.py    # rewrites BENCHMARK.json at the repo root

`run.py` refuses to print a result whose metric names differ from these.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "perfbench/run.py"]
RUN_SECONDS = 35

WORKLOADS = [
    ("happy_stream",
     "1000 honest transfers at 5 per tick: keccak-bound ingest, relay-bound "
     "drain, 3000 sign/verify calls; no faults"),
    ("threat_sweep",
     "all 17 threat-matrix scenarios on consecutive seeds: World set-up, "
     "per-block fixed cost and fault paths dominate; relay bypass"),
    ("fault_stream",
     "500 transfers under reorgs on both chains, relay restarts, a refusing "
     "signatory and a deep dest reorg, blake2b only: keccak bypass"),
]

# (name, unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("success_ratio", "ratio", "higher", 0.01),
    ("tick_ms_p50", "ms", "lower", 0.25),
    ("tick_ms_p99", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sim_latency_ticks_p50", "ticks", "lower", 0.05),
    ("sim_latency_ticks_p90", "ticks", "lower", 0.05),
    ("sim_ticks_per_op", "ticks", "lower", 0.05),
]

# Public functions wrapped by the tracer, reported as `<span>.calls` and
# `<span>.self_s`.
SPANS = [
    "keccak.keccak256",
    "codec.selector",
    "codec.blake2b256",
    "codec.sign",
    "codec.verify",
    "codec.keygen",
    "chain.mine_block",
    "chain.make_transaction",
    "chain.submit_transaction",
    "chain.inject_reorg",
    "chain.get_events",
    "contracts.dispatch",
    "adapter.dispatch",
    "signatory.handle_sign_request",
    "bridge.step",
    "bridge.restore",
    "bridge.persisted",
    "oracle.causality_oracle",
    "scenario.World.init",
    "scenario.World.step",
    "scenario.World.build_report",
]

# Every reason the adapter (or the transfer it makes) can revert with.
REVERT_REASONS = [
    "MalformedPayload", "UnknownFunction", "GasOutOfRange", "FeeTooLow",
    "Unauthorized", "NotRelayer", "InsufficientSignatures", "OutOfOrder",
    "InvalidSignature", "NotOwner", "ConfigError", "NegativeTransfer",
    "other",
]

COUNTERS = [
    ("keccak.keccak256.bytes", "B", "lower"),
    ("keccak.keccak256.calls_outside_selector", "count", "lower"),
    ("chain.get_events.blocks_scanned", "count", "lower"),
    ("chain.pickle_bytes", "B", "lower"),
    ("chain.orphaned_blocks", "count", "lower"),
    *[(f"adapter.reverts.{r}", "count", "lower") for r in REVERT_REASONS],
    ("adapter.processed_per_submission", "ratio", "higher"),
    ("signatory.signed", "count", "higher"),
    ("signatory.refused", "count", "lower"),
    ("signatory.silent", "count", "lower"),
    ("signatory.signed_ratio", "ratio", "higher"),
    ("bridge.persisted.bytes", "B", "lower"),
    ("bridge.pickle_bytes", "B", "lower"),
    ("bridge.journal_lines", "count", "lower"),
    ("bridge.submissions", "count", "lower"),
    ("bridge.wait_finality_ticks_p50", "ticks", "lower"),
    ("bridge.wait_quorum_ticks_p50", "ticks", "lower"),
    ("bridge.wait_submit_ticks_p50", "ticks", "lower"),
    ("bridge.wait_dest_finality_ticks_p50", "ticks", "lower"),
    ("scenario.bus_messages", "count", "lower"),
]

# Per-layer values derived from times, like the `.self_s` metrics. Every
# other per-layer metric is a count that must repeat exactly between traced
# batches.
TIMINGS = [
    ("bridge.step.self_share", "ratio", "lower"),
    ("trace.wall_ratio", "ratio", "lower"),
]

PER_LAYER = ([(f"{s}.calls", "count", "lower") for s in SPANS]
             + [(f"{s}.self_s", "s", "lower") for s in SPANS]
             + COUNTERS + TIMINGS)


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


if __name__ == "__main__":
    out = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    out.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {out}")
