"""bridgesim benchmark: one workload, end-to-end or per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload happy_stream --seed 1 --seconds 35 --trace 0

With ``--trace 0`` it measures the unmodified package and prints the
end-to-end metrics; with ``--trace 1`` it runs untraced batches, installs
the per-layer wrappers and prints the per-layer metrics. Either way it checks
every batch's outputs, requires byte-identical reports and journals across
batches, prints one JSON result as its last line and exits 1 if a check
failed. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import types
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from spec import END_TO_END, PER_LAYER
from tracer import Tracer, batch_layers, install
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
MODULES = ("keccak", "codec", "chain", "contracts", "adapter", "signatory",
           "bridge", "oracle", "scenario", "suite")
SETUP_REPS = 15      # set-up is timed this often per run; the median counts
MIN_BATCHES = 3      # untraced batches per run, at least
MIN_TRACED = 2       # traced batches per run, at least: their counts must agree
PROBE_EVERY = 4      # ticks between host-speed probes in untraced batches
PROBE_WINDOW = 4     # a tick's slowdown: median of the probes this many away
REFERENCE_PROBE_S = 50e-6  # probe time at the reference host speed
MASK64 = (1 << 64) - 1


def import_package():
    """Import bridgesim afresh, so that each set-up pays module import."""
    for name in [n for n in sys.modules
                 if n == "bridgesim" or n.startswith("bridgesim.")]:
        del sys.modules[name]
    importlib.import_module("bridgesim")
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"bridgesim.{m}") for m in MODULES})


def probe() -> float:
    """Time a fixed pure-Python kernel: a sample of the host's current speed.

    The kernel is keccak-like 64-bit integer work that shares no code with
    bridgesim, so a change to the package cannot move it; a slower host can.
    """
    t = time.perf_counter()
    s = [(i * 0x9E3779B97F4A7C15) & MASK64 for i in range(25)]
    for _ in range(8):
        c = [s[i] ^ s[i + 5] ^ s[i + 10] ^ s[i + 15] ^ s[i + 20]
             for i in range(5)]
        for i in range(25):
            x = s[i] ^ c[(i + 1) % 5]
            s[i] = ((x << 7) | (x >> 57)) & MASK64
    return time.perf_counter() - t


def slowdown(probes: list[float]) -> float:
    """How many times slower than the reference the host ran."""
    return statistics.median(probes) / REFERENCE_PROBE_S


def tick_slowdowns(batch) -> list[float]:
    """The host slowdown around each tick, from the probes next to it."""
    p = batch.probes
    local = [slowdown(p[max(0, j - PROBE_WINDOW):j + PROBE_WINDOW + 1])
             for j in range(len(p))]
    return [local[min(i // PROBE_EVERY, len(p) - 1)]
            for i in range(len(batch.ticks))]


def normalized(batch) -> tuple[list[float], float]:
    """(tick times, batch wall time) divided by the host slowdown.

    A tick is divided by its local slowdown; the batch by the time-weighted
    mean slowdown of its ticks.
    """
    ticks = [t / k for t, k in zip(batch.ticks, tick_slowdowns(batch))]
    return ticks, batch.wall_s * sum(ticks) / sum(batch.ticks)


@dataclass
class Batch:
    wall_s: float  # as measured, less the time spent in probes
    ticks: list = field(default_factory=list)   # s per World.step
    probes: list = field(default_factory=list)  # s per probe
    attempted: int = 0
    ok: int = 0
    problems: list = field(default_factory=list)
    report_sha256: str = ""
    journal_sha256: str = ""
    latencies: list = field(default_factory=list)  # ticks, per delivered op
    sim_ticks: int = 0
    layers: tuple | None = None  # traced: (counts, self times)


def _time_steps(world, ticks: list, probes: list) -> None:
    """Time every World.step; probe the host speed every few ticks."""
    step, clock = world.step, time.perf_counter

    def timed_step():
        t = clock()
        step()
        ticks.append(clock() - t)
        if len(ticks) % PROBE_EVERY == 0:
            probes.append(probe())

    world.step = timed_step  # World.run calls self.step()


def _request_ticks(world) -> dict[int, int]:
    """transfer id -> tick of its canonical source request block."""
    adapter = world.adapters["source"].address
    out = {}
    for block in world.source.blocks:
        for ev in block.events:
            if ev.emitter == adapter and ev.name == "BridgeTransferRequested":
                tid = int.from_bytes(dict(ev.attributes)["transferId"], "big")
                out[tid] = block.tick
    return out


def run_batch(bs, workload, seed, clear_caches, tracer=None) -> Batch:
    """One batch: generate inputs, set up and run every World, report."""
    gc.collect()
    clear_caches()
    if tracer is not None:
        tracer.reset()
    ticks, probes = [], []
    t0 = time.perf_counter()
    items = workload.items(bs, seed)
    worlds, reports = [], []
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.op = k
        world = bs.scenario.World(item.config)
        _time_steps(world, ticks, probes)
        reports.append(world.run())
        worlds.append(world)
    batch = Batch(wall_s=time.perf_counter() - t0 - sum(probes),
                  ticks=ticks, probes=probes)
    if tracer is not None:
        batch.layers = batch_layers(tracer, worlds)

    report_hash, journal_hash = hashlib.sha256(), hashlib.sha256()
    for item, world, report in zip(items, worlds, reports):
        attempted, ok, problems = workload.check(item, report)
        batch.attempted += attempted
        batch.ok += ok
        batch.problems += problems
        report_hash.update(report.to_text().encode())
        journal_hash.update("\n".join(world.bridge.journal).encode() + b"\0")
        requested = _request_ticks(world)
        for tid, _, dest_block in report.delivered:
            if tid in requested:
                batch.latencies.append(
                    world.dest.blocks[dest_block].tick - requested[tid])
        batch.sim_ticks += world.tick
    batch.report_sha256 = report_hash.hexdigest()
    batch.journal_sha256 = journal_hash.hexdigest()
    return batch


def run_batches(run_one, seconds: float, minimum: int) -> list[Batch]:
    """Batches until the next one would end after ``seconds``."""
    batches = []
    start = time.perf_counter()
    while True:
        batches.append(run_one())
        elapsed = time.perf_counter() - start
        typical = statistics.median(b.wall_s for b in batches)
        if len(batches) >= minimum and elapsed + typical > seconds:
            return batches


def _quantile(values, q: float) -> float:
    """Inclusive quantile, ``q`` in (0, 1)."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(batches: list[Batch], setup_s: float) -> dict:
    """Times are divided by the host slowdown measured around them."""
    first = batches[0]
    attempted = sum(b.attempted for b in batches)
    ms, walls = [], []
    for b in batches:
        ticks, wall = normalized(b)
        ms += [t * 1000.0 for t in ticks]
        walls.append(wall)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(b.ok / w for b, w in zip(batches, walls)),
        "success_ratio": sum(b.ok for b in batches) / attempted,
        "tick_ms_p50": statistics.median(ms),
        "tick_ms_p99": _quantile(ms, 0.99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_latency_ticks_p50": float(statistics.median(first.latencies)),
        "sim_latency_ticks_p90": float(_quantile(first.latencies, 0.90)),
        "sim_ticks_per_op": first.sim_ticks / first.attempted,
    }


def per_layer(bs, workload, seed, clear_caches, seconds, untraced_wall):
    """Traced batches: (metrics, traced batches, counts-mismatch problems)."""
    tracer = Tracer()
    install(tracer, bs)
    batches = run_batches(
        lambda: run_batch(bs, workload, seed, clear_caches, tracer=tracer),
        seconds, MIN_TRACED)
    layers = [b.layers for b in batches]
    problems = []
    counts = layers[0][0]
    for k, (other, _) in enumerate(layers[1:], start=2):
        differ = sorted(n for n in counts if counts[n] != other[n])
        if differ:
            problems.append(f"traced batch {k} counts differ from batch 1: "
                            + ", ".join(differ))
    metrics = dict(counts)
    for name in layers[0][1]:
        metrics[name] = statistics.median(sl[name] for _, sl in layers)
    metrics["bridge.step.self_share"] = (
        metrics["bridge.step.self_s"]
        / statistics.median(b.wall_s for b in batches))
    metrics["trace.wall_ratio"] = (
        statistics.median(normalized(b)[1] for b in batches) / untraced_wall)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{workload.name}-seed{seed}-spans.tsv")
    return metrics, batches, problems


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args) -> dict:
    try:
        crypto = metadata.version("cryptography")
    except metadata.PackageNotFoundError:
        crypto = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cryptography": crypto,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 62:
        parser.error("--seed must be in [0, 2**62)")

    src = ROOT / "src"
    if not (src / "bridgesim" / "__init__.py").is_file():
        print(f"perfbench: no bridgesim package under {src}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]

    setup_times, setup_probes = [], []
    for _ in range(SETUP_REPS):
        setup_probes += [probe() for _ in range(4)]
        t0 = time.perf_counter()
        bs = import_package()
        worlds = [bs.scenario.World(i.config)
                  for i in workload.items(bs, args.seed)]
        setup_times.append(time.perf_counter() - t0)
    del worlds
    clear_caches = bs.codec.selector.cache_clear  # each batch starts cold

    setup_s = statistics.median(setup_times) / slowdown(setup_probes)

    def run_untraced():
        return run_batch(bs, workload, args.seed, clear_caches)

    if args.trace:
        # half the time untraced, half traced: the ratio is the overhead
        untraced = run_batches(run_untraced, args.seconds / 2, MIN_TRACED)
        metrics, traced, problems = per_layer(
            bs, workload, args.seed, clear_caches, args.seconds / 2,
            statistics.median(normalized(b)[1] for b in untraced))
        batches = untraced + traced
        spec = PER_LAYER
    else:
        batches = run_batches(run_untraced, args.seconds, MIN_BATCHES)
        metrics = end_to_end(batches, setup_s)
        problems = []
        spec = [(n, u, b) for n, u, b, _ in END_TO_END]

    first = batches[0]
    for k, b in enumerate(batches[1:], start=2):
        if (b.report_sha256, b.journal_sha256) != (first.report_sha256,
                                                   first.journal_sha256):
            problems.append(f"batch {k} report/journal digest differs from "
                            "batch 1: the run is not deterministic")
    for k, b in enumerate(batches, start=1):
        problems += [f"batch {k}: {p}" for p in b.problems]
    if set(metrics) != {n for n, _, _ in spec}:
        problems.append("metric names differ from perfbench/spec.py")

    attempted = sum(b.attempted for b in batches)
    failed = attempted - sum(b.ok for b in batches)
    info = stamp(args)
    info.update(
        batches=len(batches),
        batch_wall_s=[round(b.wall_s, 6) for b in batches],
        report_sha256=first.report_sha256,
        journal_sha256=first.journal_sha256,
        failed_ratio=failed / attempted,
        setup_reps=len(setup_times),
        measured_setup_s=statistics.median(setup_times),
    )
    untraced = [b for b in batches if b.layers is None]
    info["slowdown"] = statistics.median(slowdown(b.probes) for b in untraced)
    info["measured_wall_s"] = statistics.median(b.wall_s for b in untraced)
    if args.trace:
        info["trace_overhead"] = metrics["trace.wall_ratio"] - 1.0
        if workload.bypass is not None:
            name, limit = workload.bypass
            info["bypass"] = {"metric": name, "value": metrics[name],
                              "limit": limit, "held": metrics[name] <= limit}
    else:
        info["tick_samples"] = sum(len(b.ticks) for b in batches)

    print(f"perfbench {workload.name}: op = {workload.op}; {len(batches)} "
          f"batches, {attempted} ops attempted, {failed} failed "
          f"(failed_ratio {failed / attempted:.4f})")
    units = {n: u for n, u, _ in spec}
    for name in sorted(metrics):
        print(f"  {name:45s} {metrics[name]:>16.6f} {units.get(name, '')}")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print("stamp " + json.dumps(info, sort_keys=True))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u, _ in spec if n in metrics},
    }
    OUT.mkdir(exist_ok=True)
    out = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"stamp": info, "problems": problems,
                               "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
