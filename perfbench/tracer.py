"""Per-layer tracing from outside the package.

`install` wraps the public functions of each bridgesim module in place, on
the already imported module objects; no file of the package changes. A
wrapper records one span per call (id, parent span, op id, name, start,
end) in memory. Self time is a span's duration minus the time its child
spans cover. Counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import itertools
import pickle
import statistics
import time
import types
from collections import Counter, defaultdict

from spec import REVERT_REASONS, SPANS


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.counts: Counter = Counter()
        self.op = 0  # index of the scenario run within the batch
        self._stack: list[int] = []
        self._ids = itertools.count()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()
        self._ids = itertools.count()

    def wrap(self, name: str, fn, after=None):
        """Span around ``fn``; ``after(args, result, exc)`` runs on exit."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.op, name, start, end))
                if after is not None:
                    after(args, None, exc)
                raise
            end = clock()
            stack.pop()
            spans.append((sid, parent, self.op, name, start, end))
            if after is not None:
                after(args, result, None)
            return result

        return traced

    def write_spans(self, path) -> None:
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as f:
            f.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for sid, parent, op, name, start, end in sorted(self.spans):
                f.write(f"{sid}\t{parent}\t{op}\t{name}\t"
                        f"{start - t0:.9f}\t{end - t0:.9f}\n")


def _rebind(bs, orig, wrapped) -> None:
    """Point every module-level reference to ``orig`` at ``wrapped``."""
    for mod in vars(bs).values():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)
    algs = bs.codec.HASH_ALGS
    for alg, fn in list(algs.items()):
        if fn is orig:
            algs[alg] = wrapped


def _pickle_counter(counts: Counter, key: str):
    def dumps(obj, *args, **kwargs):
        blob = pickle.dumps(obj, *args, **kwargs)
        counts[key] += len(blob)
        return blob
    return types.SimpleNamespace(dumps=dumps, loads=pickle.loads)


def install(tracer: Tracer, bs) -> None:
    """Wrap the public functions of the modules in namespace ``bs``."""
    c = tracer.counts
    wrap = tracer.wrap

    def count_keccak_bytes(args, result, exc):
        c["keccak.keccak256.bytes"] += len(args[0])

    for name, fn, after in (
            ("keccak.keccak256", bs.keccak.keccak256, count_keccak_bytes),
            ("codec.selector", bs.codec.selector, None),
            ("codec.blake2b256", bs.codec.blake2b256, None),
            ("codec.sign", bs.codec.sign, None),
            ("codec.verify", bs.codec.verify, None),
            ("codec.keygen", bs.codec.keygen, None),
            ("oracle.causality_oracle", bs.oracle.causality_oracle, None)):
        _rebind(bs, fn, wrap(name, fn, after))

    def count_scanned(args, result, exc):
        chain, from_block, to_block = args[0], args[3], args[4]
        if exc is None:
            hi = min(to_block, chain.head_number())
            c["chain.get_events.blocks_scanned"] += max(0, hi - max(from_block, 0) + 1)

    def count_revert(args, result, exc):
        payload = args[4]
        if isinstance(exc, bs.chain.Revert):
            reason = exc.reason if exc.reason in REVERT_REASONS else "other"
            c[f"adapter.reverts.{reason}"] += 1
        if payload[:4] == bs.adapter.TAG_PROCESS:
            c["adapter.process_calls"] += 1
            events = args[1].events
            if exc is None and events and events[-1][1] == "Processed":
                c["adapter.processed"] += 1

    def count_outcome(args, result, exc):
        if exc is None:
            c["signatory.silent" if result is None
              else f"signatory.{result.kind}"] += 1

    def count_persisted(args, result, exc):
        if exc is None:
            c["bridge.persisted.bytes"] += len(result)

    Chain = bs.chain.Chain
    for method, after in (("mine_block", None), ("make_transaction", None),
                          ("submit_transaction", None), ("inject_reorg", None),
                          ("get_events", count_scanned)):
        setattr(Chain, method, wrap(f"chain.{method}",
                                    getattr(Chain, method), after))
    bs.contracts.UserContract.dispatch = wrap(
        "contracts.dispatch", bs.contracts.UserContract.dispatch)
    bs.adapter.AdapterContract.dispatch = wrap(
        "adapter.dispatch", bs.adapter.AdapterContract.dispatch, count_revert)
    bs.signatory.Signatory.handle_sign_request = wrap(
        "signatory.handle_sign_request",
        bs.signatory.Signatory.handle_sign_request, count_outcome)

    Node = bs.bridge.BridgeNode
    Node.step = wrap("bridge.step", Node.step)
    Node.restore = classmethod(wrap("bridge.restore",
                                    Node.__dict__["restore"].__func__))
    Node.persisted = property(wrap("bridge.persisted",
                                   Node.__dict__["persisted"].fget,
                                   count_persisted))

    World = bs.scenario.World
    World.__init__ = wrap("scenario.World.init", World.__init__)
    World.step = wrap("scenario.World.step", World.step)
    World.build_report = wrap("scenario.World.build_report",
                              World.build_report)
    post = World.post

    def counted_post(self, recipient, message):
        c["scenario.bus_messages"] += 1
        return post(self, recipient, message)

    World.post = counted_post

    bs.chain.pickle = _pickle_counter(c, "chain.pickle_bytes")
    bs.bridge.pickle = _pickle_counter(c, "bridge.pickle_bytes")


def _p50(values: list[int]) -> float:
    return float(statistics.median(values)) if values else 0.0


def journal_waits(journals: list[list[str]]) -> dict[str, float]:
    """Median simulated ticks spent in each relay stage, read from journals.

    A journal line is ``tick | transfer_id | from -> to | detail``; a stage
    lasts from the first entry into it to the first entry into the next.
    """
    stages = [("finality", "awaitingFinality", "collectingSignatures"),
              ("quorum", "collectingSignatures", "submitting"),
              ("submit", "submitting", "awaitingDestFinality"),
              ("dest_finality", "awaitingDestFinality", "done")]
    waits = defaultdict(list)
    for journal in journals:
        entered: dict[tuple[str, str], int] = {}
        for line in journal:
            tick, tid, move, _ = line.split(" | ", 3)
            state = move.split(" -> ")[1]
            entered.setdefault((tid, state), int(tick))
        for key, start, end in stages:
            for (tid, state), tick in entered.items():
                if state == start and (tid, end) in entered:
                    waits[key].append(entered[(tid, end)] - tick)
    return {f"bridge.wait_{key}_ticks_p50": _p50(waits[key])
            for key, _, _ in stages}


def batch_layers(tracer: Tracer, worlds: list) -> tuple[dict, dict]:
    """(deterministic counts, self times in s) for one traced batch."""
    child = defaultdict(float)
    for sid, parent, _, _, start, end in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    names = {s[0]: s[3] for s in tracer.spans}
    calls, self_s = Counter(), defaultdict(float)
    outside = 0
    for sid, parent, _, name, start, end in tracer.spans:
        calls[name] += 1
        self_s[name] += end - start - child[sid]
        if name == "keccak.keccak256" and names.get(parent) != "codec.selector":
            outside += 1

    c = tracer.counts
    counts = {f"{s}.calls": calls[s] for s in SPANS}
    counts["keccak.keccak256.calls_outside_selector"] = outside
    for key in ("keccak.keccak256.bytes", "chain.get_events.blocks_scanned",
                "chain.pickle_bytes", "signatory.signed", "signatory.refused",
                "signatory.silent", "bridge.persisted.bytes",
                "bridge.pickle_bytes", "scenario.bus_messages"):
        counts[key] = c[key]
    for reason in REVERT_REASONS:
        counts[f"adapter.reverts.{reason}"] = c[f"adapter.reverts.{reason}"]
    counts["adapter.processed_per_submission"] = (
        c["adapter.processed"] / c["adapter.process_calls"]
        if c["adapter.process_calls"] else 0.0)
    handled = calls["signatory.handle_sign_request"]
    counts["signatory.signed_ratio"] = (
        c["signatory.signed"] / handled if handled else 0.0)
    counts["chain.orphaned_blocks"] = sum(
        len(ch.all_blocks) - len(ch.blocks)
        for w in worlds for ch in (w.source, w.dest))
    journals = [w.bridge.journal for w in worlds]
    counts["bridge.journal_lines"] = sum(len(j) for j in journals)
    counts["bridge.submissions"] = sum(
        1 for j in journals for line in j
        if "submitting -> submitting | tx " in line)
    counts.update(journal_waits(journals))
    return counts, {f"{s}.self_s": self_s[s] for s in SPANS}
