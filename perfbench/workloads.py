"""The three benchmark workloads: input generation and output checks.

Every workload is open loop in simulated time (transfer requests and faults
are scheduled at fixed ticks, whatever the system does) and one batch in wall
time (a batch is every `World.run` the workload needs). The seed reaches the
package only through the generated inputs: `ScenarioConfig.seed`, the
call arguments and senders, and the sweep's per-scenario seeds.
"""

from __future__ import annotations

import dataclasses
import random

SENDERS = ("alice", "bob", "carol", "dave")


def _transfers(rng: random.Random, count: int, per_tick: int) -> list[dict]:
    """`count` setValue transfers, `per_tick` of them due at each tick from 1."""
    return [
        {"tick": 1 + i // per_tick, "action": "request_transfer",
         "sender": rng.choice(SENDERS), "recipient": "storage",
         "call": {"signature": "setValue(uint128)",
                  "args": [rng.getrandbits(96) + 1]}}
        for i in range(count)
    ]


@dataclasses.dataclass
class Item:
    """One scenario of a batch, and what the checks expect of it."""

    label: str
    config: object  # bridgesim.scenario.ScenarioConfig
    expected: str | None = None  # threat_sweep: predicted classification


class Workload:
    name = ""
    op = ""  # what one op is, for the docs and the printed summary
    # (per-layer metric, upper limit) showing that a layer is bypassed here
    bypass: tuple[str, float] | None = None

    def items(self, bs, seed: int) -> list[Item]:
        raise NotImplementedError

    def check(self, item: Item, report) -> tuple[int, int, list[str]]:
        """(attempted ops, successful ops, problems) for one finished run."""
        raise NotImplementedError


def _ids(report) -> list[int]:
    return [d[0] for d in report.delivered]


class HappyStream(Workload):
    """Criterion-1 traffic: default chains, 3 honest signatories."""

    name = "happy_stream"
    op = "one requested transfer"
    transfers = 1000
    per_tick = 5

    def items(self, bs, seed):
        rng = random.Random(seed)
        config = bs.scenario.ScenarioConfig(
            seed=seed, workload=_transfers(rng, self.transfers, self.per_tick),
            max_ticks=4000)
        return [Item(self.name, config)]

    def check(self, item, report):
        n = self.transfers
        problems = []
        if report.requested != list(range(n)):
            problems.append("requested ids are not 0..n-1")
        ids = _ids(report)
        if ids != list(range(n)):
            problems.append(f"delivered {len(ids)} ids, not 0..{n - 1} in "
                            "order with one Processed each")
        if report.violations:
            problems.append(f"{len(report.violations)} oracle violations")
        ok = len(set(ids) & set(range(n)))
        return n, ok, problems


class ThreatSweep(Workload):
    """The 17 threat-matrix scenarios back to back, over consecutive seeds."""

    name = "threat_sweep"
    op = "one suite scenario (World set-up, run and report)"
    bypass = ("bridge.step.self_share", 0.05)

    def items(self, bs, seed):
        return [Item(entry.name,
                     dataclasses.replace(entry.build(), seed=seed + i),
                     entry.expected)
                for i, entry in enumerate(bs.suite.SUITE)]

    def check(self, item, report):
        if report.classification == item.expected:
            return 1, 1, []
        return 1, 0, [f"{item.label}: classified {report.classification}, "
                      f"expected {item.expected}"]


class FaultStream(Workload):
    """A transfer stream under reorgs on both chains, relay restarts, a refuser.

    Shallow source reorgs move unfinalised requests into new blocks. The relay
    keeps the old block hash, honest signatories refuse with
    BlockHashMismatch, the job stalls with signatureTimeout, and every later
    id is reverted as OutOfOrder. Those transfers are failed ops: the
    workload shows this liveness loss rather than avoiding it.
    """

    name = "fault_stream"
    op = "one requested transfer"
    bypass = ("keccak.keccak256.calls_outside_selector", 0)
    transfers = 500
    per_tick = 5
    reorg_every = 40       # shallow reorg period, per chain
    reorg_depth = 3        # below the finality depth of 6
    restart_every = 50     # bridge_restart period
    fault_horizon = 1400   # periodic faults stop here
    deep_reorg_tick = 250
    deep_reorg_depth = 130  # deeper than the chain's 128-block snapshot ring

    def items(self, bs, seed):
        rng = random.Random(seed)
        workload = _transfers(rng, self.transfers, self.per_tick)
        for tick in range(self.reorg_every, self.fault_horizon,
                          self.reorg_every):
            workload.append({"tick": tick, "action": "inject_reorg",
                             "chain": "source", "depth": self.reorg_depth})
            workload.append({"tick": tick + self.reorg_every // 2,
                             "action": "inject_reorg", "chain": "dest",
                             "depth": self.reorg_depth})
        for tick in range(self.restart_every, self.fault_horizon,
                          self.restart_every):
            workload.append({"tick": tick, "action": "bridge_restart"})
        workload.append({"tick": self.deep_reorg_tick, "action": "inject_reorg",
                         "chain": "dest", "depth": self.deep_reorg_depth})
        chain = {"hash_alg": "blake2b256", "finality_depth": 6}
        config = bs.scenario.ScenarioConfig(
            seed=seed,
            source={"network_id": "alpha", **chain},
            dest={"network_id": "beta", **chain},
            signatory_modes=["honest", "honest", "honest", "refuse"],
            quorum_size=3,
            workload=workload,
            max_ticks=4000,
        )
        return [Item(self.name, config)]

    def check(self, item, report):
        n = self.transfers
        problems = []
        if report.violations:
            problems.append(f"{len(report.violations)} oracle violations")
        if report.requested != list(range(n)):
            problems.append("requested ids are not 0..n-1")
        ids = _ids(report)
        if ids != list(range(len(ids))):
            problems.append("delivered ids are not a gap-free in-order prefix "
                            "with one Processed each")
        stalled = {s[0] for s in report.stalls}
        delivered = set(ids)
        missing = [t for t in report.requested
                   if t not in delivered and t not in stalled]
        if missing:
            problems.append(f"{len(missing)} undelivered ids not in stalls")
        return n, len(delivered & set(range(n))), problems


WORKLOADS = {w.name: w for w in (HappyStream(), ThreatSweep(), FaultStream())}
