"""Built-in threat-matrix scenarios.

Each entry pairs a compromise scenario with the damage class the trust model
predicts for it (low: inconvenience only; medium: bridge censored, no state
corruption; high: destination state corrupted). `run_suite` executes all of
them and compares the audited classification against the prediction.

Risk labels describe how hard the compromise is to mount (low: multiple
parties must be compromised simultaneously; medium: one party; high: none)
and are carried as metadata: scenarios assume the compromise happened and
measure only impact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .scenario import ScenarioConfig, ScenarioReport, run_scenario


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    description: str
    risk: str
    expected: str  # predicted impact classification
    builder: Callable[[], ScenarioConfig]

    def build(self) -> ScenarioConfig:
        return self.builder()


SUITE: list[SuiteEntry] = []  # in definition order


def _entry(description: str, risk: str, expected: str):
    """Add the decorated builder to SUITE, named after it."""
    def register(builder):
        SUITE.append(SuiteEntry(builder.__name__[1:], description, risk,
                                expected, builder))
        return builder
    return register


def _transfers(count: int, start_tick: int = 1, sender: str = "alice",
               per_tick: int = 5) -> list[dict]:
    return [
        {"tick": start_tick + i // per_tick, "action": "request_transfer",
         "sender": sender, "recipient": "storage",
         "call": {"signature": "setValue(uint128)", "args": [i + 1]},
         "label": f"t{i}"}
        for i in range(count)
    ]


@_entry("honest actors end to end", "-", "low")
def _happy_path() -> ScenarioConfig:
    return ScenarioConfig(workload=_transfers(20), max_ticks=1500)


@_entry("bridge chain connection fabricates a transfer; "
        "signatories follow the real chain", "low", "low")
def _source_infra_node() -> ScenarioConfig:
    # only the bridge's own connection lies; signatories follow the real chain
    workload = _transfers(5)
    workload.append({
        "tick": 1, "action": "faulty_view", "target": "bridge",
        "chain": "source",
        "corruption": {"kind": "fabricate_request", "block_number": 2,
                       "transfer_id": 5,
                       "call": {"signature": "setValue(uint128)",
                                "args": [999]}},
    })
    return ScenarioConfig(workload=workload, max_ticks=1500)


@_entry("quorum of signatory connections fabricate the same transfer",
        "low", "high")
def _source_infra_quorum() -> ScenarioConfig:
    # the signatories' connections lie too: quorum signs a fabricated event
    corruption = {"kind": "fabricate_request", "block_number": 2,
                  "transfer_id": 0,
                  "call": {"signature": "setValue(uint128)", "args": [999]}}
    workload = [
        {"tick": 1, "action": "faulty_view", "target": "bridge",
         "chain": "source", "corruption": corruption},
        {"tick": 1, "action": "faulty_view", "target": "signatory:0",
         "chain": "source", "corruption": corruption},
        {"tick": 1, "action": "faulty_view", "target": "signatory:1",
         "chain": "source", "corruption": corruption},
    ]
    return ScenarioConfig(workload=workload, max_ticks=400)


@_entry("faulty destination connection, then switch to a healthy one",
        "low", "low")
def _dest_infra() -> ScenarioConfig:
    # faulty destination connection, then a switch to a healthy one
    workload = _transfers(5)
    workload.append({
        "tick": 8, "action": "faulty_view", "target": "bridge",
        "chain": "dest",
        "corruption": {"kind": "substitute_block_hash", "block_number": 8},
    })
    workload.append({
        "tick": 20, "action": "faulty_view", "target": "bridge",
        "chain": "dest", "corruption": {"kind": "none"},
    })
    return ScenarioConfig(workload=workload, max_ticks=1500)


@_entry("stolen owner key authorizes attacker senders; monitor "
        "auto-pauses", "medium", "medium")
def _adapter_source_attack() -> ScenarioConfig:
    # compromised owner key authorizes the attacker's own sender contract;
    # the config-change monitor catches it and pauses the bridge
    workload = _transfers(3)
    workload.append({"tick": 10, "action": "admin_set", "chain": "source",
                     "caller": "owner", "field": "authorizedSenders",
                     "value": {"accept_only": True,
                               "senders": ["alice", "attacker"]}})
    workload.append({"tick": 12, "action": "request_transfer",
                     "sender": "attacker", "recipient": "storage",
                     "call": {"signature": "setValue(uint128)",
                              "args": [666]}})
    return ScenarioConfig(
        accept_only_authorized=True,
        authorized_senders=["alice"],
        monitor_auto_pause=True,
        workload=workload,
        max_ticks=600,
    )


@_entry("stolen owner key swaps signatories and relayer", "medium", "high")
def _adapter_dest_attack() -> ScenarioConfig:
    # compromised owner key swaps signatory set and relayer, then posts a
    # forged mint directly, cutting out bridge and signatories entirely
    workload = [
        {"tick": 5, "action": "admin_set", "chain": "dest",
         "caller": "owner", "field": "signatories",
         "value": {"keys": [{"attacker": 0}, {"attacker": 1}], "quorum": 2}},
        {"tick": 6, "action": "admin_set", "chain": "dest",
         "caller": "owner", "field": "relayer",
         "value": {"account": "attacker"}},
        {"tick": 8, "action": "direct_process_transfer", "transfer_id": 0,
         "recipient": "token", "caller": "attacker",
         "attacker_signers": [0, 1],
         "call": {"signature": "mint(address,uint128)",
                  "args": [{"account": "attacker"}, 1000000]}},
    ]
    return ScenarioConfig(workload=workload, max_ticks=300)


@_entry("compromised bridge requests signatures on an invented "
        "transfer", "medium", "low")
def _bridge_forge() -> ScenarioConfig:
    workload = _transfers(3)
    workload.append({"tick": 12, "action": "bridge_forge", "transfer_id": 3,
                     "recipient": "token",
                     "call": {"signature": "mint(address,uint128)",
                              "args": [{"account": "attacker"}, 1000000]}})
    return ScenarioConfig(workload=workload, max_ticks=1500)


@_entry("bridge submits transfers whose signatures cannot verify",
        "medium", "medium")
def _bridge_submit_invalid() -> ScenarioConfig:
    # bridge forwards signatures that pass only cursory checks; the adapter
    # rejects them on-chain
    return ScenarioConfig(
        signatory_modes=["wrongSignature"] * 3,
        workload=_transfers(3),
        max_ticks=1500,
    )


@_entry("compromised bridge censors one transfer", "medium", "medium")
def _bridge_censor() -> ScenarioConfig:
    return ScenarioConfig(censor_transfer_id=3,
                          workload=_transfers(8), max_ticks=1500)


@_entry("bridge replays an already-processed transfer", "medium", "low")
def _bridge_replay() -> ScenarioConfig:
    workload = _transfers(3)
    workload.append({"tick": 60, "action": "bridge_replay", "transfer_id": 0})
    return ScenarioConfig(workload=workload, max_ticks=1500)


@_entry("bridge floods signatories with junk requests", "medium", "low")
def _bridge_flood() -> ScenarioConfig:
    workload = [{"tick": 3, "action": "bridge_flood", "count": 200}]
    return ScenarioConfig(rate_budget=50, rate_window_ticks=1000,
                          workload=workload, max_ticks=300)


@_entry("2/3+ signatories stop answering", "low", "medium")
def _signatories_refuse() -> ScenarioConfig:
    return ScenarioConfig(signatory_modes=["refuse"] * 3,
                          workload=_transfers(3), max_ticks=1500)


@_entry("2/3+ signatories return garbage signatures", "low", "medium")
def _signatories_wrong_signature() -> ScenarioConfig:
    return _bridge_submit_invalid()


@_entry("one operator key reused across adapter owner and relayer",
        "medium", "high")
def _operator_key_reuse() -> ScenarioConfig:
    # one operator key controls adapter owner and relayer on the destination:
    # compromising it is a multi-party compromise in one stroke
    workload = [
        {"tick": 5, "action": "admin_set", "chain": "dest",
         "caller": "owner", "field": "signatories",
         "value": {"keys": [{"attacker": 0}, {"attacker": 1}], "quorum": 2}},
        {"tick": 8, "action": "direct_process_transfer", "transfer_id": 0,
         "recipient": "token", "caller": "relayer",
         "attacker_signers": [0, 1],
         "call": {"signature": "mint(address,uint128)",
                  "args": [{"account": "attacker"}, 1000000]}},
    ]
    return ScenarioConfig(workload=workload, max_ticks=300)


@_entry("colluding bridge and signatory quorum mint from thin air",
        "low", "high")
def _bridge_and_signatories() -> ScenarioConfig:
    workload = [{"tick": 10, "action": "bridge_forge", "transfer_id": 0,
                 "recipient": "token",
                 "call": {"signature": "mint(address,uint128)",
                          "args": [{"account": "attacker"}, 1000000]}}]
    return ScenarioConfig(signatory_modes=["colluding"] * 3,
                          workload=workload, max_ticks=400)


@_entry("post-delivery reorg past the finality window drops the "
        "request", "low", "high")
def _deep_reorg() -> ScenarioConfig:
    # the request is delivered, then a reorg deeper than the finality window
    # erases it from source history: forward causation is violated
    workload = _transfers(1, start_tick=2)
    workload.append({"tick": 30, "action": "inject_reorg", "chain": "source",
                     "depth": 29, "drop": ["t0"]})
    return ScenarioConfig(workload=workload, max_ticks=600)


@_entry("pre-signing reorg within the finality window", "low", "low")
def _shallow_reorg() -> ScenarioConfig:
    # reorg within the finality window, before signing: signatories refuse,
    # nothing is delivered, nothing is corrupted
    workload = _transfers(1, start_tick=2)
    workload.append({"tick": 4, "action": "inject_reorg", "chain": "source",
                     "depth": 2, "drop": ["t0"]})
    return ScenarioConfig(workload=workload, max_ticks=600)


def run_suite() -> list[tuple[SuiteEntry, ScenarioReport]]:
    results = []
    for entry in SUITE:
        results.append((entry, run_scenario(entry.build())))
    return results
