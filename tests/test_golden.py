"""Golden digests: refactors of the relay and the world loop must not change
the report or the journal by one byte."""

import hashlib
from pathlib import Path

import pytest

from bridgesim import ScenarioConfig, World
from bridgesim.suite import SUITE


def transfers(count, per_tick):
    return [
        {"tick": 1 + i // per_tick, "action": "request_transfer",
         "sender": ("alice", "bob", "carol")[i % 3], "recipient": "storage",
         "call": {"signature": "setValue(uint128)", "args": [i + 1]}}
        for i in range(count)
    ]


def fault_mix():
    workload = transfers(40, 2)
    for tick in (12, 30):
        workload.append({"tick": tick, "action": "inject_reorg",
                         "chain": "source", "depth": 3})
    for tick in (20, 40):
        workload.append({"tick": tick, "action": "inject_reorg",
                         "chain": "dest", "depth": 3})
    for tick in (15, 35, 55):
        workload.append({"tick": tick, "action": "bridge_restart"})
    return ScenarioConfig(
        signatory_modes=["honest", "honest", "honest", "refuse"],
        quorum_size=3, workload=workload, max_ticks=1500)


def digest(config):
    world = World(config)
    report = world.run()
    text = report.to_text() + "\n" + "\n".join(world.bridge.journal)
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = {
    "happy_100":
        "30f66d37728ee4a71d27e181dc5524820391b296d0f2c12505d8fbb6ca90dfb4",
    "fault_mix":
        "941e08c57cee587eaba362192f60de3f6da8bb7fd5c9e0daa528de8f64076635",
    "relay_restarts":
        "3c79792fb4ab17743b18b8b6f21df5fa360400c92015050dee1398723ec15cae",
    "dest_drop_relay_tx":
        "e2fb58aaffbfef7c487bab3f3dfe060f3dae0216e3700f20c9fb848510a7a90b",
    "dest_drop_at_finality":
        "aa45ad5cfc9be6f0089c7e58e9b8f4ac17f5269a6ee989793d208cd7954a58d6",
    "forge_shared_id":
        "39e921091aa94109c4077f8f7c0402e3719dab17c4669319ec0dba3b75a70f2b",
    "pause_resume":
        "0e62aa2aa3cc7efca89bb8cd3bb55a6115aefab1ebf291c0876368fb059fcd14",
    "stalled_dest":
        "d12f2a63039fe2488f8f0b78833be6968caa63e5c3cbd41a02f31a21628447e1",
}

SUITE_GOLDEN = {
    "happy_path":
        "d37bd3fb5a7274d66524a343f3bc1b35587f6a64b32cc97402001a839e0b688d",
    "source_infra_node":
        "23b1b2b6ea00a56ebdc83822f27e2fcb111368b9a13a174285c41edc213c5177",
    "source_infra_quorum":
        "737e9812579e1b2d4a52e5d4124c2a2851886146e46f81eb24614af05aa4a2cd",
    "dest_infra":
        "c84a82a8a118c72afd764a9128cfd2a6cccdf515e7b0847de34a50209d5074f4",
    "adapter_source_attack":
        "95761393855a4ddce5a89ac2708636951b76cd9a88c31fa8df83e332ddfbe2c7",
    "adapter_dest_attack":
        "8ba3073e27b0bbcd0aa0be9909db25a8db8e5793f8758771a27c6d48a04c0746",
    "bridge_forge":
        "2fd402aa69ba0830ddb69659287badc358a86bfa94cc54fbc6b2beaee9e11dcb",
    "bridge_submit_invalid":
        "7c828da9ea676907b9da4612cc7127c5e48cacaee7343dcbdec706ff6fbaa32c",
    "bridge_censor":
        "fea5875432e0a0d03797c7b469ba5d507748c7ed675533e77bdfd21d10c4e3b2",
    "bridge_replay":
        "8c413d484f059ecea34fe39961527e9aef92a827e926eaefc52c6b7c5fab5d01",
    "bridge_flood":
        "d0ac96319ab191b52cf9a8641789a6beee2f838810445314a0058e9df3f35f92",
    "signatories_refuse":
        "beb1b8c608570b887929c858f20d692b2fa550ea999be3669a20d26c66986705",
    "signatories_wrong_signature":
        "7c828da9ea676907b9da4612cc7127c5e48cacaee7343dcbdec706ff6fbaa32c",
    "operator_key_reuse":
        "3d420a6536967f8f602edb7f9e058564bd2a1916539c36a96f6ddcfe1c02bee3",
    "bridge_and_signatories":
        "c645de85d3962012d9bd0ff0f4e90e5f40123c0ddce6e8f9ef739376f378b154",
    "deep_reorg":
        "2428ac3c6b72de031224ceb97800bea96f716d93c19f6d2adf360d15ea3cf1ce",
    "shallow_reorg":
        "61dec89428f757af96a5dcf72b3e48d69e06887879365311c288857bd5d4c832",
}


def test_happy_100_transfers():
    config = ScenarioConfig(workload=transfers(100, 5), max_ticks=1500)
    assert digest(config) == GOLDEN["happy_100"]


def test_fault_mix():
    assert digest(fault_mix()) == GOLDEN["fault_mix"]


def test_relay_restarts_file():
    # a bridge restart every 4 ticks among 60 transfers, dest reorgs, a
    # forged transfer and a refusing signatory; no source reorg
    path = Path(__file__).parents[1] / "scenarios" / "relay_restarts.json"
    config = ScenarioConfig.from_json(path.read_text())
    assert digest(config) == GOLDEN["relay_restarts"]


def test_dest_drop_relay_tx_file():
    # a depth-1 dest reorg drops the relay's processTransfer tx of transfer 0
    # while later ids are in flight; all five are delivered, in order
    path = Path(__file__).parents[1] / "scenarios" / "dest_drop_relay_tx.json"
    config = ScenarioConfig.from_json(path.read_text())
    assert digest(config) == GOLDEN["dest_drop_relay_tx"]


def test_dest_drop_at_finality_file():
    # a depth-5 dest reorg drops the tx that processed transfer 0 in the tick
    # transfer 0 reaches dest finality, while transfer 1's tx is out; with
    # max_retries 0, transfer 1 is held back, not stalled, and both arrive
    path = Path(__file__).parents[1] / "scenarios" / "dest_drop_at_finality.json"
    config = ScenarioConfig.from_json(path.read_text())
    assert digest(config) == GOLDEN["dest_drop_at_finality"]


def test_forge_shared_id_file():
    # a colluding quorum signs a forged transfer that shares real id 1; each
    # signature lands in the job whose digest it signs, so ids 0, 1 and 2
    # arrive and the forged id 1 stalls OutOfOrder
    path = Path(__file__).parents[1] / "scenarios" / "forge_shared_id.json"
    config = ScenarioConfig.from_json(path.read_text())
    assert digest(config) == GOLDEN["forge_shared_id"]


def test_pause_resume_file():
    # the relay is paused from tick 8 to 28, after it asked for signatures
    # at tick 7; it keeps the answers, so with max_retries 0 the transfer is
    # delivered when it resumes, not stalled by the sign timeout
    path = Path(__file__).parents[1] / "scenarios" / "pause_resume.json"
    config = ScenarioConfig.from_json(path.read_text())
    assert digest(config) == GOLDEN["pause_resume"]


def test_stalled_dest_file():
    # the dest chain seals a block every 40 ticks and the liveness timeout is
    # 20: the monitor raises a dest liveness alarm 20 ticks after each dest
    # block (and after genesis), the transfer is still delivered, and since
    # an alarm is always to come the run goes on to max_ticks
    path = Path(__file__).parents[1] / "scenarios" / "stalled_dest.json"
    config = ScenarioConfig.from_json(path.read_text())
    assert digest(config) == GOLDEN["stalled_dest"]


@pytest.mark.parametrize("entry", SUITE, ids=lambda e: e.name)
def test_suite_scenario(entry):
    assert digest(entry.build()) == SUITE_GOLDEN[entry.name]
