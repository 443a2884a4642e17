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
        "c8e9780e422e9ef8a78188d29e78ef7ad94d3d76dfc2ba8877bba2ba94910e49",
    "fault_mix":
        "7360e4045a989a74a48cf4a6056ffeed42505211c2ceaa84472057f7d25c09b8",
    "relay_restarts":
        "7965352a502ec93e4b0b13c290940b5b73ab800743cae9f969e044ac967271e5",
    "dest_drop_relay_tx":
        "368d2658cfb2c5ed8dfe7cf1675dfad3cd9e457c54b38762fecefc8dc44f7bd4",
    "dest_drop_at_finality":
        "c0c3f2007fcbec0998ff4304f9becb1a92ed2398ef5e485eae56c419b57439a7",
    "forge_shared_id":
        "f704ea3c15affdb2d0f70b6922fc2142f2992ff0e33e6bbab08734ef98475e2b",
    "pause_resume":
        "5d2e9f3492770c46d5968e709b9297968663d755165cc6ff015f35f550b77bfd",
    "stalled_dest":
        "d12f2a63039fe2488f8f0b78833be6968caa63e5c3cbd41a02f31a21628447e1",
}

SUITE_GOLDEN = {
    "happy_path":
        "539e28f16d63378782b408bb734788366a91d0002d1bd2576fa7ff87f2c61e39",
    "source_infra_node":
        "3fa60f17a7efdc9cbd7e2a558e9bc393a89956c8e648c89ad23bbde7691ab9ee",
    "source_infra_quorum":
        "111ecec3aed4cdcc2a13d96398c3174b4435be9c4cd02b2286b741b317d9116c",
    "dest_infra":
        "e07b518d56e0c5ba7e69c45b5209f7ea7716af03c56f4051c1625ba049d9fdd9",
    "adapter_source_attack":
        "f38c6d4e839f06f9e983594b332eea804a181cea24648b86a76c55e9c30dec26",
    "adapter_dest_attack":
        "5f39f06978ad14beca83869a829ce1cb51c20a3280cc7f45e1e021db7a5057d2",
    "bridge_forge":
        "de3e71e5d8455725875ebadec11c7d2084fc41d8a7f515238e1c816b4024db07",
    "bridge_submit_invalid":
        "7cd0e91e7351cd924d474340de91468a5fecdf27232960029da25f62823a7b02",
    "bridge_censor":
        "61ff7979b31fc3371742c935216ba6f48aa0ff6cf7df94c22fa880967262e454",
    "bridge_replay":
        "dc79a3177bf2df320c34d4b16dcb8ec7af9d1df3349dea64b9bb896f660e94ac",
    "bridge_flood":
        "b8047f88684a66ed1f2ca8ed3fb6477b6ded46c01e4bc16af125a144ac0c1c8e",
    "signatories_refuse":
        "62ceed721925c1c7d31d321214704ecf906f76f4b27bfb5847ebd23233184843",
    "signatories_wrong_signature":
        "7cd0e91e7351cd924d474340de91468a5fecdf27232960029da25f62823a7b02",
    "operator_key_reuse":
        "5c22c2bdadbf7c899b8c38584855ec5920e21745c9442cc2159967101a680fff",
    "bridge_and_signatories":
        "c887cd75d7488e73ae7663d15b6c5b4eb1b50a9081435a55402a1487027f514a",
    "deep_reorg":
        "3e3c93a38f0519fd756667068a89c7e011a9b66f8575dda9ee933b769c7a6a32",
    "shallow_reorg":
        "4583ed4566d5ae386fc0f07733f01ddcdb380908cbcadf4292492014cc0bd233",
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
