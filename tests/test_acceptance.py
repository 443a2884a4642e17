"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS line when
its assertions hold; run with ``pytest -v -s tests/test_acceptance.py`` to
see them.
"""

import copy
import itertools
import json
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from bridgesim import (
    AdapterContract,
    Chain,
    ChainConfig,
    MintableToken,
    ScenarioConfig,
    StorageContract,
    TransferMessage,
    World,
    blake2b256,
    compute_transfer_hash,
    encode_function_call,
    keygen,
    run_scenario,
    sign,
)
from bridgesim.adapter import (
    encode_process_transfer,
    encode_request_transfer,
    event_attr,
)
from bridgesim.scenario import contract_address
from state_dump import dump_state


def ok(n: int, text: str) -> None:
    print(f"\ncriterion {n}: PASS - {text}")


def transfers(count, start_tick=1, per_tick=5):
    return [
        {"tick": start_tick + i // per_tick, "action": "request_transfer",
         "sender": "alice", "recipient": "storage",
         "call": {"signature": "setValue(uint128)", "args": [i + 1]},
         "label": f"t{i}"}
        for i in range(count)
    ]


def dest_events(world, name):
    return world.dest.get_events(world.adapters["dest"].address, name,
                                 0, world.dest.head_number())


def test_criterion_1_happy_path_exactly_once_in_order():
    config = ScenarioConfig(workload=transfers(1000), max_ticks=4000)
    start = time.perf_counter()
    world = World(config)
    report = world.run()
    elapsed = time.perf_counter() - start
    assert report.requested == list(range(1000))
    delivered_ids = [d[0] for d in report.delivered]
    assert delivered_ids == list(range(1000))  # gap-free and in order
    assert len(dest_events(world, "Processed")) == 1000
    assert report.violations == []
    assert report.classification == "low"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    ok(1, f"1000 transfers delivered exactly once, in order, "
          f"0 violations, {elapsed:.1f}s")


def test_criterion_2_quorum_boundary_exhaustive():
    owner = blake2b256(b"acct:owner")
    relayer = keygen(b"\x41" * 32)
    signers = [keygen(bytes([0x50 + i]) * 32) for i in range(5)]
    store = blake2b256(b"contract:store")
    trials = 0
    for n in range(1, 6):
        keys = [s.public_key for s in signers[:n]]
        for quorum in range(1, n + 1):
            for subset_size in range(0, n + 1):
                for subset in itertools.combinations(range(n), subset_size):
                    chain = Chain(ChainConfig(network_id="beta",
                                              hash_alg="blake2b256"))
                    adapter = AdapterContract(
                        address=blake2b256(b"contract:adapter"),
                        owner=owner, relayer=relayer.public_key,
                        signatories=keys, quorum_size=quorum,
                        transaction_fee=0)
                    chain.register_contract(adapter)
                    chain.register_contract(StorageContract(store))
                    m = TransferMessage(
                        source_transaction_hash=blake2b256(b"src"),
                        source_adapter_address=blake2b256(b"src-adapter"),
                        recipient_contract=store,
                        encoded_function_call=encode_function_call(
                            "setValue(uint128)", [1]),
                        gas=21000, source_transfer_id=0,
                        source_network_id="alpha")
                    digest = compute_transfer_hash(m, "blake2b256")
                    entries = [(signers[i].public_key,
                                sign(signers[i], digest))
                               for i in subset]
                    tx = chain.make_transaction(
                        sender=relayer.public_key,
                        recipient=adapter.address,
                        payload=encode_process_transfer(m, entries))
                    chain.submit_transaction(tx)
                    chain.mine_block(tick=1)
                    receipt = chain.get_receipt(tx.tx_hash)
                    accepted = receipt.status == "ok"
                    assert accepted == (len(subset) >= quorum), \
                        (n, quorum, subset)
                    if not accepted:
                        assert receipt.reason == "InsufficientSignatures"
                    trials += 1
    ok(2, f"accepts iff distinct valid signers >= quorum "
          f"({trials} exhaustive subset trials, n in 1..5)")


def test_criterion_3_replay_rejection_bit_level():
    count = 10
    config = ScenarioConfig(workload=transfers(count), max_ticks=1500)
    world = World(config)
    report = world.run()
    assert [d[0] for d in report.delivered] == list(range(count))
    original_block = {d[0]: d[2] for d in report.delivered}

    def dest_core_state():
        doc = json.loads(dump_state(world.dest))
        return doc["contracts"], doc["balances"]

    before = dest_core_state()
    for tid in range(count):
        world.bridge.byzantine_replay(tid, world.tick)
        for _ in range(3):
            world.step()
    already = dest_events(world, "AlreadyProcessed")
    assert len(already) == count  # exactly one per replayed transfer
    by_hash = {d[1]: d[0] for d in report.delivered}
    for ev in already:
        tid = by_hash[event_attr(ev, "sourceTxHash").hex()]
        assert int.from_bytes(event_attr(ev, "originalBlockNumber"),
                              "big") == original_block[tid]
    assert len(dest_events(world, "Processed")) == count  # no new ones
    assert dest_core_state() == before  # bit-level destination state equality
    ok(3, f"{count} replays -> one AlreadyProcessed each with the original "
          "block number, destination state unchanged")


def test_criterion_4_censorship_stall():
    k = 10
    config = ScenarioConfig(censor_transfer_id=k,
                            workload=transfers(50), max_ticks=3000)
    world = World(config)
    report = world.run()
    delivered = [d[0] for d in report.delivered]
    assert delivered == list(range(k))  # everything below k, nothing else
    assert world.bridge.jobs[k].stall_reason == "censored"
    out_of_order = [
        r for b in world.dest.blocks for r in b.receipts
        if r.status == "reverted" and r.reason == "OutOfOrder"]
    assert out_of_order  # attempts to skip the censored id were rejected
    assert report.violations == []
    assert report.classification == "medium"
    ok(4, f"censor({k}) over 50 transfers: {len(delivered)} delivered, "
          f"{len(out_of_order)} OutOfOrder reverts, impact medium")


def test_criterion_5_byzantine_signatories():
    # (a) all refuse: silence, retries exhausted, nothing delivered
    config = ScenarioConfig(signatory_modes=["refuse"] * 3,
                            workload=transfers(3), max_ticks=1500)
    world = World(config)
    report = world.run()
    assert report.delivered == []
    assert report.violations == []
    for job in world.bridge.jobs.values():
        assert (job.state, job.stall_reason) == ("stalled", "signatureTimeout")
        assert job.attempts == config.max_retries + 1
    # (b) all wrongSignature: every destination submission reverts
    config = ScenarioConfig(signatory_modes=["wrongSignature"] * 3,
                            workload=transfers(1), max_ticks=1500)
    world = World(config)
    report = world.run()
    assert report.delivered == []
    assert report.violations == []
    submissions = [r for b in world.dest.blocks for r in b.receipts]
    assert submissions
    assert all(r.status == "reverted" and r.reason == "InvalidSignature"
               for r in submissions)
    # with several transfers nothing changes: zero deliveries, no violations
    report = run_scenario(ScenarioConfig(
        signatory_modes=["wrongSignature"] * 3,
        workload=transfers(3), max_ticks=1500))
    assert report.delivered == [] and report.violations == []
    ok(5, "all-refuse stalls after retries; all-wrongSignature reverts "
          "every submission with InvalidSignature; zero deliveries either way")


def test_criterion_6_multi_party_mint():
    amount = 10**6
    workload = [{"tick": 10, "action": "bridge_forge", "transfer_id": 0,
                 "recipient": "token",
                 "call": {"signature": "mint(address,uint128)",
                          "args": [{"account": "attacker"}, amount]}}]
    config = ScenarioConfig(signatory_modes=["colluding"] * 3,
                            workload=workload, max_ticks=400)
    world = World(config)
    report = world.run()
    reasons = [v[1] for v in report.violations]
    assert "noSourceRequest" in reasons
    dest_token = world.dest.contracts[contract_address("beta", "token")]
    source_token = world.source.contracts[contract_address("alpha", "token")]
    assert dest_token.state["total_supply"] == amount
    assert source_token.state["total_supply"] == 0  # nothing was ever burned
    assert report.classification == "high"
    ok(6, f"colluding bridge+quorum minted {amount} from nothing: "
          "noSourceRequest violation, supply mismatch, impact high")


def test_criterion_7_reorg_sweep():
    outcomes = {}
    for depth in range(1, 10):
        # source mines every 4 ticks; the request seals in block 1 at tick 4.
        # The reorg fires when the head equals the depth, so the rewind always
        # reaches block 1 and drops the request. For depth <= 7 that moment
        # is before delivery; for depth >= 8 the transfer has already been
        # processed on the destination.
        head_at_reorg = depth
        workload = transfers(1) + [
            {"tick": 4 * head_at_reorg + 1, "action": "inject_reorg",
             "chain": "source", "depth": depth, "drop": ["t0"]}]
        config = ScenarioConfig(
            source={"network_id": "alpha", "hash_alg": "keccak256",
                    "finality_depth": 6, "block_time_ticks": 4},
            workload=workload, max_ticks=600)
        report = run_scenario(config)
        delivered_before = bool(report.delivered)
        reasons = [v[1] for v in report.violations]
        if depth <= 7:
            assert report.delivered == [], depth
            assert reasons == [], depth
        else:
            assert delivered_before, depth
            assert reasons == ["sourceRequestOrphaned"], depth
        outcomes[depth] = reasons
    ok(7, "depths 1..7 dropped pre-delivery with zero violations; "
          "depths 8..9 orphaned a delivered request -> exactly one "
          "sourceRequestOrphaned each")


@settings(max_examples=200, deadline=None)
@given(fee=st.integers(0, 1000), value=st.integers(0, 2000))
def test_criterion_8_fee_semantics(fee, value):
    owner = blake2b256(b"acct:owner")
    alice = blake2b256(b"acct:alice")
    relayer = keygen(b"\x61" * 32)
    store = blake2b256(b"contract:store")
    chain = Chain(ChainConfig(network_id="alpha"))
    adapter = AdapterContract(
        address=blake2b256(b"contract:adapter"), owner=owner,
        relayer=relayer.public_key, signatories=[relayer.public_key],
        quorum_size=1, transaction_fee=fee)
    chain.register_contract(adapter)
    chain.register_contract(StorageContract(store))
    chain.balances[alice] = 10_000
    tx = chain.make_transaction(
        sender=alice, recipient=adapter.address,
        payload=encode_request_transfer(
            store, encode_function_call("noop()", []), 21000),
        value=value)
    chain.submit_transaction(tx)
    chain.mine_block(tick=1)
    receipt = chain.get_receipt(tx.tx_hash)
    events = chain.get_events(adapter.address, "BridgeTransferRequested",
                              0, chain.head_number())
    if value < fee:
        assert (receipt.status, receipt.reason) == ("reverted", "FeeTooLow")
        assert events == []
        assert chain.balances[alice] == 10_000
        assert adapter.state["collected_fees"] == 0
    else:
        assert receipt.status == "ok"
        assert len(events) == 1
        assert adapter.state["collected_fees"] == fee  # exactly the fee
        assert chain.balances[alice] == 10_000 - fee  # excess refunded


def test_criterion_8_report_line():
    ok(8, "200 random (fee, value) pairs: value<fee reverts eventless, "
          "value>=fee collects exactly fee and refunds the excess")


def test_criterion_9_determinism():
    scenarios = [
        ScenarioConfig(workload=transfers(10)),
        ScenarioConfig(censor_transfer_id=2, workload=transfers(6)),
        ScenarioConfig(workload=transfers(1, start_tick=2) + [
            {"tick": 30, "action": "inject_reorg", "chain": "source",
             "depth": 29, "drop": ["t0"]}], max_ticks=600),
    ]
    for config in scenarios:
        doc = config.to_json()

        def one_run():
            world = World(ScenarioConfig.from_json(doc))
            report = world.run()
            return report.to_text(), "\n".join(world.bridge.journal)

        assert one_run() == one_run()  # byte-identical report and journal
    ok(9, f"{len(scenarios)} scenarios re-run with equal seeds produced "
          "byte-identical reports and journals")


class _SimulatedCrash(Exception):
    pass


def _finished(world, count: int) -> bool:
    return (world.quiescent()
            and all(j.state in ("done", "stalled")
                    for j in [*world.bridge.jobs.values(),
                              *world.bridge.forged_jobs])
            and not world.bus and len(world.bridge.jobs) == count
            and not world.source.pending)


def _run_with_crash_at(world, crash_at: int, count: int):
    """Run ``world`` on, killing the bridge right after the journal reaches
    ``crash_at`` lines and restoring it from its persisted store."""
    bridge = world.bridge
    original = bridge._persist

    def wrapper(job=None):
        original(job)
        if len(bridge.journal) >= crash_at:
            raise _SimulatedCrash

    bridge._persist = wrapper
    crashed = False
    while world.tick < world.config.max_ticks:
        try:
            world.step()
        except _SimulatedCrash:
            crashed = True
            world.restart_bridge()  # rebuild from the persisted job store
        if _finished(world, count):
            break
    return world, crashed


def test_criterion_10_crash_recovery_every_transition():
    count = 20
    # one clean run; a copy of it from the start of each tick crashes at each
    # journal line that tick writes, so every transition point is tried
    config = ScenarioConfig(workload=transfers(count), max_ticks=1500)
    clean = World(config)
    crash_points = 0
    while clean.tick < config.max_ticks and not _finished(clean, count):
        start = copy.deepcopy(clean)
        reached = len(clean.bridge.journal)
        clean.step()
        for crash_at in range(reached + 1, len(clean.bridge.journal) + 1):
            world, crashed = _run_with_crash_at(copy.deepcopy(start),
                                                crash_at, count)
            assert crashed, crash_at
            processed = dest_events(world, "Processed")
            ids = sorted(int.from_bytes(event_attr(e, "transferId"), "big")
                         for e in processed)
            assert ids == list(range(count)), crash_at  # exactly once each
            crash_points += 1
    clean_report = clean.build_report()
    assert [d[0] for d in clean_report.delivered] == list(range(count))
    assert crash_points == len(clean.bridge.journal) > 0
    ok(10, f"bridge killed and restored at each of {crash_points} journal "
           "transition points; every run delivered 20 transfers exactly once "
           "with no duplicate Processed")
