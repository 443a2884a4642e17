"""Relay node: finality gating, ordering, retries, recovery, byzantine modes."""

import json
import marshal
import pickle
import re
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import bridgesim.bridge as bridge_module
from bridgesim import ScenarioConfig, World, contract_address
from bridgesim.adapter import event_attr
from bridgesim.bridge import FINAL_STATES, BridgeNode, TransferJob
from bridgesim.codec import compute_transfer_hash
from bridgesim.signatory import SignResponse, SigningRequest


def transfer_action(i, tick, **kw):
    action = {"tick": tick, "action": "request_transfer", "sender": "alice",
              "recipient": "storage",
              "call": {"signature": "setValue(uint128)", "args": [i + 1]},
              "label": f"t{i}"}
    action.update(kw)
    return action


def watch(world, on_tick):
    """``world``, its ``step`` made to call ``on_tick(world, tick)`` after
    each tick."""
    step = world.step

    def watched():
        step()
        on_tick(world, world.tick)

    world.step = watched
    return world


def run(config, on_tick=None):
    world = World(config)
    if on_tick is not None:
        watch(world, on_tick)
    report = world.run()
    return world, report


def restart_work(monkeypatch, world):
    """The records thawed (``thaw``) and the ``pickle``, ``marshal`` and
    ``json`` calls made by imaging ``world``'s bridge and restoring it."""
    bridge = world.bridge
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    with monkeypatch.context() as m:
        m.setattr(bridge_module, "_thaw", counted("thaw", bridge_module._thaw))
        for module in (pickle, marshal, json):
            for name in ("dumps", "loads", "dump", "load"):
                m.setattr(module, name, counted(
                    f"{module.__name__}.{name}", getattr(module, name)))
        BridgeNode.restore(bridge.persisted, world.bridge_config,
                           bridge.source_view, bridge.dest_view, world.dest,
                           world.post)
    return calls


def node_state(node):
    """Everything a restored bridge holds but its view of the chain heads."""
    return (node.persisted, dict(node.jobs.items()), node.forged_jobs,
            node.moving, node.queued, sorted(node._heads), node.inbox,
            node.inflight)


def tx_out(world):
    """Whether job 0 has a tx out."""
    job = world.bridge.jobs.get(0)
    return job is not None and bool(job.submitted_tx)


class TestPipeline:
    def test_waits_for_source_finality(self):
        config = ScenarioConfig(workload=[transfer_action(0, 1)])
        world, report = run(config)
        sealed = collect = None
        for line in world.bridge.journal:
            tick, tid, move, _ = [p.strip() for p in line.split("|")]
            if move == "detected -> awaitingFinality":
                sealed = int(tick)
            if move == "awaitingFinality -> collectingSignatures":
                collect = int(tick)
        assert sealed is not None and collect is not None
        # six more blocks must exist before signature collection starts
        assert collect - sealed >= config.source["finality_depth"]
        assert report.classification == "low"

    def test_relay_and_signatory_read_the_source_finality_depth(self):
        # one threshold, the source chain's: the relay collects at 3
        # confirmations, and an honest signatory refuses below 3
        world = World(ScenarioConfig(
            source={"network_id": "alpha", "finality_depth": 3},
            workload=[transfer_action(0, 1)]))
        signatory = world.signatories[0]

        def ask():
            job = world.bridge.jobs[0]
            req = SigningRequest(
                source_block_number=job.source_block.number,
                source_block_hash=job.source_block.block_hash,
                source_transaction_hash=job.transfer.source_transaction_hash,
                transfer_data_hash=compute_transfer_hash(
                    job.transfer, world.dest.config.hash_alg),
                transfer=job.transfer)
            return signatory.handle_sign_request(req, world.tick)

        while 0 not in world.bridge.jobs:
            world.step()
        sealed = world.bridge.jobs[0].source_block.number
        while world.source.head_number() < sealed + 2:
            assert world.bridge.jobs[0].state == "awaitingFinality"
            world.step()
        assert world.bridge.jobs[0].state == "awaitingFinality"
        resp = ask()
        assert (resp.kind, resp.reason) == ("refused", "InsufficientFinality")
        world.step()
        assert world.source.head_number() == sealed + 3
        assert world.bridge.jobs[0].state == "collectingSignatures"
        assert ask().kind == "signed"
        report = world.run()
        assert [d[0] for d in report.delivered] == [0]

    def test_in_order_delivery(self):
        config = ScenarioConfig(
            workload=[transfer_action(i, 1 + i % 3) for i in range(8)])
        world, report = run(config)
        ids = [d[0] for d in report.delivered]
        assert ids == sorted(ids) == list(range(8))
        blocks = [d[2] for d in report.delivered]
        assert blocks == sorted(blocks)

    def test_at_most_one_unobserved_submission(self):
        config = ScenarioConfig(
            workload=[transfer_action(i, 1) for i in range(6)])

        def check(world, tick):
            pending = [j for j in world.bridge.jobs.values()
                       if j.state == "submitting" and j.submitted_tx
                       and j.processed_block is None]
            assert len(pending) <= 1

        _, report = run(config, on_tick=check)
        assert len(report.delivered) == 6

    def test_cursory_checks_drop_malformed_responses(self):
        world = World(ScenarioConfig(signatory_modes=["refuse"] * 3,
                                     workload=[transfer_action(0, 1)]))
        while not (0 in world.bridge.jobs and
                   world.bridge.jobs[0].state == "collectingSignatures"):
            world.step()
        bridge = world.bridge
        known = bridge.config.signatory_keys[0]
        digest = bridge.jobs[0].digest
        for pub, sig in ((known, b"\x01" * 63), (b"\x02" * 32, b"\x01" * 64)):
            bridge.inbox.append((0, digest, SignResponse.signed(pub, sig)))
            bridge._collect_responses(world.tick)
            assert bridge.jobs[0].collected == {}
        # a refusal carries no signature, so the length check drops it
        bridge.inbox.append((0, digest,
                             SignResponse.refused("InsufficientFinality")))
        bridge._collect_responses(world.tick)
        assert bridge.jobs[0].collected == {}
        signed = SignResponse.signed(known, b"\x01" * 64)
        bridge.inbox.append((0, digest, signed))
        bridge._collect_responses(world.tick)
        assert bridge.jobs[0].collected == {known: b"\x01" * 64}

    def test_journal_line_format(self):
        config = ScenarioConfig(workload=[transfer_action(0, 1)])
        world, _ = run(config)
        pattern = re.compile(r"^\d+ \| \d+ \| [A-Za-z]+ -> [A-Za-z]+ \| .*$")
        assert world.bridge.journal
        for line in world.bridge.journal:
            assert pattern.match(line), line

    def test_retries_then_stalls_on_silence(self):
        config = ScenarioConfig(
            signatory_modes=["refuse"] * 3,
            sign_timeout_ticks=4, max_retries=2,
            workload=[transfer_action(0, 1)])
        world, report = run(config)
        job = world.bridge.jobs[0]
        assert job.state == "stalled"
        assert job.stall_reason == "signatureTimeout"
        assert job.attempts == 3  # initial broadcast plus two retries
        assert report.classification == "medium"

    def test_invalid_signature_resends_the_same_bundle(self):
        # an InvalidSignature revert is retried like any other: the job
        # does not collect again, and every resend is the bundle it built
        config = ScenarioConfig(
            signatory_modes=["wrongSignature"] * 3,
            workload=[transfer_action(0, 1)])
        world, _ = run(config)
        lines = [l for l in world.bridge.journal if l.split(" | ")[1] == "0"]
        first = next(i for i, l in enumerate(lines) if "-> submitting" in l)
        assert not any("collectingSignatures" in l for l in lines[first + 1:])
        relayer = world.bridge.config.relayer.public_key
        payloads = [tx.payload
                    for n in range(world.dest.head_number() + 1)
                    for tx in world.dest.get_block(n).transactions
                    if tx.sender == relayer]
        job = world.bridge.jobs[0]
        assert len(payloads) == config.max_retries + 1
        assert set(payloads) == {job.submitted_payload}
        assert job.stall_reason == "destinationRejected:InvalidSignature"
        assert job.attempts == config.max_retries + 1

    def test_censored_id_stalls_while_blocked(self):
        # id 3 reaches submitting behind ids 0-2, which are still in progress
        workload = [transfer_action(i, 1 + i // 5) for i in range(20)]

        def censored(extra):
            world, report = run(ScenarioConfig(censor_transfer_id=3,
                                               workload=workload + extra))
            moves = {}
            for line in world.bridge.journal:
                tick, tid, move, detail = [p.strip() for p in line.split("|")]
                moves.setdefault((int(tid), move), (int(tick), detail))
            entered, _ = moves[3, "collectingSignatures -> submitting"]
            assert moves[3, "submitting -> stalled"] == (entered + 1,
                                                          "censored by bridge")
            assert moves[2, "submitting -> submitting"][0] > entered + 1
            assert [d[0] for d in report.delivered] == [0, 1, 2]
            return entered, world.bridge.journal

        entered, journal = censored([])
        # a restart before the bridge's step in the next tick must not park
        # id 3 with the jobs that wait for their turn
        assert censored([{"tick": entered + 1, "action": "bridge_restart"}]) \
            == (entered, journal)

    def test_censorship(self):
        config = ScenarioConfig(
            censor_transfer_id=0,
            workload=[transfer_action(0, 1)])
        world, report = run(config)
        assert world.bridge.jobs[0].stall_reason == "censored"
        assert report.delivered == []

    def test_substituted_source_hash_in_the_relay_view_is_refused(self):
        # the relay's source view shows the request's block 2 under a fake
        # hash: each honest signatory, on the real chain, refuses a request
        # that names it, so the job times out and nothing is delivered
        config = ScenarioConfig(workload=[
            {"tick": 1, "action": "faulty_view", "target": "bridge",
             "chain": "source",
             "corruption": {"kind": "substitute_block_hash",
                            "block_number": 2}},
            transfer_action(0, 2)])
        _, report = run(config)
        assert report.classification == "medium"
        assert report.delivered == []
        assert report.stalls == [[0, "signatureTimeout"]]
        assert report.violations == []
        assert report.end_tick == 40


class TestChainMonitoring:
    def test_liveness_alarm_on_stalled_chain(self):
        config = ScenarioConfig(
            dest={"network_id": "beta", "hash_alg": "blake2b256",
                  "finality_depth": 6, "block_time_ticks": 500},
            liveness_timeout_ticks=20,
            workload=[], max_ticks=120)
        world, report = run(config)
        kinds = {(a[0], a[1]) for a in world.alarms}
        assert ("liveness", "dest") in kinds
        assert ("liveness", "source") not in kinds

    N = 10  # the dest block a corrupted relay view shows under a fake hash

    def dest_reorg_alarms(self, workload, ticks):
        """The dest reorg alarms raised in the first ``ticks`` ticks."""
        world = World(ScenarioConfig(workload=workload))
        while world.tick < ticks:
            world.step()
        return [a for a in world.alarms if a[:2] == ("reorg", "dest")]

    def relay_dest_view(self, tick, kind="substitute_block_hash"):
        """The action that hands the relay a dest view at ``tick``."""
        corruption = {"kind": kind}
        if kind != "none":
            corruption["block_number"] = self.N
        return {"tick": tick, "action": "faulty_view", "target": "bridge",
                "chain": "dest", "corruption": corruption}

    def test_substituted_block_hash_raises_no_reorg_alarm(self):
        workload = [self.relay_dest_view(self.N - 2)]
        assert self.dest_reorg_alarms(workload, self.N + 20) == []

    def test_honest_view_after_a_substituted_head_raises_one_alarm(self):
        # block N was the relay's head, under the fake hash, at tick N
        swap = self.N + 1
        workload = [self.relay_dest_view(self.N - 2),
                    self.relay_dest_view(swap, kind="none")]
        assert self.dest_reorg_alarms(workload, self.N + 20) == [
            ("reorg", "dest", swap)]

    def test_reorg_of_a_substituted_block(self):
        # a dest reorg replaces block N, which the relay's view shows under
        # the fake hash: the new block N is another object under the same
        # fake hash, so only a replaced block that the relay saw under its
        # own hash raises an alarm
        def reorg(tick, depth):
            return [self.relay_dest_view(self.N - 2),
                    {"tick": tick, "action": "inject_reorg", "chain": "dest",
                     "depth": depth}]

        # the head, N, is replaced
        assert self.dest_reorg_alarms(reorg(self.N + 1, 1), self.N + 20) == []
        # N + 2, the head, and N below it are replaced
        assert self.dest_reorg_alarms(reorg(self.N + 3, 3), self.N + 20) == [
            ("reorg", "dest", self.N + 3)]

    def test_depth_2_reorg_raises_one_alarm(self):
        workload = [{"tick": self.N, "action": "inject_reorg",
                     "chain": "dest", "depth": 2}]
        assert self.dest_reorg_alarms(workload, self.N + 20) == [
            ("reorg", "dest", self.N)]

    @pytest.mark.parametrize("restart_first", [False, True])
    def test_a_restart_in_the_reorg_tick_keeps_its_alarm(self, restart_first):
        # the monitor's last-seen head is the world's, so a relay restored
        # right after the reorg does not take the new head for the old one
        actions = [{"tick": self.N, "action": "inject_reorg", "chain": "dest",
                    "depth": 2},
                   {"tick": self.N, "action": "bridge_restart"}]
        if restart_first:
            actions.reverse()
        assert self.dest_reorg_alarms(actions, self.N + 20) == [
            ("reorg", "dest", self.N)]

    def test_reorg_that_keeps_the_request_block_alarms_and_delivers(self):
        config = ScenarioConfig(
            workload=[transfer_action(0, 2),
                      {"tick": 5, "action": "inject_reorg",
                       "chain": "source", "depth": 2}])
        world, report = run(config)
        # the reorg replaces blocks 3 and 4 and leaves the request's block 2
        # canonical: one alarm, and the transfer is delivered once
        assert [d[0] for d in report.delivered] == [0]
        assert report.classification == "low"
        assert world.alarms == [("reorg", "source", 5)]

    def test_reorg_continue_stalls_orphaned_job(self):
        config = ScenarioConfig(
            workload=[transfer_action(0, 2),
                      {"tick": 4, "action": "inject_reorg",
                       "chain": "source", "depth": 2, "drop": ["t0"]}])
        world, report = run(config)
        job = world.bridge.jobs[0]
        assert (job.state, job.stall_reason) == ("stalled", "sourceOrphaned")
        assert report.classification == "low"  # request is gone from canon


class TestCrashRecovery:
    def test_single_restart_mid_run(self):
        config = ScenarioConfig(
            workload=[transfer_action(i, 1) for i in range(4)]
            + [{"tick": 9, "action": "bridge_restart"}])
        world, report = run(config)
        assert [d[0] for d in report.delivered] == [0, 1, 2, 3]
        # exactly one Processed per transfer despite the restart
        ids = [d[0] for d in report.delivered]
        assert len(ids) == len(set(ids))

    def test_restart_during_submission_does_not_double_deliver(self):
        restarts = []

        def maybe_restart(world, tick):
            if restarts:
                return
            for job in world.bridge.jobs.values():
                if job.state == "submitting" and job.submitted_tx:
                    world.restart_bridge()
                    restarts.append(tick)
                    return

        config = ScenarioConfig(workload=[transfer_action(0, 1)])
        world, report = run(config, on_tick=maybe_restart)
        assert restarts, "never caught the bridge mid-submission"
        assert [d[0] for d in report.delivered] == [0]
        # a resubmission may have produced AlreadyProcessed, never Processed
        processed = world.dest.get_events(
            world.adapters["dest"].address, "Processed",
            0, world.dest.head_number())
        assert len(processed) == 1

    def test_restart_keeps_every_final_job_in_order(self):
        world = World(ScenarioConfig(
            workload=[transfer_action(i, 1 + 3 * i) for i in range(12)]))
        while True:
            world.step()
            states = [j.state for j in world.bridge.jobs.values()]
            if (states.count("done") >= 3
                    and any(s not in FINAL_STATES for s in states)):
                break
        old = world.bridge
        world.restart_bridge()
        new = world.bridge
        assert list(new.jobs) == list(old.jobs)
        assert len(new.jobs) == len(old.jobs)
        final = [(t, j) for t, j in old.jobs.items() if j.state in FINAL_STATES]
        assert final == [(t, j) for t, j in new.jobs.items()
                         if j.state in FINAL_STATES]
        for tid, job in final:
            assert tid in new.jobs
            assert new.jobs[tid] is new.jobs.get(tid)
            assert new.jobs[tid] == job
        assert [id(j) for j in new.jobs.values()] == \
            [id(new.jobs[t]) for t in new.jobs]
        report = world.run()
        assert [d[0] for d in report.delivered] == list(range(12))

    def test_restore_writes_its_resets_through_to_the_store(self):
        world = World(ScenarioConfig(
            workload=[transfer_action(i, 1 + i) for i in range(6)]))
        # restart with a signing request out, then with a tx out
        for state, out in (("collectingSignatures", "request_tick"),
                           ("submitting", "submitted_tx")):
            while not any(j.state == state and getattr(j, out) not in (-1, b"")
                          for j in world.bridge.jobs.values()):
                world.step()
            world.restart_bridge()
            bridge = world.bridge
            image = bridge.persisted
            # one record per job, each its job's latest version
            assert len(image.records) == len(bridge.jobs)
            stored = {t: bridge_module._thaw(record)
                      for t, record in image.records.items()}
            assert stored == dict(bridge.jobs.items())
            assert not any(j.submitted_tx for j in stored.values()
                           if j.state == "submitting")
            assert all(j.request_tick == -1 for j in stored.values()
                       if j.state == "collectingSignatures")
            world.step()

    def test_collecting_record_holds_no_request_tick(self):
        # a collecting job's record keeps no request out, so a restore of it
        # rebroadcasts
        collecting = Counter()

        def check(world, tick):
            for record in world.bridge.persisted.records.values():
                job = bridge_module._thaw(record)
                if job.state == "collectingSignatures":
                    assert job.request_tick == -1, tick
                    collecting[job.attempts] += 1

        _, report = run(ScenarioConfig(
            signatory_modes=["wrongSignature"] * 3,
            workload=[transfer_action(0, 1)]), on_tick=check)
        assert report.stalls == [[0, "destinationRejected:InvalidSignature"]]
        assert collecting[0]

    def test_replay_after_restart_sends_the_payload(self):
        world, _ = run(ScenarioConfig(
            workload=[transfer_action(i, 1) for i in range(3)]))
        world.restart_bridge()
        job = world.bridge.jobs[1]
        assert job.state == "done" and job.submitted_payload
        world.bridge.byzantine_replay(1, world.tick + 1)
        assert [tx.payload for tx in world.dest.pending] == \
            [job.submitted_payload]
        assert world.bridge.journal[-1].startswith(
            f"{world.tick + 1} | 1 | done -> done | replayed tx ")

    def test_replay_journals_the_jobs_own_state(self):
        world = World(ScenarioConfig(workload=[transfer_action(0, 1)]))
        while not (0 in world.bridge.jobs and
                   world.bridge.jobs[0].state == "awaitingDestFinality"):
            world.step()

        def replay(state):
            job = world.bridge.jobs[0]
            assert job.state == state
            world.bridge.byzantine_replay(0, world.tick)
            assert world.bridge.journal[-1].startswith(
                f"{world.tick} | 0 | {state} -> {state} | replayed tx ")
            assert world.bridge.persisted.records[0] == \
                bridge_module._freeze(job)

        replay("awaitingDestFinality")
        report = world.run()
        assert [d[0] for d in report.delivered] == [0]
        replay("done")

    def test_restore_of_a_settled_store_persists_the_same_bytes(self):
        world = World(ScenarioConfig(
            workload=[transfer_action(i, 1 + 4 * i) for i in range(8)]))
        checked = Counter()
        while not world.quiescent() or world.tick < 60:
            world.step()
            bridge = world.bridge
            jobs = [*bridge.jobs.values(), *bridge.forged_jobs]
            if any(j.state == "collectingSignatures"
                   or j.state == "submitting" and j.submitted_tx
                   for j in jobs):
                continue
            persisted = bridge.persisted
            restored = BridgeNode.restore(
                persisted, world.bridge_config, bridge.source_view,
                bridge.dest_view, world.dest, world.post)
            assert restored.persisted == persisted
            checked[all(j.state in FINAL_STATES for j in jobs)] += 1
        assert checked[False] and checked[True]  # with live jobs, and without

    def test_old_tx_lands_after_two_restarts_in_a_row(self):
        workload = [transfer_action(i, 1) for i in range(3)]
        probe = World(ScenarioConfig(workload=workload))
        while not tx_out(probe):
            probe.step()
        sent = probe.tick
        # restart at the end of the tick that sent job 0's tx, and again at
        # the start of the next one, before that tick mines the tx
        world = World(ScenarioConfig(workload=workload + [
            {"tick": sent + 1, "action": "bridge_restart"}]))
        filed = []

        def restart():
            World.restart_bridge(world)
            bridge = world.bridge
            filed.append((0 in bridge.queued,
                          type(bridge.jobs.data[0]) is tuple))

        world.restart_bridge = restart
        while world.tick < sent:
            world.step()
        assert tx_out(world)
        world.restart_bridge()
        report = world.run()
        # the first restart thaws and resets job 0; the second files it
        # from its record without a thaw, and the old tx lands after that
        assert filed == [(True, False), (True, True)]
        assert [d[0] for d in report.delivered] == [0, 1, 2]
        processed = world.dest.get_events(
            world.adapters["dest"].address, "Processed",
            0, world.dest.head_number())
        assert len(processed) == 3
        moves = [line.split(" | ")[2] for line in world.bridge.journal
                 if line.split(" | ")[1] == "0"]
        assert moves.count("submitting -> submitting") == 1  # never resent
        assert moves.count("submitting -> awaitingDestFinality") == 1

    def test_crash_image_is_as_isolated_as_bytes(self):
        world = World(ScenarioConfig(
            workload=[transfer_action(i, 1 + i) for i in range(12)]))
        # job 0 has a tx out, later jobs wait with their signatures, and
        # one has a signing request out
        while not (tx_out(world) and world.bridge.queued and any(
                j.state == "collectingSignatures"
                for j in world.bridge.jobs.values())):
            world.step()
        old = world.bridge
        image = old.persisted
        frozen = pickle.dumps(image)

        def restore():
            return BridgeNode.restore(image, world.bridge_config,
                                      old.source_view, old.dest_view,
                                      world.dest, world.post)

        at_once = node_state(restore())
        for _ in range(20):
            world.step()  # the old bridge writes on
        assert len(old.journal) > len(image.journal)
        first, second = restore(), restore()
        assert node_state(first) == node_state(second) == at_once
        for tid in first.jobs:
            job = first.jobs[tid]
            job.collected[b"\x01" * 32] = b"\x02" * 64
            job.submitted_tx = b"\x03" * 32
        assert pickle.dumps(image) == frozen
        assert node_state(second) == at_once

    def test_stale_image_resubmission_ends_already_processed(self):
        # an image taken while job 0 collects signatures is restored after
        # the old bridge saw it processed: the new node scans the Processed
        # event while job 0 still collects, so it matches no job; job 0 then
        # resubmits, and the adapter answers AlreadyProcessed
        world = World(ScenarioConfig(workload=[transfer_action(0, 1)]))
        while not (0 in world.bridge.jobs and
                   world.bridge.jobs[0].state == "collectingSignatures"):
            world.step()
        image = world.bridge.persisted
        while world.bridge.jobs[0].state != "done":
            world.step()
        old = world.bridge
        world.bridge = BridgeNode.restore(
            image, world.bridge_config, old.source_view, old.dest_view,
            world.dest, world.post)
        report = world.run()
        assert [d[0] for d in report.delivered] == [0]
        assert world.bridge.journal[-1].endswith(
            "| 0 | submitting -> done | already processed on resubmission")
        adapter = world.adapters["dest"].address
        head = world.dest.head_number()
        assert len(world.dest.get_events(adapter, "Processed", 0, head)) == 1
        assert len(world.dest.get_events(
            adapter, "AlreadyProcessed", 0, head)) == 1

    def test_journal_survives_restart(self):
        config = ScenarioConfig(
            workload=[transfer_action(0, 1),
                      {"tick": 6, "action": "bridge_restart"}])
        world, _ = run(config)
        moves = [l.split("|")[2].strip() for l in world.bridge.journal]
        assert "detected -> awaitingFinality" in moves
        assert any(m.endswith("-> done") for m in moves)


DEST_DROP = Path(__file__).parents[1] / "scenarios" / "dest_drop_relay_tx.json"


def dest_drop(*extra):
    """The dest_drop_relay_tx scenario, ``extra`` actions added: at tick 12
    a depth-1 dest reorg drops the tx that processed transfer 0 at tick 11."""
    config = ScenarioConfig.from_json(DEST_DROP.read_text())
    return replace(config, workload=[*config.workload, *extra])


def processed(world, tid):
    """The canonical Processed events of transfer ``tid``."""
    return [ev for ev in world.dest.get_events(
        world.adapters["dest"].address, "Processed", 0,
        world.dest.head_number())
        if int.from_bytes(event_attr(ev, "transferId"), "big") == tid]


class TestDestReorg:
    def test_dropped_relay_tx_is_sent_again_at_dest_finality(self):
        world, report = run(dest_drop())
        moves = [line for line in world.bridge.journal if " | 0 | " in line]
        assert [m.split(" | ")[2] for m in moves[-5:]] == [
            "submitting -> awaitingDestFinality",
            "awaitingDestFinality -> submitting",
            "submitting -> submitting",
            "submitting -> awaitingDestFinality",
            "awaitingDestFinality -> done"]
        # sent back at dest finality, not at the reorg
        assert moves[-4].startswith("16 | ")
        assert moves[-4].endswith("left the dest chain")
        (event,) = processed(world, 0)
        assert world.dest.get_receipt(event.tx_hash).status == "ok"
        assert [d[0] for d in report.delivered] == [0, 1, 2, 3, 4]
        assert report.violations == []

    def test_ids_behind_a_lost_delivery_are_delivered_once_in_order(self):
        world, report = run(dest_drop())
        assert [d[0] for d in report.delivered] == [0, 1, 2, 3, 4]
        assert report.stalls == []
        assert all(len(processed(world, tid)) == 1 for tid in range(5))
        # transfer 1 is held while transfer 0's delivery is off the dest
        # chain: it sends at tick 11, before the reorg, and again at 18,
        # after transfer 0 landed; the revert of the first costs no attempt
        sends = [line.split(" | ")[0] for line in world.bridge.journal
                 if " | 1 | submitting -> submitting | tx " in line]
        assert sends == ["11", "18"]
        assert world.bridge.jobs[1].attempts == 0

    def test_drop_at_dest_finality_holds_the_next_id_back(self):
        # the dest reorg at tick 16 drops transfer 0's Processed tx in the
        # tick it reaches dest finality, while transfer 1's tx is out: 0 goes
        # back to submitting, 1's OutOfOrder revert costs no attempt
        path = DEST_DROP.with_name("dest_drop_at_finality.json")
        config = ScenarioConfig.from_json(path.read_text())
        assert config.max_retries == 0
        for max_retries in (0, ScenarioConfig().max_retries):
            world, report = run(replace(config, max_retries=max_retries))
            assert [d[0] for d in report.delivered] == [0, 1]
            assert report.stalls == []
            assert report.classification == "low"
            assert world.bridge.jobs[1].attempts == 0
            assert len(processed(world, 1)) == 1

    def test_restart_between_reorg_and_dest_finality_delivers_once(self):
        world, report = run(dest_drop({"tick": 14, "action": "bridge_restart"}))
        assert any(line.startswith("16 | 0 | awaitingDestFinality -> "
                                   "submitting")
                   for line in world.bridge.journal)
        assert [d[0] for d in report.delivered] == [0, 1, 2, 3, 4]
        assert len(processed(world, 0)) == 1
        # every job the relay calls done has a canonical Processed
        for tid, job in world.bridge.jobs.items():
            if job.state == "done":
                (event,) = processed(world, tid)
                assert world.dest.get_receipt(event.tx_hash).status == "ok"
        unbroken = run(dest_drop())[1]
        assert (report.delivered, report.stalls) == (unbroken.delivered,
                                                     unbroken.stalls)

    def test_reorg_that_replays_the_relay_tx_changes_nothing(self):
        replayed = replace(dest_drop(), workload=[
            {**a, "drop": []} if a["action"] == "inject_reorg" else a
            for a in dest_drop().workload])
        world, report = run(replayed)
        assert not any("left the dest chain" in line
                       for line in world.bridge.journal)
        assert [d[0] for d in report.delivered] == [0, 1, 2, 3, 4]


class TestWork:
    def test_idle_relay_visits_no_job(self):
        config = ScenarioConfig(
            workload=[transfer_action(i, 1 + i // 5) for i in range(30)])
        world, report = run(config)
        assert [d[0] for d in report.delivered] == list(range(30))
        bridge = world.bridge
        calls = []
        advance = bridge._advance

        def counted(job, tick, *args):
            calls.append(job.transfer_id)
            return advance(job, tick, *args)

        bridge._advance = counted
        for k in range(1, 4):
            bridge.step(world.tick + k)
        assert calls == []  # every job is done: none is visited again

    def test_visits_grow_linearly_with_transfers(self):
        def visits(count):
            world = World(ScenarioConfig(
                workload=[transfer_action(i, 1 + i // 5)
                          for i in range(count)]))
            calls = []
            advance = world.bridge._advance

            def counted(job, tick, *args):
                calls.append(job.transfer_id)
                return advance(job, tick, *args)

            world.bridge._advance = counted
            report = world.run()
            assert [d[0] for d in report.delivered] == list(range(count))
            return len(calls)

        small, large = visits(100), visits(200)
        assert large <= 2.2 * small, (small, large)

    def test_queue_head_work_grows_linearly_with_transfers(self):
        class CountingSet(set):
            """Counts the ids that a scan or a membership test touches."""
            touched = 0

            def __iter__(self):
                for tid in set.__iter__(self):
                    self.touched += 1
                    yield tid

            def __contains__(self, tid):
                self.touched += 1
                return set.__contains__(self, tid)

        def touched(count):
            world = World(ScenarioConfig(
                workload=[transfer_action(i, 1 + i // 5)
                          for i in range(count)]))
            world.bridge.queued = queued = CountingSet()
            report = world.run()
            assert [d[0] for d in report.delivered] == list(range(count))
            assert queued.touched > 0
            return queued.touched

        # the backlog grows with n: a scan of it at every step is quadratic
        small, large = touched(100), touched(200)
        assert large <= 2.2 * small, (small, large)

    def test_restore_work_does_not_grow_with_history(self, monkeypatch):
        def work(count):
            world, report = run(ScenarioConfig(
                workload=[transfer_action(i, 1 + i // 5)
                          for i in range(count)]))
            assert [d[0] for d in report.delivered] == list(range(count))
            return restart_work(monkeypatch, world)

        # every job is final: nothing is thawed and nothing is serialised
        assert work(100) == work(1000) == Counter()

    def test_restore_work_does_not_grow_with_the_backlog(self, monkeypatch):
        forge = {"tick": 1, "action": "bridge_forge", "transfer_id": 0,
                 "recipient": "token",
                 "call": {"signature": "mint(address,uint128)",
                          "args": [{"account": "attacker"}, 10**6]}}

        def thaws(count):
            world = World(ScenarioConfig(
                workload=[transfer_action(i, 1) for i in range(count)]
                + [forge]))
            while not tx_out(world):
                world.step()
            # every later job has its signatures and waits behind job 0
            assert world.bridge.queued == set(range(1, count))
            image = world.bridge.persisted
            acting = [t for t, record in image.records.items()
                      if bridge_module._thaw(record).state not in FINAL_STATES
                      and t not in world.bridge.queued]
            assert len(acting) == len(image.forged) == 1
            calls = restart_work(monkeypatch, world)
            # job 0 and the forged job; no parked job, and no serialisation
            assert calls == Counter(thaw=len(acting) + len(image.forged))
            return calls["thaw"]

        assert thaws(10) == thaws(20) == 2

    def test_job_tables_match_a_rebuild_every_tick(self):
        workload = [transfer_action(i, 1 + i // 2) for i in range(40)]
        for tick in (12, 30):
            workload.append({"tick": tick, "action": "inject_reorg",
                             "chain": "source", "depth": 3})
        for tick in (20, 40):
            workload.append({"tick": tick, "action": "inject_reorg",
                             "chain": "dest", "depth": 3})
        for tick in (15, 35, 55):
            workload.append({"tick": tick, "action": "bridge_restart"})
        config = ScenarioConfig(
            signatory_modes=["honest", "honest", "honest", "refuse"],
            quorum_size=3, workload=workload, max_ticks=1500)
        queued_ticks = []

        def check(world, tick):
            bridge = world.bridge
            moving, queued = set(), set()
            for job in bridge.jobs.values():
                if job.state in FINAL_STATES:
                    continue
                parked = (job.state == "submitting" and not job.submitted_tx
                          and job.transfer_id != config.censor_transfer_id)
                (queued if parked else moving).add(job.transfer_id)
            assert bridge.moving == moving
            assert bridge.queued == queued
            if queued:
                queued_ticks.append(tick)

        world, _ = run(config, on_tick=check)
        assert queued_ticks
        reasons = {j.stall_reason for j in world.bridge.jobs.values()}
        # the dest rejected submissions, which were retried until they stalled
        assert "destinationRejected:OutOfOrder" in reasons

    def test_dest_event_moves_the_jobs_with_its_id_and_hash(self):
        # an AlreadyProcessed event for id 1 moves the live real job 1, then
        # the forged jobs with id 1 and its source hash, and no job with
        # another id or hash
        world, _ = run(ScenarioConfig(
            workload=[transfer_action(i, 1) for i in range(3)]))
        bridge = world.bridge
        one, two = bridge.jobs[1], bridge.jobs[2]
        for job in (one, two):
            job.state = "submitting"
            bridge._track(job)
        hash_one = one.transfer.source_transaction_hash
        hash_two = two.transfer.source_transaction_hash
        forged = [TransferJob(transfer=t, state="submitting", forged=True)
                  for t in (one.transfer,
                            replace(one.transfer,
                                    source_transaction_hash=hash_two),
                            replace(two.transfer,
                                    source_transaction_hash=hash_one),
                            one.transfer)]
        bridge.forged_jobs += forged
        bridge._send(one.submitted_payload)  # a replay of id 1
        world.dest.mine_block(world.tick + 1)
        lines = len(bridge.journal)
        bridge._scan_dest(world.tick + 1)
        assert [j.state for j in (one, two, *forged)] == [
            "done", "submitting", "done", "submitting", "submitting", "done"]
        assert [line.split(" | ")[1:3] for line in bridge.journal[lines:]] \
            == [["1", "submitting -> done"]] * 3

    def test_response_to_a_forged_digest_skips_the_real_job(self):
        # a forged job shares real id 0; a signature over the forged digest
        # reaches the forged job, never the real job's ``collected``
        world = World(ScenarioConfig(signatory_modes=["refuse"] * 3,
                                     workload=[transfer_action(0, 1)]))
        while not (0 in world.bridge.jobs and
                   world.bridge.jobs[0].state == "collectingSignatures"):
            world.step()
        bridge = world.bridge
        real = bridge.jobs[0]
        forged = TransferJob(transfer=real.transfer,
                             state="collectingSignatures", forged=True,
                             digest=b"\x03" * 32)
        bridge.forged_jobs.append(forged)
        known = bridge.config.signatory_keys[0]
        signed = SignResponse.signed(known, b"\x01" * 64)
        bridge.inbox.append((0, forged.digest, signed))
        bridge._collect_responses(world.tick)
        assert real.collected == {}
        assert forged.collected == {known: b"\x01" * 64}


class TestByzantine:
    def test_flood_is_rate_limited(self, monkeypatch):
        config = ScenarioConfig(
            rate_budget=25, rate_window_ticks=10_000,
            workload=[{"tick": 2, "action": "bridge_flood", "count": 300}],
            max_ticks=150)
        world = World(config)
        admitted = Counter()
        for s in world.signatories:
            def admit(tick, s=s, limited=s.rate_limiter.admit):
                ok = limited(tick)
                admitted[s.signatory_id] += ok
                return ok
            monkeypatch.setattr(s.rate_limiter, "admit", admit)
        report = world.run()
        assert admitted and max(admitted.values()) <= 25
        assert report.classification == "low"

    def test_forged_transfer_collects_no_signatures(self):
        config = ScenarioConfig(
            workload=[{"tick": 10, "action": "bridge_forge",
                       "transfer_id": 0, "recipient": "token",
                       "call": {"signature": "mint(address,uint128)",
                                "args": [{"account": "attacker"}, 10**6]}}])
        world, report = run(config)
        job = world.bridge.forged_jobs[0]
        assert job.state == "stalled"
        assert job.collected == {}
        token = world.dest.contracts[
            contract_address("beta", "token")]
        assert token.state["total_supply"] == 0

    def test_forged_and_real_jobs_hold_one_tx_out(self):
        # a colluding quorum signs a forged id 2 at once; the forged job
        # skips the hold-back rule, and only the in-flight guard keeps its
        # tx from going out beside real id 0's
        dest = {**ScenarioConfig().dest, "block_time_ticks": 2}
        config = ScenarioConfig(
            signatory_modes=["colluding"] * 3, dest=dest,
            workload=[{"tick": 1, "action": "bridge_forge",
                       "transfer_id": 2, "recipient": "storage",
                       "call": {"signature": "setValue(uint128)",
                                "args": [99]}}]
            + [transfer_action(i, t) for i, t in enumerate((1, 3, 5, 7))])
        out = set()

        def check(world, tick):
            bridge = world.bridge
            sent = [j.transfer_id for j in (*bridge.jobs.values(),
                                            *bridge.forged_jobs)
                    if j.state == "submitting" and j.submitted_tx]
            assert len(sent) <= 1, (tick, sent)
            out.update(sent)

        _, report = run(config, on_tick=check)
        assert out == {0, 1, 2, 3}
        assert [d[0] for d in report.delivered] == [0, 1, 2, 3]

    def test_replay_of_completed_transfer_is_rejected_on_chain(self):
        config = ScenarioConfig(
            workload=[transfer_action(0, 1),
                      {"tick": 40, "action": "bridge_replay",
                       "transfer_id": 0}],
            max_ticks=400)
        world, report = run(config)
        adapter = world.adapters["dest"].address
        processed = world.dest.get_events(adapter, "Processed", 0,
                                          world.dest.head_number())
        already = world.dest.get_events(adapter, "AlreadyProcessed", 0,
                                        world.dest.head_number())
        assert len(processed) == 1
        assert len(already) == 1
        assert report.violations == []


SHIPPED = sorted(
    [*(Path(__file__).parents[1] / "scenarios").glob("*.json"),
     *(Path(bridge_module.__file__).parent / "threats").glob("*.json")])

# the table's moves that no shipped file makes, each with why; once a file
# makes one, the ratchet test fails until its entry is dropped
UNMADE_MOVES = {
    ("submitting", "done"):
        "AlreadyProcessed meets only a resubmission after a restore from a "
        "stale image; test_stale_image_resubmission_ends_already_processed",
    ("awaitingDestFinality", "awaitingDestFinality"):
        "every shipped bridge_replay comes after dest finality; "
        "test_replay_journals_the_jobs_own_state replays earlier",
    ("stalled", "stalled"):
        "no shipped input replays a stalled job",
}


def collecting(world):
    """Step ``world`` until its job 0 collects signatures; that job."""
    while not (0 in world.bridge.jobs and
               world.bridge.jobs[0].state == "collectingSignatures"):
        world.step()
    return world.bridge.jobs[0]


class TestTransitionTable:
    def test_shipped_files_make_only_table_moves(self):
        made = set()
        for path in SHIPPED:
            world, _ = run(ScenarioConfig.from_json(path.read_text()))
            made.update(tuple(line.split(" | ")[2].split(" -> "))
                        for line in world.bridge.journal)
        assert made <= bridge_module.MOVES, made - bridge_module.MOVES
        assert made.isdisjoint(UNMADE_MOVES), made & UNMADE_MOVES.keys()
        assert made | UNMADE_MOVES.keys() == bridge_module.MOVES

    def test_illegal_move_raises_and_writes_nothing(self):
        world = World(ScenarioConfig(workload=[transfer_action(0, 1)]))
        job = collecting(world)
        image = world.bridge.persisted
        with pytest.raises(RuntimeError, match=(
                "transfer 0: collectingSignatures -> done is not a move")):
            world.bridge._transition(world.tick, job, "done", "skipped")
        assert job.state == "collectingSignatures"
        assert world.bridge.persisted == image

    @pytest.mark.parametrize("state", ["detected", "limbo"])
    def test_restore_refuses_a_record_in_no_resting_state(self, state):
        world = World(ScenarioConfig(workload=[transfer_action(0, 1)]))
        collecting(world)
        image = world.bridge.persisted
        record = list(image.records[0])
        record[bridge_module._STATE] = state
        image = image._replace(records={0: tuple(record)})
        with pytest.raises(ValueError, match=f"transfer 0: .*'{state}'"):
            BridgeNode.restore(image, world.bridge_config,
                               world.bridge.source_view,
                               world.bridge.dest_view, world.dest, world.post)
