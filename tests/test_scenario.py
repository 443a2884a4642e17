"""Scenario engine, report classification, threat matrix, CLI."""

import hashlib
import json
import pathlib
import random
from collections import Counter
from dataclasses import replace
from importlib.resources import as_file

import pytest

from bridgesim import (
    ConfigError,
    ScenarioConfig,
    World,
    codec,
    run_scenario,
    scenario,
)
from bridgesim.adapter import encode_request_transfer
from bridgesim.bridge import TransferJob
from bridgesim.cli import main as cli_main
from bridgesim.codec import TransferMessage, blake2b256, keygen
from bridgesim import keccak
from bridgesim.keccak import Sponge
from bridgesim.scenario import (
    ACTIONS,
    CORRUPTION,
    Pick,
    account_address,
    contract_address,
)
from bridgesim.suite import SUITE, THREATS

from test_bridge import watch
from test_golden import SUITE_GOLDEN


def simple_workload(count=3):
    return [
        {"tick": 1 + i, "action": "request_transfer", "sender": "alice",
         "recipient": "storage",
         "call": {"signature": "setValue(uint128)", "args": [i + 1]},
         "label": f"t{i}"}
        for i in range(count)
    ]


class TestConfig:
    def test_defaults(self):
        config = ScenarioConfig()
        assert config.quorum_size == 2  # ceil(2*3/3)
        assert config.source["network_id"] == "alpha"

    def test_json_round_trip(self):
        config = ScenarioConfig(workload=simple_workload())
        again = ScenarioConfig.from_json(config.to_json())
        assert again == config

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_dict({"no_such_field": 1})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(signatory_modes=[])
        with pytest.raises(ConfigError):
            ScenarioConfig(quorum_size=4)  # only 3 signatories
        with pytest.raises(ConfigError):
            ScenarioConfig(workload=[{"tick": 5000, "action": "pause"}])
        with pytest.raises(ConfigError):
            ScenarioConfig(workload=[{"tick": 1}])
        for entry in (["beta", "transactionFee"], ["dest"], "dest",
                      ["dest", 3]):
            with pytest.raises(ConfigError):
                ScenarioConfig(expected_config_changes=[entry])

    def test_unknown_workload_action_fails_at_load(self):
        with pytest.raises(ConfigError, match="summon_dragon"):
            ScenarioConfig(workload=[{"tick": 1, "action": "summon_dragon"}],
                           max_ticks=5)

    def test_omitted_keys_take_the_schema_defaults(self):
        world = World(ScenarioConfig(workload=simple_workload(1)))
        seen = []
        world._do_request_transfer = seen.append
        world.apply_action({"tick": 1, "action": "request_transfer",
                            "call": {"signature": "setValue(uint128)",
                                     "args": [1]}})
        assert seen == [{"tick": 1, "action": "request_transfer",
                         "chain": "source", "sender": "alice",
                         "recipient": "storage", "gas": 21000, "value": None,
                         "label": None,
                         "call": {"signature": "setValue(uint128)",
                                  "args": [1]}}]

    def test_handler_type_error_is_not_a_scenario_error(self, tmp_path,
                                                       monkeypatch):
        # a bug in a handler must surface as itself, not as a bad file
        def broken(self, a):
            raise TypeError("a bug in a handler")

        monkeypatch.setattr(World, "_do_pause", broken)
        path = tmp_path / "pause.json"
        path.write_text(json.dumps(
            {"workload": [{"tick": 1, "action": "pause"}], "max_ticks": 5}))
        with pytest.raises(TypeError, match="a bug in a handler"):
            cli_main(["run", str(path)])


class TestDeterminism:
    def test_reports_and_journals_byte_identical(self):
        config_doc = ScenarioConfig(workload=simple_workload(5)).to_json()

        def one_run():
            world = World(ScenarioConfig.from_json(config_doc))
            report = world.run()
            return report.to_text(), "\n".join(world.bridge.journal)

        first, second = one_run(), one_run()
        assert first[0] == second[0]
        assert first[1] == second[1]

    def test_seed_changes_keys_not_outcome(self):
        base = run_scenario(ScenarioConfig(workload=simple_workload()))
        other = run_scenario(ScenarioConfig(seed=99,
                                            workload=simple_workload()))
        assert base.classification == other.classification == "low"
        assert [d[0] for d in base.delivered] == [d[0] for d in other.delivered]


class TestOperatorPause:
    def test_jobs_wait_while_paused_and_all_deliver_after_resume(self):
        workload = simple_workload(5) + [{"tick": 3, "action": "pause"},
                                         {"tick": 60, "action": "resume"}]
        config_doc = ScenarioConfig(workload=workload,
                                    max_ticks=400).to_json()

        def one_run():
            world = World(ScenarioConfig.from_json(config_doc))
            paused_states = []

            def on_tick(w, tick):
                if 3 <= tick < 60:
                    assert w.bridge.paused
                    paused_states.append(
                        sorted((tid, j.state)
                               for tid, j in w.bridge.jobs.items()))

            report = watch(world, on_tick).run()
            return world, report, paused_states

        world, report, paused_states = one_run()
        # nothing moves while the relay is paused: no job changes state,
        # no journal line is written and nothing reaches the destination
        assert paused_states and all(s == paused_states[0]
                                     for s in paused_states)
        assert not any(3 <= int(line.split(" | ")[0]) < 60
                       for line in world.bridge.journal)
        assert min(b.tick for b in world.dest.blocks if b.transactions) >= 60
        # after resume every id is delivered, once and in order
        assert [d[0] for d in report.delivered] == [0, 1, 2, 3, 4]
        assert report.classification == "low" and report.stalls == []
        again, report_again, _ = one_run()
        assert report_again.to_text() == report.to_text()
        assert again.bridge.journal == world.bridge.journal

    def test_a_paused_relay_keeps_the_answers_it_receives(self):
        # the relay asks for signatures at tick 7 and is paused at tick 8,
        # before the answers reach it at tick 9; it files them in the job
        # without moving it, so at resume the job submits with no sign
        # timeout and no retry
        workload = simple_workload(1) + [{"tick": 8, "action": "pause"},
                                         {"tick": 28, "action": "resume"}]
        world = World(ScenarioConfig(workload=workload, max_retries=0))
        paused = []

        def on_tick(w, tick):
            if 9 <= tick < 28:
                job = w.bridge.jobs[0]
                paused.append((job.state, len(job.collected), w.bridge.inbox))

        report = watch(world, on_tick).run()
        assert paused and all(
            p == ("collectingSignatures", 3, []) for p in paused)
        assert [d[0] for d in report.delivered] == [0]
        assert report.stalls == [] and report.classification == "low"
        assert world.bridge.jobs[0].attempts == 0


class TestWork:
    def test_source_transactions_hashed_once(self, monkeypatch):
        digests = Counter()
        keccak_one = codec.HASH_ALGS["keccak256"]

        def counted(data):
            digest = keccak_one(data)
            digests[digest] += 1
            return digest

        keccak_many = codec.keccak256_many

        def counted_many(datas, memo=None, carry=None):
            out = keccak_many(datas, memo, carry)
            digests.update(out)
            return out

        headers = Counter()  # block hashes, counted where a header finishes
        finish = Sponge._finish

        def counted_finish(sponge, digest):
            headers[digest] += 1
            finish(sponge, digest)

        monkeypatch.setitem(codec.HASH_ALGS, "keccak256", counted)
        monkeypatch.setattr(codec, "keccak256_many", counted_many)
        monkeypatch.setattr(Sponge, "_finish", counted_finish)
        codec.selector.cache_clear()
        workload = [
            {"tick": 1 + i // 5, "action": "request_transfer",
             "call": {"signature": "setValue(uint128)", "args": [i]}}
            for i in range(50)
        ]
        world = World(ScenarioConfig(workload=workload, max_ticks=600))
        report = world.run()
        assert len(report.delivered) == 50
        txs = [tx for b in world.source.blocks for tx in b.transactions]
        assert len(txs) == 50
        assert all(digests[tx.tx_hash] == 1 for tx in txs)
        # keccak source, blake2b dest: per transfer one tx hash and one
        # event digest, each computed once
        assert sum(digests.values()) == 2 * 50 and set(digests.values()) == {1}
        # a header is hashed when read, and at most once: genesis and the
        # 10 request blocks are; the empty blocks after them no one reads
        blocks = world.source.all_blocks
        assert sum(headers.values()) == 11 == len(headers)
        assert set(headers) <= {b.block_hash for b in blocks}

    def test_keccak_f_calls_of_a_happy_world(self, monkeypatch):
        # 50 transfers from 4 senders, 5 a tick, at seed 7 (happy_stream's
        # traffic, scaled down). Each loaded source block's header rides in
        # the next tick's tx run and sealing run. The empty blocks after the
        # last request are never read, so never hashed: hashing each header
        # when the next block sealed took 152 calls, 121 of them at W = 1.
        # The 5 left at W = 1 are the two selectors and the rest of three
        # request blocks' headers, finished at the next seal
        widths = Counter()
        permute = keccak._permute

        def counted(s, mask=keccak._M, rcs=keccak._ROUND_CONSTANTS):
            widths["W = 1" if mask == keccak._M else "packed"] += 1
            return permute(s, mask, rcs)

        monkeypatch.setattr(keccak, "_permute", counted)
        codec.selector.cache_clear()
        rng = random.Random(7)
        workload = [
            {"tick": 1 + i // 5, "action": "request_transfer",
             "sender": rng.choice(("alice", "bob", "carol", "dave")),
             "call": {"signature": "setValue(uint128)",
                      "args": [rng.getrandbits(96) + 1]}}
            for i in range(50)
        ]
        world = World(ScenarioConfig(seed=7, workload=workload,
                                     max_ticks=600))
        assert len(world.run().delivered) == 50
        assert widths == {"W = 1": 5, "packed": 31}

    def test_happy_run_verifies_every_signature_from_the_memo(
            self, full_verifies):
        world = World(ScenarioConfig(workload=simple_workload(100),
                                     max_ticks=600))
        report = world.run()
        assert len(report.delivered) == 100
        assert full_verifies.count == 0

    def test_wrong_signatures_still_get_the_full_check(self, full_verifies):
        entry = next(e for e in SUITE
                     if e.name == "signatories_wrong_signature")
        report = World(entry.build()).run()
        assert full_verifies.count > 0
        assert [0, "destinationRejected:InvalidSignature"] in report.stalls
        assert report.classification == entry.expected

    def test_same_tick_request_and_reorg_dropping_its_label(self):
        call = {"signature": "setValue(uint128)", "args": [1]}
        workload = [
            {"tick": 2, "action": "request_transfer", "label": "a",
             "call": call},
            # the request is queued for its hash batch, yet the reorg after it
            # finds its label and the pool it joined
            {"tick": 5, "action": "request_transfer", "label": "b",
             "call": call},
            {"tick": 5, "action": "inject_reorg", "depth": 3,
             "drop": ["a", "b"]},
        ]
        world = World(ScenarioConfig(workload=workload, max_ticks=8))
        for _ in range(5):
            world.step()
        assert world.source.get_transaction(world.labels["a"]) is None
        tx, number = world.source.get_transaction(world.labels["b"])
        assert (tx.seq, number) == (1, world.source.head_number())

    @pytest.mark.parametrize("call_len", [None, 0, 3],
                             ids=["cut-after-gas", "empty", "three-bytes"])
    def test_request_without_a_selector_reverts_malformed(self, call_len):
        # the relay's transfer hash needs a selector, so the adapter refuses
        # the request before the relay can see it
        world = World(ScenarioConfig(max_ticks=200))
        recipient = contract_address(world.dest.config.network_id, "storage")
        payload = encode_request_transfer(recipient, bytes(call_len or 0),
                                          21000)
        if call_len is None:
            payload = payload[:4 + 32 + 8]
        tx = world.source.make_transaction(
            account_address("alice"), world.adapters["source"].address,
            payload, world.config.transaction_fee)
        world.source.submit_transaction(tx)
        report = world.run()
        receipt = world.source.get_receipt(tx.tx_hash)
        assert (receipt.status, receipt.reason) == ("reverted",
                                                    "MalformedPayload")
        assert report.requested == [] and report.classification == "low"


class TestClassification:
    def test_full_delivery_is_low(self):
        report = run_scenario(ScenarioConfig(workload=simple_workload()))
        assert report.classification == "low"
        assert report.requested == [0, 1, 2]
        assert report.stalls == []

    def test_undelivered_canonical_request_is_medium(self):
        report = run_scenario(ScenarioConfig(
            signatory_modes=["refuse"] * 3, workload=simple_workload(1)))
        assert report.classification == "medium"
        assert report.violations == []

    def test_any_violation_is_high(self):
        workload = [
            {"tick": 5, "action": "admin_set", "chain": "dest",
             "caller": "owner", "field": "signatories",
             "value": {"keys": [{"attacker": 0}], "quorum": 1}},
            {"tick": 6, "action": "admin_set", "chain": "dest",
             "caller": "owner", "field": "relayer",
             "value": {"account": "attacker"}},
            {"tick": 8, "action": "direct_process_transfer",
             "transfer_id": 0, "recipient": "token", "caller": "attacker",
             "attacker_signers": [0],
             "call": {"signature": "mint(address,uint128)",
                      "args": [{"account": "attacker"}, 1000]}},
        ]
        report = run_scenario(ScenarioConfig(workload=workload, max_ticks=200))
        assert report.classification == "high"
        assert [v[1] for v in report.violations] == ["noSourceRequest"]

    def test_config_monitor_alarm_and_auto_pause(self):
        workload = simple_workload(1) + [
            {"tick": 2, "action": "admin_set", "chain": "source",
             "caller": "owner", "field": "transactionFee", "value": 20}]
        report = run_scenario(ScenarioConfig(
            workload=workload, monitor_auto_pause=True, max_ticks=200))
        assert any(a[0] == "config" for a in report.alarms)
        assert report.classification == "medium"  # paused before delivery
        # the same change allow-listed does not pause
        report = run_scenario(ScenarioConfig(
            workload=workload, monitor_auto_pause=True,
            expected_config_changes=[["source", "transactionFee"]],
            max_ticks=200))
        assert all(a[0] != "config" for a in report.alarms)
        assert report.classification == "low"


def admin_fee(chain, tick=2, fee=50):
    return {"tick": tick, "action": "admin_set", "chain": chain,
            "caller": "owner", "field": "transactionFee", "value": fee}


class TestConfigMonitor:
    """The world's monitor of adapter ConfigChanged events."""

    def _run(self, **kw):
        world = World(ScenarioConfig(max_ticks=60, **kw))
        report = world.run()
        return world, [a for a in report.alarms if a[0] == "config"]

    def test_unexpected_change_flagged(self):
        world, alarms = self._run(workload=[admin_fee("dest")])
        [event] = world.dest.get_events(world.adapters["dest"].address,
                                        "ConfigChanged", 0,
                                        world.dest.head_number())
        assert alarms == [["config", "dest", event.block_number,
                           "transactionFee"]]
        assert not world.bridge.paused

    def test_allow_listed_change_passes(self):
        _, alarms = self._run(
            workload=[admin_fee("dest")],
            expected_config_changes=[["dest", "transactionFee"]])
        assert alarms == []

    def test_same_field_other_network_still_flagged(self):
        _, alarms = self._run(
            workload=[admin_fee("source")],
            expected_config_changes=[["dest", "transactionFee"]])
        assert [a[1] for a in alarms] == ["source"]

    def test_auto_pause_pauses_bridge(self):
        workload = simple_workload(1) + [admin_fee("dest")]
        world, alarms = self._run(workload=workload, monitor_auto_pause=True)
        assert len(alarms) == 1
        assert world.bridge.paused
        # the transfer seen at tick 1 never advances past the pause
        assert [j.state for j in world.bridge.jobs.values()] == \
            ["awaitingFinality"]
        world, _ = self._run(workload=workload)
        assert not world.bridge.paused
        assert [j.state for j in world.bridge.jobs.values()] == ["done"]


class TestReorgMonitor:
    """The world's reorg check: by block identity, by hash only when both
    blocks already hold theirs."""

    @pytest.mark.parametrize("name, widths", [
        ("deep_reorg", {"W = 1": 9}), ("shallow_reorg", {"W = 1": 5})])
    def test_the_check_hashes_nothing(self, monkeypatch, name, widths):
        # hashing both branches of the reorg in the monitor took 29 calls
        # in deep_reorg tick 30 and 4 in shallow_reorg tick 4
        got, in_monitor = Counter(), []
        permute, monitor = keccak._permute, World._run_monitor

        def counted(s, mask=keccak._M, rcs=keccak._ROUND_CONSTANTS):
            got["W = 1" if mask == keccak._M else "packed"] += 1
            got["monitor"] += bool(in_monitor)
            return permute(s, mask, rcs)

        def watched(world):
            in_monitor.append(True)
            try:
                monitor(world)
            finally:
                in_monitor.pop()

        monkeypatch.setattr(keccak, "_permute", counted)
        monkeypatch.setattr(World, "_run_monitor", watched)
        codec.selector.cache_clear()
        config = ScenarioConfig.from_json(
            (THREATS / f"{name}.json").read_text())
        report = World(config).run()
        assert report.alarms == [["reorg", "source", report.end_tick]]
        assert got.pop("monitor", 0) == 0
        assert got == widths

    # the relay's source view shows block 5 under a fake hash
    FORGE_5 = {"action": "faulty_view", "target": "bridge", "corruption": {
        "kind": "substitute_block_hash", "block_number": 5}}

    @staticmethod
    def alarms(*workload) -> list:
        return World(ScenarioConfig(max_ticks=60, workload=[
            *simple_workload(1), *workload])).run().alarms

    def test_forged_copies_under_one_fake_hash_are_no_reorg(self):
        # block 5 is the head when the tick 6 reorg replaces it: the view
        # shows a new forged copy under the same fake hash, so only the
        # tick 9 reorg, which replaces block 9, raises an alarm
        assert self.alarms(
            {"tick": 1, **self.FORGE_5},
            {"tick": 6, "action": "inject_reorg", "depth": 1},
            {"tick": 9, "action": "inject_reorg", "depth": 2},
        ) == [["reorg", "source", 9]]

    def test_a_view_forging_the_seen_head_is_a_reorg(self):
        # the monitor saw the real block 5 at tick 5; from tick 6 the
        # relay's view shows a forged copy of it
        assert self.alarms({"tick": 6, **self.FORGE_5}) == [
            ["reorg", "source", 6]]


class TestAttackerKeys:
    @pytest.fixture
    def keys(self, monkeypatch):
        made = []

        def counted(seed):
            made.append(seed)
            return keygen(seed)

        monkeypatch.setattr(scenario, "keygen", counted)
        return made

    def test_a_happy_world_makes_no_attacker_key(self, keys):
        world = World(ScenarioConfig(workload=simple_workload(1)))
        world.run()
        assert len(keys) == 1 + len(world.config.signatory_modes)

    def test_keys_are_made_when_an_action_names_them(self, keys):
        config = ScenarioConfig.from_json(
            (THREATS / "operator_key_reuse.json").read_text())
        world = World(config)
        world.run()
        seed = config.seed.to_bytes(8, "big")
        # the relayer's and the signatories' keys, then attackers 0 and 1
        assert keys[1 + len(config.signatory_modes):] == [
            blake2b256(b"attacker:%d:" % i + seed) for i in (0, 1)]
        assert [world._attacker_key(i) for i in (0, 1)] == [
            keygen(blake2b256(b"attacker:%d:" % i + seed)) for i in (0, 1)]


class TestThreatMatrix:
    @pytest.mark.parametrize("entry", SUITE, ids=lambda e: e.name)
    def test_outcome_matches_prediction(self, entry):
        report = run_scenario(entry.build())
        assert report.classification == entry.expected

    @pytest.mark.parametrize("entry", SUITE, ids=lambda e: e.name)
    def test_matrix_file_runs_to_its_golden_digest(self, entry, tmp_path):
        report, journal = tmp_path / "report.json", tmp_path / "journal.log"
        with as_file(THREATS / entry.file) as path:
            assert cli_main(["run", str(path), "--report", str(report),
                             "--journal", str(journal)]) == 0
        # the golden digest covers the report text, a newline and the journal
        text = report.read_text() + journal.read_text().removesuffix("\n")
        assert (hashlib.sha256(text.encode()).hexdigest()
                == SUITE_GOLDEN[entry.name])


SCENARIO_FILES = sorted(
    [*(pathlib.Path(__file__).parents[1] / "scenarios").glob("*.json"),
     *(THREATS / name for name in THREATS.iterdir()
       if name.name.endswith(".json"))], key=lambda p: p.name)


class TestStopRule:
    @staticmethod
    def horizon(config: ScenarioConfig) -> int:
        """Twice the quiet ticks that runs once waited for before stopping:
        every sign timeout and retry, both finality depths, and 10."""
        return 2 * (config.sign_timeout_ticks * (config.max_retries + 2)
                    + config.source["finality_depth"]
                    + config.dest["finality_depth"] + 10)

    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.name)
    def test_ticks_past_the_stop_change_nothing(self, path):
        world = World(ScenarioConfig.from_json(path.read_text()))
        report = world.run()
        if path.name == "stalled_dest.json":
            # its dest chain seals blocks further apart than the liveness
            # timeout, so an alarm is always to come and the run never stops
            assert report.end_tick == world.config.max_ticks
            assert not world.quiescent()
            return
        assert report.end_tick < world.config.max_ticks
        assert world.settled()
        journal, image = list(world.bridge.journal), world.bridge.persisted
        horizon = self.horizon(world.config)
        for _ in range(horizon):
            world.step()
        # only the chain heads, and the relay's cursors that follow them,
        # move on
        later = world.build_report()
        assert later.end_tick == report.end_tick + horizon
        assert later.to_text() == replace(
            report, end_tick=later.end_tick).to_text()
        assert world.bridge.journal == journal
        assert world.bridge.persisted._replace(
            source_cursor=image.source_cursor,
            dest_cursor=image.dest_cursor) == image

    def test_a_paused_relay_stops_at_its_last_action(self):
        entry = next(e for e in SUITE if e.name == "adapter_source_attack")
        world = World(entry.build())
        last_action = max(a["tick"] for a in entry.build().workload)
        report = world.run()
        assert world.bridge.paused and world.bridge.queued
        # the last action's tx is mined in its own tick, and the monitor
        # pauses the relay in that tick: only a workload resume could move
        # its jobs now
        assert report.end_tick == last_action == 12

    def test_a_faulty_view_holds_the_run_until_its_block(self):
        # the relay's and a quorum's source views fabricate a request in
        # block 2: the world is quiescent at tick 1, yet not settled, since
        # once the chain seals block 2 the relay takes the forgery up
        entry = next(e for e in SUITE if e.name == "source_infra_quorum")
        world = World(entry.build())
        world.step()
        assert world.quiescent() and not world.settled()
        report = world.run()
        assert report.end_tick == 18
        assert report.classification == entry.expected == "high"


class TestQuiescent:
    """`World.quiescent` on a world with nothing pending, one thing added."""

    @pytest.fixture
    def world(self):
        world = World(ScenarioConfig(workload=[]))
        assert world.quiescent()
        return world

    def test_a_signatory_inbox_message(self, world):
        world.inboxes[next(iter(world.inboxes))].append(object())
        assert not world.quiescent()

    def test_a_live_forged_job(self, world):
        forged = TransferJob(
            transfer=TransferMessage(b"\x01" * 32, b"\x02" * 32, b"\x03" * 32,
                                     b"\x00" * 4, 0, 0, "alpha"),
            forged=True, state="awaitingFinality")
        world.bridge.forged_jobs.append(forged)
        assert not world.quiescent()
        forged.state = "stalled"
        assert world.quiescent()

    def test_a_bus_message(self, world):
        world.bus.append((world.tick + 1, "bridge", object()))
        assert not world.quiescent()

    def test_a_chain_slower_than_the_liveness_timeout(self):
        config = ScenarioConfig(workload=[], liveness_timeout_ticks=20)
        config.dest["block_time_ticks"] = 20
        assert World(config).quiescent()
        config.dest["block_time_ticks"] = 21
        assert not World(config).quiescent()

    @pytest.mark.parametrize("side", ["source", "dest"])
    def test_a_pending_tx(self, world, side):
        chain = world.chains[side]
        chain.pending.append(chain.make_transaction(
            account_address("alice"), world.adapters[side].address, b""))
        assert not world.quiescent()

    def test_a_paused_relay_with_live_jobs(self):
        entry = next(e for e in SUITE if e.name == "adapter_source_attack")
        world = World(entry.build())
        world.run()
        assert world.bridge.paused and world.bridge.queued
        assert world.quiescent()
        world.bridge.paused = False  # the same live jobs can move now
        assert not world.quiescent()


class TestCli:
    def test_run_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(ScenarioConfig(workload=simple_workload()).to_json())
        report_path = tmp_path / "report.json"
        journal_path = tmp_path / "journal.log"
        rc = cli_main(["run", str(path), "--report", str(report_path),
                       "--journal", str(journal_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["classification"] == "low"
        assert journal_path.read_text().count("-> done") >= 3

    def test_run_prints_report_by_default(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(ScenarioConfig(workload=simple_workload(1)).to_json())
        assert cli_main(["run", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["delivered"][0][0] == 0

    def test_seed_override(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(ScenarioConfig(workload=simple_workload(1)).to_json())
        assert cli_main(["run", str(path), "--seed", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 7

    def test_missing_file_fails(self, tmp_path, capsys):
        rc = cli_main(["run", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli_main(["run", str(path)]) == 2
        assert "invalid scenario file" in capsys.readouterr().err

    def test_unknown_scenario_field_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"surprise": 1}))
        assert cli_main(["run", str(path)]) == 2
        assert "invalid scenario file" in capsys.readouterr().err

    def test_malformed_scenarios_exit_2_with_one_line(self, tmp_path, capsys):
        request = {"tick": 1, "action": "request_transfer",
                "call": {"signature": "setValue(uint128)", "args": [1]}}
        admin = {"tick": 1, "action": "admin_set"}
        # only the run finds that the chain is too short for this reorg
        too_deep = {"workload": [{"tick": 2, "action": "inject_reorg",
                                  "depth": 50}]}
        never_sent = {"workload": [{"tick": 3, "action": "inject_reorg",
                                    "depth": 1, "chain": "dest",
                                    "drop": ["relay:0"]}]}
        for doc in ({"source": {"network_id": "a", "bogus": 1}},
                    {"signatory_modes": ["honest", "evil"]},
                    {"dest": {"network_id": "b", "hash_alg": "md5"}},
                    {"dest": {"network_id": "b", "finality_depth": -1}},
            {"expected_config_changes": [["beta", "transactionFee"]]},
            # infeasible workload actions abort the run
            {"workload": [{"tick": 1, "action": "bogus"}]},
            {"workload": [{"tick": 1, "action": "request_transfer"}]},
            {"workload": [{"tick": 3, "action": "inject_reorg", "depth": 1,
                           "drop": ["undefined"]}]},
            too_deep,
            {"workload": [{"tick": 1, "action": "faulty_view",
                           "target": "nobody",
                           "corruption": {"kind": "none"}}]},
            {"workload": [{"tick": 1, "action": "faulty_view",
                           "target": "signatory:9",
                           "corruption": {"kind": "none"}}]},
            {"workload": [{"tick": 1, "action": "admin_set",
                           "field": "bogus", "value": 1}]},
            {"workload": [{"tick": 1, "action": "admin_set",
                           "field": "relayer", "value": {"hex": "zz"}}]},
            # arguments of the wrong type
            {"workload": [{"tick": 2, "action": "inject_reorg",
                           "depth": "x"}]},
            {"workload": [{"tick": 1, "action": "request_transfer",
                           "call": {"signature": "setValue(uint128)",
                                    "args": 5}}]},
            {"workload": [dict(request, sender=5)]},
            {"workload": [dict(request, recipient=5)]},
            {"workload": [dict(request, value="x")]},
            {"workload": [dict(request, value=-1)]},
            {"workload": [dict(request, value=2**256)]},
            {"source": {"network_id": 5}}, {"source": {"network_id": ""}},
            # scalar fields of the wrong type or out of range
            {"max_ticks": "x"}, {"sign_timeout_ticks": "x"}, {"seed": -1},
            {"rate_window_ticks": 0},
            {"censor_transfer_id": "x"}, {"monitor_auto_pause": 1},
            {"reorg_response": "continue"},  # not a scenario field
            {"signatory_min_confirmations": None},  # not one either
            {"workload": [[1]]}, {"authorized_senders": [1]},
            # gas and transfer ids outside their 64-bit fields
            {"workload": [dict(request, gas=-5)]},
            {"workload": [dict(request, gas=2**64)]},
            {"workload": [dict(request, action="bridge_forge", transfer_id=3,
                               gas=-5)]},
            {"workload": [dict(request, action="bridge_forge",
                               transfer_id=-1)]},
            {"workload": [{"tick": 1, "action": "faulty_view",
                           "target": "bridge",
                           "corruption": {"kind": "fabricate_request",
                                          "block_number": 0,
                                          "transfer_id": -1,
                                          "call": request["call"]}}]},
            # values of the wrong type inside actions and their objects
            {"workload": [dict(admin, field="transactionFee", value="x")]},
            {"workload": [dict(admin, field="transactionFee", value=5,
                               caller=5)]},
            {"workload": [dict(admin, field="relayer",
                               value={"account": 5})]},
            {"workload": [dict(admin, field="signatories",
                               value={"keys": [{"attacker": 0}],
                                      "quorum": "x"})]},
            {"workload": [dict(admin, field="authorizedSenders",
                               value={"senders": [5]})]},
            {"workload": [dict(request, action="bridge_forge", transfer_id=3,
                               recipient=5)]},
            {"workload": [dict(request, action="direct_process_transfer",
                               transfer_id=0, caller=5)]},
            # a bool where an int is wanted, a typo'd key, a string of
            # labels, a negative signatory index
            {"workload": [{"tick": 2, "action": "inject_reorg",
                           "depth": True}]},
            {"workload": [dict(request, tick=True)]},
            {"workload": [dict(request, sendr="bob")]},
            {"workload": [dict(request, label="a"),
                          {"tick": 3, "action": "inject_reorg", "depth": 1,
                           "drop": "a"}]},
            # a label that reads as a relay tx, a drop name that is not a
            # string, a relay tx the relay never sent (known only in the run)
            {"workload": [dict(request, label="relay:0")]},
            {"workload": [{"tick": 3, "action": "inject_reorg", "depth": 1,
                           "drop": [0]}]},
            never_sent,
            # a relay id outside U64, 5,000 digits past int()'s limit too
            *({"workload": [{"tick": 3, "action": "inject_reorg", "depth": 1,
                             "drop": [f"relay:{tid}"]}]}
              for tid in (2**64, "9" * 5000)),
            # lone surrogates: JSON strings that UTF-8 cannot encode
            {"source": {"network_id": "\ud800"}},
            {"workload": [dict(request, sender="\udfff")]},
            {"authorized_senders": ["alice", "b\ud800b"]},
            {"expected_config_changes": [["dest", "\ud800"]]},
            {"workload": [{"tick": 1, "action": "faulty_view",
                           "target": "signatory:-1",
                           "corruption": {"kind": "none"}}]},
            # a flood too large to post in one tick
            {"workload": [{"tick": 1, "action": "bridge_flood",
                           "count": 10_001}]},
            {"workload": [{"tick": 1, "action": "bridge_flood",
                           "count": 10**8}]},
            # 10,000 floods to each of 11 signatories: 110,000 bus messages
            {"signatory_modes": ["honest"] * 11,
             "workload": [{"tick": 1, "action": "bridge_flood",
                           "count": 10_000}]},
            # five floods of 10,000 in one tick to 3 signatories: 150,000
            {"workload": [{"tick": 2, "action": "bridge_flood",
                           "count": 10_000}] * 5},
            # more signatories than the adapter's U16 key list holds
            {"signatory_modes": ["honest"] * (1 << 16)},
            # a network id of 80,000 UTF-8 bytes behind a U16 length, and
            # more attacker signatures than a bundle's U16 count holds
            {"source": {"network_id": "\u00e9" * 40_000}},
            {"workload": [dict(request, action="direct_process_transfer",
                               transfer_id=0,
                               attacker_signers=[0] * 70_000)]}):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            assert cli_main(["run", str(path)]) == 2, doc
            err = capsys.readouterr().err
            assert err.startswith("error: invalid scenario file"), doc
            assert err.count("\n") == 1, err
            if doc is not too_deep and doc is not never_sent:
                with pytest.raises(ConfigError):  # the rest fail at load
                    ScenarioConfig.from_json(json.dumps(doc))
        World(ScenarioConfig.from_dict(too_deep))  # it loads
        World(ScenarioConfig.from_dict(never_sent))

    def test_other_unloadable_scenarios_exit_2(self, tmp_path, capsys):
        for text in ("[1]", "5", "null", "[" * 10**5 + "]" * 10**5):
            path = tmp_path / "bad.json"
            path.write_text(text)
            assert cli_main(["run", str(path)]) == 2
            assert "invalid scenario file" in capsys.readouterr().err
        path.write_text(ScenarioConfig().to_json())
        assert cli_main(["run", str(path), "--seed", "-1"]) == 2
        assert "invalid scenario file: seed" in capsys.readouterr().err

    def test_demo(self, capsys):
        assert cli_main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "BridgeTransferRequested" in out
        assert "Processed" in out
        assert "destination storage value: 1" in out

    def test_suite_exit_code_and_table(self, capsys):
        assert cli_main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out
        for entry in SUITE:
            assert entry.name in out


def describe(spec) -> str:
    """The action reference's words for ``spec``: objects spelled out."""
    if type(spec) is dict:
        return "{" + ", ".join(key_doc(k, e) for k, e in spec.items()) + "}"
    if type(spec) is Pick:
        return f"an object picked by its `{spec.tag}` (below)"
    if type(spec) is list:
        return f"a list, each item {describe(spec[0])}" + (
            f", its length {describe(spec[1])}" if spec[1:] else "")
    return scenario._name(spec)


def key_doc(key, entry) -> str:
    spec, default = entry
    return f"`{key}`: {describe(spec)}" + (
        "" if default is ... else f" (default `{json.dumps(default)}`)")


def reference_lines(name, spec, skip=("tick", "action")):
    """One line per action, or per variant of a Pick."""
    if type(spec) is Pick:
        for tag, sub in spec.specs.items():
            yield from reference_lines(f"{name}` with `{spec.tag}` `{tag}",
                                       sub, skip + (spec.tag,))
        return
    keys = [key_doc(k, e) for k, e in spec.items() if k not in skip]
    yield f"- `{name}`: " + ("; ".join(keys) or "no other keys") + "."


def render_reference() -> str:
    lines = [line for kind, spec in ACTIONS.specs.items()
             for line in reference_lines(kind, spec)]
    lines.append("")
    lines.append("`corruption` objects:")
    lines.append("")
    lines += [line for kind, spec in CORRUPTION.specs.items()
              for line in reference_lines(kind, spec, ("kind",))]
    return "\n".join(lines)


class TestDocs:
    def test_readme_action_reference_matches_the_schema(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        begin, end = "<!-- action reference -->\n", "\n<!-- end -->"
        section = readme[readme.index(begin) + len(begin):readme.index(end)]
        assert section == render_reference()
