"""Scenario engine, report classification, threat matrix, CLI."""

import json
from collections import Counter

import pytest

from bridgesim import ConfigError, ScenarioConfig, World, codec, run_scenario
from bridgesim.adapter import encode_request_transfer
from bridgesim.cli import main as cli_main
from bridgesim.scenario import account_address, contract_address
from bridgesim.suite import SUITE


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
            ScenarioConfig(reorg_response="panic")
        with pytest.raises(ConfigError):
            ScenarioConfig(workload=[{"tick": 5000, "action": "pause"}])
        with pytest.raises(ConfigError):
            ScenarioConfig(workload=[{"tick": 1}])
        for entry in (["beta", "transactionFee"], ["dest"], "dest",
                      ["dest", 3]):
            with pytest.raises(ConfigError):
                ScenarioConfig(expected_config_changes=[entry])

    def test_unknown_workload_action_fails_at_runtime(self):
        config = ScenarioConfig(
            workload=[{"tick": 1, "action": "summon_dragon"}], max_ticks=5)
        with pytest.raises(ConfigError):
            run_scenario(config)


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


class TestWork:
    def test_source_transactions_hashed_once(self, monkeypatch):
        digests = Counter()
        keccak = codec.HASH_ALGS["keccak256"]

        def counted(data):
            digest = keccak(data)
            digests[digest] += 1
            return digest

        keccak_many = codec.keccak256_many

        def counted_many(datas):
            out = keccak_many(datas)
            digests.update(out)
            return out

        monkeypatch.setitem(codec.HASH_ALGS, "keccak256", counted)
        monkeypatch.setattr(codec, "keccak256_many", counted_many)
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
        # event digest, plus one hash per source block (genesis included)
        assert sum(digests.values()) == 2 * 50 + len(world.source.all_blocks)

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


class TestThreatMatrix:
    @pytest.mark.parametrize("entry", SUITE, ids=lambda e: e.name)
    def test_outcome_matches_prediction(self, entry):
        report = run_scenario(entry.build())
        assert report.classification == entry.expected


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
            {"workload": [{"tick": 2, "action": "inject_reorg",
                           "depth": 50}]},
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
            {"source": {"network_id": 5}},
            # scalar fields of the wrong type or out of range
            {"max_ticks": "x"}, {"sign_timeout_ticks": "x"}, {"seed": -1},
            {"censor_transfer_id": "x"}, {"monitor_auto_pause": 1},
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
                                          "call": request["call"]}}]}):
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            assert cli_main(["run", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: invalid scenario file")
            assert err.count("\n") == 1

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
