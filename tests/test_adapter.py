"""Adapter contract: request/process state machine and admin surface."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgesim import (
    AdapterContract,
    Chain,
    ChainConfig,
    ConfigError,
    MintableToken,
    RejectingContract,
    StorageContract,
    TransferMessage,
    blake2b256,
    compute_transfer_hash,
    default_quorum,
    encode_function_call,
    keygen,
    sign,
)
from bridgesim.adapter import (
    encode_admin_set,
    encode_process_transfer,
    encode_request_transfer,
    event_attr,
)
from state_dump import dump_state

OWNER = blake2b256(b"acct:owner")
ALICE = blake2b256(b"acct:alice")
ADAPTER = blake2b256(b"contract:adapter")
STORE = blake2b256(b"contract:store")
TOKEN = blake2b256(b"contract:token")
REJECT = blake2b256(b"contract:reject")
FEE = 10

RELAYER = keygen(b"\x01" * 32)
SIGNERS = [keygen(bytes([i + 2]) * 32) for i in range(5)]


class Fixture:
    def __init__(self, n_signatories=3, quorum=None, fee=FEE,
                 accept_only=False, authorized=(), alg="blake2b256"):
        self.chain = Chain(ChainConfig(network_id="beta", hash_alg=alg))
        keys = [s.public_key for s in SIGNERS[:n_signatories]]
        self.adapter = AdapterContract(
            address=ADAPTER, owner=OWNER, relayer=RELAYER.public_key,
            signatories=keys,
            quorum_size=quorum or default_quorum(n_signatories),
            transaction_fee=fee, accept_only_authorized=accept_only,
            authorized_senders=list(authorized))
        self.chain.register_contract(self.adapter)
        self.chain.register_contract(StorageContract(STORE))
        self.chain.register_contract(MintableToken(TOKEN))
        self.chain.register_contract(RejectingContract(REJECT))
        for acct in (ALICE, OWNER, RELAYER.public_key):
            self.chain.balances[acct] = 1_000_000

    def submit(self, sender, payload, value=0):
        tx = self.chain.make_transaction(sender=sender, recipient=ADAPTER,
                                         payload=payload, value=value)
        self.chain.submit_transaction(tx)
        self.chain.mine_block(tick=self.chain.head_number() + 1)
        return tx, self.chain.get_receipt(tx.tx_hash)

    def request(self, value=FEE, sender=ALICE, recipient=STORE, arg=1):
        payload = encode_request_transfer(
            recipient, encode_function_call("setValue(uint128)", [arg]), 21000)
        return self.submit(sender, payload, value=value)

    def message(self, transfer_id=0, recipient=STORE, arg=7, call=None,
                src_tx=None):
        return TransferMessage(
            source_transaction_hash=src_tx or blake2b256(
                b"src:%d" % transfer_id),
            source_adapter_address=blake2b256(b"contract:src-adapter"),
            recipient_contract=recipient,
            encoded_function_call=call if call is not None
            else encode_function_call("setValue(uint128)", [arg]),
            gas=21000,
            source_transfer_id=transfer_id,
            source_network_id="alpha",
        )

    def bundle(self, m, signer_indices, broken=()):
        digest = compute_transfer_hash(m, self.chain.config.hash_alg)
        entries = []
        for i in signer_indices:
            kp = SIGNERS[i]
            sig = bytes(64) if i in broken else sign(kp, digest)
            entries.append((kp.public_key, sig))
        return entries

    def process(self, m, entries, sender=None):
        return self.submit(sender or RELAYER.public_key,
                           encode_process_transfer(m, entries))

    def events(self, name=None):
        return self.chain.get_events(ADAPTER, name, 0,
                                     self.chain.head_number())


class TestRequestTransfer:
    def test_emits_event_and_assigns_ids(self):
        fx = Fixture()
        fx.request(arg=1)
        fx.request(arg=2)
        events = fx.events("BridgeTransferRequested")
        assert [int.from_bytes(event_attr(e, "transferId"), "big")
                for e in events] == [0, 1]
        e = events[0]
        assert [k for k, _ in e.attributes] == \
            ["transferId", "recipientContract", "encodedCall", "gas"]
        assert event_attr(e, "recipientContract") == STORE
        assert int.from_bytes(event_attr(e, "gas"), "big") == 21000

    def test_fee_too_low_reverts(self):
        fx = Fixture()
        _, receipt = fx.request(value=FEE - 1)
        assert (receipt.status, receipt.reason) == ("reverted", "FeeTooLow")
        assert fx.adapter.state["outbound_nonce"] == 0

    def test_exact_fee_and_excess_refund(self):
        fx = Fixture()
        before = fx.chain.balances[ALICE]
        fx.request(value=FEE)
        assert fx.chain.balances[ALICE] == before - FEE
        fx.request(value=FEE + 25)  # excess refunded
        assert fx.chain.balances[ALICE] == before - 2 * FEE
        assert fx.adapter.state["collected_fees"] == 2 * FEE

    def test_authorization(self):
        fx = Fixture(accept_only=True, authorized=[ALICE])
        _, ok = fx.request(sender=ALICE)
        assert ok.status == "ok"
        fx.chain.balances[OWNER] = 1000
        _, bad = fx.request(sender=OWNER)
        assert (bad.status, bad.reason) == ("reverted", "Unauthorized")

    def test_unknown_tag_reverts(self):
        fx = Fixture()
        _, receipt = fx.submit(ALICE, b"XXXX")
        assert receipt.reason == "UnknownFunction"


class TestProcessTransfer:
    def test_happy_path_dispatches_and_advances_nonce(self):
        fx = Fixture()
        m = fx.message(arg=42)
        _, receipt = fx.process(m, fx.bundle(m, [0, 1]))
        assert receipt.status == "ok"
        ev = fx.events("Processed")[0]
        assert event_attr(ev, "sourceTxHash") == m.source_transaction_hash
        assert int.from_bytes(event_attr(ev, "transferId"), "big") == 0
        assert event_attr(ev, "callStatus") == b"ok"
        assert fx.chain.contracts[STORE].state["value"] == 42
        assert fx.adapter.state["expected_inbound_nonce"] == 1

    def test_not_relayer_checked_first(self):
        # even an already-processed hash reverts for a non-relayer caller
        fx = Fixture()
        m = fx.message()
        fx.process(m, fx.bundle(m, [0, 1]))
        _, receipt = fx.process(m, fx.bundle(m, [0, 1]), sender=ALICE)
        assert (receipt.status, receipt.reason) == ("reverted", "NotRelayer")

    def test_replay_emits_already_processed_without_revert(self):
        fx = Fixture()
        m = fx.message()
        _, first = fx.process(m, fx.bundle(m, [0, 1]))
        original_block = fx.chain.tx_index[first.tx_hash]
        snapshot = dump_state(fx.chain)
        _, replay = fx.process(m, fx.bundle(m, [0, 1]))
        assert replay.status == "ok"  # non-reverting by design
        ev = fx.events("AlreadyProcessed")[0]
        assert event_attr(ev, "sourceTxHash") == m.source_transaction_hash
        assert int.from_bytes(
            event_attr(ev, "originalBlockNumber"), "big") == original_block
        # replay left contract state untouched
        assert fx.chain.contracts[STORE].state["value"] == 7
        assert fx.adapter.state["expected_inbound_nonce"] == 1

    def test_replay_precedes_nonce_and_signature_checks(self):
        # a replayed hash with a wrong id and garbage signatures still only
        # emits AlreadyProcessed
        fx = Fixture()
        m = fx.message()
        fx.process(m, fx.bundle(m, [0, 1]))
        from dataclasses import replace
        wrong = replace(m, source_transfer_id=99)
        _, receipt = fx.process(wrong, fx.bundle(wrong, [0], broken={0}))
        assert receipt.status == "ok"
        assert len(fx.events("AlreadyProcessed")) == 1

    def test_out_of_order_reverts(self):
        fx = Fixture()
        m = fx.message(transfer_id=1)  # expected is 0
        _, receipt = fx.process(m, fx.bundle(m, [0, 1]))
        assert (receipt.status, receipt.reason) == ("reverted", "OutOfOrder")

    def test_quorum_boundary(self):
        for provided in range(0, 4):
            fx = Fixture(n_signatories=3)  # quorum 2
            m = fx.message()
            entries = fx.bundle(m, list(range(provided)))
            _, receipt = fx.process(m, entries)
            if provided >= 2:
                assert receipt.status == "ok", provided
            else:
                assert receipt.status == "reverted", provided
                assert receipt.reason == "InsufficientSignatures"

    def test_duplicate_signatures_count_once(self):
        fx = Fixture(n_signatories=3)  # quorum 2
        m = fx.message()
        entries = fx.bundle(m, [0, 0, 0])
        _, receipt = fx.process(m, entries)
        assert (receipt.status, receipt.reason) == \
            ("reverted", "InsufficientSignatures")

    def test_unknown_key_reverts_invalid_signature(self):
        fx = Fixture(n_signatories=3)
        m = fx.message()
        outsider = SIGNERS[4]  # not in the signatory set
        digest = compute_transfer_hash(m, fx.chain.config.hash_alg)
        entries = fx.bundle(m, [0]) + \
            [(outsider.public_key, sign(outsider, digest))]
        _, receipt = fx.process(m, entries)
        assert (receipt.status, receipt.reason) == \
            ("reverted", "InvalidSignature")

    def test_garbage_signature_reverts(self):
        fx = Fixture()
        m = fx.message()
        _, receipt = fx.process(m, fx.bundle(m, [0, 1], broken={1}))
        assert (receipt.status, receipt.reason) == \
            ("reverted", "InvalidSignature")

    def test_recipient_revert_does_not_revert_processing(self):
        fx = Fixture()
        m = fx.message(recipient=REJECT)
        _, receipt = fx.process(m, fx.bundle(m, [0, 1]))
        assert receipt.status == "ok"
        ev = fx.events("Processed")[0]
        assert event_attr(ev, "callStatus") == b"failed"
        # nonce advanced and hash recorded despite the failed call
        assert fx.adapter.state["expected_inbound_nonce"] == 1
        assert m.source_transaction_hash in fx.adapter.state["processed"]

    def test_revert_leaves_state_bit_identical(self):
        fx = Fixture()
        good = fx.message(transfer_id=0)
        fx.process(good, fx.bundle(good, [0, 1]))
        before = dump_state(fx.chain)
        bad = fx.message(transfer_id=5)
        fx.process(bad, fx.bundle(bad, [0, 1]))
        after = dump_state(fx.chain)
        # only block history differs; contract state and balances are frozen
        b, a = json.loads(before), json.loads(after)
        assert a["contracts"] == b["contracts"]
        assert a["balances"] == b["balances"]

    def test_cross_algorithm_digest(self):
        # the digest is computed with the destination chain's algorithm
        fx = Fixture(alg="keccak256")
        m = fx.message()
        wrong_digest = compute_transfer_hash(m, "blake2b256")
        entries = [(SIGNERS[0].public_key,
                    sign(SIGNERS[0], wrong_digest)),
                   (SIGNERS[1].public_key,
                    sign(SIGNERS[1], wrong_digest))]
        _, receipt = fx.process(m, entries)
        assert receipt.reason == "InvalidSignature"
        _, ok = fx.process(m, fx.bundle(m, [0, 1]))
        assert ok.status == "ok"

    def test_call_shorter_than_selector_reverts_malformed(self):
        fx = Fixture()
        m = fx.message(call=b"\x01\x02")
        entries = [(SIGNERS[0].public_key, bytes(64))]
        before = json.loads(dump_state(fx.chain))["contracts"]
        _, receipt = fx.process(m, entries)  # mining must not raise
        assert (receipt.status, receipt.reason) == ("reverted",
                                                    "MalformedPayload")
        assert json.loads(dump_state(fx.chain))["contracts"] == before

    def test_network_id_not_utf8_reverts_malformed(self):
        fx = Fixture()
        m = fx.message()
        payload = encode_process_transfer(m, fx.bundle(m, [0, 1]))
        nid_at = 4 + 32 * 3 + 8 + 8 + 2
        payload = payload[:nid_at] + b"\xff" + payload[nid_at + 1:]
        _, receipt = fx.submit(RELAYER.public_key, payload)
        assert (receipt.status, receipt.reason) == ("reverted",
                                                    "MalformedPayload")


class TestAdmin:
    def test_not_owner(self):
        fx = Fixture()
        payload = encode_admin_set("transactionFee", 99)
        _, receipt = fx.submit(ALICE, payload)
        assert (receipt.status, receipt.reason) == ("reverted", "NotOwner")
        assert fx.adapter.state["transaction_fee"] == FEE

    def test_set_fee_emits_config_changed(self):
        fx = Fixture()
        _, receipt = fx.submit(OWNER, encode_admin_set("transactionFee", 99))
        assert receipt.status == "ok"
        assert fx.adapter.state["transaction_fee"] == 99
        ev = fx.events("ConfigChanged")[0]
        assert event_attr(ev, "field") == b"transactionFee"
        assert int.from_bytes(event_attr(ev, "oldValue"), "big") == FEE
        assert int.from_bytes(event_attr(ev, "newValue"), "big") == 99

    def test_set_relayer(self):
        fx = Fixture()
        new = keygen(b"\x0f" * 32).public_key
        fx.submit(OWNER, encode_admin_set("relayer", new))
        assert fx.adapter.state["relayer"] == new
        m = fx.message()
        _, receipt = fx.process(m, fx.bundle(m, [0, 1]))
        assert receipt.reason == "NotRelayer"  # old relayer locked out

    def test_swap_signatories(self):
        fx = Fixture(n_signatories=3)
        new_keys = [SIGNERS[3].public_key, SIGNERS[4].public_key]
        fx.submit(OWNER, encode_admin_set("signatories", (new_keys, 2)))
        assert fx.adapter.state["signatories"] == new_keys
        assert fx.adapter.state["quorum_size"] == 2
        m = fx.message()
        _, receipt = fx.process(m, fx.bundle(m, [0, 1]))  # old keys
        assert receipt.reason == "InvalidSignature"
        _, ok = fx.process(m, fx.bundle(m, [3, 4]))
        assert ok.status == "ok"

    def test_bad_quorum_reverts(self):
        fx = Fixture()
        payload = encode_admin_set("signatories",
                                   ([SIGNERS[0].public_key], 2))
        _, receipt = fx.submit(OWNER, payload)
        assert (receipt.status, receipt.reason) == ("reverted", "ConfigError")

    def test_set_authorized_senders(self):
        fx = Fixture()
        fx.submit(OWNER, encode_admin_set(
            "authorizedSenders", (True, [OWNER])))
        assert fx.adapter.state["accept_only_authorized"] is True
        _, receipt = fx.request(sender=ALICE)
        assert receipt.reason == "Unauthorized"

    @pytest.mark.parametrize("payload", [
        b"ADMN",  # tag only
        b"ADMN\x07relay",  # name longer than the payload
        b"ADMN\x07relayer" + bytes(31),
        b"ADMN\x0etransactionFee" + bytes(7),
        b"ADMN\x11authorizedSenders",
        b"ADMN\x11authorizedSenders\x01\x00\x02" + bytes(32),
        b"ADMN\x0bsignatories\x00\x01" + bytes(32),  # no quorum
    ], ids=["tag-only", "name-cut", "relayer-cut", "fee-cut",
            "senders-empty", "senders-cut", "quorum-missing"])
    def test_short_admin_payload_reverts_malformed(self, payload):
        fx = Fixture()
        before = json.loads(dump_state(fx.chain))["contracts"]
        _, receipt = fx.submit(OWNER, payload)  # mining must not raise
        assert (receipt.status, receipt.reason) == ("reverted",
                                                    "MalformedPayload")
        assert json.loads(dump_state(fx.chain))["contracts"] == before
        assert not fx.events("ConfigChanged")

    def test_unknown_admin_field_is_not_encoded(self):
        with pytest.raises(ConfigError, match="unknown admin field 'owner'"):
            encode_admin_set("owner", OWNER)

    def test_admin_payload_naming_an_unknown_field_reverts(self):
        fx = Fixture()
        before = json.loads(dump_state(fx.chain))["contracts"]
        _, receipt = fx.submit(OWNER, b"ADMN\x05owner" + ALICE)
        assert (receipt.status, receipt.reason) == ("reverted", "ConfigError")
        assert json.loads(dump_state(fx.chain))["contracts"] == before
        assert not fx.events("ConfigChanged")

    def test_event_attr_of_a_missing_key_raises(self):
        fx = Fixture()
        fx.submit(OWNER, encode_admin_set("transactionFee", 99))
        [ev] = fx.events("ConfigChanged")
        assert event_attr(ev, "newValue") == (99).to_bytes(8, "big")
        with pytest.raises(KeyError, match="transferId"):
            event_attr(ev, "transferId")

    def test_constructor_validation(self):
        with pytest.raises(ConfigError):
            AdapterContract(ADAPTER, OWNER, RELAYER.public_key,
                            [SIGNERS[0].public_key], quorum_size=2,
                            transaction_fee=0)
        with pytest.raises(ConfigError):
            AdapterContract(ADAPTER, OWNER, RELAYER.public_key,
                            [SIGNERS[0].public_key], quorum_size=0,
                            transaction_fee=0)
        with pytest.raises(ConfigError):
            AdapterContract(ADAPTER, OWNER, RELAYER.public_key,
                            [SIGNERS[0].public_key], quorum_size=1,
                            transaction_fee=-1)


WORDS = st.binary(min_size=32, max_size=32)
CALLS = st.binary(min_size=4, max_size=40)
U64 = st.integers(0, (1 << 64) - 1)


@st.composite
def valid_payloads(draw):
    """(sender, payload, value) for a payload a fresh Fixture accepts."""
    kind = draw(st.sampled_from(["request", "process", "admin"]))
    if kind == "request":
        payload = encode_request_transfer(draw(WORDS), draw(CALLS), draw(U64))
        return ALICE, payload, FEE
    if kind == "process":
        m = TransferMessage(
            source_transaction_hash=draw(WORDS),
            source_adapter_address=draw(WORDS),
            recipient_contract=STORE, encoded_function_call=draw(CALLS),
            gas=draw(U64), source_transfer_id=0,
            source_network_id=draw(st.text(max_size=8)))
        digest = compute_transfer_hash(m, "blake2b256")
        entries = [(SIGNERS[i].public_key, sign(SIGNERS[i], digest))
                   for i in draw(st.sampled_from([[0, 1], [0, 1, 2], [2, 0]]))]
        return RELAYER.public_key, encode_process_transfer(m, entries), 0
    field = draw(st.sampled_from(["relayer", "remoteAdapterAddress",
                                  "transactionFee", "authorizedSenders",
                                  "signatories"]))
    if field == "transactionFee":
        value = draw(U64)
    elif field == "authorizedSenders":
        value = (draw(st.booleans()), draw(st.lists(WORDS, max_size=3)))
    elif field == "signatories":
        keys = draw(st.lists(WORDS, min_size=1, max_size=4))
        value = (keys, draw(st.integers(1, len(keys))))
    else:
        value = draw(WORDS)
    return OWNER, encode_admin_set(field, value), 0


class TestTruncatedPayloads:
    @settings(max_examples=40, deadline=None)
    @given(valid_payloads())
    def test_every_strict_prefix_reverts_malformed(self, case):
        sender, payload, value = case
        fx = Fixture()
        before = json.loads(dump_state(fx.chain))
        txs = fx.chain.make_transactions(
            [(sender, ADAPTER, payload[:n], value)
             for n in range(4, len(payload))])
        for tx in txs:
            fx.chain.submit_transaction(tx)
        fx.chain.mine_block(tick=1)
        for tx in txs:
            receipt = fx.chain.get_receipt(tx.tx_hash)
            assert (receipt.status, receipt.reason) == (
                "reverted", "MalformedPayload"), len(tx.payload)
        after = json.loads(dump_state(fx.chain))
        assert after["contracts"] == before["contracts"]
        assert after["balances"] == before["balances"]
        _, receipt = fx.submit(sender, payload, value=value)
        assert receipt.status == "ok"


class TestDefaultQuorum:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (2, 2), (3, 2), (4, 3), (5, 4), (6, 4), (7, 5), (9, 6),
    ])
    def test_two_thirds_ceiling(self, n, expected):
        assert default_quorum(n) == expected
