"""Signatory verification, refusal reasons, rate limiting, behavior modes."""

import pytest

from bridgesim import (
    AdapterContract,
    Chain,
    ChainConfig,
    ChainView,
    RateLimiter,
    Signatory,
    SigningRequest,
    StorageContract,
    ViewCorruption,
    blake2b256,
    compute_transfer_hash,
    default_quorum,
    encode_function_call,
    keygen,
    verify,
)
from bridgesim.adapter import encode_request_transfer, message_from_request_event

OWNER = blake2b256(b"acct:owner")
ALICE = blake2b256(b"acct:alice")
ADAPTER = blake2b256(b"contract:adapter")
STORE = blake2b256(b"contract:dest-store")
KP = keygen(b"\x21" * 32)
RELAYER = keygen(b"\x22" * 32)
DEST_ALG = "blake2b256"
MINCONF = 6


def build_source() -> tuple[Chain, bytes]:
    chain = Chain(ChainConfig(network_id="alpha", hash_alg="keccak256"))
    adapter = AdapterContract(
        address=ADAPTER, owner=OWNER, relayer=RELAYER.public_key,
        signatories=[KP.public_key], quorum_size=1, transaction_fee=0)
    chain.register_contract(adapter)
    tx = chain.make_transaction(
        sender=ALICE, recipient=ADAPTER,
        payload=encode_request_transfer(
            STORE, encode_function_call("setValue(uint128)", [9]), 21000))
    chain.submit_transaction(tx)
    chain.mine_block(tick=1)
    for t in range(2, 2 + MINCONF):
        chain.mine_block(tick=t)
    return chain, tx.tx_hash


def build_request(chain: Chain, tx_hash: bytes) -> SigningRequest:
    event = chain.get_events(ADAPTER, "BridgeTransferRequested", 0,
                             chain.head_number())[0]
    m = message_from_request_event(event, tx_hash, ADAPTER,
                                   chain.config.network_id)
    return SigningRequest(
        source_block_number=event.block_number,
        source_block_hash=chain.get_block(event.block_number).block_hash,
        source_transaction_hash=tx_hash,
        transfer_data_hash=compute_transfer_hash(m, DEST_ALG),
        transfer=m,
    )


def make_signatory(chain: Chain, mode="honest", corruption=None,
                   **kwargs) -> Signatory:
    return Signatory(
        signatory_id="signatory:0", keypair=KP,
        chain_view=ChainView(chain, corruption),
        dest_hash_alg=DEST_ALG, source_adapter=ADAPTER, mode=mode,
        min_confirmations=MINCONF, **kwargs)


class TestHonest:
    def test_signs_valid_request(self):
        chain, tx_hash = build_source()
        req = build_request(chain, tx_hash)
        resp = make_signatory(chain).handle_sign_request(req, tick=10)
        assert resp.kind == "signed"
        assert verify(KP.public_key, req.transfer_data_hash, resp.signature)

    def test_refuses_block_hash_mismatch(self):
        chain, tx_hash = build_source()
        req = build_request(chain, tx_hash)
        from dataclasses import replace
        bad = replace(req, source_block_hash=blake2b256(b"other-branch"))
        resp = make_signatory(chain).handle_sign_request(bad, tick=10)
        assert (resp.kind, resp.reason) == ("refused", "BlockHashMismatch")

    def test_refuses_insufficient_finality(self):
        chain = Chain(ChainConfig(network_id="alpha", hash_alg="keccak256"))
        adapter = AdapterContract(
            address=ADAPTER, owner=OWNER, relayer=RELAYER.public_key,
            signatories=[KP.public_key], quorum_size=1, transaction_fee=0)
        chain.register_contract(adapter)
        tx = chain.make_transaction(
            sender=ALICE, recipient=ADAPTER,
            payload=encode_request_transfer(
                STORE, encode_function_call("noop()", []), 21000))
        chain.submit_transaction(tx)
        chain.mine_block(tick=1)  # zero confirmations
        req = build_request(chain, tx.tx_hash)
        resp = make_signatory(chain).handle_sign_request(req, tick=2)
        assert (resp.kind, resp.reason) == ("refused", "InsufficientFinality")
        # the same request succeeds once the chain has grown
        for t in range(2, 2 + MINCONF):
            chain.mine_block(tick=t)
        resp = make_signatory(chain).handle_sign_request(req, tick=9)
        assert resp.kind == "signed"

    def test_refuses_unknown_transaction(self):
        chain, tx_hash = build_source()
        req = build_request(chain, tx_hash)
        from dataclasses import replace
        ghost = blake2b256(b"never-mined")
        bad = replace(req, source_transaction_hash=ghost,
                      transfer=replace(req.transfer,
                                       source_transaction_hash=ghost))
        resp = make_signatory(chain).handle_sign_request(bad, tick=10)
        assert (resp.kind, resp.reason) == ("refused", "TxNotFound")

    def test_refuses_orphaned_transaction(self):
        chain, tx_hash = build_source()
        req = build_request(chain, tx_hash)
        chain.inject_reorg(depth=chain.head_number(), drop_txs={tx_hash})
        resp = make_signatory(chain).handle_sign_request(req, tick=10)
        assert resp.kind == "refused"
        assert resp.reason in ("BlockHashMismatch", "TxNotFound")

    def test_refuses_tampered_transfer_data(self):
        chain, tx_hash = build_source()
        req = build_request(chain, tx_hash)
        from dataclasses import replace
        tampered = replace(req.transfer,
                           encoded_function_call=encode_function_call(
                               "setValue(uint128)", [999]))
        bad = replace(req, transfer=tampered,
                      transfer_data_hash=compute_transfer_hash(
                          tampered, DEST_ALG))
        resp = make_signatory(chain).handle_sign_request(bad, tick=10)
        assert (resp.kind, resp.reason) == ("refused", "DataHashMismatch")

    def test_refuses_tampered_digest(self):
        chain, tx_hash = build_source()
        req = build_request(chain, tx_hash)
        from dataclasses import replace
        bad = replace(req, transfer_data_hash=blake2b256(b"wrong"))
        resp = make_signatory(chain).handle_sign_request(bad, tick=10)
        assert (resp.kind, resp.reason) == ("refused", "DataHashMismatch")

    def test_corrupted_view_makes_honest_signatory_sign_fabrication(self):
        # with a lying chain view, honest verification is not enough
        from bridgesim import EventLog, Transaction
        chain, _ = build_source()
        fake_call = encode_function_call("setValue(uint128)", [666])
        fake_tx_hash = blake2b256(b"fabricated")
        fake_tx = Transaction(tx_hash=fake_tx_hash, sender=ALICE,
                              recipient=ADAPTER,
                              payload=b"", value=0, seq=0)
        fake_ev = EventLog(
            emitter=ADAPTER, name="BridgeTransferRequested",
            attributes=(("transferId", (1).to_bytes(8, "big")),
                        ("recipientContract", STORE),
                        ("encodedCall", fake_call),
                        ("gas", (21000).to_bytes(8, "big"))),
            tx_hash=fake_tx_hash, block_number=1)
        corruption = ViewCorruption(
            block_number=1, fake_hash=blake2b256(b"fb"),
            fake_transaction=fake_tx, fake_event=fake_ev)
        from bridgesim import TransferMessage
        m = TransferMessage(
            source_transaction_hash=fake_tx_hash,
            source_adapter_address=ADAPTER, recipient_contract=STORE,
            encoded_function_call=fake_call, gas=21000,
            source_transfer_id=1, source_network_id="alpha")
        req = SigningRequest(
            source_block_number=1, source_block_hash=blake2b256(b"fb"),
            source_transaction_hash=fake_tx_hash,
            transfer_data_hash=compute_transfer_hash(m, DEST_ALG),
            transfer=m)
        signed = make_signatory(chain, corruption=corruption) \
            .handle_sign_request(req, tick=10)
        assert signed.kind == "signed"
        refused = make_signatory(chain).handle_sign_request(req, tick=10)
        assert refused.kind == "refused"


class TestBehaviorModes:
    def test_refuse_is_silent(self):
        chain, tx_hash = build_source()
        req = build_request(chain, tx_hash)
        assert make_signatory(chain, mode="refuse") \
            .handle_sign_request(req, tick=10) is None

    def test_wrong_signature_has_valid_shape_but_fails(self):
        chain, tx_hash = build_source()
        req = build_request(chain, tx_hash)
        resp = make_signatory(chain, mode="wrongSignature") \
            .handle_sign_request(req, tick=10)
        assert resp.kind == "signed"
        assert len(resp.signature) == 64
        assert not verify(KP.public_key, req.transfer_data_hash,
                          resp.signature)

    def test_colluding_signs_anything(self):
        chain, _ = build_source()
        req = SigningRequest(
            source_block_number=999,
            source_block_hash=blake2b256(b"nonsense"),
            source_transaction_hash=blake2b256(b"no-such-tx"),
            transfer_data_hash=blake2b256(b"whatever"),
            transfer=None)
        resp = make_signatory(chain, mode="colluding") \
            .handle_sign_request(req, tick=10)
        assert resp.kind == "signed"
        assert verify(KP.public_key, req.transfer_data_hash, resp.signature)

    def test_unknown_mode_rejected(self):
        chain, _ = build_source()
        with pytest.raises(ValueError):
            make_signatory(chain, mode="lazy")


class TestRateLimiting:
    def test_budget_per_window(self):
        rl = RateLimiter(budget=3, window_ticks=10)
        admitted = [rl.admit(t) for t in range(5)]
        assert admitted == [True, True, True, False, False]
        assert rl.admit(10)  # new window

    def test_flooded_signatory_stops_responding(self):
        chain, tx_hash = build_source()
        req = build_request(chain, tx_hash)
        s = make_signatory(chain, rate_budget=5, rate_window_ticks=1000)
        responses = [s.handle_sign_request(req, tick=10) for _ in range(20)]
        assert sum(r is not None for r in responses) == 5
        assert s.handled == 5
