"""Causality oracle, on hand-built ground truth."""

from bridgesim import (
    AdapterContract,
    CausalityViolation,
    Chain,
    ChainConfig,
    StorageContract,
    TransferMessage,
    blake2b256,
    causality_oracle,
    compute_transfer_hash,
    default_quorum,
    encode_function_call,
    keygen,
    sign,
)
from bridgesim.adapter import (
    encode_process_transfer,
    encode_request_transfer,
)

OWNER = blake2b256(b"acct:owner")
ALICE = blake2b256(b"acct:alice")
SRC_ADAPTER = blake2b256(b"contract:src-adapter")
DST_ADAPTER = blake2b256(b"contract:dst-adapter")
STORE = blake2b256(b"contract:store")
MIMIC = blake2b256(b"contract:mimic")
RELAYER = keygen(b"\x31" * 32)
SIGNER = keygen(b"\x32" * 32)


class ProcessedMimic:
    """Emits an event named Processed under the dest adapter's address from
    any call: an event the oracle would read, from a tx that is no
    processTransfer call."""

    address = MIMIC

    def __init__(self):
        self.state = {}

    def dispatch(self, ctx, sender, value, payload) -> None:
        ctx.emit(DST_ADAPTER, "Processed",
                 [("transferId", (0).to_bytes(32, "big"))])


def build_pair():
    source = Chain(ChainConfig(network_id="alpha", hash_alg="keccak256"))
    dest = Chain(ChainConfig(network_id="beta", hash_alg="blake2b256"))
    for chain, adapter_addr in ((source, SRC_ADAPTER), (dest, DST_ADAPTER)):
        chain.register_contract(AdapterContract(
            address=adapter_addr, owner=OWNER, relayer=RELAYER.public_key,
            signatories=[SIGNER.public_key], quorum_size=1,
            transaction_fee=0))
        chain.register_contract(StorageContract(STORE))
    return source, dest


def request_on_source(source, arg=5):
    tx = source.make_transaction(
        sender=ALICE, recipient=SRC_ADAPTER,
        payload=encode_request_transfer(
            STORE, encode_function_call("setValue(uint128)", [arg]), 21000))
    source.submit_transaction(tx)
    source.mine_block(tick=source.head_number() + 1)
    return tx


def message_for(tx, transfer_id=0, arg=5, gas=21000):
    return TransferMessage(
        source_transaction_hash=tx.tx_hash if tx is not None
        else blake2b256(b"invented"),
        source_adapter_address=SRC_ADAPTER,
        recipient_contract=STORE,
        encoded_function_call=encode_function_call("setValue(uint128)", [arg]),
        gas=gas,
        source_transfer_id=transfer_id,
        source_network_id="alpha",
    )


def process_on_dest(dest, m):
    digest = compute_transfer_hash(m, dest.config.hash_alg)
    payload = encode_process_transfer(
        m, [(SIGNER.public_key, sign(SIGNER, digest))])
    tx = dest.make_transaction(sender=RELAYER.public_key,
                               recipient=DST_ADAPTER, payload=payload)
    dest.submit_transaction(tx)
    dest.mine_block(tick=dest.head_number() + 1)
    return tx


def audit(source, dest):
    return causality_oracle(source, dest, DST_ADAPTER, SRC_ADAPTER)


class TestCausalityOracle:
    def test_clean_delivery_passes(self):
        source, dest = build_pair()
        tx = request_on_source(source)
        process_on_dest(dest, message_for(tx))
        assert audit(source, dest) == []

    def test_invented_transfer_is_no_source_request(self):
        source, dest = build_pair()
        process_on_dest(dest, message_for(None))
        violations = audit(source, dest)
        assert len(violations) == 1
        assert violations[0].reason == "noSourceRequest"
        assert violations[0].transfer_id == 0

    def test_canonical_tx_without_request_is_no_source_request(self):
        # a quorum-signed processTransfer cites a canonical source tx that
        # is a plain contract call: the adapter never saw a request
        source, dest = build_pair()
        tx = source.make_transaction(
            sender=ALICE, recipient=STORE, value=3,
            payload=encode_function_call("setValue(uint128)", [5]))
        source.submit_transaction(tx)
        source.mine_block(tick=1)
        assert source.get_receipt(tx.tx_hash).status == "ok"
        assert source.get_transaction(tx.tx_hash) is not None  # canonical
        process_on_dest(dest, message_for(tx))
        violations = audit(source, dest)
        assert [(v.transfer_id, v.reason) for v in violations] == [
            (0, "noSourceRequest")]

    def test_payload_mismatch(self):
        source, dest = build_pair()
        tx = request_on_source(source, arg=5)
        process_on_dest(dest, message_for(tx, arg=999))  # call was rewritten
        violations = audit(source, dest)
        assert [v.reason for v in violations] == ["payloadMismatch"]

    def test_gas_mismatch_is_payload_mismatch(self):
        source, dest = build_pair()
        tx = request_on_source(source)
        process_on_dest(dest, message_for(tx, gas=1))
        assert [v.reason for v in audit(source, dest)] == ["payloadMismatch"]

    def test_orphaned_request_detected_after_reorg(self):
        source, dest = build_pair()
        tx = request_on_source(source)
        process_on_dest(dest, message_for(tx))
        assert audit(source, dest) == []
        source.inject_reorg(depth=1, drop_txs={tx.tx_hash})
        violations = audit(source, dest)
        assert [v.reason for v in violations] == ["sourceRequestOrphaned"]

    def test_replayed_request_after_reorg_stays_clean(self):
        source, dest = build_pair()
        tx = request_on_source(source)
        process_on_dest(dest, message_for(tx))
        source.inject_reorg(depth=1)  # replayed, still canonical
        assert audit(source, dest) == []

    def test_oracle_ignores_non_processed_events(self):
        source, dest = build_pair()
        request_on_source(source)  # request alone is not a delivery
        assert audit(source, dest) == []

    def test_violation_points_at_dest_block(self):
        source, dest = build_pair()
        dest.mine_block(tick=1)
        dest.mine_block(tick=2)
        tx = process_on_dest(dest, message_for(None))
        v = audit(source, dest)[0]
        assert v.dest_block_number == dest.tx_index[tx.tx_hash]
        assert v.dest_tx_hash == tx.tx_hash

    def test_processed_event_of_a_tx_that_is_no_process_call_is_skipped(self):
        # the mimic's tx carries no transfer, so the oracle passes its
        # Processed event by instead of decoding the call as a delivery,
        # and goes on to check the invented delivery after it
        source, dest = build_pair()
        dest.register_contract(ProcessedMimic())
        tx = dest.make_transaction(sender=ALICE, recipient=MIMIC,
                                   payload=b"not a process call")
        dest.submit_transaction(tx)
        dest.mine_block(tick=1)
        assert [(e.emitter, e.name) for e in dest.blocks[1].events] == [
            (DST_ADAPTER, "Processed")]
        assert audit(source, dest) == []
        process_on_dest(dest, message_for(None))
        assert [(v.dest_block_number, v.reason)
                for v in audit(source, dest)] == [(2, "noSourceRequest")]
