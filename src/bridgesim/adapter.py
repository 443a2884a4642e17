"""Chain-agnostic adapter contract: egress, quorum-checked ingress, admin.

The adapter is a `ContractHandler` registered on a simulated chain. Its
payloads are tagged canonical byte encodings (helpers below), so adapter
calls are ordinary transactions and hash deterministically. Every decoder
reads through one bounds-checked `_Reader`: a field cut short, or a call
shorter than a selector, reverts MalformedPayload.
"""

from __future__ import annotations

from .chain import DispatchContext, Revert
from .codec import (
    SIGNATURE_LEN,
    TransferMessage,
    compute_transfer_hash,
    verify,
)

TAG_REQUEST = b"REQT"
TAG_PROCESS = b"PROC"
TAG_ADMIN = b"ADMN"


class ConfigError(ValueError):
    pass


# -- payload encodings -------------------------------------------------------

class _Reader:
    """Reads a payload front to back from just past its 4-byte tag."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 4

    def take(self, n: int) -> bytes:
        """The next ``n`` bytes; reverts if the payload ends first."""
        pos = self.pos
        end = self.pos = pos + n
        if end > len(self.data):
            raise Revert("MalformedPayload")
        return self.data[pos:end]

    def uint(self, n: int) -> int:
        return int.from_bytes(self.take(n), "big")

    def call(self) -> bytes:
        """A length-prefixed encoded call; it must carry a selector."""
        call = self.take(self.uint(4))
        if len(call) < 4:
            raise Revert("MalformedPayload")
        return call


def encode_request_transfer(recipient_contract: bytes, encoded_call: bytes,
                            gas: int) -> bytes:
    return (TAG_REQUEST + recipient_contract + gas.to_bytes(8, "big")
            + len(encoded_call).to_bytes(4, "big") + encoded_call)


def decode_request_transfer(payload: bytes) -> tuple[bytes, bytes, int]:
    r = _Reader(payload)
    recipient, gas = r.take(32), r.uint(8)
    return recipient, r.call(), gas


def encode_message(m: TransferMessage) -> bytes:
    nid = m.source_network_id.encode()
    return (m.source_transaction_hash + m.source_adapter_address
            + m.recipient_contract + m.gas.to_bytes(8, "big")
            + m.source_transfer_id.to_bytes(8, "big")
            + len(nid).to_bytes(2, "big") + nid
            + len(m.encoded_function_call).to_bytes(4, "big")
            + m.encoded_function_call)


def encode_signature_bundle(entries: list[tuple[bytes, bytes]]) -> bytes:
    parts = [len(entries).to_bytes(2, "big")]
    for pub, sig in entries:
        parts.append(pub)
        parts.append(len(sig).to_bytes(2, "big"))
        parts.append(sig)
    return b"".join(parts)


def encode_process_transfer(m: TransferMessage,
                            entries: list[tuple[bytes, bytes]]) -> bytes:
    return TAG_PROCESS + encode_message(m) + encode_signature_bundle(entries)


def decode_process_transfer(payload: bytes) -> tuple[TransferMessage, list]:
    r = _Reader(payload)
    try:  # arguments are evaluated in the order written: wire order
        m = TransferMessage(
            source_transaction_hash=r.take(32),
            source_adapter_address=r.take(32),
            recipient_contract=r.take(32),
            gas=r.uint(8),
            source_transfer_id=r.uint(8),
            source_network_id=r.take(r.uint(2)).decode(),
            encoded_function_call=r.call(),
        )
    except UnicodeDecodeError:  # a network id that is not UTF-8
        raise Revert("MalformedPayload") from None
    entries = [(r.take(32), r.take(r.uint(2))) for _ in range(r.uint(2))]
    return m, entries


def encode_admin_set(field: str, value) -> bytes:
    name = field.encode()
    if field == "relayer" or field == "remoteAdapterAddress":
        body = value
    elif field == "transactionFee":
        body = value.to_bytes(8, "big")
    elif field == "authorizedSenders":
        accept_only, senders = value
        body = bytes([1 if accept_only else 0])
        body += len(senders).to_bytes(2, "big") + b"".join(senders)
    elif field == "signatories":
        keys, quorum = value
        body = len(keys).to_bytes(2, "big") + b"".join(keys)
        body += quorum.to_bytes(2, "big")
    else:
        raise ConfigError(f"unknown admin field {field!r}")
    return TAG_ADMIN + bytes([len(name)]) + name + body


def _u64(v: int) -> bytes:
    return v.to_bytes(8, "big")


class AdapterContract:
    """One adapter instance; its state dict is journaled by the chain."""

    def __init__(self, address: bytes, owner: bytes, relayer: bytes,
                 signatories: list[bytes], quorum_size: int,
                 transaction_fee: int, accept_only_authorized: bool = False,
                 authorized_senders: list[bytes] | None = None,
                 remote_adapter: bytes = b"\x00" * 32):
        if quorum_size < 1 or quorum_size > len(signatories):
            raise ConfigError(
                f"quorum {quorum_size} out of bounds for "
                f"{len(signatories)} signatories")
        if transaction_fee < 0:
            raise ConfigError("fee must be non-negative")
        self.address = address
        self.state = {
            "owner": owner,
            "relayer": relayer,
            "signatories": list(signatories),
            "quorum_size": quorum_size,
            "transaction_fee": transaction_fee,
            "accept_only_authorized": accept_only_authorized,
            "authorized_senders": list(authorized_senders or []),
            "remote_adapter": remote_adapter,
            "outbound_nonce": 0,
            "expected_inbound_nonce": 0,
            "processed": {},
            "collected_fees": 0,
        }

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, ctx: DispatchContext, sender: bytes, value: int,
                 payload: bytes) -> None:
        tag = payload[:4]
        if tag == TAG_REQUEST:
            self._request_transfer(ctx, sender, value, payload)
        elif tag == TAG_PROCESS:
            self._process_transfer(ctx, sender, payload)
        elif tag == TAG_ADMIN:
            self._admin_set(ctx, sender, payload)
        else:
            raise Revert("UnknownFunction")

    def _request_transfer(self, ctx, sender, value, payload) -> None:
        st = self.state
        recipient, call, gas = decode_request_transfer(payload)
        if value < st["transaction_fee"]:
            raise Revert("FeeTooLow")
        if st["accept_only_authorized"] and sender not in st["authorized_senders"]:
            raise Revert("Unauthorized")
        refund = value - st["transaction_fee"]
        if refund:
            ctx.transfer(self.address, sender, refund)
        st["collected_fees"] += st["transaction_fee"]
        transfer_id = st["outbound_nonce"]
        st["outbound_nonce"] = transfer_id + 1
        ctx.emit(self.address, "BridgeTransferRequested",
                 request_attributes(transfer_id, recipient, call, gas))

    def _process_transfer(self, ctx, sender, payload) -> None:
        st = self.state
        if sender != st["relayer"]:
            raise Revert("NotRelayer")
        m, entries = decode_process_transfer(payload)
        if not entries:
            raise Revert("InsufficientSignatures")
        prior = st["processed"].get(m.source_transaction_hash)
        if prior is not None:
            ctx.emit(self.address, "AlreadyProcessed", [
                ("sourceTxHash", m.source_transaction_hash),
                ("transferId", _u64(m.source_transfer_id)),
                ("originalBlockNumber", _u64(prior)),
            ])
            return
        if m.source_transfer_id != st["expected_inbound_nonce"]:
            raise Revert("OutOfOrder")
        digest = compute_transfer_hash(m, ctx.chain.config.hash_alg)
        signers: set[bytes] = set()
        for pub, sig in entries:
            if pub not in st["signatories"]:
                raise Revert("InvalidSignature")
            if len(sig) != SIGNATURE_LEN or not verify(pub, digest, sig):
                raise Revert("InvalidSignature")
            signers.add(pub)  # duplicates count once
        if len(signers) < st["quorum_size"]:
            raise Revert("InsufficientSignatures")
        call_status, _ = ctx.call_contract(m.recipient_contract, self.address,
                                           0, m.encoded_function_call)
        st["processed"][m.source_transaction_hash] = ctx.block_number
        st["expected_inbound_nonce"] += 1
        ctx.emit(self.address, "Processed", [
            ("sourceTxHash", m.source_transaction_hash),
            ("transferId", _u64(m.source_transfer_id)),
            ("callStatus", call_status.encode()),
        ])

    def _admin_set(self, ctx, sender, payload) -> None:
        st = self.state
        if sender != st["owner"]:
            raise Revert("NotOwner")
        r = _Reader(payload)
        field = r.take(r.uint(1)).decode(errors="replace")
        if field == "relayer":
            old, new = st["relayer"], r.take(32)
            st["relayer"] = new
        elif field == "remoteAdapterAddress":
            old, new = st["remote_adapter"], r.take(32)
            st["remote_adapter"] = new
        elif field == "transactionFee":
            old, new = _u64(st["transaction_fee"]), r.take(8)
            st["transaction_fee"] = int.from_bytes(new, "big")
        elif field == "authorizedSenders":
            accept_only = bool(r.uint(1))
            senders = [r.take(32) for _ in range(r.uint(2))]
            old = b"".join(st["authorized_senders"])
            st["accept_only_authorized"] = accept_only
            st["authorized_senders"] = senders
            new = b"".join(senders)
        elif field == "signatories":
            keys = [r.take(32) for _ in range(r.uint(2))]
            quorum = r.uint(2)
            if quorum < 1 or quorum > len(keys):
                raise Revert("ConfigError")
            old = b"".join(st["signatories"]) + _u64(st["quorum_size"])
            st["signatories"] = keys
            st["quorum_size"] = quorum
            new = b"".join(keys) + _u64(quorum)
        else:
            raise Revert("ConfigError")
        ctx.emit(self.address, "ConfigChanged", [
            ("field", field.encode()),
            ("oldValue", old),
            ("newValue", new),
        ])


def default_quorum(n_signatories: int) -> int:
    """ceil(2N/3): the intended two-thirds quorum for N signatories."""
    return -(-2 * n_signatories // 3)


def event_attr(event, key: str) -> bytes:
    for k, v in event.attributes:
        if k == key:
            return v
    raise KeyError(key)


def request_attributes(transfer_id: int, recipient: bytes, call: bytes,
                       gas: int) -> tuple:
    """The attributes of a BridgeTransferRequested event, in emit order."""
    return (("transferId", _u64(transfer_id)),
            ("recipientContract", recipient),
            ("encodedCall", call),
            ("gas", _u64(gas)))


def request_event(block, tx_hash: bytes, adapter: bytes):
    """The BridgeTransferRequested event that ``adapter`` emitted in
    ``block`` for transaction ``tx_hash``, or None."""
    for ev in block.events:
        if (ev.tx_hash == tx_hash and ev.name == "BridgeTransferRequested"
                and ev.emitter == adapter):
            return ev
    return None


def message_from_request_event(event, source_tx_hash: bytes,
                               source_adapter: bytes,
                               source_network_id: str) -> TransferMessage:
    """Reconstruct the cross-chain message from a BridgeTransferRequested event."""
    return TransferMessage(
        source_transaction_hash=source_tx_hash,
        source_adapter_address=source_adapter,
        recipient_contract=event_attr(event, "recipientContract"),
        encoded_function_call=event_attr(event, "encodedCall"),
        gas=int.from_bytes(event_attr(event, "gas"), "big"),
        source_transfer_id=int.from_bytes(event_attr(event, "transferId"), "big"),
        source_network_id=source_network_id,
    )
