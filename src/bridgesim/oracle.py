"""Independent cross-chain causality auditing.

The oracle reads only ground-truth chain stores (canonical lists plus every
block made, orphans included). It never consults the bridge, the signatories,
or any adapter's live state, so deleting every protocol actor after a run
does not change its verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adapter import (
    TAG_PROCESS,
    decode_process_transfer,
    message_from_request_event,
    request_event,
)
from .chain import Chain, EventLog


@dataclass(frozen=True)
class CausalityViolation:
    dest_block_number: int
    dest_tx_hash: bytes
    transfer_id: int
    reason: str


def _request_matches(ev: EventLog | None, m) -> bool:
    """Whether request event ``ev`` carries the payload ``m`` delivered."""
    return ev is not None and message_from_request_event(
        ev, m.source_transaction_hash, m.source_adapter_address,
        m.source_network_id) == m


def causality_oracle(source_chain: Chain, dest_chain: Chain,
                     dest_adapter: bytes,
                     source_adapter: bytes) -> list[CausalityViolation]:
    """Check every destination Processed event against source ground truth."""
    violations = []
    for block in dest_chain.blocks:
        for ev in block.events:
            if ev.emitter != dest_adapter or ev.name != "Processed":
                continue
            m = _decode_processed_message(block, ev)
            if m is None:
                continue
            reason = _classify(source_chain, source_adapter, m)
            if reason is not None:
                violations.append(CausalityViolation(
                    dest_block_number=block.number,
                    dest_tx_hash=ev.tx_hash,
                    transfer_id=m.source_transfer_id,
                    reason=reason,
                ))
    return violations


def _decode_processed_message(block, ev: EventLog):
    for tx in block.transactions:
        if tx.tx_hash == ev.tx_hash and tx.payload[:4] == TAG_PROCESS:
            m, _ = decode_process_transfer(tx.payload)
            return m
    return None


def _classify(source_chain: Chain, source_adapter: bytes, m) -> str | None:
    # canonical source request with fully matching payload?
    found = source_chain.get_transaction(m.source_transaction_hash)
    if found is not None:
        ev = request_event(source_chain.blocks[found[1]],
                           m.source_transaction_hash, source_adapter)
        if ev is None:
            return "noSourceRequest"
        return None if _request_matches(ev, m) else "payloadMismatch"
    # not canonical: was it in a block since replaced at its number?
    for block in source_chain.all_blocks:
        if source_chain.blocks[block.number] is not block and _request_matches(
                request_event(block, m.source_transaction_hash,
                              source_adapter), m):
            return "sourceRequestOrphaned"
    return "noSourceRequest"
