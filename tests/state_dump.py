"""Canonical text dump of a chain, for state comparisons in tests."""

import json


def dump_state(chain) -> str:
    """Canonical text snapshot of ``chain`` (stable field order)."""
    doc = {
        "network_id": chain.config.network_id,
        "hash_alg": chain.config.hash_alg,
        "head": chain.blocks[-1].number,
        "blocks": [
            {
                "number": b.number,
                "hash": b.block_hash.hex(),
                "parent": b.parent_hash.hex(),
                "tick": b.tick,
                "transactions": [t.tx_hash.hex() for t in b.transactions],
                "events": [
                    {"emitter": e.emitter.hex(), "name": e.name,
                     "attributes": [[k, v.hex()] for k, v in e.attributes]}
                    for e in b.events
                ],
            }
            for b in chain.blocks
        ],
        "balances": {a.hex(): v for a, v in sorted(chain.balances.items())},
        "contracts": {
            addr.hex(): _to_text(c.state)
            for addr, c in sorted(chain.contracts.items())
        },
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def _to_text(value):
    if isinstance(value, (bytes, bytearray)):
        return "0x" + bytes(value).hex()
    if isinstance(value, dict):
        return {(  # byte keys become hex strings
            "0x" + k.hex() if isinstance(k, (bytes, bytearray)) else k
        ): _to_text(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_text(v) for v in value]
    return value
