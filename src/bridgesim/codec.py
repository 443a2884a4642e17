"""Canonical byte encodings, transfer hashing and detached signatures.

Every function here gives the same output for the same input: function-call
encoding with 4-byte selectors, the wire-canonical transfer data hash, and an
Ed25519 sign/verify pair used by signatories and checked by the destination
adapter.

`sign` remembers up to ``SIGNED_MEMO_SIZE`` (public key, digest) ->
signature triples it made; past that bound the entry recorded first is
dropped, and a hit never evicts.
`verify` answers True at once for exactly such a triple of `bytes` and runs
the full Ed25519 check for anything else. Ed25519 signing is deterministic
and a signature made by a key always verifies under that key (a `Keypair`
whose public key is not its signer's is refused), so the memo only ever
answers what the full check would: it makes verdicts cheaper, never
different, and its size is a fixed constant, not a setting.
"""

from __future__ import annotations

import hashlib
import re
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

from cryptography.exceptions import InvalidSignature as _BadSig
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.serialization import Encoding, PublicFormat

from .keccak import Sponge, keccak256, keccak256_many

WORD = 32
SIGNATURE_LEN = 64
SIGNED_MEMO_SIZE = 1 << 15  # holds all 15,000 signatures of 5k transfers

_SIG_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\(([^()]*)\)$")
_ARG_TYPES = {"uint128": 128, "uint64": 64, "address": 256}


class EncodingError(ValueError):
    """Raised for malformed function signatures or arguments."""


def blake2b256(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=32).digest()


HASH_ALGS = {
    "keccak256": keccak256,
    "blake2b256": blake2b256,
}


def hash_bytes(alg: str, data: bytes) -> bytes:
    try:
        return HASH_ALGS[alg](data)
    except KeyError:
        raise EncodingError(f"unknown hash algorithm: {alg}") from None


def hash_many(alg: str, datas: list[bytes], memo=None,
              carry=None) -> list[bytes]:
    """`hash_bytes` of each of ``datas``; keccak hashes them side by side,
    starting each message from its first block's state in ``memo`` (see
    `keccak256_many`) if one is given, with the blocks the header ``carry``
    (from `hash_header`) lacks riding along if it is unfinished. Other
    algorithms ignore ``memo`` and ``carry``."""
    if alg == "keccak256":
        return keccak256_many(datas, memo, carry)
    return [hash_bytes(alg, data) for data in datas]


def hash_header(alg: str, data: bytes):
    """The block hash of header bytes ``data``. Keccak returns it as a
    `Sponge` that rides as ``carry`` in the chain's next `hash_many` runs
    and finishes when called; other algorithms hash it at once."""
    if alg == "keccak256":
        return Sponge(data)
    return hash_bytes(alg, data)


def parse_signature(signature: str) -> tuple[str, list[str]]:
    """Split ``name(type,...)`` into (name, arg types); validates the grammar."""
    m = _SIG_RE.match(signature)
    if m is None:
        raise EncodingError(f"malformed function signature: {signature!r}")
    name, argspec = m.group(1), m.group(2)
    if argspec == "":
        return name, []
    types = [t.strip() for t in argspec.split(",")]
    for t in types:
        if t not in _ARG_TYPES:
            raise EncodingError(f"unsupported argument type {t!r} in {signature!r}")
    return name, types


@lru_cache(maxsize=4096)
def selector(signature: str) -> bytes:
    """First 4 bytes of keccak256 of the signature string.

    Always keccak, independent of the chain's block-hash algorithm.
    """
    parse_signature(signature)
    return keccak256(signature.encode())[:4]


def _encode_word(argtype: str, value) -> bytes:
    bits = _ARG_TYPES[argtype]
    if argtype == "address":
        if not isinstance(value, (bytes, bytearray)) or len(value) != WORD:
            raise EncodingError("address arguments must be 32 bytes")
        return bytes(value)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise EncodingError(f"{argtype} arguments must be non-negative ints")
    if value >= 1 << bits:
        raise EncodingError(f"argument {value} does not fit in {argtype}")
    return value.to_bytes(WORD, "big")


def encode_function_call(signature: str, args: list) -> bytes:
    """selector || one 32-byte big-endian word per argument."""
    _, types = parse_signature(signature)
    if len(args) != len(types):
        raise EncodingError(
            f"{signature} expects {len(types)} args, got {len(args)}"
        )
    out = [selector(signature)]
    for t, a in zip(types, args):
        out.append(_encode_word(t, a))
    return b"".join(out)


def decode_function_call(data: bytes, signatures: list[str]) -> tuple[str, list]:
    """Recover (name, args) given the contract's known signatures."""
    if len(data) < 4:
        raise EncodingError("encoded call shorter than a selector")
    by_selector = {selector(s): s for s in signatures}
    sig = by_selector.get(data[:4])
    if sig is None:
        raise EncodingError(f"unknown selector {data[:4].hex()}")
    name, types = parse_signature(sig)
    body = data[4:]
    if len(body) != WORD * len(types):
        raise EncodingError(f"bad argument length for {sig}")
    args = []
    for i, t in enumerate(types):
        word = body[i * WORD:(i + 1) * WORD]
        args.append(bytes(word) if t == "address" else int.from_bytes(word, "big"))
    return name, args


@dataclass(frozen=True)
class TransferMessage:
    """The cross-chain payload relayed from source to destination."""

    source_transaction_hash: bytes
    source_adapter_address: bytes
    recipient_contract: bytes
    encoded_function_call: bytes
    gas: int
    source_transfer_id: int
    source_network_id: str

    def validate(self) -> None:
        for field in (self.source_transaction_hash, self.source_adapter_address,
                      self.recipient_contract):
            if len(field) != WORD:
                raise EncodingError("hash/address fields must be 32 bytes")
        if len(self.encoded_function_call) < 4:
            raise EncodingError("encoded call must carry a selector")
        if self.gas < 0:
            raise EncodingError("gas must be non-negative")
        if not 0 <= self.source_transfer_id < 1 << 64:
            raise EncodingError("transfer id must fit in 64 bits")


def compute_transfer_hash(m: TransferMessage, alg: str) -> bytes:
    """Digest over the wire-canonical concatenation of all message fields.

    Fixed-width big-endian integers; the network id is appended as raw UTF-8.
    """
    m.validate()
    preimage = (
        m.source_transaction_hash
        + m.source_adapter_address
        + m.recipient_contract
        + m.encoded_function_call
        + m.gas.to_bytes(WORD, "big")
        + m.source_transfer_id.to_bytes(WORD, "big")
        + m.source_network_id.encode()
    )
    return hash_bytes(alg, preimage)


def _raw_public_key(signer: Ed25519PrivateKey) -> bytes:
    return signer.public_key().public_bytes(Encoding.Raw, PublicFormat.Raw)


@dataclass(frozen=True)
class Keypair:
    public_key: bytes
    signer: Ed25519PrivateKey = field(compare=False, repr=False)

    def __post_init__(self) -> None:
        # `verify` trusts what `sign` made with this pair, so the two halves
        # must belong together
        if not (type(self.public_key) is bytes
                and isinstance(self.signer, Ed25519PrivateKey)
                and self.public_key == _raw_public_key(self.signer)):
            raise EncodingError("public_key is not the signer's public key")

    def __repr__(self) -> str:  # keep secrets out of logs
        return f"Keypair(public_key={self.public_key.hex()})"


def keygen(seed: bytes) -> Keypair:
    """Deterministic Ed25519 keypair from a 32-byte seed."""
    if len(seed) != 32:
        raise EncodingError("seed must be 32 bytes")
    priv = Ed25519PrivateKey.from_private_bytes(seed)
    return Keypair(public_key=_raw_public_key(priv), signer=priv)


_signed: OrderedDict[tuple[bytes, bytes], bytes] = OrderedDict()


def sign(keypair: Keypair, digest: bytes) -> bytes:
    if len(digest) != 32:
        raise EncodingError("only 32-byte digests are signed")
    signature = keypair.signer.sign(digest)
    key = (keypair.public_key, bytes(digest))
    _signed[key] = signature
    if len(_signed) > SIGNED_MEMO_SIZE:
        _signed.popitem(last=False)
    return signature


def verify(public_key: bytes, digest: bytes, signature: bytes) -> bool:
    """True iff the signature is valid; malformed input returns False."""
    if (type(public_key) is type(digest) is type(signature) is bytes
            and _signed.get((public_key, digest)) == signature):
        return True
    try:
        if len(digest) != 32:
            return False
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, digest)
        return True
    except (_BadSig, ValueError, TypeError):
        return False
