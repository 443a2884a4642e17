"""Pure-python Keccak-256 (original padding, not NIST SHA3).

Selector and transfer-hash computation need the pre-standardization Keccak
variant used by Ethereum; hashlib only ships the SHA3 padding, so the sponge
is implemented here directly.

`_permute` is Keccak-f[1600] with each round written out in full, the layout
described in the Keccak team's implementation overview and used by the
optimized 64-bit implementations in XKCP. The 25 lanes stay in local variables
``a00``..``a24`` for all 24 rounds; ``aNN`` is lane (x, y) = (NN % 5, NN // 5),
which is also the order in which the sponge absorbs and squeezes lanes. Each
round is:

- theta: column parities ``c0``..``c4`` and ``d[x] = c[x-1] ^ rot(c[x+1], 1)``;
- rho + pi, fused with applying theta: ``b[y + 5*((2x + 3y) % 5)] =
  rot(a[x + 5y] ^ d[x], r[x][y])``. The literal offsets ``r`` are the
  triangular numbers ``(t+1)(t+2)/2 mod 64`` along the pi orbit of lane
  (1, 0), the table in the Keccak reference;
- chi on each plane of ``b``, with iota folded into lane 0.

Writing the round out keeps every lane index and offset a literal. That
makes a one-block hash about 1.5x faster than the same round driven by
index tables, and about 2x faster than one that computes the offsets while
it runs.

Chi uses the overview's lane complementing transform (XKCP's
"Bebigokimisa" pattern): lanes 1, 2, 8, 12, 17 and 20 are held complemented
from load to store. Theta, rho and pi are linear, so the complements pass
through them as flags, and with this pattern the NOT of most chi outputs
``b0 ^ (~b1 & b2)`` cancels into ``b0 ^ (b1 | b2)`` or ``b0 ^ (b1 & b2)``;
a round needs 8 NOTs instead of 25, and the pattern it stores is the one it
loaded. Every NOT is written ``x ^ mask``, never ``~x``: ``~x`` is a negative
Python int, ``&`` with a negative int takes a slower path than with two
non-negative ones, and ``~b & c`` costs about twice ``b | c`` (64-bit lanes,
CPython 3.11).

`keccak256_many` runs W sponges through the same round at once (SIMD within
a register: the overview's parallel instances, XKCP's ``KeccakP-1600-times4``).
Each variable packs one lane of every message into a Python int, message k's
at bits ``[128k, 128k+64)`` with 64 zero bits above; Python's cost per
operation is mostly fixed, so W = 4 costs little more than W = 1. The
rotation ``(x << r | x >> 64-r) & mask``, ``mask`` holding the 64 one bits
of every slot, stays exact in each slot: a shift moves bits by less than 64,
so those that leave a slot land in a zero gap, never in another lane, and
the mask clears them. XOR, AND and OR of lanes with zero gaps have zero
gaps, and so does a NOT, because ``^ mask`` flips only the 64 bits of each
slot; iota XORs the round constant repeated in every slot. At W = 1 this is
the scalar round. A packed lane is absorbed as one ``struct`` pack of its W
lanes, each followed by 8 zero bytes (``"<" + "Q8x" * W``), and a digest
lane is read back with the same format.

`keccak256_after` hashes a batch and then a header: a prefix followed by
the batch's digests, as a block hash covers its tx and event hashes. The
prefix's whole blocks are known before any digest is, so they ride in one
more slot of the longest group's packed permutations, one block per
permutation, and the header sponge goes on from that slot at W = 1. A
slot costs little next to a permutation, so each ridden block saves about
one W = 1 permutation.

`keccak256_many` takes an optional memo from its caller that maps a
message's first 136-byte block to the 25 lanes after one Keccak-f
(precomputing a fixed leading block's chaining state, as HMAC does for its
keyed pads). The first blocks it lacks are absorbed as one packed group
and stored; then every message runs only its remaining blocks, packed,
from its state. A message shorter than one block skips the memo. A memo
holds at most ``FIRST_BLOCK_MEMO_SIZE`` blocks; past that the one stored
first is dropped, and a hit evicts nothing. Each `Chain` keeps one for the
tx preimages it builds (`codec.hash_many` hands it only to keccak): sender,
recipient, payload length and the call's head come first, so a sender's
request txs repeat their first block, and the varying argument, value and
seq fall in the second. Event preimages and block headers hash without
it: a request event's first block holds its ``transferId`` and a header's
its block number, so they never repeat, and a header's first blocks
already ride in the events' permutations.
"""

import struct
from functools import lru_cache
from operator import xor

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
    0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
    0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

_M = (1 << 64) - 1
_RATE = 136  # bytes, for capacity 512
_unpack_block = struct.Struct("<17Q").unpack_from  # the 17 rate lanes
_pack_digest = struct.Struct("<4Q").pack  # the first 4 lanes, 32 bytes
_ZERO_STATE = (0,) * 25
FIRST_BLOCK_MEMO_SIZE = 256  # first blocks kept by one `keccak256_many` memo


def _permute(s: list, mask: int = _M, rcs: tuple = _ROUND_CONSTANTS) -> None:
    """Keccak-f[1600] on ``s`` (25 lanes, lane x + 5*y at index x + 5*y), in place.

    ``mask`` and ``rcs`` are those of `_width`; the defaults permute one state.
    ``s`` holds plain lanes before and after: the complemented ones are
    complemented on load and again on store.
    """
    (a00, a01, a02, a03, a04,
     a05, a06, a07, a08, a09,
     a10, a11, a12, a13, a14,
     a15, a16, a17, a18, a19,
     a20, a21, a22, a23, a24) = s
    a01 ^= mask
    a02 ^= mask
    a08 ^= mask
    a12 ^= mask
    a17 ^= mask
    a20 ^= mask
    for rc in rcs:
        # theta
        c0 = a00 ^ a05 ^ a10 ^ a15 ^ a20
        c1 = a01 ^ a06 ^ a11 ^ a16 ^ a21
        c2 = a02 ^ a07 ^ a12 ^ a17 ^ a22
        c3 = a03 ^ a08 ^ a13 ^ a18 ^ a23
        c4 = a04 ^ a09 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ ((c1 << 1 | c1 >> 63) & mask)
        d1 = c0 ^ ((c2 << 1 | c2 >> 63) & mask)
        d2 = c1 ^ ((c3 << 1 | c3 >> 63) & mask)
        d3 = c2 ^ ((c4 << 1 | c4 >> 63) & mask)
        d4 = c3 ^ ((c0 << 1 | c0 >> 63) & mask)
        # rho + pi, applying theta's d on the way
        b00 = a00 ^ d0
        b01 = ((t := a06 ^ d1) << 44 | t >> 20) & mask
        b02 = ((t := a12 ^ d2) << 43 | t >> 21) & mask
        b03 = ((t := a18 ^ d3) << 21 | t >> 43) & mask
        b04 = ((t := a24 ^ d4) << 14 | t >> 50) & mask
        b05 = ((t := a03 ^ d3) << 28 | t >> 36) & mask
        b06 = ((t := a09 ^ d4) << 20 | t >> 44) & mask
        b07 = ((t := a10 ^ d0) << 3 | t >> 61) & mask
        b08 = ((t := a16 ^ d1) << 45 | t >> 19) & mask
        b09 = ((t := a22 ^ d2) << 61 | t >> 3) & mask
        b10 = ((t := a01 ^ d1) << 1 | t >> 63) & mask
        b11 = ((t := a07 ^ d2) << 6 | t >> 58) & mask
        b12 = ((t := a13 ^ d3) << 25 | t >> 39) & mask
        b13 = ((t := a19 ^ d4) << 8 | t >> 56) & mask
        b14 = ((t := a20 ^ d0) << 18 | t >> 46) & mask
        b15 = ((t := a04 ^ d4) << 27 | t >> 37) & mask
        b16 = ((t := a05 ^ d0) << 36 | t >> 28) & mask
        b17 = ((t := a11 ^ d1) << 10 | t >> 54) & mask
        b18 = ((t := a17 ^ d2) << 15 | t >> 49) & mask
        b19 = ((t := a23 ^ d3) << 56 | t >> 8) & mask
        b20 = ((t := a02 ^ d2) << 62 | t >> 2) & mask
        b21 = ((t := a08 ^ d3) << 55 | t >> 9) & mask
        b22 = ((t := a14 ^ d4) << 39 | t >> 25) & mask
        b23 = ((t := a15 ^ d0) << 41 | t >> 23) & mask
        b24 = ((t := a21 ^ d1) << 2 | t >> 62) & mask
        # chi on the complemented lanes, with iota on lane 0
        a00 = b00 ^ (b01 | b02) ^ rc
        a01 = b01 ^ ((b02 ^ mask) | b03)
        a02 = b02 ^ (b03 & b04)
        a03 = b03 ^ (b04 | b00)
        a04 = b04 ^ (b00 & b01)
        a05 = b05 ^ (b06 | b07)
        a06 = b06 ^ (b07 & b08)
        a07 = b07 ^ (b08 | (b09 ^ mask))
        a08 = b08 ^ (b09 | b05)
        a09 = b09 ^ (b05 & b06)
        a10 = b10 ^ (b11 | b12)
        a11 = b11 ^ (b12 & b13)
        a12 = b12 ^ ((b13 ^ mask) & b14)
        a13 = b13 ^ (b14 | b10) ^ mask
        a14 = b14 ^ (b10 & b11)
        a15 = b15 ^ (b16 & b17)
        a16 = b16 ^ (b17 | b18)
        a17 = b17 ^ ((b18 ^ mask) | b19)
        a18 = b18 ^ (b19 & b15) ^ mask
        a19 = b19 ^ (b15 | b16)
        a20 = b20 ^ ((b21 ^ mask) & b22)
        a21 = b21 ^ (b22 | b23) ^ mask
        a22 = b22 ^ (b23 & b24)
        a23 = b23 ^ (b24 | b20)
        a24 = b24 ^ (b20 & b21)
    s[:] = (a00, a01 ^ mask, a02 ^ mask, a03, a04,
            a05, a06, a07, a08 ^ mask, a09,
            a10, a11, a12 ^ mask, a13, a14,
            a15, a16, a17 ^ mask, a18, a19,
            a20 ^ mask, a21, a22, a23, a24)


def _pad(data: bytes) -> bytes:
    """``data`` with the 0x01 domain padding, a whole number of blocks."""
    pad = _RATE - (len(data) % _RATE)
    return data + (b"\x81" if pad == 1 else b"\x01" + bytes(pad - 2) + b"\x80")


def _squeeze(s: list, padded: bytes, start: int = 0) -> bytes:
    """Absorb the blocks of ``padded`` from byte ``start`` into the one state
    ``s``; the digest."""
    for off in range(start, len(padded), _RATE):
        s[:17] = map(xor, s, _unpack_block(padded, off))
        _permute(s)
    return _pack_digest(*s[:4])


def keccak256(data: bytes) -> bytes:
    """Keccak-256 digest of ``data`` (0x01 domain padding)."""
    return _squeeze([0] * 25, _pad(data))


@lru_cache(maxsize=None)
def _width(w: int) -> tuple[int, tuple]:
    """(lane mask, round constants) for ``w`` states packed 128 bits apart."""
    spread = sum(1 << 128 * k for k in range(w))
    return _M * spread, tuple(rc * spread for rc in _ROUND_CONSTANTS)


@lru_cache(maxsize=None)
def _slots(w: int) -> struct.Struct:
    """``w`` lanes, each followed by its 8-byte zero gap: one packed lane."""
    return struct.Struct("<" + "Q8x" * w)


def _first_block_states(datas, memo) -> list:
    """For each of ``datas``, the sponge state (a 25-tuple) after its first
    block, or None for a message shorter than one block. The first blocks
    not in ``memo`` are absorbed side by side in one packed permutation, and
    their states stored; past ``FIRST_BLOCK_MEMO_SIZE`` entries the one
    stored first is dropped."""
    firsts = [data[:_RATE] if len(data) >= _RATE else None for data in datas]
    states = {f: memo[f] for f in firsts if f in memo}
    new = list(dict.fromkeys(f for f in firsts
                             if f is not None and f not in states))
    if new:
        w = len(new)
        mask, rcs = _width(w)
        slots = _slots(w)
        s = [int.from_bytes(slots.pack(*lanes), "little")
             for lanes in zip(*map(_unpack_block, new))] + [0] * 8
        _permute(s, mask, rcs)
        lanes = [slots.unpack(x.to_bytes(16 * w, "little")) for x in s]
        for f, state in zip(new, zip(*lanes)):
            states[f] = memo[f] = state
            if len(memo) > FIRST_BLOCK_MEMO_SIZE:
                memo.popitem(last=False)
    return [f and states[f] for f in firsts]


def _hash_groups(datas, out, prefix: bytes = b"",
                 memo=None) -> tuple[list | None, int]:
    """Write the digest of each of ``datas`` to ``out``. Messages with the
    same number of blocks left to absorb are hashed side by side, one packed
    permutation per block; a message alone at its length is hashed at W = 1.

    With a ``memo`` (see `keccak256_many`), a message of one block or more
    starts from its first block's state and has one block fewer left.
    The whole blocks at the start of ``prefix`` ride in the longest group, in
    one more slot, for as many blocks as that group has; a batch hashed
    through a memo takes no prefix. Returns that slot's state after its
    last block and the number of blocks it absorbed (None and 0 if none
    rode)."""
    starts = ([None] * len(datas) if memo is None
              else _first_block_states(datas, memo))
    groups: dict[int, list[int]] = {}
    for i, data in enumerate(datas):
        left = len(data) // _RATE - (starts[i] is not None)
        groups.setdefault(left, []).append(i)
    rider = max(groups) if groups and len(prefix) >= _RATE else -1
    head, rode = None, 0
    for blocks, idx in groups.items():
        started = [starts[i] for i in idx]
        padded = [_pad(datas[i])[_RATE if st else 0:]
                  for i, st in zip(idx, started)]
        if blocks == rider:
            rode = min(len(prefix) // _RATE, blocks + 1)
            padded.append(prefix[:rode * _RATE].ljust(len(padded[0]), b"\0"))
        elif len(idx) == 1:
            st = started[0]
            out[idx[0]] = (_squeeze(list(st), padded[0]) if st
                           else keccak256(datas[idx[0]]))
            continue
        w = len(padded)
        mask, rcs = _width(w)
        slots = _slots(w)
        s = [0] * 25
        if any(started):
            s = [int.from_bytes(slots.pack(*lanes), "little")
                 for lanes in zip(*[st or _ZERO_STATE for st in started])]
        for n, off in enumerate(range(0, len(padded[0]), _RATE), 1):
            s[:17] = [a ^ int.from_bytes(slots.pack(*lanes), "little")
                      for a, lanes in zip(s, zip(*[_unpack_block(p, off)
                                                  for p in padded]))]
            _permute(s, mask, rcs)
            if n == rode and blocks == rider:
                top = 128 * (w - 1)  # the rider's slot, with no bits above
                head = [x >> top for x in s]
        digests = [slots.unpack(x.to_bytes(16 * w, "little")) for x in s[:4]]
        for i, lanes in zip(idx, zip(*digests)):
            out[i] = _pack_digest(*lanes)
    return head, rode


def keccak256_many(datas, memo=None) -> list[bytes]:
    """Keccak-256 digest of each of ``datas``, in order. ``memo``, an
    `OrderedDict` its caller keeps, maps a message's first block to the
    sponge state after it, so a batch whose messages repeat an earlier
    first block skips that block's permutation."""
    out = [b""] * len(datas)
    _hash_groups(datas, out, memo=memo)
    return out


def keccak256_after(prefix: bytes, datas) -> tuple[list[bytes], bytes]:
    """``(digests, header)``: ``digests`` is `keccak256_many` of ``datas`` and
    ``header`` the Keccak-256 of ``prefix`` followed by those digests. The
    header's first whole blocks come from ``prefix`` alone, so they are
    absorbed in the digests' packed permutations; the rest at W = 1."""
    out = [b""] * len(datas)
    head, rode = _hash_groups(datas, out, prefix)
    header = prefix + b"".join(out)
    if not rode:
        return out, keccak256(header)
    return out, _squeeze(head, _pad(header), rode * _RATE)
