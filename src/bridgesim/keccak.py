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

A batch is hashed in one packed run (`keccak256_many`), by one rule: every
message takes a slot, every slot absorbs one block per permutation, and a
message's digest is read after its last block; a slot whose message has
ended absorbs zero blocks until the run ends. A batch costs as many
permutations as its longest message has blocks left to absorb.

A block header is one `Sponge`, a message absorbed over several runs. It
is carried whole into its chain's next runs, the next tx batch's and the
next seal's events run (the stage overlap of software pipelining, Lam, PLDI
1988): each run's header slot absorbs the blocks the header (``carry``)
still lacks, one per permutation, and reads its digest after its last. A
hash read before then absorbs what is left at W = 1, so the slot saves
about one W = 1 permutation per block that rides.

`keccak256_many` takes an optional memo from its caller that maps a
message's first 136-byte block to the 25 lanes after one Keccak-f
(precomputing a fixed leading block's chaining state, as HMAC does for its
keyed pads). A message whose first block the memo holds starts its slot
from that state and has one block fewer to absorb; one whose first block it
lacks starts from zero, and its state after the run's first permutation is
stored. A message shorter than one block skips the memo. A memo holds at
most ``FIRST_BLOCK_MEMO_SIZE`` blocks; past that the one stored first is
dropped, and a hit evicts nothing. Each `Chain` keeps one for the tx
preimages it builds (`codec.hash_many` hands it only to keccak): sender,
recipient, payload length and the call's head come first, so a sender's
request txs repeat their first block, and the varying argument, value and
seq fall in the second. Event preimages and block headers hash without
it: a request event's first block holds its ``transferId`` and a header's
its block number, so they never repeat.
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


class Sponge:
    """A message hashed over several packed runs: the blocks of ``padded``
    before byte ``offset`` are absorbed into ``state`` (None: none yet), and
    the run that absorbs its last sets ``digest``. Calling it returns the
    digest, absorbing what is left at W = 1 first."""

    __slots__ = ("padded", "offset", "state", "digest")

    def __init__(self, data: bytes):
        self.padded, self.offset = _pad(data), 0
        self.state = self.digest = None

    def __call__(self) -> bytes:
        if self.digest is None:
            self._finish(_squeeze(list(self.state or _ZERO_STATE),
                                  self.padded, self.offset))
        return self.digest

    def _finish(self, digest: bytes) -> None:
        self.digest, self.padded, self.state = digest, None, None


def keccak256_many(datas, memo=None, carry=None) -> list[bytes]:
    """Keccak-256 digest of each of ``datas``, in order, hashed in one packed
    run: each message takes a slot, every slot absorbs one block per
    permutation, and a message's digest is read after its last block.

    ``memo``, an `OrderedDict` its caller keeps, maps a message's first
    block to the sponge state after it: a message of one block or more
    starts from that state if the memo holds it; otherwise it starts from
    zero and its state after the first permutation is stored, and past
    ``FIRST_BLOCK_MEMO_SIZE`` entries the one stored first is dropped.

    One more slot, the header slot, absorbs the blocks an unfinished
    `Sponge` ``carry`` lacks (a finished one carries nothing), as many as
    the run has permutations, and reads its digest after its last."""
    padded = [_pad(data) for data in datas]
    starts = [None] * len(datas)
    misses = {}  # a first block the memo lacks -> the slot that stores it
    if memo is not None:
        for i, data in enumerate(datas):
            if len(data) >= _RATE:
                first = data[:_RATE]
                if first in memo:
                    starts[i] = memo[first]
                    padded[i] = padded[i][_RATE:]
                else:
                    misses.setdefault(first, i)
    ends = [len(p) // _RATE for p in padded]  # blocks each message absorbs
    run = max(ends, default=0)
    left = 0  # the blocks carry lacks
    if type(carry) is Sponge and carry.digest is None and run:
        left = (len(carry.padded) - carry.offset) // _RATE
        padded.append(carry.padded[carry.offset:carry.offset + run * _RATE])
        starts.append(carry.state)
    w = len(padded)
    slots, top = _slots(w), 128 * (w - 1)  # the header slot's lowest bit
    padded = [p.ljust(run * _RATE, b"\0") for p in padded]
    s = ([int.from_bytes(slots.pack(*lanes), "little")
          for lanes in zip(*[st or _ZERO_STATE for st in starts])]
         if any(starts) else [0] * 25)
    out = [b""] * len(datas)
    for n, off in enumerate(range(0, run * _RATE, _RATE), 1):
        s[:17] = [a ^ int.from_bytes(slots.pack(*lanes), "little")
                  for a, lanes in zip(s, zip(*[_unpack_block(p, off)
                                              for p in padded]))]
        _permute(s, *_width(w))
        if misses and n == 1:
            states = list(zip(*[slots.unpack(x.to_bytes(slots.size, "little"))
                                for x in s]))
            for first, i in misses.items():
                memo[first] = states[i]
                if len(memo) > FIRST_BLOCK_MEMO_SIZE:
                    memo.popitem(last=False)
        if n == left:  # carry's last block: read its digest
            carry._finish(_pack_digest(*[x >> top for x in s[:4]]))
        elif n == run and left > run:  # carry goes on in a later run
            carry.state = tuple(x >> top for x in s)
            carry.offset += run * _RATE
        done = [i for i, blocks in enumerate(ends) if blocks == n]
        if done:
            digests = list(zip(*[slots.unpack(x.to_bytes(slots.size, "little"))
                                 for x in s[:4]]))
            for i in done:
                out[i] = _pack_digest(*digests[i])
    return out
