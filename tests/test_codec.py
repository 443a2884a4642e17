"""Hashing, call encoding and signature primitives."""

import hashlib
import pathlib
import random
from collections import OrderedDict

import pytest
from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgesim import (
    EncodingError,
    Keypair,
    TransferMessage,
    blake2b256,
    compute_transfer_hash,
    encode_function_call,
    keccak256,
    keygen,
    sign,
    verify,
)
from bridgesim.codec import (
    SIGNATURE_LEN,
    SIGNED_MEMO_SIZE,
    decode_function_call,
    hash_bytes,
    hash_header,
    hash_many,
    parse_signature,
    selector,
)

from bridgesim import keccak
from bridgesim.keccak import (
    _M,
    _RATE,
    _permute,
    _width,
    Sponge,
    keccak256_many,
)

from keccak_ref import _keccak_f, keccak256_ref

VECTORS = pathlib.Path(__file__).parent.parent / "vectors" / "hash_vectors.txt"

# frozen from the independent reference implementation
KNOWN_SELECTORS = {
    "setValue(uint128)": "62eb702a",
    "noop()": "5dfc2e4a",
    "mint(address,uint128)": "be29184f",
    "burn(address,uint128)": "7261e469",
}


def _message(**overrides) -> TransferMessage:
    fields = dict(
        source_transaction_hash=bytes(range(32)),
        source_adapter_address=bytes(32),
        recipient_contract=b"\x11" * 32,
        encoded_function_call=encode_function_call("setValue(uint128)", [7]),
        gas=21000,
        source_transfer_id=3,
        source_network_id="alpha",
    )
    fields.update(overrides)
    return TransferMessage(**fields)


class TestHashes:
    def test_published_keccak_vectors(self):
        assert keccak256(b"").hex() == (
            "c5d2460186f7233c927e7db2dcc703c0"
            "e500b653ca82273b7bfad8045d85a470")
        assert keccak256(b"abc").hex() == (
            "4e03657aea45a94fc7d47ba826c8d667"
            "c0d1e6e33a64a036ec44f58fa12d6c45")

    def test_published_blake2b_vector(self):
        assert blake2b256(b"").hex() == (
            "0e5751c026e543b2e8ab2eb06099daa1"
            "d1e5df47778f7787faab45cdf12fe3a8")

    def test_vector_file(self):
        alg = None
        checked = 0
        for line in VECTORS.read_text().splitlines():
            if line.startswith("#"):
                alg = line[1:].strip()
                continue
            if not line.strip():
                continue
            inp, _, digest = line.partition("->")
            assert hash_bytes(alg, bytes.fromhex(inp.strip())).hex() == \
                digest.strip()
            checked += 1
        assert checked >= 20

    def test_keccak_matches_reference_across_block_boundaries(self):
        # every length up to 3 blocks + 1: covers the one-byte pad (0x81) at
        # length 135 mod 136 and inputs that absorb 2, 3 and 4 blocks
        rng = random.Random(1)
        for n in [*range(3 * 136 + 2), 1000]:
            data = rng.randbytes(n)
            assert keccak256(data) == keccak256_ref(data), n

    def test_permutation_matches_reference(self):
        rng = random.Random(2)
        for _ in range(5):
            lanes = [rng.getrandbits(64) for _ in range(25)]
            # the reference indexes lane x + 5*y as a[x][y]
            expected = _keccak_f([[lanes[x + 5 * y] for y in range(5)]
                                  for x in range(5)])
            _permute(lanes)
            assert lanes == [expected[i % 5][i // 5] for i in range(25)]

    @pytest.mark.parametrize("w", [2, 5, 16])
    def test_packed_permutation_matches_scalar(self, w):
        rng = random.Random(w)
        states = [[rng.getrandbits(64) for _ in range(25)] for _ in range(w)]
        packed = [sum(s[i] << 128 * k for k, s in enumerate(states))
                  for i in range(25)]
        _permute(packed, *_width(w))
        for s in states:
            _permute(s)
        assert packed == [sum(s[i] << 128 * k for k, s in enumerate(states))
                          for i in range(25)]

    @pytest.mark.parametrize("w", [1, 2, 5, 17])
    def test_permutation_edge_states(self, w):
        # states random lanes rarely reach: all ones, all zeros, and one set
        # bit at each end of each lane. Packed, the edge state sits in every
        # even slot (the lowest and, at odd w, the highest) and each odd slot
        # is all ones, so a NOT or a mask that leaks shows in the gaps
        ones = [_M] * 25
        edges = [ones, [0] * 25] + [
            [1 << bit if i == lane else 0 for i in range(25)]
            for lane in range(25) for bit in (0, 63)]
        mask, rcs = _width(w)
        for edge in edges:
            states = [edge if k % 2 == 0 else ones for k in range(w)]
            packed = [sum(s[i] << 128 * k for k, s in enumerate(states))
                      for i in range(25)]
            _permute(packed, mask, rcs)
            expected = [_keccak_f([[s[x + 5 * y] for y in range(5)]
                                   for x in range(5)]) for s in states]
            assert packed == [sum(e[i % 5][i // 5] << 128 * k
                                  for k, e in enumerate(expected))
                              for i in range(25)]
            assert all(lane >= 0 and lane & ~mask == 0 for lane in packed)

    @given(st.lists(
        st.one_of(st.sampled_from([0, 1, 135, 136, 271, 272]),
                  st.integers(0, 700)).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)),
        max_size=20))
    @example([b"\x01" * n for n in (135, 136, 271, 272, 135, 700, 272, 0)])
    @settings(max_examples=100, deadline=None)
    def test_keccak_many_matches_one_at_a_time(self, datas):
        # ragged batches: messages of mixed padded lengths in one run
        assert keccak256_many(datas) == [keccak256(d) for d in datas]

    @pytest.mark.parametrize("size", [0, 120, 136, 137, 248, 376, 408])
    def test_header_after_digests_matches_reference(self, size):
        # a keccak header of 1-4 blocks carried through zero, one or two
        # runs of 1-3 permutations, each absorbing as many of its blocks as
        # it has permutations, then read
        rng = random.Random(size)
        header = rng.randbytes(size)
        blocks = size // _RATE + 1
        for runs in ([], [[56]], [[200]], [[300, 56]], [[56], [200]],
                     [[200, 56], [300]], [[300], [300]]):
            sponge = hash_header("keccak256", header)
            assert type(sponge) is Sponge
            absorbed = 0
            for sizes in runs:
                datas = [rng.randbytes(n) for n in sizes]
                assert keccak256_many(datas, carry=sponge) == [
                    keccak256_ref(d) for d in datas]
                absorbed = min(blocks, absorbed + max(
                    n // _RATE + 1 for n in sizes))
                if absorbed < blocks:
                    assert sponge.digest is None
                    assert sponge.offset == absorbed * _RATE
                else:
                    assert sponge.digest == keccak256_ref(header)
            assert sponge() == keccak256_ref(header), (size, runs)
            # a finished header carries nothing into a later run
            assert keccak256_many([b"x"], carry=sponge) == [
                keccak256_ref(b"x")]

    def test_header_after_digests_blake2b(self):
        datas = [b"a" * 200, b"b" * 56]
        # no runs to ride: the header is hashed at once
        header = hash_header("blake2b256", b"p" * 152)
        assert header == blake2b256(b"p" * 152)
        assert hash_many("blake2b256", datas, carry=header) == [
            blake2b256(d) for d in datas]
        assert hash_many("blake2b256", datas, carry=Sponge(b"x")) == [
            blake2b256(d) for d in datas]

    def test_blake2b_is_stdlib(self):
        data = b"cross-check"
        assert blake2b256(data) == hashlib.blake2b(data, digest_size=32).digest()

    def test_unknown_alg(self):
        with pytest.raises(EncodingError):
            hash_bytes("sha256", b"")


@pytest.fixture
def permutations(monkeypatch):
    """Counts Keccak-f calls, at any width."""
    count = [0]

    def counted(*args):
        count[0] += 1
        return _permute(*args)

    monkeypatch.setattr(keccak, "_permute", counted)
    return count


class TestFirstBlockMemo:
    """`keccak256_many` with a memo starts a message of one block or more from
    its first block's remembered state; every digest must be the reference's."""

    HEADS = [random.Random(i).randbytes(_RATE) for i in range(5)]

    @pytest.mark.parametrize("size", [136, 137, 200, 272, 408])
    def test_block_boundary_lengths_cold_and_warm(self, size, permutations):
        rng = random.Random(size)
        datas = [head + rng.randbytes(size - _RATE)
                 for head in self.HEADS[:3] for _ in range(2)]
        expected = [keccak256_ref(d) for d in datas]
        memo = OrderedDict()
        assert keccak256_many(datas, memo) == expected
        assert list(memo) == self.HEADS[:3]
        cold, permutations[0] = permutations[0], 0
        assert keccak256_many(datas, memo) == expected
        # warm: the first block of each message costs no permutation
        assert (cold, permutations[0]) == (size // _RATE + 1, size // _RATE)

    def test_all_some_or_no_first_blocks_remembered(self, permutations):
        rng = random.Random(1)
        a, b, c, d, e = self.HEADS
        memo = OrderedDict()
        keccak256_many([a + rng.randbytes(60), b + rng.randbytes(60)], memo)
        other = rng.randbytes(300)  # a first block seen once
        batches = {
            "all": [a + rng.randbytes(60), b + rng.randbytes(60),
                    a + rng.randbytes(1)],
            "some": [a + rng.randbytes(60), c + rng.randbytes(60),
                     b + rng.randbytes(200)],
            "none": [d + rng.randbytes(60), e + rng.randbytes(60)],
            # one-block messages skip the memo but share the run with
            # messages of up to three blocks left after their first
            "mixed": [rng.randbytes(56), a, c + rng.randbytes(300),
                      rng.randbytes(135), d + rng.randbytes(135), b,
                      other, e + rng.randbytes(136)],
            "lone": [c + rng.randbytes(200)],
            "empty": [],
        }
        runs = {}
        for name, datas in batches.items():
            permutations[0] = 0
            assert keccak256_many(datas, memo) == [
                keccak256_ref(x) for x in datas], name
            runs[name] = permutations[0]
        assert list(memo) == [a, b, c, d, e, other[:_RATE]]
        # one packed run per batch, as long as the most blocks any message
        # has left: "some" 2 (c's new first block and its second; b's two
        # after its first), "mixed" 3 (c's three after its first; other's
        # three, its new first block included)
        assert runs == {"all": 1, "some": 2, "none": 2, "mixed": 3,
                        "lone": 2, "empty": 0}

    def test_memo_past_its_bound_drops_its_oldest_entry(self, monkeypatch):
        monkeypatch.setattr(keccak, "FIRST_BLOCK_MEMO_SIZE", 3)
        rng = random.Random(2)
        a, b, c, d, e = self.HEADS
        memo = OrderedDict()
        for batch in ([a, b, c], [a, b], [d]):  # the hits on a, b evict none
            datas = [head + rng.randbytes(60) for head in batch]
            assert keccak256_many(datas, memo) == [
                keccak256_ref(x) for x in datas]
        assert list(memo) == [b, c, d]
        # more new first blocks in one batch than the memo holds
        datas = [head + rng.randbytes(60) for head in (e, a, b, c, e, a)]
        assert keccak256_many(datas, memo) == [keccak256_ref(x) for x in datas]
        assert list(memo) == [d, e, a]

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 300)),
                    max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_random_batches(self, shapes):
        # head index 4 stands for a message with no shared first block
        rng = random.Random(len(shapes))
        memo = OrderedDict()
        datas = [(self.HEADS[h] if h < 4 else b"") + rng.randbytes(n)
                 for h, n in shapes]
        for _ in range(2):
            assert keccak256_many(datas, memo) == [
                keccak256_ref(x) for x in datas]

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 600)),
                    max_size=10),
           st.lists(st.integers(0, 2), max_size=3),
           st.integers(1, 4), st.integers(-1, 700))
    @example([(0, 200), (1, 200), (3, 56), (0, 500), (3, 600)], [0], 4, 200)
    @example([(3, 300)], [], 1, 500)
    @settings(max_examples=150, deadline=None)
    def test_one_packed_run_per_batch(self, shapes, warm, bound, carried):
        # heads 0-2 give a shared first block to a message of 136 bytes or
        # more (warm if listed in ``warm``, else cold; repeated when drawn
        # twice); heads 3 and 4 give a random one
        rng = random.Random(len(shapes) * 701)
        datas = [(self.HEADS[h] if h < 3 and n >= _RATE else b"")
                 + rng.randbytes(n - _RATE if h < 3 and n >= _RATE else n)
                 for h, n in shapes]
        previous = rng.randbytes(max(carried, 0))  # -1: nothing carried
        expected = [keccak256_ref(d) for d in datas]

        def memo_after(keys, batch):
            """The memo's keys after ``batch``: its new first blocks are
            stored in order, each once; past ``bound`` the oldest leaves."""
            firsts = dict.fromkeys(d[:_RATE] for d in batch if len(d) >= _RATE)
            new = [f for f in firsts if f not in keys]
            return (keys + new)[-bound:]

        def blocks(d, memo_keys=()):
            # blocks a message absorbs in the run: its first one is skipped
            # if the memo held it before the batch
            return len(d) // _RATE + 1 - (d[:_RATE] in memo_keys
                                          and len(d) >= _RATE)

        count = [0]

        def counted(*args):
            count[0] += 1
            return _permute(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(keccak, "_permute", counted)
            mp.setattr(keccak, "FIRST_BLOCK_MEMO_SIZE", bound)
            # no memo: the header slot takes one block of the carried
            # header per permutation; its rest costs one W = 1 permutation
            # a block when read
            carry = Sponge(previous) if carried >= 0 else None
            assert keccak256_many(datas, carry=carry) == expected
            run = max(map(blocks, datas), default=0)
            assert count[0] == run
            if carry:
                assert carry() == keccak256_ref(previous)
                assert count[0] == max(run, carried // _RATE + 1)
            # through a memo warmed with some heads
            memo = OrderedDict()
            warmup = [self.HEADS[h] + b"warm" for h in warm]
            assert keccak256_many(warmup, memo) == [
                keccak256_ref(d) for d in warmup]
            keys = memo_after([], warmup)
            for _ in range(2):  # cold or warm, then warm
                count[0] = 0
                assert keccak256_many(datas, memo) == expected
                assert count[0] == max(
                    (blocks(d, keys) for d in datas), default=0)
                keys = memo_after(keys, datas)
                assert list(memo) == keys

    def test_hash_many_memo_is_keccak_only(self):
        datas = [self.HEADS[0] + b"x" * 60]
        memo = OrderedDict()
        assert hash_many("blake2b256", datas, memo) == [blake2b256(datas[0])]
        assert not memo
        assert hash_many("keccak256", datas, memo) == [keccak256(datas[0])]
        assert list(memo) == [self.HEADS[0]]


class TestSelectors:
    @pytest.mark.parametrize("sig,expected", sorted(KNOWN_SELECTORS.items()))
    def test_frozen_values(self, sig, expected):
        assert selector(sig).hex() == expected

    def test_matches_reference_on_random_signatures(self):
        rng = random.Random(2)
        types = ["uint128", "uint64", "address"]
        for _ in range(200):
            name = "f" + "".join(rng.choices("abcdefgh", k=5))
            args = ",".join(rng.choices(types, k=rng.randrange(4)))
            sig = f"{name}({args})"
            assert selector(sig) == keccak256_ref(sig.encode())[:4]

    def test_selector_is_keccak_even_for_blake_chains(self):
        # the selector is defined by one fixed algorithm, not per-chain
        sig = "setValue(uint128)"
        assert selector(sig) == keccak256(sig.encode())[:4]
        assert selector(sig) != blake2b256(sig.encode())[:4]

    @pytest.mark.parametrize("bad", [
        "", "noparens", "f(", "f)", "f(uint128", "f(uint256)", "f(int)",
        "1f(uint128)", "f(uint128,)", "f(uint128)(uint64)",
    ])
    def test_malformed_signatures(self, bad):
        with pytest.raises(EncodingError):
            selector(bad)


class TestFunctionCalls:
    def test_layout(self):
        data = encode_function_call("mint(address,uint128)",
                                    [b"\xaa" * 32, 5])
        assert data[:4].hex() == KNOWN_SELECTORS["mint(address,uint128)"]
        assert data[4:36] == b"\xaa" * 32
        assert data[36:68] == (5).to_bytes(32, "big")
        assert len(data) == 68

    def test_decode_round_trip(self):
        sigs = list(KNOWN_SELECTORS)
        data = encode_function_call("setValue(uint128)", [123])
        assert decode_function_call(data, sigs) == ("setValue", [123])
        data = encode_function_call("noop()", [])
        assert decode_function_call(data, sigs) == ("noop", [])

    @given(value=st.integers(min_value=0, max_value=(1 << 128) - 1),
           addr=st.binary(min_size=32, max_size=32))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, value, addr):
        data = encode_function_call("mint(address,uint128)", [addr, value])
        assert decode_function_call(data, ["mint(address,uint128)"]) == \
            ("mint", [addr, value])

    def test_argument_errors(self):
        with pytest.raises(EncodingError):
            encode_function_call("setValue(uint128)", [1 << 128])
        with pytest.raises(EncodingError):
            encode_function_call("setValue(uint128)", [-1])
        with pytest.raises(EncodingError):
            encode_function_call("setValue(uint128)", [True])
        with pytest.raises(EncodingError):
            encode_function_call("setValue(uint128)", [])
        with pytest.raises(EncodingError):
            encode_function_call("mint(address,uint128)", [b"\x00" * 31, 1])

    def test_decode_errors(self):
        sigs = ["setValue(uint128)"]
        with pytest.raises(EncodingError):
            decode_function_call(b"\x00\x01", sigs)
        with pytest.raises(EncodingError):
            decode_function_call(b"\xde\xad\xbe\xef" + bytes(32), sigs)
        good = encode_function_call("setValue(uint128)", [1])
        with pytest.raises(EncodingError):
            decode_function_call(good[:-1], sigs)

    def test_parse_signature(self):
        assert parse_signature("f(uint128,address)") == \
            ("f", ["uint128", "address"])
        assert parse_signature("g()") == ("g", [])


class TestTransferHash:
    def test_preimage_layout_against_reference(self):
        m = _message()
        preimage = (m.source_transaction_hash + m.source_adapter_address
                    + m.recipient_contract + m.encoded_function_call
                    + m.gas.to_bytes(32, "big")
                    + m.source_transfer_id.to_bytes(32, "big")
                    + m.source_network_id.encode())
        assert compute_transfer_hash(m, "keccak256") == keccak256_ref(preimage)
        assert compute_transfer_hash(m, "blake2b256") == \
            hashlib.blake2b(preimage, digest_size=32).digest()

    def test_algorithms_disagree(self):
        m = _message()
        assert compute_transfer_hash(m, "keccak256") != \
            compute_transfer_hash(m, "blake2b256")

    def test_avalanche_single_byte_flips(self):
        m = _message()
        base = compute_transfer_hash(m, "keccak256")
        seen = {base}
        fields = ["source_transaction_hash", "source_adapter_address",
                  "recipient_contract", "encoded_function_call"]
        flips = [(name, pos, bit)
                 for name in fields
                 for pos in range(len(getattr(m, name)))
                 for bit in range(8)]
        assert len(flips) >= 1000
        for name, pos, bit in flips[:1000]:
            raw = bytearray(getattr(m, name))
            raw[pos] ^= 1 << bit
            digest = compute_transfer_hash(
                _message(**{name: bytes(raw)}), "keccak256")
            assert digest != base
            seen.add(digest)
        assert len(seen) == 1001  # every distinct flip gives a distinct digest

    def test_numeric_and_network_fields_matter(self):
        base = compute_transfer_hash(_message(), "keccak256")
        assert compute_transfer_hash(_message(gas=21001), "keccak256") != base
        assert compute_transfer_hash(
            _message(source_transfer_id=4), "keccak256") != base
        assert compute_transfer_hash(
            _message(source_network_id="alphb"), "keccak256") != base

    def test_validation(self):
        with pytest.raises(EncodingError):
            compute_transfer_hash(
                _message(source_transaction_hash=b"\x00" * 31), "keccak256")
        with pytest.raises(EncodingError):
            compute_transfer_hash(
                _message(encoded_function_call=b"\x00"), "keccak256")
        with pytest.raises(EncodingError):
            compute_transfer_hash(
                _message(source_transfer_id=1 << 64), "keccak256")


class TestSignatures:
    def test_sign_verify(self):
        kp = keygen(bytes(range(32)))
        digest = blake2b256(b"payload")
        sig = sign(kp, digest)
        assert len(sig) == SIGNATURE_LEN
        assert verify(kp.public_key, digest, sig)

    def test_keygen_is_deterministic(self):
        assert keygen(b"\x05" * 32) == keygen(b"\x05" * 32)
        assert keygen(b"\x05" * 32) != keygen(b"\x06" * 32)

    def test_wrong_key_and_wrong_digest(self):
        kp, other = keygen(b"\x01" * 32), keygen(b"\x02" * 32)
        digest = blake2b256(b"payload")
        sig = sign(kp, digest)
        assert not verify(other.public_key, digest, sig)
        assert not verify(kp.public_key, blake2b256(b"other"), sig)

    def test_verify_never_raises_on_garbage(self):
        kp = keygen(b"\x07" * 32)
        digest = blake2b256(b"payload")
        sig = sign(kp, digest)
        for n in range(0, 64):  # every truncation of a valid signature
            assert not verify(kp.public_key, digest, sig[:n])
        rng = random.Random(4)
        for _ in range(100):
            garbage = rng.randbytes(rng.randrange(100))
            assert not verify(kp.public_key, digest, garbage)
            assert not verify(garbage[:32], digest, sig)
        for args in ((None, digest, sig), (kp.public_key, None, sig),
                     (kp.public_key, digest, None), (kp.public_key, 5, sig),
                     ([1], [2], [3]), (bytearray(kp.public_key),
                                       bytearray(digest), bytearray(sig))):
            assert verify(*args) is False

    def test_bit_flipped_signatures_fail(self):
        kp = keygen(b"\x09" * 32)
        digest = blake2b256(b"payload")
        sig = bytearray(sign(kp, digest))
        rng = random.Random(5)
        for _ in range(50):
            flipped = bytearray(sig)
            flipped[rng.randrange(64)] ^= 1 << rng.randrange(8)
            assert not verify(kp.public_key, digest, bytes(flipped))

    def test_repr_hides_secret(self):
        seed = b"\x0a" * 32
        assert seed.hex() not in repr(keygen(seed))

    def test_seed_length_enforced(self):
        with pytest.raises(EncodingError):
            keygen(b"short")

    def test_keypair_refuses_a_public_key_not_its_signers(self):
        kp, other = keygen(b"\x0b" * 32), keygen(b"\x0c" * 32)
        assert Keypair(public_key=kp.public_key, signer=kp.signer) == kp
        for public_key, signer in ((other.public_key, kp.signer),
                                   (bytearray(kp.public_key), kp.signer),
                                   (kp.public_key[:31], kp.signer),
                                   (kp.public_key, None)):
            with pytest.raises(EncodingError):
                Keypair(public_key=public_key, signer=signer)


def _direct(public_key, digest, signature) -> bool:
    """The full Ed25519 check, with no memo in front of it."""
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, digest)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


KEYS = [keygen(bytes([i]) * 32) for i in range(16, 19)]
MUTATIONS = ("fresh", "bit-flip", "truncate", "other-key", "other-digest",
             "bytearray")


def _mutated(data, kp, digest, sig):
    """(public key, digest, signature) of one drawn mutation of a signature
    that `sign` just made; the other key and digest sign too, so the memo
    holds an entry for the pair being asked about."""
    kind = data.draw(st.sampled_from(MUTATIONS), label="mutation")
    if kind == "bit-flip":
        flipped = bytearray(sig)
        flipped[data.draw(st.integers(0, 63))] ^= 1 << data.draw(
            st.integers(0, 7))
        return kp.public_key, digest, bytes(flipped)
    if kind == "truncate":
        return kp.public_key, digest, sig[:data.draw(st.integers(0, 63))]
    if kind == "other-key":
        other = data.draw(st.sampled_from([k for k in KEYS if k != kp]))
        sign(other, digest)
        return other.public_key, digest, sig
    if kind == "other-digest":
        other = data.draw(st.binary(min_size=32, max_size=32).filter(
            lambda d: d != digest))
        sign(kp, other)
        return kp.public_key, other, sig
    triple = [kp.public_key, digest, sig]
    if kind == "bytearray":
        for i in data.draw(st.sets(st.integers(0, 2), min_size=1)):
            triple[i] = bytearray(triple[i])
    return tuple(triple)


class TestSignedMemo:
    """`verify` answers a triple `sign` made from memory; every verdict must
    still be the full check's."""

    @given(key=st.sampled_from(KEYS),
           digest=st.binary(min_size=32, max_size=32), data=st.data())
    def test_verify_agrees_with_the_full_check(self, key, digest, data):
        sig = sign(key, digest)
        triple = _mutated(data, key, digest, sig)
        assert verify(*triple) == _direct(*triple)
        assert verify(key.public_key, digest, sig)

    def test_fresh_signatures_skip_the_full_check(self, full_verifies):
        kp = keygen(b"\x0e" * 32)
        digest = blake2b256(b"fresh")
        sig = sign(kp, digest)
        assert verify(kp.public_key, digest, sig)
        assert full_verifies.count == 0
        assert not verify(kp.public_key, digest, bytes(64))
        assert full_verifies.count == 1

    def test_oldest_signature_leaves_the_memo_past_its_bound(
            self, full_verifies):
        # a 5k-transfer happy run verifies all 15,000 signatures from memory
        assert SIGNED_MEMO_SIZE == 1 << 15
        kp = keygen(b"\x0f" * 32)
        target = blake2b256(b"target")
        sig = sign(kp, target)
        fill = [i.to_bytes(32, "big") for i in range(SIGNED_MEMO_SIZE)]
        first = sign(kp, fill[0])
        for digest in fill[1:-1]:
            sign(kp, digest)
        # the memo is full, the target its oldest entry; a hit evicts nothing
        for _ in range(2):
            assert verify(kp.public_key, target, sig)
        assert full_verifies.count == 0
        sign(kp, fill[-1])  # the 1 << 15th sign since the target drops it
        assert verify(kp.public_key, fill[0], first)
        assert full_verifies.count == 0
        assert verify(kp.public_key, target, sig)
        assert full_verifies.count == 1
        rng = random.Random(6)
        for _ in range(20):
            flipped = bytearray(sig)
            flipped[rng.randrange(64)] ^= 1 << rng.randrange(8)
            for triple in ((kp.public_key, target, bytes(flipped)),
                           (kp.public_key, target, sig[:rng.randrange(64)]),
                           (KEYS[0].public_key, target, sig),
                           (kp.public_key, fill[0], sig),
                           (kp.public_key, bytearray(target), sig)):
                assert verify(*triple) == _direct(*triple)
