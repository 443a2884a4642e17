"""Simulated chain: ordering, reorgs, undo-log rollback, canonical reads, dumps."""

import copy
import pickle
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgesim import (
    Block,
    Chain,
    ChainConfig,
    DuplicateTransaction,
    InvalidRange,
    InvalidReorg,
    MintableToken,
    StorageContract,
    blake2b256,
    encode_function_call,
)
from bridgesim import keccak
from bridgesim.chain import (
    ChainError,
    Revert,
    _AwaitingParent,
    _event_preimage,
    _tx_preimage,
)
from bridgesim.codec import hash_bytes
from keccak_ref import keccak256_ref
from state_dump import dump_state

ALICE = blake2b256(b"acct:alice")
BOB = blake2b256(b"acct:bob")
CAROL = blake2b256(b"acct:carol")
STORE = blake2b256(b"contract:store")
TOKEN = blake2b256(b"contract:token")
ZERO = b"\x00" * 32


def make_chain(alg="keccak256", finality=6) -> Chain:
    chain = Chain(ChainConfig(network_id="testnet", hash_alg=alg,
                              finality_depth=finality))
    chain.register_contract(StorageContract(STORE))
    chain.balances[ALICE] = 1_000_000
    return chain


def reference_hash(block) -> bytes:
    """``block``'s hash from scratch, on a keccak chain: the reference
    Keccak-256 of number, parent hash, tick, salt, the tx hashes and the
    event hashes."""
    return keccak256_ref(b"".join([
        block.number.to_bytes(8, "big"), block.parent_hash,
        block.tick.to_bytes(8, "big"), block.salt.to_bytes(8, "big"),
        *[tx.tx_hash for tx in block.transactions],
        *[keccak256_ref(_event_preimage(e)) for e in block.events]]))


def set_value(chain: Chain, value: int, sender=ALICE):
    tx = chain.make_transaction(
        sender=sender, recipient=STORE,
        payload=encode_function_call("setValue(uint128)", [value]))
    chain.submit_transaction(tx)
    return tx


class TestBasics:
    def test_genesis(self):
        chain = make_chain()
        assert chain.head_number() == 0
        assert chain.get_block(0).parent_hash == bytes(32)

    def test_config_validation(self):
        with pytest.raises(ChainError):
            ChainConfig(network_id="")
        with pytest.raises(ChainError):
            ChainConfig(network_id="x", block_time_ticks=0)
        with pytest.raises(ChainError):
            ChainConfig(network_id="x", finality_depth=-1)
        with pytest.raises(ChainError):
            ChainConfig(network_id="x", hash_alg="md5")
        with pytest.raises(ChainError):
            ChainConfig(network_id=5)

    def test_fifo_within_block(self):
        chain = make_chain()
        txs = [set_value(chain, v) for v in (1, 2, 3)]
        block = chain.mine_block(tick=1)
        assert [t.tx_hash for t in block.transactions] == \
            [t.tx_hash for t in txs]
        assert chain.contracts[STORE].state["value"] == 3  # last write wins

    def test_per_sender_sequence_numbers(self):
        chain = make_chain()
        a0, a1 = set_value(chain, 1), set_value(chain, 2)
        b0 = set_value(chain, 3, sender=BOB)
        assert (a0.seq, a1.seq, b0.seq) == (0, 1, 0)

    def test_duplicate_rejected(self):
        chain = make_chain()
        tx = set_value(chain, 1)
        with pytest.raises(DuplicateTransaction):
            chain.submit_transaction(tx)
        chain.mine_block(tick=1)
        with pytest.raises(DuplicateTransaction):
            chain.submit_transaction(tx)

    def test_tampered_hash_rejected(self):
        chain = make_chain()
        tx = set_value(chain, 1)
        chain.pending.clear()
        from dataclasses import replace
        with pytest.raises(ChainError):
            chain.submit_transaction(replace(tx, value=999))

    def test_edited_copy_of_built_tx_rejected(self):
        chain = make_chain()
        tx = chain.make_transaction(
            sender=ALICE, recipient=STORE,
            payload=encode_function_call("setValue(uint128)", [1]))
        from dataclasses import replace
        for forged in (replace(tx, value=999),
                       replace(tx, payload=encode_function_call(
                           "setValue(uint128)", [2]))):
            assert forged.tx_hash == tx.tx_hash
            with pytest.raises(ChainError):
                chain.submit_transaction(forged)
        assert chain.submit_transaction(tx) == tx.tx_hash
        assert chain.mine_block(tick=1).transactions == (tx,)

    def test_tx_built_by_twin_chain_accepted(self):
        chain, twin = make_chain(), make_chain()
        tx = twin.make_transaction(
            sender=ALICE, recipient=STORE,
            payload=encode_function_call("setValue(uint128)", [5]))
        chain.submit_transaction(tx)
        chain.mine_block(tick=1)
        assert chain.get_transaction(tx.tx_hash) == (tx, 1)
        assert chain.contracts[STORE].state["value"] == 5

    @pytest.mark.parametrize("alg", ["keccak256", "blake2b256"])
    def test_batch_built_txs_equal_one_at_a_time(self, alg, monkeypatch):
        chain, twin = make_chain(alg), make_chain(alg)
        specs = [(sender, STORE, encode_function_call(
                      "setValue(uint128)", [i]), i % 2)
                 for i, sender in enumerate([ALICE, BOB, ALICE, CAROL, ALICE])]
        txs = chain.make_transactions(specs)
        assert txs == [twin.make_transaction(*spec) for spec in specs]
        assert [tx.seq for tx in txs] == [0, 0, 1, 0, 2]
        assert all(tx.tx_hash == chain._tx_hash(tx.sender, tx.recipient,
                                                tx.payload, tx.value, tx.seq)
                   for tx in txs)
        # the identity fast path: the chain that built them does not rehash
        monkeypatch.setattr(chain, "_tx_hash", None)
        for tx in txs:
            chain.submit_transaction(tx)
        assert chain.pending == txs

    def test_batch_hashes_equal_on_a_fresh_and_a_warm_memo(self):
        # tx-shaped preimages of 196 bytes: sender, recipient and the call's
        # head fill the first block, the rest varies with the transfer
        specs = [(sender, STORE, bytes(64) + random.Random(i).randbytes(20), i)
                 for i, sender in enumerate([ALICE, BOB, ALICE, CAROL, ALICE])]
        fresh, warm = make_chain(), make_chain()
        warm.make_transactions(specs)  # same first blocks, other seqs
        assert len(warm._first_blocks) == 3
        warm._next_seq.clear()
        txs = warm.make_transactions(specs)
        assert txs == fresh.make_transactions(specs)
        assert all(tx.tx_hash == keccak256_ref(_tx_preimage(
            tx.sender, tx.recipient, tx.payload, tx.value, tx.seq))
            for tx in txs)
        blake = make_chain("blake2b256")
        blake.make_transactions(specs)
        assert not blake._first_blocks

    def test_reverted_tx_included_with_receipt(self):
        chain = make_chain()
        tx = chain.make_transaction(sender=ALICE, recipient=STORE,
                                    payload=b"\xde\xad\xbe\xef")
        chain.submit_transaction(tx)
        block = chain.mine_block(tick=1)
        assert tx in block.transactions
        receipt = chain.get_receipt(tx.tx_hash)
        assert receipt.status == "reverted"
        assert chain.contracts[STORE].state["value"] == 0

    def test_zero_burn_for_unknown_holder_succeeds(self):
        chain = make_chain()
        chain.register_contract(MintableToken(TOKEN))
        tx = chain.make_transaction(
            sender=ALICE, recipient=TOKEN,
            payload=encode_function_call("burn(address,uint128)", [BOB, 0]))
        chain.submit_transaction(tx)
        chain.mine_block(tick=1)
        assert chain.get_receipt(tx.tx_hash).status == "ok"
        assert chain.contracts[TOKEN].state["balances"] == {BOB: 0}

    def test_plain_value_transfer(self):
        chain = make_chain()
        tx = chain.make_transaction(sender=ALICE, recipient=BOB,
                                    payload=b"", value=250)
        chain.submit_transaction(tx)
        chain.mine_block(tick=1)
        assert chain.balances[BOB] == 250


class TestCanonicalReads:
    def test_confirmations(self):
        chain = make_chain()
        tx = set_value(chain, 1)
        chain.mine_block(tick=1)
        assert chain.confirmations(tx.tx_hash) == 0  # in the head block
        for t in range(2, 6):
            chain.mine_block(tick=t)
        assert chain.confirmations(tx.tx_hash) == 4
        assert chain.confirmations(b"\x00" * 32) is None

    def test_get_block_bounds(self):
        chain = make_chain()
        chain.mine_block(tick=1)
        assert chain.get_block(1).number == 1
        assert chain.get_block(2) is None
        assert chain.get_block(-1) is None

    def test_get_events_filters_and_range(self):
        chain = make_chain()
        set_value(chain, 1)
        chain.mine_block(tick=1)
        set_value(chain, 2)
        chain.mine_block(tick=2)
        events = chain.get_events(STORE, "ValueChanged", 0, chain.head_number())
        assert [e.block_number for e in events] == [1, 2]
        assert chain.get_events(STORE, "ValueChanged", 2, 2)[0].block_number == 2
        assert chain.get_events(STORE, "NoSuchEvent", 0, 2) == []
        assert chain.get_events(ALICE, None, 0, 2) == []
        with pytest.raises(InvalidRange):
            chain.get_events(STORE, None, 2, 1)

    def test_hash_chain_integrity(self):
        chain = make_chain()
        for t in range(1, 6):
            set_value(chain, t)
            chain.mine_block(tick=t)
        for number in range(1, 6):
            block = chain.get_block(number)
            parent = chain.get_block(number - 1)
            assert block.parent_hash == parent.block_hash
            assert block.block_hash == reference_hash(block)


class TestReorg:
    def test_replaces_suffix_with_strictly_longer_branch(self):
        chain = make_chain()
        for t in range(1, 6):
            chain.mine_block(tick=t)
        old = [chain.get_block(n).block_hash for n in range(6)]
        assert chain.head_number() == 5
        chain.inject_reorg(depth=3)
        assert chain.head_number() == 6  # depth d suffix replaced by d+1 blocks
        # blocks up to the fork point unchanged, everything after replaced
        for n in range(3):
            assert chain.get_block(n).block_hash == old[n]
        for n in range(3, 6):
            assert chain.get_block(n).block_hash != old[n]

    def test_orphaned_block_replaced_at_its_number(self):
        chain = make_chain()
        for t in range(1, 4):
            chain.mine_block(tick=t)
        orphan = chain.get_block(3)
        chain.inject_reorg(depth=2)
        assert chain.get_block(3) is not orphan
        # every block made is still listed for the harness oracle
        assert orphan in chain.all_blocks

    def test_orphaned_txs_replayed(self):
        chain = make_chain()
        chain.mine_block(tick=1)
        tx = set_value(chain, 42)
        chain.mine_block(tick=2)
        assert chain.get_transaction(tx.tx_hash)[1] == 2
        chain.inject_reorg(depth=2)
        # replayed into the new branch's first block, fork + 1
        assert chain.get_transaction(tx.tx_hash) == (tx, 1)
        assert chain.get_block(1).transactions == (tx,)
        assert chain.get_receipt(tx.tx_hash).status == "ok"
        assert chain.contracts[STORE].state["value"] == 42

    def test_dropped_tx_vanishes(self):
        chain = make_chain()
        tx = set_value(chain, 42)
        chain.mine_block(tick=1)
        chain.mine_block(tick=2)
        chain.inject_reorg(depth=2, drop_txs={tx.tx_hash})
        assert not any(chain.get_block(n).transactions
                       for n in range(chain.head_number() + 1))
        assert chain.get_transaction(tx.tx_hash) is None
        assert chain.get_receipt(tx.tx_hash) is None
        assert chain.confirmations(tx.tx_hash) is None
        assert chain.contracts[STORE].state["value"] == 0

    def test_dependents_of_dropped_tx_excluded(self):
        # dropping seq 0 must also exclude the same sender's seq 1 replay
        chain = make_chain()
        first = set_value(chain, 1)
        second = set_value(chain, 2)
        chain.mine_block(tick=1)
        chain.inject_reorg(depth=1, drop_txs={first.tx_hash})
        assert not any(chain.get_block(n).transactions
                       for n in range(chain.head_number() + 1))
        assert chain.get_transaction(first.tx_hash) is None
        assert chain.get_transaction(second.tx_hash) is None
        assert chain.get_receipt(second.tx_hash) is None
        assert chain.contracts[STORE].state["value"] == 0

    def test_unrelated_sender_survives_drop(self):
        chain = make_chain()
        dropped = set_value(chain, 1)
        kept = set_value(chain, 7, sender=BOB)
        chain.mine_block(tick=1)
        chain.inject_reorg(depth=1, drop_txs={dropped.tx_hash})
        assert chain.get_transaction(kept.tx_hash) is not None
        assert chain.contracts[STORE].state["value"] == 7

    def test_depth_bounds(self):
        chain = make_chain()
        chain.mine_block(tick=1)
        with pytest.raises(InvalidReorg):
            chain.inject_reorg(depth=0)
        with pytest.raises(InvalidReorg):
            chain.inject_reorg(depth=2)

    def test_reorg_deeper_than_snapshot_ring(self):
        chain = make_chain()
        target = 138
        for t in range(1, target + 1):
            if t % 7 == 0:
                set_value(chain, t)
            chain.mine_block(tick=t)
        value_before_fork = chain.contracts[STORE].state["value"]
        depth = target - 2  # rewinds nearly to genesis
        chain.inject_reorg(depth=depth)
        assert chain.head_number() == target + 1
        # all state changes from the replayed suffix still present
        assert chain.contracts[STORE].state["value"] == value_before_fork

    def test_deep_reorg_salts_follow_old_head(self):
        # a rollback re-executes nothing, so only the new branch bumps the salt
        chain = make_chain()
        for t in range(1, 141):
            chain.mine_block(tick=t)
        old_salt = chain.get_block(chain.head_number()).salt
        chain.inject_reorg(depth=136)
        salts = [chain.get_block(n).salt
                 for n in range(5, chain.head_number() + 1)]
        assert salts == list(range(old_salt + 1, old_salt + 138))

    def test_reorg_then_continue_mining(self):
        chain = make_chain()
        for t in range(1, 5):
            chain.mine_block(tick=t)
        chain.inject_reorg(depth=2)
        set_value(chain, 9)
        block = chain.mine_block(tick=6)
        assert block.number == chain.head_number()
        assert chain.contracts[STORE].state["value"] == 9


class TestSnapshots:
    def test_dump_is_deterministic(self):
        def build():
            chain = make_chain()
            for t in range(1, 4):
                set_value(chain, t)
                chain.mine_block(tick=t)
            return dump_state(chain)
        assert build() == build()


class WriteThenRevert:
    """Writes a top-level and a nested key, moves value, emits, reverts."""

    def __init__(self, address):
        self.address = address
        self.state = {"touched": 0, "nested": {}}

    def dispatch(self, ctx, sender, value, payload):
        self.state["touched"] = 1
        self.state["nested"][sender] = 5
        ctx.transfer(self.address, BOB, 7)
        ctx.emit(self.address, "Touched", [])
        raise Revert("Nope")


class Caller:
    """Writes, emits, then calls `target` with value 3 and records the status."""

    def __init__(self, address, target):
        self.address = address
        self.target = target
        self.state = {"calls": 0, "status": ""}

    def dispatch(self, ctx, sender, value, payload):
        self.state["calls"] = 1
        ctx.emit(self.address, "Before", [])
        status, _ = ctx.call_contract(self.target, self.address, 3, b"")
        self.state["status"] = status


def rollback_chain() -> Chain:
    """A chain with storage and token contracts and no out-of-block writes."""
    chain = Chain(ChainConfig(network_id="testnet", hash_alg="blake2b256"))
    chain.register_contract(StorageContract(STORE))
    chain.register_contract(MintableToken(TOKEN))
    return chain


def chain_state(chain: Chain):
    return (chain.balances, chain.executed_seq,
            {a: c.state for a, c in chain.contracts.items()})


class TestRollback:
    def test_nested_revert_undoes_callee_only(self):
        callee, caller = blake2b256(b"callee"), blake2b256(b"caller")
        chain = make_chain()
        chain.register_contract(WriteThenRevert(callee))
        chain.register_contract(Caller(caller, callee))
        balances = dict(chain.balances)
        tx = chain.make_transaction(sender=ALICE, recipient=caller, payload=b"")
        chain.submit_transaction(tx)
        block = chain.mine_block(tick=1)
        assert chain.get_receipt(tx.tx_hash).status == "ok"
        assert chain.contracts[caller].state == {"calls": 1, "status": "failed"}
        assert chain.contracts[callee].state == {"touched": 0, "nested": {}}
        assert chain.balances == balances  # both value moves undone
        assert [e.name for e in block.events] == ["Before"]

    @pytest.mark.parametrize("mutate", [
        lambda m: m.pop(ALICE, None),
        lambda m: m.popitem(),
        lambda m: m.update({ALICE: 1}),
        lambda m: m.setdefault(ALICE, 1),
        lambda m: m.clear(),
        lambda m: m.__delitem__(ALICE),
        lambda m: m.__ior__({ALICE: 1}),
    ], ids=["pop", "popitem", "update", "setdefault", "clear", "del", "ior"])
    def test_unlogged_mutators_raise(self, mutate):
        chain = rollback_chain()
        for m in (chain.balances, chain.executed_seq,
                  chain.contracts[STORE].state,
                  chain.contracts[TOKEN].state["balances"]):
            with pytest.raises(TypeError):
                mutate(m)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 1000),
                              st.sampled_from([ALICE, BOB, CAROL]),
                              st.booleans()), min_size=10, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_state_equals_replay_of_canonical_blocks(self, schedule):
        chain = rollback_chain()
        for step, (op, arg, sender, flag) in enumerate(schedule):
            other = CAROL if sender == BOB else BOB
            if op == 0:
                set_value(chain, arg, sender=sender)
            elif op in (1, 2):
                call = "mint(address,uint128)" if op == 1 \
                    else "burn(address,uint128)"
                chain.submit_transaction(chain.make_transaction(
                    sender=sender, recipient=TOKEN, value=arg % 3,
                    payload=encode_function_call(call, [other, arg % 50])))
            elif op == 3:
                chain.submit_transaction(chain.make_transaction(
                    sender=sender, recipient=other, payload=b"", value=arg))
            elif op == 4:
                chain.mine_block(tick=step + 1)
            elif chain.head_number() >= 1:
                depth = 1 + arg % chain.head_number()
                suffix = [tx.tx_hash
                          for n in range(chain.head_number() - depth + 1,
                                         chain.head_number() + 1)
                          for tx in chain.get_block(n).transactions]
                drop = {suffix[arg % len(suffix)]} if flag and suffix else set()
                chain.inject_reorg(depth=depth, drop_txs=drop)
        fresh = rollback_chain()
        for n in range(1, chain.head_number() + 1):
            for tx in chain.get_block(n).transactions:
                fresh.submit_transaction(tx)
            fresh.mine_block(tick=n)
        assert chain_state(chain) == chain_state(fresh)


class TestDeterminism:
    @given(st.lists(st.tuples(st.integers(0, 2),
                              st.integers(1, 100)), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_same_schedule_same_dump(self, schedule):
        def run():
            chain = make_chain()
            for step, (op, arg) in enumerate(schedule):
                if op == 0:
                    set_value(chain, arg)
                elif op == 1:
                    chain.mine_block(tick=step + 1)
                elif op == 2 and chain.head_number() >= 1:
                    chain.inject_reorg(
                        depth=1 + arg % chain.head_number()
                        if chain.head_number() > 1 else 1)
            return dump_state(chain)
        assert run() == run()

    def test_branches_have_distinct_hashes(self):
        # two empty blocks at the same height on competing branches
        chain = make_chain()
        for t in range(1, 4):
            chain.mine_block(tick=t)
        before = {chain.get_block(n).block_hash for n in range(1, 4)}
        chain.inject_reorg(depth=2)
        after = {chain.get_block(n).block_hash
                 for n in range(1, chain.head_number() + 1)}
        assert before & after == {chain.get_block(1).block_hash}


class TestHeaderPipeline:
    """A keccak block's hash is computed when it, or a child's parent hash,
    is first read: its header rides in its chain's next runs if its
    parent's hash was known when it sealed, and otherwise waits for that
    hash."""

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 100)),
                    max_size=30), st.randoms(use_true_random=False))
    @example([(0, 5), (1, 0), (0, 5), (1, 0), (3, 0), (4, 100), (0, 3),
              (2, 0), (4, 3)], random.Random(0))
    @example([(1, 0)] * 6 + [(5, 6), (0, 1), (1, 0), (2, 0), (3, 2),
                             (4, 7)], random.Random(1))
    @example([(1, 0)] * 6 + [(3, 2), (6, 2)], random.Random(2))
    @settings(max_examples=40, deadline=None)
    def test_every_hash_equals_reference(self, ops, rng):
        chain = make_chain()
        for step, (op, arg) in enumerate(ops, 1):
            head = chain.head_number()
            made = chain.all_blocks
            if op == 0:  # a batch of 1-6 txs
                specs = [(sender, STORE, encode_function_call(
                    "setValue(uint128)", [arg + k]), 0)
                    for k, sender in enumerate([ALICE, BOB, CAROL] * 2)]
                for tx in chain.make_transactions(specs[:1 + arg % 6]):
                    chain.submit_transaction(tx)
            elif op == 1:  # loaded if txs are pending, else idle
                chain.mine_block(tick=step)
            elif op == 2:  # one block, then an idle one
                chain.mine_block(tick=step)
                chain.mine_block(tick=step)
            elif op == 3 and head >= 1:
                chain.inject_reorg(depth=1 + arg % head)
            elif op == 4:  # read a hash first: an orphan's, the head's
                block = made[arg % len(made)]
                got = block.block_hash
                assert got == reference_hash(block)
            elif op == 5:  # read a parent hash first; checked below
                made[arg % len(made)].parent_hash
            elif op == 6:  # read two hashes, one at a time: a reorg's
                pair = [made[arg % len(made)], made[-1 - arg % len(made)]]
                got = [b.block_hash for b in pair]
                assert got == [reference_hash(b) for b in pair]
        blocks = list(chain.all_blocks)
        rng.shuffle(blocks)  # the rest of the reads, in any order
        for block in blocks:
            got = block.block_hash
            assert got == reference_hash(block)
        for number in range(1, chain.head_number() + 1):
            assert (chain.get_block(number).parent_hash
                    == chain.get_block(number - 1).block_hash)

    def test_a_read_hashes_the_unread_blocks_below_it(self):
        chain = make_chain()
        set_value(chain, 1)
        for t in range(1, 12):
            chain.mine_block(tick=t)
        # block 1 seals on genesis's hash, which its tx run finished. Block
        # 1 holds an event, so block 2's seal finishes its header; block
        # 2's, with none, is left unfinished, and the nine empty blocks
        # after it wait for it. A read of the head hashes them all
        assert type(chain.get_block(1).header) is bytes
        assert chain.get_block(2).header.digest is None
        assert all(type(chain.get_block(n).header) is _AwaitingParent
                   for n in range(3, 12))
        head = chain.get_block(11)
        assert head.block_hash == reference_hash(head)
        assert all(type(chain.get_block(n).header) is bytes
                   for n in range(1, 12))

    def test_each_branch_of_a_reorg_is_hashed_when_read(self, monkeypatch):
        chain = make_chain()
        for t in range(1, 9):
            chain.mine_block(tick=t)
        old = chain.get_block(8)
        chain.inject_reorg(depth=4)
        new = chain.get_block(8)
        widths = Counter()
        permute = keccak._permute

        def counted(s, mask=keccak._M, rcs=keccak._ROUND_CONSTANTS):
            widths["W = 1" if mask == keccak._M else "packed"] += 1
            return permute(s, mask, rcs)

        monkeypatch.setattr(keccak, "_permute", counted)
        assert new.block_hash == reference_hash(new)
        # genesis, then blocks 1-4 below the fork and the new branch's 5-8,
        # oldest first, one at a time
        assert widths == {"W = 1": 9}
        assert old.block_hash == reference_hash(old)
        # the old branch's 5-8 only: block 4 holds its hash now
        assert widths == {"W = 1": 13}

    @staticmethod
    def unread_chain(length: int) -> Block:
        """The head of a keccak chain of ``length`` empty blocks, no hash
        of which was read: each header waits on its parent's."""
        chain = make_chain()
        for t in range(1, length + 1):
            chain.mine_block(tick=t)
        head = chain.get_block(length)
        assert type(head.header) is _AwaitingParent
        return head

    def test_a_read_walks_a_long_chain_without_recursion(self):
        head = self.unread_chain(5000)
        assert head.block_hash == reference_hash(head)

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_a_long_unread_chain_copies_with_its_hashes(self, how):
        # a copy stores the hashes, not the link to the parent, so it does
        # not recurse through the 5,000 blocks below
        head = self.unread_chain(5000)
        copied = (pickle.loads(pickle.dumps(head)) if how == "pickle"
                  else copy.deepcopy(head))
        assert copied.parent == copied.parent_hash == head.parent_hash
        assert copied.block_hash == head.block_hash == reference_hash(head)


class TestViews:
    def test_clean_view_mirrors_chain(self):
        chain = make_chain()
        tx = set_value(chain, 1)
        chain.mine_block(tick=1)
        from bridgesim import ChainView
        view = ChainView(chain)
        assert view.head_number() == chain.head_number()
        assert view.get_transaction(tx.tx_hash)[0] == tx
        assert view.confirmations(tx.tx_hash) == 0

    def test_substitute_block_hash(self):
        from bridgesim import ChainView, ViewCorruption
        chain = make_chain()
        for t in range(1, 4):
            chain.mine_block(tick=t)
        fake = blake2b256(b"lie")
        view = ChainView(chain, ViewCorruption(block_number=2, fake_hash=fake))
        assert view.get_block(2).block_hash == fake
        assert view.get_block(1).block_hash == chain.get_block(1).block_hash

    def test_one_forged_block_per_real_block(self):
        from bridgesim import ChainView, ViewCorruption
        chain = make_chain()
        for t in range(1, 4):
            chain.mine_block(tick=t)
        fake = blake2b256(b"lie")
        view = ChainView(chain, ViewCorruption(block_number=2, fake_hash=fake))
        shown = view.get_block(2)
        assert view.get_block(2) is shown  # the same object on every read
        chain.inject_reorg(depth=2)  # a new real block 2
        again = view.get_block(2)
        assert again is not shown and again.block_hash == fake
        assert again.salt == chain.get_block(2).salt != shown.salt

    def test_fabricated_transfer_visible_only_through_view(self):
        from bridgesim import ChainView, EventLog, Transaction, ViewCorruption
        chain = make_chain()
        for t in range(1, 10):
            chain.mine_block(tick=t)
        fake_tx = Transaction(tx_hash=blake2b256(b"fake"), sender=ALICE,
                              recipient=STORE, payload=b"", value=0, seq=0)
        fake_ev = EventLog(emitter=STORE, name="ValueChanged",
                           attributes=(("value", b"\x2a"),),
                           tx_hash=fake_tx.tx_hash, block_number=3)
        view = ChainView(chain, ViewCorruption(
            block_number=3,
            fake_hash=blake2b256(b"fake-block"),
            fake_transaction=fake_tx, fake_event=fake_ev))
        assert view.get_transaction(fake_tx.tx_hash)[0] == fake_tx
        assert view.confirmations(fake_tx.tx_hash) == chain.head_number() - 3
        events = view.get_events(STORE, "ValueChanged", 0, view.head_number())
        assert fake_ev in events
        # ground truth is unaffected
        assert chain.get_transaction(fake_tx.tx_hash) is None
        assert chain.get_events(STORE, "ValueChanged", 0,
                                chain.head_number()) == []

    def test_fabricated_block_replaces_block_n_in_every_read(self):
        from bridgesim import ChainView, EventLog, Transaction, ViewCorruption
        chain = make_chain()
        chain.mine_block(tick=1)
        set_value(chain, 7)
        chain.mine_block(tick=2)  # block 2 holds a real ValueChanged event
        real = chain.get_block(2)
        assert real.events
        fake_tx = Transaction(tx_hash=blake2b256(b"fake"), sender=ALICE,
                              recipient=STORE, payload=b"", value=0, seq=0)
        fake_ev = EventLog(emitter=STORE, name="ValueChanged",
                           attributes=(("value", b"\x2a"),),
                           tx_hash=fake_tx.tx_hash, block_number=2)
        view = ChainView(chain, ViewCorruption(
            block_number=2,
            fake_hash=blake2b256(b"fake-block"),
            fake_transaction=fake_tx, fake_event=fake_ev))
        assert view.get_events(STORE, None, 0, 2) == [fake_ev]
        assert view.get_events(None, "ValueChanged", 2, 2) == [fake_ev]
        shown = view.get_block(2)
        assert shown.block_hash != real.block_hash
        head = view.get_block(view.head_number())
        assert head.block_hash == shown.block_hash == blake2b256(b"fake-block")
        assert shown.transactions == (fake_tx,) and shown.events == (fake_ev,)
        assert view.get_block(1) is chain.get_block(1)

    def test_fabricated_block_hidden_until_chain_seals_it(self):
        from bridgesim import ChainView, EventLog, Transaction, ViewCorruption
        chain = make_chain()
        chain.mine_block(tick=1)
        fake_tx = Transaction(tx_hash=blake2b256(b"fake"), sender=ALICE,
                              recipient=STORE, payload=b"", value=0, seq=0)
        fake_ev = EventLog(emitter=STORE, name="ValueChanged",
                           attributes=(("value", b"\x2a"),),
                           tx_hash=fake_tx.tx_hash, block_number=5)
        view = ChainView(chain, ViewCorruption(
            block_number=5,
            fake_hash=blake2b256(b"fake-block"),
            fake_transaction=fake_tx, fake_event=fake_ev))
        # head 1: block 5 does not exist yet, in the view as on the chain
        assert view.get_block(5) is None
        assert view.confirmations(fake_tx.tx_hash) is None
        assert view.get_events(STORE, None, 0, 5) == []
        assert view.get_transaction(fake_tx.tx_hash) is None
        assert view.get_receipt(fake_tx.tx_hash) is None
        for t in range(2, 6):
            chain.mine_block(tick=t)
        # head 5: the forged block stands in for block 5
        shown = view.get_block(5)
        assert shown.block_hash == blake2b256(b"fake-block")
        assert shown.parent_hash == chain.get_block(4).block_hash
        assert shown.tick == chain.get_block(5).tick
        assert view.confirmations(fake_tx.tx_hash) == 0
        assert view.get_events(STORE, None, 0, 5) == [fake_ev]
        assert view.get_transaction(fake_tx.tx_hash) == (fake_tx, 5)
        assert view.get_receipt(fake_tx.tx_hash).status == "ok"

    def test_forged_block_n_shows_only_its_own_txs(self):
        from bridgesim import ChainView, Transaction, ViewCorruption
        chain = make_chain()
        chain.mine_block(tick=1)
        tx = set_value(chain, 7)
        for t in range(2, 5):
            chain.mine_block(tick=t)  # block 2 holds tx, the head is 4
        receipt = chain.get_receipt(tx.tx_hash)
        fake_tx = Transaction(tx_hash=blake2b256(b"fake"), sender=ALICE,
                              recipient=STORE, payload=b"", value=0, seq=0)
        fabricated = ChainView(chain, ViewCorruption(
            block_number=2, fake_hash=blake2b256(b"fake-block"),
            fake_transaction=fake_tx))
        assert fabricated.get_transaction(tx.tx_hash) is None
        assert fabricated.get_receipt(tx.tx_hash) is None
        assert fabricated.confirmations(tx.tx_hash) is None
        assert fabricated.get_transaction(fake_tx.tx_hash) == (fake_tx, 2)
        substituted = ChainView(chain, ViewCorruption(
            block_number=2, fake_hash=blake2b256(b"lie")))
        assert substituted.get_transaction(tx.tx_hash) == (tx, 2)
        assert substituted.get_receipt(tx.tx_hash) == receipt
        assert substituted.confirmations(tx.tx_hash) == 2

    @pytest.mark.parametrize("read, args", [
        ("head_number", ()), ("get_block", (1,)),
        ("get_transaction", (ZERO,)), ("get_receipt", (ZERO,)),
        ("get_events", (None, None, 0, 1)), ("confirmations", (ZERO,))])
    def test_views_run_the_chain_read_found_on_the_class(
            self, monkeypatch, read, args):
        from bridgesim import ChainView, ViewCorruption
        chain = make_chain()
        chain.mine_block(tick=1)
        monkeypatch.setattr(Chain, read, lambda self, *a: (self, a))
        for corruption in (None, ViewCorruption(block_number=1,
                                                fake_hash=ZERO)):
            view = ChainView(chain, corruption)
            assert getattr(view, read)(*args) == (view, args)
