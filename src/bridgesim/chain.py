"""Deterministic simulated blockchain with reorg injection.

One `Chain` owns a canonical list of blocks, a pending transaction pool, the
registered contract handlers and their state, and account balances. Every
block ever produced (including orphaned branches) is kept in `all_blocks`, in
the order made, which only the harness oracle reads; protocol actors see
canonical data only, found by block number. A block's hash is computed when
its `block_hash` or a child's `parent_hash` is first read. Until then a
keccak block whose parent's hash was known when it sealed keeps its header
as one `keccak.Sponge`, carried whole into its chain's next packed runs; one
sealed before its parent's hash was known keeps a link to its parent and the
rest of its header (`_AwaitingParent`), and the first read hashes it and
each such ancestor, oldest first, one header at a time (`_hash_branch`). A
block whose hash no one reads, such as an empty block after the last
request, is never hashed. A block with events is one an actor reads, so the
next seal finishes its `Sponge` if riding has not.

State is rolled back by one undo log: every write to `balances`,
`executed_seq` or a registered contract's `state` (nested maps included)
appends ``(map, key, prior value)``, and the chain records the log length at
the end of each canonical block. A reorg undoes the log back to the fork
block's mark, and a reverted contract call back to the mark taken at its
start, so a rollback costs one step per write undone at any depth.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace

from .codec import HASH_ALGS, hash_bytes, hash_header, hash_many
from .keccak import Sponge

ZERO32 = b"\x00" * 32
_ABSENT = object()  # undo-log prior value of a key that did not exist


class ChainError(Exception):
    pass


class DuplicateTransaction(ChainError):
    pass


class InvalidReorg(ChainError):
    pass


class InvalidRange(ChainError):
    pass


class Revert(Exception):
    """Raised by contract dispatch to abort the call and roll back state."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class JournaledMap(dict):
    """Chain state map whose writes append their prior values to the undo log.

    Item assignment is the only mutator; the others would bypass the log, so
    they raise `TypeError`.
    """

    __slots__ = ("_log",)

    def __init__(self, log: list, items=()):
        super().__init__(items)
        self._log = log

    def __setitem__(self, key, value) -> None:
        self._log.append((self, key, self.get(key, _ABSENT)))
        dict.__setitem__(self, key, value)

    def _unlogged(self, *args, **kwargs):
        raise TypeError("chain state changes only by item assignment")

    __delitem__ = __ior__ = clear = pop = popitem = _unlogged
    setdefault = update = _unlogged


def _journaled(log: list, state: dict) -> JournaledMap:
    return JournaledMap(log, {
        k: _journaled(log, v) if isinstance(v, dict) else v
        for k, v in state.items()})


@dataclass(frozen=True)
class ChainConfig:
    network_id: str
    block_time_ticks: int = 1
    hash_alg: str = "keccak256"
    finality_depth: int = 6

    def __post_init__(self):
        if not isinstance(self.network_id, str) or not self.network_id:
            raise ChainError("network_id must be a non-empty string")
        if self.hash_alg not in HASH_ALGS:
            raise ChainError(f"unknown hash_alg {self.hash_alg!r}")
        if self.block_time_ticks < 1:
            raise ChainError("block_time_ticks must be >= 1")
        if self.finality_depth < 0:
            raise ChainError("finality_depth must be >= 0")


@dataclass(frozen=True)
class Transaction:
    tx_hash: bytes
    sender: bytes
    recipient: bytes
    payload: bytes
    value: int
    seq: int


@dataclass(frozen=True)
class EventLog:
    emitter: bytes
    name: str
    attributes: tuple  # ordered (key, value-bytes) pairs
    tx_hash: bytes
    block_number: int


@dataclass(frozen=True)
class Receipt:
    tx_hash: bytes
    status: str  # "ok" | "reverted"
    reason: str = ""


class _AwaitingParent:
    """A keccak header sealed before its parent's hash was known: the header
    bytes after the parent hash (tick, salt, tx hashes, event hashes)."""

    __slots__ = ("tail",)

    def __init__(self, tail: bytes):
        self.tail = tail


def _hash_branch(block) -> None:
    """Hash ``block`` and each unhashed ancestor its header covers: walk
    back to the first ancestor whose header holds or computes its hash,
    then hash the branch oldest first, one header at a time (W = 1)."""
    branch = []
    while type(block.header) is _AwaitingParent:
        branch.append(block)
        block = block.parent
    if type(block.header) is Sponge:  # the branch's root
        block.__dict__["header"] = block.header()
    for b in reversed(branch):
        b.__dict__["header"] = hash_bytes("keccak256", b"".join([
            b.number.to_bytes(8, "big"), b.parent.header, b.header.tail]))


class _HashOnFirstRead:
    """`Block.block_hash`: the hash ``header`` holds or computes
    (`_hash_branch`), stored in the block on the first read, so that later
    reads are plain attribute reads."""

    def __get__(self, block, owner=None):
        if block is None:
            return self
        if type(block.header) is not bytes:
            _hash_branch(block)
        h = block.__dict__["block_hash"] = block.header
        return h


@dataclass(frozen=True)
class Block:
    number: int
    # the block hash, or until `block_hash` is first read a `keccak.Sponge`
    # riding in its chain's next runs (`codec.hash_header`) or an
    # `_AwaitingParent`
    header: object = field(repr=False, compare=False)
    # the parent's hash, or the parent block if its hash was not known when
    # this block sealed (read `parent_hash`)
    parent: object = field(repr=False, compare=False)
    tick: int
    transactions: tuple
    events: tuple
    receipts: tuple
    salt: int = 0  # production counter; distinguishes competing branches
    # hash of number, parent hash, tick, salt, the tx hashes and the event
    # hashes, concatenated; computed when first needed
    block_hash = _HashOnFirstRead()

    @property
    def parent_hash(self) -> bytes:
        p = self.parent
        return p if type(p) is bytes else p.block_hash

    def __getstate__(self) -> dict:
        # pickled and copied with its hashes, whether or not they were read
        # yet, and without the link to its parent
        h = self.block_hash
        return {**vars(self), "header": h, "block_hash": h,
                "parent": self.parent_hash}


@dataclass(frozen=True)
class ViewCorruption:
    """A deterministic lie applied by a read-only chain view: block
    ``block_number`` shown under ``fake_hash``, holding only the fake tx and
    event when those are given."""

    block_number: int
    fake_hash: bytes
    fake_transaction: Transaction | None = None
    fake_event: EventLog | None = None


class DispatchContext:
    """Handed to contract dispatch; mediates transfers and nested calls."""

    def __init__(self, chain: "Chain", block_number: int, tick: int, tx_hash: bytes):
        self.chain = chain
        self.block_number = block_number
        self.tick = tick
        self.tx_hash = tx_hash
        self.events: list[tuple[bytes, str, tuple]] = []

    def transfer(self, from_addr: bytes, to_addr: bytes, amount: int) -> None:
        if amount < 0:
            raise Revert("NegativeTransfer")
        bal = self.chain.balances
        bal[from_addr] = bal.get(from_addr, 0) - amount
        bal[to_addr] = bal.get(to_addr, 0) + amount

    def emit(self, emitter: bytes, name: str, attributes: list[tuple[str, bytes]]) -> None:
        self.events.append((emitter, name, tuple(attributes)))

    def call_contract(self, target: bytes, sender: bytes, value: int,
                      payload: bytes) -> tuple[str, str]:
        """Nested contract call; a revert undoes every write it made."""
        handler = self.chain.contracts.get(target)
        if handler is None:
            return "failed", "UnknownRecipient"
        mark = len(self.chain._log)
        events_mark = len(self.events)
        try:
            if value:
                self.transfer(sender, target, value)
            handler.dispatch(self, sender, value, payload)
            return "ok", ""
        except Revert as r:
            self.chain._undo(mark)
            del self.events[events_mark:]
            return "failed", r.reason


def _tx_preimage(sender, recipient, payload, value, seq) -> bytes:
    return (sender + recipient + len(payload).to_bytes(8, "big") + payload
            + value.to_bytes(32, "big") + seq.to_bytes(8, "big"))


def _event_preimage(event: EventLog) -> bytes:
    parts = [event.emitter, event.name.encode()]
    for k, v in event.attributes:
        parts.append(k.encode())
        parts.append(len(v).to_bytes(4, "big"))
        parts.append(v)
    return b"".join(parts)


class Chain:
    """Canonical chain plus pending pool, contract registry and all blocks."""

    def __init__(self, config: ChainConfig):
        self.config = config
        self._log: list[tuple[JournaledMap, object, object]] = []
        self._marks = [0]  # undo-log length at the end of each canonical block
        self.contracts: dict[bytes, object] = {}
        self.balances = JournaledMap(self._log)
        self.executed_seq = JournaledMap(self._log)
        self.pending: list[Transaction] = []
        self._next_seq: dict[bytes, int] = {}
        # txs built by make_transaction(s) and not yet submitted, by hash; their
        # hash was computed from their own fields, so submit need not redo it
        self._built: dict[bytes, Transaction] = {}
        self._produced = 0  # distinct-hash salt across branches
        # tx preimage first block -> keccak state after it (`hash_many`)
        self._first_blocks: OrderedDict[bytes, tuple] = OrderedDict()
        self.tick = 0
        genesis = Block(
            number=0,
            # number, parent hash, tick and salt, all zero; no tx or event
            header=hash_header(config.hash_alg, bytes(56)),
            parent=ZERO32,
            tick=0,
            transactions=(),
            events=(),
            receipts=(),
        )
        self.blocks: list[Block] = [genesis]
        self.all_blocks: list[Block] = [genesis]  # orphans too, in order made
        self.tx_index: dict[bytes, int] = {}  # canonical tx hash -> block number

    # -- construction helpers ------------------------------------------------

    def register_contract(self, handler) -> None:
        if handler.address in self.contracts:
            raise ChainError("contract address already registered")
        handler.state = _journaled(self._log, handler.state)
        self.contracts[handler.address] = handler

    def make_transaction(self, sender: bytes, recipient: bytes, payload: bytes,
                         value: int = 0) -> Transaction:
        return self.make_transactions([(sender, recipient, payload, value)])[0]

    def make_transactions(self, specs: list[tuple]) -> list[Transaction]:
        """One tx for each ``(sender, recipient, payload, value)``, seqs
        assigned in order, every tx hash computed in one `hash_many` batch.
        On a keccak chain a preimage whose first block an earlier tx of this
        chain shared starts from that block's remembered state, and the
        last block's header rides in the batch's run if it is unfinished."""
        fields, preimages = [], []
        for sender, recipient, payload, value in specs:
            seq = self._next_seq.get(sender, 0)
            self._next_seq[sender] = seq + 1
            fields.append((sender, recipient, payload, value, seq))
            preimages.append(_tx_preimage(sender, recipient, payload, value, seq))
        txs = []
        digests = hash_many(self.config.hash_alg, preimages, self._first_blocks,
                            self.all_blocks[-1].header)
        for tx_hash, f in zip(digests, fields):
            tx = Transaction(tx_hash, *f)
            self._built[tx_hash] = tx
            txs.append(tx)
        return txs

    def _tx_hash(self, sender, recipient, payload, value, seq) -> bytes:
        return hash_bytes(self.config.hash_alg,
                          _tx_preimage(sender, recipient, payload, value, seq))

    # -- core operations -----------------------------------------------------

    def submit_transaction(self, tx: Transaction) -> bytes:
        """Queue ``tx`` for the next block; its hash must match its fields.

        The hash is recomputed unless ``tx`` is the very object this chain's
        `make_transaction(s)` returned, so a copy with edited fields is checked.
        """
        if self._built.get(tx.tx_hash) is tx:
            del self._built[tx.tx_hash]
        elif tx.tx_hash != self._tx_hash(tx.sender, tx.recipient, tx.payload,
                                         tx.value, tx.seq):
            raise ChainError("transaction hash does not match canonical encoding")
        if (tx.tx_hash in self.tx_index
                or any(p.tx_hash == tx.tx_hash for p in self.pending)):
            raise DuplicateTransaction(tx.tx_hash.hex())
        self.pending.append(tx)
        return tx.tx_hash

    def mine_block(self, tick: int | None = None) -> Block:
        if tick is not None:
            self.tick = tick
        txs = self.pending
        self.pending = []
        block = self._execute_block(txs, self.tick, enforce_seq=False)
        self._append(block)
        return block

    def _execute_block(self, txs: list[Transaction], tick: int,
                       enforce_seq: bool) -> Block:
        """Execute txs in order against current state; returns the sealed block.

        ``enforce_seq`` (replay path) silently drops txs whose per-sender
        sequence is gapped, so dependents of a dropped tx never land
        out of order.
        """
        parent = self.blocks[-1]
        number = parent.number + 1
        included: list[Transaction] = []
        events: list[EventLog] = []
        receipts: list[Receipt] = []
        for tx in txs:
            expected_seq = self.executed_seq.get(tx.sender, 0)
            if enforce_seq and tx.seq != expected_seq:
                continue  # gapped: excluded by the in-order replay rule
            included.append(tx)
            self.executed_seq[tx.sender] = tx.seq + 1
            handler = self.contracts.get(tx.recipient)
            ctx = DispatchContext(self, number, tick, tx.tx_hash)
            if handler is None:
                # plain value transfer to an account
                ctx.transfer(tx.sender, tx.recipient, tx.value)
                receipts.append(Receipt(tx.tx_hash, "ok"))
                continue
            status, reason = ctx.call_contract(tx.recipient, tx.sender,
                                               tx.value, tx.payload)
            receipts.append(Receipt(tx.tx_hash, "ok" if status == "ok"
                                    else "reverted", reason))
            if status == "ok":
                for emitter, name, attrs in ctx.events:
                    events.append(EventLog(emitter, name, attrs,
                                           tx.tx_hash, number))
        self._produced += 1
        alg = self.config.hash_alg
        # the last block's header, if it is a `Sponge`, rides in the events'
        # run
        digests = hash_many(alg, [_event_preimage(e) for e in events],
                            carry=self.all_blocks[-1].header)
        # a header with events is one an actor reads (a request's block): if
        # it has not finished riding, it finishes here, in this quiet seal,
        # not in the relay's busy tick that reads it. A header still waiting
        # for its parent's hash waits on, since its walk may be long
        if parent.events and type(parent.header) is Sponge:
            parent.block_hash
        tail = b"".join([tick.to_bytes(8, "big"),
                         self._produced.to_bytes(8, "big"),
                         *[t.tx_hash for t in included], *digests])
        known = parent.header  # the parent's hash, if known without hashing
        if type(known) is Sponge:
            known = known.digest  # None until its last block has ridden
        if type(known) is bytes:
            header = hash_header(alg, number.to_bytes(8, "big") + known + tail)
            link = known
        else:
            header, link = _AwaitingParent(tail), parent
        return Block(
            number=number,
            header=header,
            parent=link,
            tick=tick,
            transactions=tuple(included),
            events=tuple(events),
            receipts=tuple(receipts),
            salt=self._produced,
        )

    def _append(self, block: Block) -> None:
        self.blocks.append(block)
        self.all_blocks.append(block)
        for tx in block.transactions:
            self.tx_index[tx.tx_hash] = block.number
        self._marks.append(len(self._log))

    def _undo(self, mark: int) -> None:
        """Restore every state write logged after position ``mark``."""
        log = self._log
        for target, key, prior in reversed(log[mark:]):
            if prior is _ABSENT:
                dict.__delitem__(target, key)
            else:
                dict.__setitem__(target, key, prior)
        del log[mark:]

    def inject_reorg(self, depth: int, drop_txs: set[bytes] = frozenset()) -> None:
        head = self.blocks[-1].number
        if depth < 1 or depth > head:
            raise InvalidReorg(f"depth {depth} with head {head}")
        fork = head - depth
        orphaned = self.blocks[fork + 1:]
        replay = [tx for b in orphaned for tx in b.transactions
                  if tx.tx_hash not in drop_txs]
        # rewind
        self._undo(self._marks[fork])
        del self.blocks[fork + 1:]
        del self._marks[fork + 1:]
        for b in orphaned:
            for tx in b.transactions:
                self.tx_index.pop(tx.tx_hash, None)
        # new, strictly longer branch: replay everything into its first block
        self._append(self._execute_block(replay, self.tick, enforce_seq=True))
        for _ in range(depth):
            self._append(self._execute_block([], self.tick, enforce_seq=False))

    # -- canonical read API (the view handed to protocol actors) -------------

    def head_number(self) -> int:
        return self.blocks[-1].number

    def get_block(self, number: int) -> Block | None:
        if 0 <= number <= self.blocks[-1].number:
            return self.blocks[number]
        return None

    def get_transaction(self, tx_hash: bytes) -> tuple[Transaction, int] | None:
        number = self.tx_index.get(tx_hash)
        if number is None:
            return None
        for tx in self.blocks[number].transactions:
            if tx.tx_hash == tx_hash:
                return tx, number
        return None

    def get_receipt(self, tx_hash: bytes) -> Receipt | None:
        number = self.tx_index.get(tx_hash)
        if number is None:
            return None
        for r in self.blocks[number].receipts:
            if r.tx_hash == tx_hash:
                return r
        return None

    def get_events(self, emitter: bytes | None, name: str | None,
                   from_block: int, to_block: int) -> list[EventLog]:
        if from_block > to_block:
            raise InvalidRange(f"{from_block} > {to_block}")
        out = []
        hi = min(to_block, self.blocks[-1].number)
        for number in range(max(from_block, 0), hi + 1):
            for ev in self.blocks[number].events:
                if emitter is not None and ev.emitter != emitter:
                    continue
                if name is not None and ev.name != name:
                    continue
                out.append(ev)
        return out

    def confirmations(self, tx_hash: bytes) -> int | None:
        number = self.tx_index.get(tx_hash)
        if number is None:
            return None
        return self.blocks[-1].number - number


class ChainView:
    """Read-only chain view, optionally applying a deterministic corruption.

    Actors are handed views rather than the chain itself; a corrupted view
    models a compromised chain connection for one actor without touching
    the underlying ledger. A view carries the chain's ``network_id``,
    ``hash_alg`` and ``finality_depth`` (the confirmations that make a block
    final there), so each actor reads them from its own view. It runs the
    chain's own reads, `Chain`'s methods bound to the view when it is built,
    over the blocks it shows: an honest view's ``blocks`` and ``tx_index``
    are the chain's, a corrupted view's are `_Shown`. Once the chain has
    sealed block ``corruption.block_number``, every read shows one forged
    block (`_forged`) in its place, hiding the real block N, its hash, its
    events and every tx of it that the forged block does not hold. The view
    makes one forged block per real block N, so reads see the same object
    until a reorg replaces block N.
    """

    def __init__(self, chain: Chain, corruption: ViewCorruption | None = None):
        self._chain = chain
        self.corruption = corruption
        self.network_id = chain.config.network_id
        self.hash_alg = chain.config.hash_alg
        self.finality_depth = chain.config.finality_depth
        self._forgery: tuple[Block, Block] | None = None  # (real, forged)
        if corruption is None:
            self.blocks, self.tx_index = chain.blocks, chain.tx_index
        else:
            self.blocks = self.tx_index = _Shown(self)
        # bound here, not on the class, so that a read wrapped on `Chain`
        # before the view is built (a tracer's) is the one the view runs
        for read in ("head_number", "get_block", "get_transaction",
                     "get_receipt", "get_events", "confirmations"):
            setattr(self, read, getattr(Chain, read).__get__(self))

    def _forged(self) -> Block | None:
        """The block shown at ``corruption.block_number`` (None: the chain
        has not sealed that block yet): the real block under the fake hash,
        holding only the fake tx and event if there are any."""
        c = self.corruption
        real = self._chain.get_block(c.block_number)
        if real is None:
            return None
        if self._forgery is not None and self._forgery[0] is real:
            return self._forgery[1]
        if c.fake_transaction is None and c.fake_event is None:
            forged = replace(real, header=c.fake_hash)
        else:
            txs = (c.fake_transaction,) if c.fake_transaction else ()
            forged = replace(
                real, header=c.fake_hash, transactions=txs,
                events=(c.fake_event,) if c.fake_event else (),
                receipts=tuple(Receipt(t.tx_hash, "ok") for t in txs))
        self._forgery = (real, forged)
        return forged


class _Shown:
    """A corrupted view's ``blocks`` and ``tx_index``: the chain's, with the
    forged block at number N and only the forged block's txs indexed at N."""

    def __init__(self, view: ChainView):
        self._chain, self._forged = view._chain, view._forged

    def __getitem__(self, number: int) -> Block:
        forged = self._forged()
        if forged is not None and number == forged.number:
            return forged
        return self._chain.blocks[number]

    def get(self, tx_hash: bytes) -> int | None:
        number = self._chain.tx_index.get(tx_hash)
        forged = self._forged()
        if forged is None:
            return number
        if any(tx.tx_hash == tx_hash for tx in forged.transactions):
            return forged.number
        return None if number == forged.number else number
