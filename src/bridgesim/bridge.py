"""Relay daemon: event detection, signature collection, ordered submission.

The bridge is a single logical actor advanced once per scheduler tick. It
posts each signatory the `SigningRequest` object itself and reads
`(transfer_id, digest, SignResponse)` triples from `inbox`, ``digest`` being
the request's; a refusal carries no signature and counts for nothing. A job
asks for signatures at its source view's ``finality_depth`` confirmations
and is done at its dest view's. While paused, the bridge files the answers
it receives and moves no job. Every journal line is appended by
`_transition` alone, which writes the job's record through to the store, so
a bridge can be killed at any transition point and rebuilt with
`BridgeNode.restore` without ever double-delivering a transfer.

`STATES` is the relay's one statement of its legal moves, one row per
state: `_advance` runs a row's step, `_transition` refuses a move that no
row lists, and `restore` a record in a state that no job rests in.

`jobs` maps each transfer id to its real job and is the only table that
holds real job objects; `moving` and `queued` hold transfer ids. Each job
keeps one source block, `source_block`: the block that holds its request, or
the one a forged job claims.

One rule holds a job back, as the destination adapter's nonce check would
revert it otherwise: the ``blocked`` flag of `BridgeNode.step`'s pass in id
order, set once an earlier id is in a state whose row holds back later ids
or awaits dest finality while its `Processed` tx is off the dest chain. A
blocked job does not submit. Every dest revert is retried one way: it costs
an attempt unless it is an `OutOfOrder` revert of a blocked job, past
``max_retries`` attempts the job stalls ``destinationRejected:<reason>``,
and otherwise it resends the identical `submitted_payload`. Real jobs that
are neither `done` nor `stalled` are split in two id sets, kept by
`BridgeNode._track` once `restore` has filled them:

- `queued` holds the parked jobs: in `submitting`, with no tx out and not
  the censored id. Each waits for every earlier id, and the lowest queued id
  stays in progress, so only that head can act in a tick, and only when no
  earlier moving job blocks it. Each step visits the head at its id
  position if it is not blocked, and skips the rest of the queue. A heap of
  the queued ids (`_heads`; an id that left the queue is dropped when it
  surfaces) finds the head in O(log n).
- `moving` holds every other live job; each step visits them all in id
  order. A censored job stays here, so it stalls at its first visit even
  behind earlier ids.

Every job is found by its transfer id: `_with_id` gives the live real job
with that id, then the forged jobs with it. A dest event moves those in
`submitting` that carry its source tx hash; a signing response reaches the
first of them in `collectingSignatures` whose digest it signs. Forged jobs
have their own list, visited every step, and skip the hold-back rule. The
relay keeps delivery state only and raises no alarm; the world's chain
monitor watches the heads. A job reacts to a reorg through its own checks,
`sourceOrphaned` at source finality and the canonical-receipt check at dest
finality.

The store is the journal plus one immutable record per job (the job's
fields as a tuple, `collected` as a tuple of pairs): `_persist` overwrites a
job's record next to each journal line and for each job `restore` resets. A
crash image (`persisted`) copies the references to the lines and records
written so far and serialises nothing. A restart costs time in the jobs that
can act, not in the backlog: `restore` files the parked jobs by reading
their records' state and sent tx, and thaws only the other live jobs and the
forged jobs; every other job stays its record in `jobs` (a `_JobTable`) until
read, e.g. as the unblocked queue head or by a dest event naming its id.
The report reads the stall reasons from the records.
"""

from __future__ import annotations

from bisect import insort
from collections import UserDict
from dataclasses import dataclass, field, fields
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Iterator, NamedTuple

from .adapter import (
    encode_process_transfer,
    event_attr,
    message_from_request_event,
)
from .chain import Block, Chain, ChainView
from .codec import (
    SIGNATURE_LEN,
    Keypair,
    TransferMessage,
    compute_transfer_hash,
)
from .signatory import SigningRequest


class _State(NamedTuple):
    """A row of `STATES`; a state that a job rests in is final or has a step."""

    moves: tuple[str, ...]  # the states a job in this one may move to
    holds_back: bool = False  # a job here holds back every later id
    final: bool = False
    step: str = ""  # the BridgeNode method that advances a job here


# A job starts in an entry row, `detected` or `forged`, and leaves it in the
# same call, so no job rests there. The self-loops but `submitting`'s are
# `byzantine_replay`'s alone.
STATES = {
    "detected": _State(("awaitingFinality",)),
    "forged": _State(("awaitingFinality",)),
    "awaitingFinality": _State(("collectingSignatures", "stalled"),
                               holds_back=True, step="_advance_finality"),
    "collectingSignatures": _State(("submitting", "stalled"), holds_back=True,
                                   step="_advance_collecting"),
    "submitting": _State(
        ("submitting", "awaitingDestFinality", "done", "stalled"),
        holds_back=True, step="_advance_submitting"),
    "awaitingDestFinality": _State(
        ("submitting", "done", "awaitingDestFinality"),
        step="_advance_processed"),
    "done": _State(("done",), final=True),
    "stalled": _State(("stalled",), final=True),
}
MOVES = frozenset((a, b) for a, row in STATES.items() for b in row.moves)
RESTING = frozenset(s for s, row in STATES.items() if row.step or row.final)
FINAL_STATES = frozenset(s for s, row in STATES.items() if row.final)
IN_PROGRESS = frozenset(s for s, row in STATES.items() if row.holds_back)


@dataclass
class BridgeConfig:
    source_adapter: bytes
    dest_adapter: bytes
    relayer: Keypair
    signatory_ids: list[str]
    signatory_keys: list[bytes]
    quorum_size: int
    sign_timeout_ticks: int
    max_retries: int
    censor_transfer_id: int | None


@dataclass
class TransferJob:
    transfer: TransferMessage
    state: str = "detected"
    attempts: int = 0
    # where the request is, or where a forged job claims it is
    source_block: Block | None = None
    digest: bytes = b""
    request_tick: int = -1
    submitted_payload: bytes = b""
    submitted_tx: bytes = b""
    processed_block: int | None = None
    processed_tx: bytes = b""  # the dest tx that emitted Processed
    stall_reason: str = ""
    forged: bool = False
    # pubkey -> signature; the last field, as _freeze and _thaw expect
    collected: dict = field(default_factory=dict)

    @property
    def transfer_id(self) -> int:
        return self.transfer.source_transfer_id


_FIELDS = [f.name for f in fields(TransferJob)]
_OTHER_FIELDS = attrgetter(*_FIELDS[:-1])
# where restore and stalls read a record without thawing it
_STATE, _SENT_TX, _STALL_REASON = map(
    _FIELDS.index, ("state", "submitted_tx", "stall_reason"))


def _freeze(job: TransferJob) -> tuple:
    """``job`` as a record: its fields in order, ``collected`` as a tuple of
    pairs, so that nothing in the record can change."""
    return (*_OTHER_FIELDS(job), tuple(job.collected.items()))


def _thaw(record: tuple) -> TransferJob:
    """A fresh job from ``record``: no write to it reaches the record."""
    return TransferJob(*record[:-1], dict(record[-1]))


class CrashImage(NamedTuple):
    """What a crash leaves of a bridge: its journal so far, each job's latest
    record, its cursors and pause flag."""

    journal: tuple[str, ...]
    records: dict[int, tuple]  # real id -> record, in job order
    forged: dict[int, tuple]  # place in forged_jobs -> record
    source_cursor: int
    dest_cursor: int
    paused: bool


class _JobTable(UserDict):
    """``transfer_id -> TransferJob`` of a restored bridge. A job is held as
    its record until first read, then thawed in place, so every read sees
    the same object in the same order as a plain dict would."""

    def __init__(self, records: dict[int, tuple]):
        self.data = dict(records)

    def __getitem__(self, tid: int) -> TransferJob:
        job = self.data[tid]
        if type(job) is tuple:
            job = self.data[tid] = _thaw(job)
        return job


class BridgeNode:
    def __init__(self, config: BridgeConfig, source_view: ChainView,
                 dest_view: ChainView, dest_chain: Chain, post):
        """``post(recipient_id, message)`` enqueues a bus message; ``dest_chain``
        is the write handle used to submit relayer transactions."""
        self.config = config
        self.source_view = source_view
        self.dest_view = dest_view
        self.dest_chain = dest_chain
        self.post = post
        self.jobs: dict[int, TransferJob] = {}  # a _JobTable once restored
        self.moving: set[int] = set()
        self.queued: set[int] = set()
        self._heads: list[int] = []  # a heap of the queued ids, and stale ones
        self.forged_jobs: list[TransferJob] = []
        self.journal: list[str] = []
        self.inbox: list = []
        self.paused = False
        self.source_cursor = 0
        self.dest_cursor = 0
        self.inflight: TransferJob | None = None
        # job records, written by _persist alone
        self._records: dict[int, tuple] = {}  # real id -> record, in job order
        self._forged: dict[int, tuple] = {}  # place in forged_jobs -> record

    # -- journal / persistence ----------------------------------------------

    def _transition(self, tick: int, job: TransferJob, to_state: str,
                    detail: str) -> None:
        """The journal's only writer: move ``job``, log it, store it. A move
        that `STATES` does not list raises."""
        if (job.state, to_state) not in MOVES:
            raise RuntimeError(f"transfer {job.transfer_id}: {job.state} -> "
                               f"{to_state} is not a move in STATES")
        from_state, job.state = job.state, to_state
        self._track(job)
        self.journal.append(
            f"{tick} | {job.transfer_id} | {from_state} -> {to_state} | {detail}")
        self._persist(job)

    def _parked(self, tid: int, state: str, submitted_tx: bytes) -> bool:
        return (state == "submitting" and not submitted_tx
                and tid != self.config.censor_transfer_id)

    def _track(self, job: TransferJob) -> None:
        """File a real ``job``'s id in ``moving`` or ``queued`` (and its
        heap) after its state or ``submitted_tx`` changed; besides
        ``restore``, the only writer of the two. Forged jobs are in neither."""
        if job.forged:
            return
        tid = job.transfer_id
        self.moving.discard(tid)
        if self._parked(tid, job.state, job.submitted_tx):
            if tid not in self.queued:
                self.queued.add(tid)
                heappush(self._heads, tid)
        else:
            self.queued.discard(tid)
            if job.state not in FINAL_STATES:
                self.moving.add(tid)

    def _persist(self, job: TransferJob) -> None:
        """Overwrite ``job``'s record with its current fields."""
        if job.forged:
            place = next(i for i, j in enumerate(self.forged_jobs) if j is job)
            self._forged[place] = _freeze(job)
        else:
            self._records[job.transfer_id] = _freeze(job)

    @property
    def persisted(self) -> CrashImage:
        """The durable store as a crash would find it. It shares the lines
        and records written so far; later writes do not reach it."""
        return CrashImage(
            tuple(self.journal), dict(self._records), dict(self._forged),
            self.source_cursor, self.dest_cursor, self.paused)

    @classmethod
    def restore(cls, image: CrashImage, config: BridgeConfig,
                source_view: ChainView, dest_view: ChainView,
                dest_chain: Chain, post) -> "BridgeNode":
        """Rebuild a bridge from its crash image. In-flight submissions are
        resubmitted; the destination adapter's processed map turns
        duplicates into AlreadyProcessed events. Only the live jobs that can
        act and the forged jobs are thawed, and a record is overwritten only
        for a job whose sent tx is reset here. A collecting job's record
        holds no request tick, so it rebroadcasts on its next step."""
        node = cls(config, source_view, dest_view, dest_chain, post)
        node.journal = list(image.journal)
        node._records, node._forged = dict(image.records), dict(image.forged)
        node.jobs = _JobTable(node._records)
        node.forged_jobs = [_thaw(record) for record in node._forged.values()]
        node.source_cursor = image.source_cursor
        node.dest_cursor = image.dest_cursor
        node.paused = image.paused
        acting = []
        for tid, record in node._records.items():
            state = record[_STATE]
            if state in FINAL_STATES:
                continue
            if node._parked(tid, state, record[_SENT_TX]):
                # only the queue head can act, so thaw it later
                node.queued.add(tid)
            else:
                acting.append(node.jobs[tid])
        node._heads = list(node.queued)
        heapify(node._heads)
        for job in acting + node.forged_jobs:  # any record at no rest is here
            if job.state not in RESTING:
                raise ValueError(f"transfer {job.transfer_id}: a record in "
                                 f"{job.state!r}, which no job rests in")
            if job.state == "submitting" and job.submitted_tx:
                # the submitted tx may or may not have landed; resubmit
                job.submitted_tx = b""
                node._persist(job)
            node._track(job)
        return node

    def stalls(self) -> list[list]:
        """``[transfer_id, stall_reason]`` of each stalled real job, read
        from its record, then of each stalled forged job."""
        return [[tid, record[_STALL_REASON]]
                for tid, record in self._records.items()
                if record[_STATE] == "stalled"] + [
            [j.transfer_id, j.stall_reason] for j in self.forged_jobs
            if j.state == "stalled"]

    # -- operator controls ---------------------------------------------------

    def operator_pause(self) -> None:
        self.paused = True

    def operator_resume(self) -> None:
        self.paused = False

    def idle(self) -> bool:
        """Nothing moves without outside input: paused (only a resume moves
        its jobs), or no live real job and every forged job final."""
        return self.paused or not (self.moving or self.queued) and all(
            j.state in FINAL_STATES for j in self.forged_jobs)

    # -- main loop -----------------------------------------------------------

    def step(self, tick: int) -> None:
        if self.paused:
            # file the answers to requests sent before the pause, so that a
            # resumed job is not timed out, and drop the rest as ever
            self._collect_responses(tick)
            return
        self._scan_source(tick)
        self._scan_dest(tick)
        self._collect_responses(tick)
        # in id order: ``blocked`` holds once an earlier id is still in
        # progress, or awaits dest finality with its Processed tx lost
        order = sorted(self.moving)
        while self._heads and self._heads[0] not in self.queued:
            heappop(self._heads)  # an id that left the queue since its push
        head = self._heads[0] if self._heads else None
        if head is not None:
            insort(order, head)
        blocked = False
        for tid in order:
            if tid == head and blocked:
                continue  # it would wait, and it blocks later ids either way
            job = self.jobs[tid]
            self._advance(job, tick, blocked)
            blocked = blocked or job.state in IN_PROGRESS or (
                job.state == "awaitingDestFinality"
                and self.dest_view.get_receipt(job.processed_tx) is None)
        for job in self.forged_jobs:
            self._advance(job, tick)

    def _scan_source(self, tick: int) -> None:
        head = self.source_view.head_number()
        if head <= self.source_cursor:
            return
        events = self.source_view.get_events(
            self.config.source_adapter, "BridgeTransferRequested",
            self.source_cursor + 1, head)
        for ev in events:
            transfer = message_from_request_event(
                ev, ev.tx_hash, self.config.source_adapter,
                self.source_view.network_id)
            transfer_id = transfer.source_transfer_id
            if transfer_id in self.jobs:
                continue
            job = TransferJob(
                transfer=transfer,
                source_block=self.source_view.get_block(ev.block_number))
            self.jobs[transfer_id] = job
            self._transition(tick, job, "awaitingFinality",
                             f"sealed at {ev.block_number}")
        self.source_cursor = head

    def _scan_dest(self, tick: int) -> None:
        head = self.dest_view.head_number()
        if head <= self.dest_cursor:
            return
        events = self.dest_view.get_events(
            self.config.dest_adapter, None, self.dest_cursor + 1, head)
        self.dest_cursor = head
        for ev in events:
            if ev.name not in ("Processed", "AlreadyProcessed"):
                continue
            src_hash = event_attr(ev, "sourceTxHash")
            tid = int.from_bytes(event_attr(ev, "transferId"), "big")
            for job in self._with_id(tid):
                if (job.state != "submitting"
                        or job.transfer.source_transaction_hash != src_hash):
                    continue
                if self.inflight is job:
                    self.inflight = None
                if ev.name == "Processed":
                    job.processed_block = ev.block_number
                    job.processed_tx = ev.tx_hash
                    self._transition(tick, job, "awaitingDestFinality",
                                     f"processed at {ev.block_number}")
                else:
                    self._transition(tick, job, "done",
                                     "already processed on resubmission")

    def _with_id(self, tid: int) -> Iterator[TransferJob]:
        """The live real job with id ``tid``, then the forged jobs with that
        id in list order. A final real job is not read, so its record stays
        unthawed."""
        if tid in self.moving or tid in self.queued:
            yield self.jobs[tid]
        for job in self.forged_jobs:
            if job.transfer_id == tid:
                yield job

    def _collect_responses(self, tick: int) -> None:
        inbox, self.inbox = self.inbox, []
        for transfer_id, digest, resp in inbox:
            for job in self._with_id(transfer_id):
                if job.state == "collectingSignatures" and job.digest == digest:
                    break
            else:
                continue  # no job awaits signatures over this digest
            pub, sig = resp.public_key, resp.signature
            # cursory checks only: length and known key (the bridge cannot
            # fully validate signature schemes it does not understand); a
            # refusal carries no signature, so the length check drops it
            if len(sig) != SIGNATURE_LEN or pub not in self.config.signatory_keys:
                continue
            job.collected[pub] = sig

    def _advance(self, job: TransferJob, tick: int, blocked=False) -> None:
        """Run the step of ``job``'s row in `STATES`; a final job has none."""
        step = STATES[job.state].step
        if step:
            getattr(self, step)(job, tick, blocked)

    def _advance_finality(self, job: TransferJob, tick: int,
                          blocked: bool) -> None:
        if job.forged:
            self._begin_collecting(job, tick)
            return
        conf = self.source_view.confirmations(
            job.transfer.source_transaction_hash)
        if conf is None:
            job.stall_reason = "sourceOrphaned"
            self._transition(tick, job, "stalled", "request left canonical chain")
            return
        if conf >= self.source_view.finality_depth:
            self._begin_collecting(job, tick)

    def _begin_collecting(self, job: TransferJob, tick: int) -> None:
        job.digest = compute_transfer_hash(job.transfer,
                                           self.dest_view.hash_alg)
        self._transition(tick, job, "collectingSignatures",
                         f"digest {job.digest.hex()[:16]}")
        self._broadcast_request(job, tick)

    def _broadcast_request(self, job: TransferJob, tick: int) -> None:
        req = SigningRequest(
            source_block_number=job.source_block.number,
            source_block_hash=job.source_block.block_hash,
            source_transaction_hash=job.transfer.source_transaction_hash,
            transfer_data_hash=job.digest,
            transfer=job.transfer,
        )
        job.request_tick = tick
        for sid in self.config.signatory_ids:
            self.post(sid, req)

    def _advance_collecting(self, job: TransferJob, tick: int,
                            blocked: bool) -> None:
        if len(job.collected) >= self.config.quorum_size:
            self._transition(tick, job, "submitting",
                             f"{len(job.collected)} signatures")
            return
        if job.request_tick < 0:
            self._broadcast_request(job, tick)
            return
        if tick - job.request_tick >= self.config.sign_timeout_ticks:
            job.attempts += 1
            if job.attempts > self.config.max_retries:
                job.stall_reason = "signatureTimeout"
                self._transition(tick, job, "stalled",
                                 f"gave up after {job.attempts} attempts")
            else:
                self._broadcast_request(job, tick)

    def _advance_submitting(self, job: TransferJob, tick: int,
                            blocked: bool) -> None:
        if self.config.censor_transfer_id == job.transfer_id and not job.forged:
            job.stall_reason = "censored"
            self._transition(tick, job, "stalled", "censored by bridge")
            return
        if job.submitted_tx:
            receipt = self.dest_view.get_receipt(job.submitted_tx)
            if receipt is None or receipt.status == "ok":
                return  # pending, or landed fine: wait for the event scan
            self.inflight = None
            job.submitted_tx = b""
            self._track(job)
            # held back by an earlier id: the revert is not this job's own
            if not (receipt.reason == "OutOfOrder" and blocked):
                job.attempts += 1
            if job.attempts > self.config.max_retries:
                job.stall_reason = f"destinationRejected:{receipt.reason}"
                self._transition(tick, job, "stalled", receipt.reason)
                return
            # every revert: retry the identical signed payload
        if self.inflight is not None and self.inflight is not job:
            return  # strictly one in-flight destination submission
        if blocked:
            return  # an earlier id must land first or the nonce check reverts
        self._submit(job, tick)

    def _submit(self, job: TransferJob, tick: int) -> None:
        if not job.submitted_payload:
            entries = sorted(job.collected.items())
            job.submitted_payload = encode_process_transfer(
                job.transfer, entries)
        job.submitted_tx = self._send(job.submitted_payload)
        self.inflight = job
        self._transition(tick, job, "submitting",
                         f"tx {job.submitted_tx.hex()[:16]}")

    def _send(self, payload: bytes) -> bytes:
        """Send ``payload`` to the dest adapter as the relayer; the tx hash."""
        tx = self.dest_chain.make_transaction(
            sender=self.config.relayer.public_key,
            recipient=self.config.dest_adapter,
            payload=payload,
            value=0,
        )
        self.dest_chain.submit_transaction(tx)
        return tx.tx_hash

    def _advance_processed(self, job: TransferJob, tick: int,
                           blocked: bool) -> None:
        """``done`` at dest finality, or back to ``submitting`` if a dest
        reorg dropped the tx that emitted ``Processed``."""
        conf = self.dest_view.head_number() - (job.processed_block or 0)
        if conf < self.dest_view.finality_depth:
            return
        if self.dest_view.get_receipt(job.processed_tx) is None:
            job.submitted_tx = b""
            self._transition(tick, job, "submitting",
                             f"tx {job.processed_tx.hex()[:16]} left the "
                             "dest chain")
            return
        self._transition(tick, job, "done", f"{conf} confirmations")

    # -- byzantine behaviors -------------------------------------------------

    def byzantine_replay(self, transfer_id: int, tick: int) -> None:
        """Resubmit a job's signed transaction verbatim, in its state."""
        job = self.jobs.get(transfer_id)
        if job is None or not job.submitted_payload:
            return
        tx_hash = self._send(job.submitted_payload)
        self._transition(tick, job, job.state,
                         f"replayed tx {tx_hash.hex()[:16]}")

    def byzantine_forge(self, m: TransferMessage, tick: int,
                        claimed_block: Block) -> None:
        """Fabricate a transfer that never occurred on the source chain."""
        job = TransferJob(transfer=m, forged=True, source_block=claimed_block,
                          state="forged")
        self.forged_jobs.append(job)
        self._transition(tick, job, "awaitingFinality", "fabricated transfer")

    def byzantine_flood(self, count: int, tick: int) -> None:
        """Send a burst of junk signing requests to every signatory."""
        bogus = SigningRequest(
            source_block_number=0,
            source_block_hash=b"\xff" * 32,
            source_transaction_hash=b"\xff" * 32,
            transfer_data_hash=b"\xff" * 32,
            transfer=TransferMessage(b"\xff" * 32, b"\xff" * 32, b"\xff" * 32,
                                     b"\xff\xff\xff\xff", 0, 0, "bogus"),
        )
        for _ in range(count):
            for sid in self.config.signatory_ids:
                self.post(sid, bogus)
