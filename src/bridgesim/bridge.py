"""Relay daemon: event detection, signature collection, ordered submission.

The bridge is a single logical actor advanced once per scheduler tick. It
posts each signatory the `SigningRequest` object itself and reads
`(transfer_id, SignResponse)` pairs from `inbox`. All job-state transitions
are appended to a journal by `_write_journal` alone, which writes the job's
record through to the store, so a bridge can be killed at any transition
point and rebuilt with `BridgeNode.restore` without ever double-delivering a
transfer.

`jobs` maps each transfer id to its real job and is the only table that
holds real job objects; `moving`, `queued` and `by_source_tx` hold transfer
ids. A job submits once no earlier id is still in progress (`IN_PROGRESS`),
as the destination adapter's nonce check would revert it otherwise. Real
jobs that are neither `done` nor `stalled` are split in two id sets, kept by
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

`by_source_tx` maps a source tx hash to the ids of the real jobs in
`submitting` that carry it, so the dest event scan looks each event up
instead of scanning the jobs. Forged jobs have their own list, visited every
step; they skip the ordering rule, and the dest scan matches them from that
list.

The store is the journal plus one immutable record per job (the job's
fields as a tuple, `collected` as a tuple of pairs): `_persist` overwrites a
job's record next to each journal line and for each job `restore` resets. A
crash image (`persisted`) copies the references to the lines and records
written so far and serialises nothing. A restart costs time in the jobs that
can act, not in the backlog: `restore` files the parked jobs by reading
their records' state and sent tx, and thaws only the other live jobs and the
forged jobs; every other job stays its record in `jobs` (a `_JobTable`) until
read, e.g. as the unblocked queue head or by the dest scan matching its
source hash. The report reads the stall reasons from the records.
"""

from __future__ import annotations

from bisect import insort
from collections import UserDict
from dataclasses import dataclass, field, fields
from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import NamedTuple

from .adapter import (
    encode_process_transfer,
    event_attr,
    message_from_request_event,
)
from .chain import Chain, ChainView
from .codec import (
    SIGNATURE_LEN,
    Keypair,
    TransferMessage,
    compute_transfer_hash,
)
from .signatory import SigningRequest

JOB_STATES = ("detected", "awaitingFinality", "collectingSignatures",
              "submitting", "awaitingDestFinality", "done", "stalled")
FINAL_STATES = ("done", "stalled")
IN_PROGRESS = JOB_STATES[:4]  # holds back the submission of every later id


@dataclass
class BridgeConfig:
    source_adapter: bytes
    dest_adapter: bytes
    relayer: Keypair
    signatory_ids: list[str]
    signatory_keys: list[bytes]
    quorum_size: int
    source_finality: int = 6
    dest_finality: int = 6
    sign_timeout_ticks: int = 8
    max_retries: int = 3
    liveness_timeout_ticks: int = 50
    reorg_response: str = "continue"  # pause | retry | continue
    censor_transfer_id: int | None = None


@dataclass
class TransferJob:
    transfer: TransferMessage
    state: str = "detected"
    attempts: int = 0
    source_block_number: int = 0
    source_block_hash: bytes = b""
    digest: bytes = b""
    request_tick: int = -1
    transient_refusal: bool = False
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
_TRANSFER, _STATE, _SENT_TX, _STALL_REASON = map(
    _FIELDS.index, ("transfer", "state", "submitted_tx", "stall_reason"))


def _freeze(job: TransferJob) -> tuple:
    """``job`` as a record: its fields in order, ``collected`` as a tuple of
    pairs, so that nothing in the record can change."""
    return (*_OTHER_FIELDS(job), tuple(job.collected.items()))


def _thaw(record: tuple) -> TransferJob:
    """A fresh job from ``record``: no write to it reaches the record."""
    return TransferJob(*record[:-1], dict(record[-1]))


class CrashImage(NamedTuple):
    """What a crash leaves of a bridge: its journal so far, each job's latest
    record, its cursors, alarms and pause flag."""

    journal: tuple[str, ...]
    records: dict[int, tuple]  # real id -> record, in job order
    forged: dict[int, tuple]  # place in forged_jobs -> record
    source_cursor: int
    dest_cursor: int
    alarms: tuple[tuple, ...]
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


@dataclass
class ChainStatus:
    last_seen_head: tuple  # (number, hash) of the head last seen
    ticks_since_new_block: int = 0


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
        self.by_source_tx: dict[bytes, set[int]] = {}
        self.forged_jobs: list[TransferJob] = []
        self.journal: list[str] = []
        self.inbox: list = []
        self.paused = False
        self.alarms: list[tuple] = []
        self.source_cursor = 0
        self.dest_cursor = 0
        self.inflight: TransferJob | None = None
        self.status = {
            "source": ChainStatus((source_view.head_number(),
                                   source_view.head_hash())),
            "dest": ChainStatus((dest_view.head_number(),
                                 dest_view.head_hash())),
        }
        # job records, written by _persist alone
        self._records: dict[int, tuple] = {}  # real id -> record, in job order
        self._forged: dict[int, tuple] = {}  # place in forged_jobs -> record

    # -- journal / persistence ----------------------------------------------

    def _transition(self, tick: int, job: TransferJob, to_state: str,
                    detail: str = "") -> None:
        from_state, job.state = job.state, to_state
        self._track(job)
        self._write_journal(tick, job, from_state, to_state, detail)

    def _write_journal(self, tick: int, job: TransferJob, from_state: str,
                       to_state: str, detail: str) -> None:
        """Append one journal line and write ``job`` through to the store."""
        self.journal.append(
            f"{tick} | {job.transfer_id} | {from_state} -> {to_state} | {detail}")
        self._persist(job)

    def _parked(self, tid: int, state: str, submitted_tx: bytes) -> bool:
        return (state == "submitting" and not submitted_tx
                and tid != self.config.censor_transfer_id)

    def _track(self, job: TransferJob) -> None:
        """File a real ``job``'s id in ``moving``, ``queued`` (and its heap)
        and ``by_source_tx`` after its state or ``submitted_tx`` changed;
        besides ``restore``, the only writer of the three. Forged jobs are in
        none."""
        if job.forged:
            return
        tid, src_hash = job.transfer_id, job.transfer.source_transaction_hash
        self.moving.discard(tid)
        carriers = self.by_source_tx.pop(src_hash, set())
        carriers.discard(tid)
        if job.state == "submitting":
            carriers.add(tid)
        if carriers:
            self.by_source_tx[src_hash] = carriers
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
            self.source_cursor, self.dest_cursor, tuple(self.alarms),
            self.paused)

    @classmethod
    def restore(cls, image: CrashImage, config: BridgeConfig,
                source_view: ChainView, dest_view: ChainView,
                dest_chain: Chain, post) -> "BridgeNode":
        """Rebuild a bridge from its crash image. In-flight submissions are
        resubmitted; the destination adapter's processed map turns
        duplicates into AlreadyProcessed events. Only the live jobs that can
        act and the forged jobs are thawed, and a record is overwritten only
        for a job whose sent tx or signing request is reset here."""
        node = cls(config, source_view, dest_view, dest_chain, post)
        node.journal, node.alarms = list(image.journal), list(image.alarms)
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
                src_hash = record[_TRANSFER].source_transaction_hash
                node.by_source_tx.setdefault(src_hash, set()).add(tid)
            else:
                acting.append(node.jobs[tid])
        node._heads = list(node.queued)
        heapify(node._heads)
        for job in acting + node.forged_jobs:
            if job.state in FINAL_STATES:
                continue  # a final forged job
            sent = job.state == "submitting" and job.submitted_tx
            asked = (job.state == "collectingSignatures"
                     and job.request_tick != -1)
            if sent:
                # the submitted tx may or may not have landed; resubmit
                job.submitted_tx = b""
            if asked:
                job.request_tick = -1  # rebroadcast on the next step
            node._track(job)
            if sent or asked:
                node._persist(job)
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

    # -- chain status monitoring ---------------------------------------------

    def monitor_chain_status(self, name: str, view: ChainView,
                             tick: int) -> None:
        st = self.status[name]
        prev_number, prev_hash = st.last_seen_head
        head_number = view.head_number()
        head_hash = view.head_hash()
        if head_number == prev_number and head_hash == prev_hash:
            st.ticks_since_new_block += 1
            if st.ticks_since_new_block == self.config.liveness_timeout_ticks:
                self.alarms.append(("liveness", name, tick))
        else:
            st.ticks_since_new_block = 0
        # a reorg seals depth + 1 blocks, so block prev_number still exists
        if view.get_block(prev_number).block_hash != prev_hash:
            self.alarms.append(("reorg", name, tick))
            if self.config.reorg_response == "pause":
                self.paused = True
            elif self.config.reorg_response == "retry" and name == "source":
                finalized = max(0, head_number - self.config.source_finality)
                self.source_cursor = min(self.source_cursor, finalized)
        st.last_seen_head = (head_number, head_hash)

    # -- main loop -----------------------------------------------------------

    def step(self, tick: int) -> None:
        self.monitor_chain_status("source", self.source_view, tick)
        self.monitor_chain_status("dest", self.dest_view, tick)
        if self.paused:
            self.inbox.clear()
            return
        self._scan_source(tick)
        self._scan_dest(tick)
        self._collect_responses(tick)
        # in id order: ``blocked`` holds once an earlier id is still in progress
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
            blocked = blocked or job.state in IN_PROGRESS
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
            block = self.source_view.get_block(ev.block_number)
            job = TransferJob(
                transfer=transfer,
                source_block_number=ev.block_number,
                source_block_hash=block.block_hash if block else b"",
            )
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
            for job in self._carriers(event_attr(ev, "sourceTxHash")):
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

    def _carriers(self, src_hash: bytes) -> list[TransferJob]:
        """The jobs in ``submitting`` that carry ``src_hash``: the real ones
        in the order of ``jobs``, then the forged ones in list order."""
        tids = self.by_source_tx.get(src_hash, ())
        if len(tids) > 1:
            rank = {tid: i for i, tid in enumerate(self.jobs)}
            tids = sorted(tids, key=rank.__getitem__)
        return [self.jobs[tid] for tid in tids] + [
            j for j in self.forged_jobs if j.state == "submitting"
            and j.transfer.source_transaction_hash == src_hash]

    def _collect_responses(self, tick: int) -> None:
        inbox, self.inbox = self.inbox, []
        for transfer_id, resp in inbox:
            job = self.jobs.get(transfer_id) or next(
                (j for j in self.forged_jobs if j.transfer_id == transfer_id),
                None)
            if job is None or job.state != "collectingSignatures":
                continue
            if resp.kind == "refused":
                if resp.reason == "InsufficientFinality":
                    job.transient_refusal = True
                continue
            pub, sig = resp.public_key, resp.signature
            # cursory checks only: length and known key (the bridge cannot
            # fully validate signature schemes it does not understand)
            if len(sig) != SIGNATURE_LEN or pub not in self.config.signatory_keys:
                continue
            job.collected[pub] = sig

    def _advance(self, job: TransferJob, tick: int, blocked=False) -> None:
        if job.state == "awaitingFinality":
            self._advance_finality(job, tick)
        elif job.state == "collectingSignatures":
            self._advance_collecting(job, tick)
        elif job.state == "submitting":
            self._advance_submitting(job, tick, blocked)
        elif job.state == "awaitingDestFinality":
            self._advance_dest_finality(job, tick)

    def _advance_finality(self, job: TransferJob, tick: int) -> None:
        if job.forged:
            self._begin_collecting(job, tick)
            return
        conf = self.source_view.confirmations(
            job.transfer.source_transaction_hash)
        if conf is None:
            job.stall_reason = "sourceOrphaned"
            self._transition(tick, job, "stalled", "request left canonical chain")
            return
        if conf >= self.config.source_finality:
            self._begin_collecting(job, tick)

    def _begin_collecting(self, job: TransferJob, tick: int) -> None:
        job.digest = compute_transfer_hash(job.transfer,
                                           self.dest_view.hash_alg)
        self._transition(tick, job, "collectingSignatures",
                         f"digest {job.digest.hex()[:16]}")
        self._broadcast_request(job, tick)

    def _broadcast_request(self, job: TransferJob, tick: int) -> None:
        req = SigningRequest(
            source_block_number=job.source_block_number,
            source_block_hash=job.source_block_hash,
            source_transaction_hash=job.transfer.source_transaction_hash,
            transfer_data_hash=job.digest,
            transfer=job.transfer,
        )
        job.request_tick = tick
        job.transient_refusal = False
        for sid in self.config.signatory_ids:
            self.post(sid, req)

    def _advance_collecting(self, job: TransferJob, tick: int) -> None:
        if len(job.collected) >= self.config.quorum_size:
            self._transition(tick, job, "submitting",
                             f"{len(job.collected)} signatures")
            return
        if job.request_tick < 0:
            self._broadcast_request(job, tick)
            return
        if tick - job.request_tick >= self.config.sign_timeout_ticks:
            if job.transient_refusal:
                self._broadcast_request(job, tick)
                return
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
            if not (receipt.reason == "OutOfOrder"
                    and self._delivery_lost_before(job.transfer_id)):
                job.attempts += 1
            if job.attempts > self.config.max_retries:
                job.stall_reason = f"destinationRejected:{receipt.reason}"
                self._transition(tick, job, "stalled", receipt.reason)
                return
            if receipt.reason == "InvalidSignature":
                job.collected.clear()
                self._transition(tick, job, "collectingSignatures",
                                 "re-collecting after InvalidSignature")
                self._broadcast_request(job, tick)
                return
            # other rejections: retry the identical signed payload
        if self.inflight is not None and self.inflight is not job:
            return  # strictly one in-flight destination submission
        if blocked or self._delivery_lost_before(job.transfer_id):
            return  # an earlier id must land first or the nonce check reverts
        self._submit(job, tick)

    def _delivery_lost_before(self, tid: int) -> bool:
        """Whether a job with an id below ``tid`` awaits dest finality while
        the tx that processed it has left the dest chain. The nonce check
        reverts ``tid`` `OutOfOrder` until that job, sent again at dest
        finality, lands; such a revert is not ``tid``'s own failure."""
        for earlier in self.moving:
            job = self.jobs[earlier]
            if (earlier < tid and job.state == "awaitingDestFinality"
                    and self.dest_view.get_receipt(job.processed_tx) is None):
                return True
        return False

    def _submit(self, job: TransferJob, tick: int) -> None:
        if not job.submitted_payload:
            entries = sorted(job.collected.items())
            job.submitted_payload = encode_process_transfer(
                job.transfer, entries)
        job.submitted_tx = self._send(job.submitted_payload)
        self._track(job)
        self.inflight = job
        self._write_journal(tick, job, "submitting", "submitting",
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

    def _advance_dest_finality(self, job: TransferJob, tick: int) -> None:
        """``done`` at dest finality, or back to ``submitting`` if a dest
        reorg dropped the tx that emitted ``Processed``."""
        conf = self.dest_view.head_number() - (job.processed_block or 0)
        if conf < self.config.dest_finality:
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
        """Resubmit a completed job's signed transaction verbatim."""
        job = self.jobs.get(transfer_id)
        if job is None or not job.submitted_payload:
            return
        tx_hash = self._send(job.submitted_payload)
        self._write_journal(tick, job, "done", "done",
                            f"replayed tx {tx_hash.hex()[:16]}")

    def byzantine_forge(self, m: TransferMessage, tick: int,
                        claimed_block: int = 0,
                        claimed_block_hash: bytes = b"\x00" * 32) -> None:
        """Fabricate a transfer that never occurred on the source chain."""
        job = TransferJob(transfer=m, forged=True,
                          source_block_number=claimed_block,
                          source_block_hash=claimed_block_hash,
                          state="awaitingFinality")
        self.forged_jobs.append(job)
        self._write_journal(tick, job, "forged", "awaitingFinality",
                            "fabricated transfer")

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
