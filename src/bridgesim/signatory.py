"""Signatory actor: independent verification and detached signing.

An honest signatory trusts nothing in the request except as a pointer: it
refetches the block and transaction from its own chain view, reconstructs
the transfer message from the on-chain event, recomputes the digest, and
only then signs. Byzantine behavior modes cover the fault-injection
scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

from .adapter import message_from_request_event, request_event
from .chain import ChainView
from .codec import SIGNATURE_LEN, Keypair, TransferMessage, compute_transfer_hash, sign

BEHAVIOR_MODES = ("honest", "refuse", "wrongSignature", "colluding")


@dataclass(frozen=True)
class SigningRequest:
    source_block_number: int
    source_block_hash: bytes
    source_transaction_hash: bytes
    transfer_data_hash: bytes
    transfer: TransferMessage


@dataclass
class SignResponse:
    kind: str  # "signed" | "refused"
    public_key: bytes = b""
    signature: bytes = b""
    reason: str = ""

    @staticmethod
    def signed(public_key: bytes, signature: bytes) -> "SignResponse":
        return SignResponse("signed", public_key=public_key, signature=signature)

    @staticmethod
    def refused(reason: str) -> "SignResponse":
        return SignResponse("refused", reason=reason)


class RateLimiter:
    """Fixed budget of admitted requests per window."""

    def __init__(self, budget: int, window_ticks: int):
        self.budget = budget
        self.window_ticks = max(1, window_ticks)
        self._window = self._count = 0  # the current window and its count

    def admit(self, tick: int) -> bool:
        window = tick // self.window_ticks
        if window != self._window:
            self._window, self._count = window, 0
        if self._count >= self.budget:
            return False
        self._count += 1
        return True


class Signatory:
    """One signatory identity with a behavior mode and its own chain view."""

    def __init__(self, signatory_id: str, keypair: Keypair,
                 chain_view: ChainView, dest_hash_alg: str,
                 source_adapter: bytes, mode: str = "honest",
                 min_confirmations: int = 0,
                 rate_budget: int = 1000, rate_window_ticks: int = 100):
        if mode not in BEHAVIOR_MODES:
            raise ValueError(f"unknown behavior mode {mode!r}")
        self.signatory_id = signatory_id
        self.keypair = keypair
        self.chain_view = chain_view
        self.dest_hash_alg = dest_hash_alg
        self.source_adapter = source_adapter
        self.mode = mode
        self.min_confirmations = min_confirmations
        self.rate_limiter = RateLimiter(rate_budget, rate_window_ticks)
        self.handled = 0  # admitted requests, for rate-limit assertions

    def handle_sign_request(self, req: SigningRequest,
                            tick: int) -> SignResponse | None:
        """None models silence: a dropped or refused-to-answer request."""
        if not self.rate_limiter.admit(tick):
            return None
        self.handled += 1
        if self.mode == "refuse":
            return None
        if self.mode == "colluding":
            return SignResponse.signed(
                self.keypair.public_key,
                sign(self.keypair, req.transfer_data_hash))
        if self.mode == "wrongSignature":
            return SignResponse.signed(
                self.keypair.public_key,
                bytes(SIGNATURE_LEN))  # well-formed length, never verifies
        return self._honest(req)

    def _honest(self, req: SigningRequest) -> SignResponse:
        view = self.chain_view
        block = view.get_block(req.source_block_number)
        if block is None or block.block_hash != req.source_block_hash:
            return SignResponse.refused("BlockHashMismatch")
        conf = view.confirmations(req.source_transaction_hash)
        if conf is None:
            return SignResponse.refused("TxNotFound")
        if conf < self.min_confirmations:
            return SignResponse.refused("InsufficientFinality")
        found = view.get_transaction(req.source_transaction_hash)
        if found is None or found[1] != req.source_block_number:
            return SignResponse.refused("TxNotFound")
        event = request_event(block, req.source_transaction_hash,
                              self.source_adapter)
        if event is None:
            return SignResponse.refused("TxNotFound")
        rebuilt = message_from_request_event(
            event, req.source_transaction_hash, self.source_adapter,
            view.network_id)
        if rebuilt.source_transfer_id != req.transfer.source_transfer_id:
            return SignResponse.refused("TxNotFound")
        if rebuilt != req.transfer:
            return SignResponse.refused("DataHashMismatch")
        digest = compute_transfer_hash(rebuilt, self.dest_hash_alg)
        if digest != req.transfer_data_hash:
            return SignResponse.refused("DataHashMismatch")
        return SignResponse.signed(self.keypair.public_key,
                                   sign(self.keypair, digest))
