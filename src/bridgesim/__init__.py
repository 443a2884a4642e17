"""Deterministic cross-chain bridge testbed.

Simulated blockchains with reorg injection, a notary-quorum adapter contract
state machine, a relay node, byzantine signatories, and a fault-injection
scenario engine with an independent causality oracle.
"""

from .chain import (
    Block,
    Chain,
    ChainConfig,
    ChainView,
    DuplicateTransaction,
    EventLog,
    InvalidRange,
    InvalidReorg,
    Revert,
    Transaction,
    ViewCorruption,
)
from .codec import (
    EncodingError,
    Keypair,
    TransferMessage,
    blake2b256,
    compute_transfer_hash,
    encode_function_call,
    keygen,
    sign,
    verify,
)
from .keccak import keccak256
from .adapter import AdapterContract, ConfigError, default_quorum
from .bridge import BridgeConfig, BridgeNode, TransferJob
from .contracts import MintableToken, RejectingContract, StorageContract
from .oracle import CausalityViolation, causality_oracle
from .scenario import (
    ScenarioConfig,
    ScenarioReport,
    World,
    account_address,
    contract_address,
    run_scenario,
)
from .signatory import RateLimiter, Signatory, SigningRequest, SignResponse
from .suite import SUITE, SuiteEntry, run_suite

__version__ = "0.1.0"
