"""Declarative fault-injection scenarios and the deterministic world loop.

A scenario is data: two chain configs, adapter parameters, signatory
behaviors, bridge settings and a timed workload. `run_scenario` executes the
whole thing on a single-threaded tick scheduler and audits the outcome with
the ground-truth causality oracle; identical configs produce byte-identical
reports.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from math import inf
from types import FunctionType
from reprlib import repr as _brief

from .adapter import (
    AdapterContract,
    ConfigError,
    default_quorum,
    encode_admin_set,
    encode_process_transfer,
    encode_request_transfer,
    event_attr,
    request_attributes,
)
from .bridge import BridgeConfig, BridgeNode
from .chain import (
    Chain,
    ChainConfig,
    ChainView,
    EventLog,
    InvalidReorg,
    Transaction,
    ViewCorruption,
)
from .codec import (
    HASH_ALGS,
    EncodingError,
    TransferMessage,
    blake2b256,
    compute_transfer_hash,
    encode_function_call,
    keygen,
    parse_signature,
    sign,
)
from .contracts import MintableToken, RejectingContract, StorageContract
from .oracle import causality_oracle
from .signatory import BEHAVIOR_MODES, Signatory

# -- the scenario schema -------------------------------------------------------
# A spec is a type (that exact type), a range (an integer in it), a pattern (a
# string it matches), a tuple (any of its items: a string or None matches
# itself, any other item is a spec), [spec] or [spec, lengths] (a list), a
# dict (an object, each key -> (spec, default), the default ... if the key is
# required), a Pick (an object whose tag key picks its dict), or a function
# (value, config) -> error or None, named by its docstring.
# `ScenarioConfig` checks itself against `FIELDS`.

ATTACKERS = 4  # attacker keypairs a scenario can sign with
RELAY_TX = re.compile("relay:[0-9]+")  # the relay's processTransfer tx of an id
U16, U64, U128, U256 = (range(1 << n) for n in (16, 64, 128, 256))
_SURROGATE = re.compile("[\ud800-\udfff]")  # JSON lets them in; UTF-8 cannot
CHAIN = ("source", "dest")
_REQUIRED: dict[int, set] = {}  # memo: id of a dict spec -> its required keys


@dataclass(frozen=True)
class Pick:
    """An object whose ``tag`` key (``default`` if absent) picks its dict."""
    tag: str
    specs: dict
    default: str | None = None


def _name(spec) -> str:
    t = type(spec)
    if t is range:
        top = spec.stop.bit_length() - 1
        stop = f"2**{top}" if top > 8 and spec.stop == 1 << top else spec.stop
        return f"an integer in [{spec.start}, {stop})"
    if t is list:
        return f"a list, each item {_name(spec[0])}" + (
            f", its length {_name(spec[1])}" if spec[1:] else "")
    if t is dict:
        return "{" + ", ".join(f'"{k}": {_name(s)}' for k, (s, _) in
                               spec.items()) + "}"
    return (" or ".join(json.dumps(x) if x is None or type(x) is str
                        else _name(x) for x in spec) if t is tuple
            else f"a string matching {spec.pattern}" if t is re.Pattern
            else "an object" if t is Pick else
            {str: "a string", bool: "true or false"}.get(spec, spec.__doc__))


def _error(spec, v, cfg) -> str | None:
    """None if ``v`` fits ``spec``, else what is wrong, worded to follow the
    path to ``v``: " must be ...", ".gas must be ...", "[2] must be ..."."""
    if type(v) is str and _SURROGATE.search(v):
        return f" must be a string UTF-8 can encode, not {_brief(v)}"
    t = type(spec)
    if t is FunctionType:
        return spec(v, cfg)
    while t is Pick and type(v) is dict:
        tag = v.get(spec.tag, spec.default)
        if type(tag) is not str or tag not in spec.specs:
            return f" lacks key {spec.tag!r}" if tag is None else (
                f".{spec.tag} must be one of {', '.join(spec.specs)}, "
                f"not {_brief(tag)}")
        spec = spec.specs[tag]
        t = type(spec)
    if t is dict and type(v) is dict:
        for key, x in v.items():
            if (entry := spec.get(key)) is None:
                return (f" has unknown key {_brief(key)} "
                        f"(known: {', '.join(spec)})")
            s = entry[0]
            if (type(x) is s is not str
                    or type(s) is range and type(x) is int and x in s):
                continue  # common non-string cases, checked without a call
            if err := _error(s, x, cfg):
                return f".{key}{err}"
        if (required := _REQUIRED.get(id(spec))) is None:
            required = _REQUIRED[id(spec)] = {
                k for k, (_, default) in spec.items() if default is ...}
        return None if v.keys() >= required else (
            f" lacks key {min(required - v.keys())!r}")
    if t is list and type(v) is list and len(v) in (
            spec[1] if len(spec) > 1 else U64):
        for i, x in enumerate(v):
            if err := _error(spec[0], x, cfg):
                return f"[{i}]{err}"
        return None
    if not (type(v) is spec or t is range and type(v) is int and v in spec
            or t is re.Pattern and type(v) is str and spec.fullmatch(v)
            or t is tuple and any(type(x) is type(v) and x == v
                                  if x is None or type(x) is str
                                  else not _error(x, v, cfg) for x in spec)):
        return f" must be {_name(spec)}, not {_brief(v)}"


def _with_defaults(spec, v: dict) -> dict:
    """``v`` with each key it omits set to its default in ``spec``."""
    while type(spec) is Pick:
        spec = spec.specs[v.get(spec.tag, spec.default)]
    return {**{k: d for k, (_, d) in spec.items() if d is not ...}, **v}


def _signatory(v, cfg):
    """the index of a signatory"""
    return _error(range(len(cfg.signatory_modes)), v, cfg)


def _signatory_name(v, cfg):
    '"signatory:<index>" of a signatory'
    return _error(tuple(f"signatory:{i}" for i in range(
        len(cfg.signatory_modes))), v, cfg)


def _quorum(v, cfg):
    """an integer from 1 to the number of signatories"""
    return _error(range(1, len(cfg.signatory_modes) + 1), v, cfg)


def _network_id(v, cfg):
    """a non-empty string of at most 65535 UTF-8 bytes"""
    if type(v) is not str or not v or len(v.encode()) > 65535:
        return f" must be {_network_id.__doc__}, not {_brief(v)}"


def _config_change(v, cfg):
    """[chain role, field], e.g. ["dest", "relayer"]"""
    if not (type(v) is list and len(v) == 2 and v[0] in CHAIN
            and not _error(str, v[1], cfg)):
        return f" must be {_config_change.__doc__}, not {_brief(v)}"


@lru_cache(maxsize=256)
def _arg_specs(signature: str) -> list:
    return [{"address": ADDRESS, "uint64": U64, "uint128": U128}[t]
            for t in parse_signature(signature)[1]]


def _call(v, cfg):
    """{"signature": "name(type,...)", "args": [...]}"""
    if type(v) is not dict or len(v) != 2 or type(
            sig := v.get("signature")) is not str or type(
            args := v.get("args")) is not list:
        return f" must be {_call.__doc__}, not {_brief(v)}"
    try:
        specs = _arg_specs(sig)
    except EncodingError as e:
        return f".signature: {e}"
    if len(specs) != len(args):
        return f".args must hold {len(specs)} values, not {_brief(args)}"
    for i, (spec, x) in enumerate(zip(specs, args)):
        if not (type(spec) is range and type(x) is int and x in spec) and (
                err := _error(spec, x, cfg)):
            return f".args[{i}]{err}"


def _dropped(v, cfg):
    """a request_transfer label, or "relay:<id>" (the relay's tx for id < 2**64)"""
    if type(v) is not str or RELAY_TX.fullmatch(v) and (
            len(v) > 26 or int(v[6:]) not in U64):  # 26: "relay:" + 20 digits
        return f" must be {_dropped.__doc__}, not {_brief(v)}"


def _workload(v, cfg):
    """a list of actions at ticks up to max_ticks; a reorg drops only the
    labels of earlier request_transfer actions and relay txs; the
    bridge_flood actions of one tick post at most 100000 requests"""
    if err := _error([ACTIONS], v, cfg):
        return err
    labels = {}  # label -> (tick, index) of its first request_transfer
    floods = {}  # tick -> requests its bridge_flood actions post so far
    signers = len(cfg.signatory_modes)
    for i, a in enumerate(v):
        t = a["tick"]
        if t > cfg.max_ticks:
            return f"[{i}].tick must be at most max_ticks, not {t}"
        if a["action"] == "bridge_flood":
            floods[t] = floods.get(t, 0) + a["count"] * signers
            if floods[t] > 10**5:
                return (f"[{i}].count brings the bridge_flood requests of "
                        f"tick {t} to {floods[t]} (count * signatories), "
                        "more than 100000")
        if "label" in a:
            if RELAY_TX.fullmatch(a["label"]):
                return f"[{i}].label {a['label']!r} names a relay tx"
            labels[a["label"]] = min(labels.get(a["label"], (inf,)),
                                     (a["tick"], i))
    for i, a in enumerate(v):
        for label in a.get("drop", ()):
            if RELAY_TX.fullmatch(label):
                continue
            if labels.get(label, (inf,)) > (a["tick"], i):
                return (f"[{i}].drop names {label!r}, which no earlier "
                        "request_transfer labels")


def _action(**keys) -> dict:
    return {"tick": (U64, ...), "action": (str, ...), **keys}


ADDRESS = ({"account": (str, ...)},
           {"hex": (re.compile("[0-9a-fA-F]{64}"), ...)})
SIGNER = ({"signatory": (_signatory, ...)},
          {"attacker": (range(ATTACKERS), ...)})
FORGED = {"transfer_id": (U64, ...), "recipient": (str, "token"),
          "call": (_call, ...), "gas": (U64, 21000)}
CORRUPTION = Pick("kind", {
    "none": {"kind": (("none",), "none")},
    "substitute_block_hash": {"kind": (("substitute_block_hash",), ...),
                              "block_number": (U64, ...)},
    "fabricate_request": {
        **FORGED, "kind": (("fabricate_request",), ...),
        "block_number": (U64, ...), "chain": (CHAIN, "source"),
        "recipient": (str, "storage")},
}, default="none")
ADMIN_VALUES = {
    "relayer": ADDRESS, "remoteAdapterAddress": ADDRESS, "transactionFee": U64,
    "authorizedSenders": {"accept_only": (bool, True),
                          "senders": ([str, U16], ...)},
    "signatories": {"keys": ([SIGNER, U16], ...), "quorum": (U16, ...)},
}
ACTIONS = Pick("action", {
    "request_transfer": _action(  # value None: the scenario's transaction_fee
        chain=(CHAIN, "source"), sender=(str, "alice"),
        recipient=(str, "storage"), call=(_call, ...), gas=(U64, 21000),
        value=(U256, None), label=(str, None)),
    "inject_reorg": _action(chain=(CHAIN, "source"),
                            depth=(range(1, 1 << 64), ...),
                            drop=([_dropped], ())),
    "faulty_view": _action(
        target=(("bridge", _signatory_name), ...), chain=(CHAIN, "source"),
        corruption=(CORRUPTION, ...)),
    "admin_set": Pick("field", {
        name: _action(chain=(CHAIN, "dest"), caller=(str, "owner"),
                      field=((name,), ...), value=(spec, ...))
        for name, spec in ADMIN_VALUES.items()}),
    "pause": _action(), "resume": _action(), "bridge_restart": _action(),
    "bridge_replay": _action(transfer_id=(U64, ...)),
    "bridge_forge": _action(**FORGED),
    # posted to each signatory in one tick, and `_workload` bounds a tick's
    # total: 10,000 with 3 signatories peaks at 2.3 MB (tracemalloc), where
    # 10**8 would ask for about 23 GB
    "bridge_flood": _action(count=(range(10_001), ...)),
    "direct_process_transfer": _action(  # caller "relayer": the relay's key
        **FORGED, attacker_signers=([range(ATTACKERS), U16], (0, 1)),
        caller=(str, "attacker")),
})
# each default is ChainConfig's own (none: required), so the two cannot drift
CHAIN_CONFIG = {name: (spec, getattr(ChainConfig, name, ...)) for name, spec in (
    ("network_id", _network_id), ("block_time_ticks", range(1, 1 << 64)),
    ("hash_alg", tuple(HASH_ALGS)), ("finality_depth", U64))}
FIELDS = {  # in checking order: a check may read the fields before it
    **dict.fromkeys(("seed", "max_ticks", "transaction_fee", "rate_budget",
                     "sign_timeout_ticks", "max_retries",
                     "liveness_timeout_ticks"), U64),
    "rate_window_ticks": range(1, 1 << 64),
    "source": CHAIN_CONFIG, "dest": CHAIN_CONFIG,
    "accept_only_authorized": bool, "monitor_auto_pause": bool,
    "authorized_senders": [str],
    "signatory_modes": [BEHAVIOR_MODES, range(1, 1 << 16)],  # U16 key lists
    "quorum_size": (None, _quorum),
    "censor_transfer_id": (None, U64),
    "expected_config_changes": [_config_change],
    "workload": _workload,
}


def account_address(name: str) -> bytes:
    return blake2b256(b"account:" + name.encode())


def contract_address(network_id: str, name: str) -> bytes:
    return blake2b256(b"contract:" + network_id.encode() + b":" + name.encode())


@dataclass
class ScenarioConfig:
    seed: int = 0
    source: dict = field(default_factory=lambda: {
        "network_id": "alpha", "hash_alg": "keccak256", "finality_depth": 6})
    dest: dict = field(default_factory=lambda: {
        "network_id": "beta", "hash_alg": "blake2b256", "finality_depth": 6})
    transaction_fee: int = 10
    accept_only_authorized: bool = False
    authorized_senders: list = field(default_factory=list)  # account names
    signatory_modes: list = field(default_factory=lambda: ["honest"] * 3)
    quorum_size: int | None = None
    rate_budget: int = 1000
    rate_window_ticks: int = 100
    sign_timeout_ticks: int = 8
    max_retries: int = 3
    liveness_timeout_ticks: int = 50
    censor_transfer_id: int | None = None
    monitor_auto_pause: bool = False
    # allow-listed adapter changes, each [chain role, field]: ["dest", "relayer"]
    expected_config_changes: list = field(default_factory=list)
    workload: list = field(default_factory=list)
    max_ticks: int = 2000

    def __post_init__(self):
        """Check the whole scenario against `FIELDS`, the scenario schema."""
        for name, spec in FIELDS.items():
            if err := _error(spec, getattr(self, name), self):
                raise ConfigError(name + err)
        if self.quorum_size is None:
            self.quorum_size = default_quorum(len(self.signatory_modes))

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        if type(doc) is not dict:
            raise ConfigError(f"a scenario is a JSON object, not {_brief(doc)}")
        unknown = set(doc) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ConfigError("the JSON nests too deeply") from None
        return cls.from_dict(doc)

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=1, sort_keys=True)


@dataclass
class ScenarioReport:
    seed: int
    end_tick: int
    requested: list  # transfer ids on source canonical chain
    delivered: list  # [transfer_id, source_tx_hash_hex, dest_block]
    stalls: list     # [transfer_id, cause]
    violations: list  # [transfer_id, reason, dest_block]
    alarms: list
    classification: str

    def to_text(self) -> str:
        return json.dumps(asdict(self), indent=1, sort_keys=True)


class World:
    """All actors plus the scheduler state for one scenario run."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.tick = 0
        self.labels: dict[str, bytes] = {}  # workload label -> tx hash
        # this tick's transfer requests, not yet built: (chain, tx spec, label)
        self._requests: list[tuple[str, tuple, str | None]] = []
        self.bus: list[tuple[int, str, object]] = []
        self.inboxes: dict[str, list] = {}
        self.alarms: list[tuple] = []  # the chain monitor's, in tick order
        # (chain, field) changes the chain monitor does not alarm on
        self._expected_config_changes = {
            tuple(e) for e in config.expected_config_changes}

        self.source = Chain(ChainConfig(**config.source))
        self.dest = Chain(ChainConfig(**config.dest))
        self.chains = {"source": self.source, "dest": self.dest}
        # chain -> (the head the monitor last saw, ticks since it changed)
        self._seen = {name: (chain.get_block(0), 0)
                      for name, chain in self.chains.items()}

        seed_bytes = config.seed.to_bytes(8, "big", signed=False)
        self.owner = account_address("owner")
        self.relayer = keygen(blake2b256(b"relayer:" + seed_bytes))
        self.signatory_keys = [
            keygen(blake2b256(b"signatory:%d:" % i + seed_bytes))
            for i in range(len(config.signatory_modes))
        ]
        self.attacker_keys = [
            keygen(blake2b256(b"attacker:%d:" % i + seed_bytes))
            for i in range(ATTACKERS)
        ]

        self.adapters = {}
        for name, chain in self.chains.items():
            adapter = AdapterContract(
                address=contract_address(chain.config.network_id, "adapter"),
                owner=self.owner,
                relayer=self.relayer.public_key,
                signatories=[k.public_key for k in self.signatory_keys],
                quorum_size=config.quorum_size,
                transaction_fee=config.transaction_fee,
                accept_only_authorized=config.accept_only_authorized,
                authorized_senders=[account_address(n)
                                    for n in config.authorized_senders],
            )
            chain.register_contract(adapter)
            self.adapters[name] = adapter
            chain.register_contract(StorageContract(
                contract_address(chain.config.network_id, "storage")))
            chain.register_contract(MintableToken(
                contract_address(chain.config.network_id, "token")))
            chain.register_contract(RejectingContract(
                contract_address(chain.config.network_id, "rejecting")))

        self.signatories = [
            Signatory(
                signatory_id=f"signatory:{i}",
                keypair=self.signatory_keys[i],
                chain_view=ChainView(self.source),
                dest_hash_alg=self.dest.config.hash_alg,
                source_adapter=self.adapters["source"].address,
                mode=mode,
                rate_budget=config.rate_budget,
                rate_window_ticks=config.rate_window_ticks,
            )
            for i, mode in enumerate(config.signatory_modes)
        ]
        for s in self.signatories:
            self.inboxes[s.signatory_id] = []

        self.bridge_config = BridgeConfig(
            source_adapter=self.adapters["source"].address,
            dest_adapter=self.adapters["dest"].address,
            relayer=self.relayer,
            signatory_ids=[s.signatory_id for s in self.signatories],
            signatory_keys=[k.public_key for k in self.signatory_keys],
            quorum_size=config.quorum_size,
            sign_timeout_ticks=config.sign_timeout_ticks,
            max_retries=config.max_retries,
            censor_transfer_id=config.censor_transfer_id,
        )
        self.bridge = BridgeNode(
            self.bridge_config,
            source_view=ChainView(self.source),
            dest_view=ChainView(self.dest),
            dest_chain=self.dest,
            post=self.post,
        )
        self._workload = sorted(config.workload, key=lambda a: (a["tick"],))
        # quiescent ticks after which `run` stops, twice that while paused
        self.grace = (config.sign_timeout_ticks * (config.max_retries + 2)
                      + self.source.config.finality_depth
                      + self.dest.config.finality_depth + 10)
        self._alarm_in_every_gap = any(
            chain.config.block_time_ticks > config.liveness_timeout_ticks
            for chain in self.chains.values())

    # -- scheduler plumbing --------------------------------------------------

    def post(self, recipient: str, message) -> None:
        """Deliver ``message`` to ``recipient`` at the next tick: a
        ``SigningRequest`` to a signatory, or ``(transfer_id, digest,
        SignResponse)`` to the bridge, ``digest`` being the request's."""
        self.bus.append((self.tick + 1, recipient, message))

    def _deliver(self) -> None:
        due = [m for m in self.bus if m[0] <= self.tick]
        self.bus = [m for m in self.bus if m[0] > self.tick]
        for _, recipient, message in due:
            (self.bridge.inbox if recipient == "bridge"
             else self.inboxes[recipient]).append(message)

    def _run_signatories(self) -> None:
        for s in self.signatories:
            inbox, self.inboxes[s.signatory_id] = \
                self.inboxes[s.signatory_id], []
            for req in inbox:
                resp = s.handle_sign_request(req, self.tick)
                if resp is not None:
                    self.post("bridge", (req.transfer.source_transfer_id,
                                         req.transfer_data_hash, resp))

    def _run_monitor(self) -> None:
        """The chain monitor, once a tick, for each chain: a ``liveness``
        alarm when the relay's view has shown one head for
        ``liveness_timeout_ticks`` ticks, a ``reorg`` alarm when the block
        at the last-seen head's number is no longer that head (by identity,
        then by hash), and a ``config`` alarm for each `ConfigChanged` event
        that is not allow-listed in the blocks after that head. The
        last-seen head is its only cursor. It lives in the world, so a relay
        restart does not reset it."""
        for name, chain in self.chains.items():
            view = getattr(self.bridge, f"{name}_view")
            prev, quiet = self._seen[name]
            head = view.get_block(view.head_number())
            quiet = quiet + 1 if head is prev else 0
            if head is prev and quiet == self.config.liveness_timeout_ticks:
                self.alarms.append(("liveness", name, self.tick))
            # a reorg seals depth + 1 blocks, so block prev.number still exists
            shown = view.get_block(prev.number)
            if shown is not prev and shown.block_hash != prev.block_hash:
                self.alarms.append(("reorg", name, self.tick))
            self._seen[name] = head, quiet
            if head.number <= prev.number:
                continue
            for ev in chain.get_events(self.adapters[name].address,
                                       "ConfigChanged", prev.number + 1,
                                       head.number):
                fieldname = event_attr(ev, "field").decode()
                if (name, fieldname) in self._expected_config_changes:
                    continue
                self.alarms.append(
                    ("config", name, ev.block_number, fieldname))
                if self.config.monitor_auto_pause:
                    self.bridge.operator_pause()

    # -- workload actions ----------------------------------------------------

    def apply_action(self, action: dict) -> None:
        """Run one workload action, its omitted keys set to their defaults.
        The file was checked at load; a reorg deeper than the chain is known
        only now, and raises ConfigError."""
        kind = action["action"]
        try:
            getattr(self, f"_do_{kind}")(_with_defaults(ACTIONS, action))
        except InvalidReorg as e:
            raise ConfigError(f"workload action {kind!r} at tick "
                              f"{action['tick']}: {e}") from None

    @staticmethod
    def _resolve_arg(arg):
        """A call argument or address: {"account": name} or {"hex": digits}
        become bytes, integers stay."""
        if type(arg) is not dict:
            return arg
        if "account" in arg:
            return account_address(arg["account"])
        return bytes.fromhex(arg["hex"])

    def _encoded_call(self, call: dict) -> bytes:
        return encode_function_call(
            call["signature"], [self._resolve_arg(a) for a in call["args"]])

    def _do_request_transfer(self, a: dict) -> None:
        """Queue one request; `_submit_requests` builds the tx."""
        side = a["chain"]
        recipient_net = (self.dest if side == "source"
                         else self.source).config.network_id
        value = self.config.transaction_fee if a["value"] is None else a["value"]
        payload = encode_request_transfer(
            contract_address(recipient_net, a["recipient"]),
            self._encoded_call(a["call"]), a["gas"])
        self._requests.append(
            (side, (account_address(a["sender"]), self.adapters[side].address,
                    payload, value), a["label"]))

    def _submit_requests(self) -> None:
        """Build and submit the queued requests in order, one batch per chain."""
        if not self._requests:
            return
        queued, self._requests = self._requests, []
        built = {side: iter(chain.make_transactions(
                     [spec for s, spec, _ in queued if s == side]))
                 for side, chain in self.chains.items()}
        for side, _, label in queued:
            tx = next(built[side])
            self.chains[side].submit_transaction(tx)
            if label is not None:
                self.labels[label] = tx.tx_hash

    def _do_inject_reorg(self, a: dict) -> None:
        drop = {self._dropped_tx(name) for name in a["drop"]}
        self.chains[a["chain"]].inject_reorg(a["depth"], drop)

    def _dropped_tx(self, name: str) -> bytes:
        """The tx a reorg's ``drop`` names: a labelled request's, or for
        ``relay:<id>`` the processTransfer tx the relay last sent for id."""
        if not RELAY_TX.fullmatch(name):
            return self.labels[name]
        job = self.bridge.jobs.get(int(name[6:]))
        if job is None or not job.submitted_tx:
            raise InvalidReorg(f"drop names {name}, and the relay has no "
                               "tx out for that id")
        return job.submitted_tx

    def _corruption_from(self, spec: dict) -> ViewCorruption | None:
        spec = _with_defaults(CORRUPTION, spec)
        kind = spec["kind"]
        if kind == "none":
            return None
        if kind == "substitute_block_hash":
            return ViewCorruption(
                block_number=spec["block_number"],
                fake_hash=blake2b256(b"substituted:%d" % spec["block_number"]),
            )
        # fabricate_request
        adapter = self.adapters[spec["chain"]]
        call = self._encoded_call(spec["call"])
        recipient = contract_address(self.dest.config.network_id,
                                     spec["recipient"])
        gas = spec["gas"]
        payload = encode_request_transfer(recipient, call, gas)
        fake_tx = Transaction(
            tx_hash=blake2b256(b"fabricated-tx:%d" % spec["transfer_id"]),
            sender=account_address("attacker"),
            recipient=adapter.address,
            payload=payload,
            value=self.config.transaction_fee,
            seq=0,
        )
        fake_event = EventLog(
            emitter=adapter.address,
            name="BridgeTransferRequested",
            attributes=request_attributes(spec["transfer_id"], recipient,
                                          call, gas),
            tx_hash=fake_tx.tx_hash,
            block_number=spec["block_number"],
        )
        return ViewCorruption(
            block_number=spec["block_number"],
            fake_hash=blake2b256(b"fabricated-block:%d" % spec["block_number"]),
            fake_transaction=fake_tx,
            fake_event=fake_event,
        )

    def _do_faulty_view(self, a: dict) -> None:
        view = ChainView(self.chains[a["chain"]],
                         self._corruption_from(a["corruption"]))
        if a["target"] != "bridge":  # signatory:<index>
            self.signatories[int(a["target"][10:])].chain_view = view
        elif a["chain"] == "source":
            self.bridge.source_view = view
        else:
            self.bridge.dest_view = view

    def _admin_value(self, fieldname: str, value):
        if fieldname == "transactionFee":
            return value
        if fieldname == "authorizedSenders":
            value = _with_defaults(ADMIN_VALUES[fieldname], value)
            return (value["accept_only"],
                    [account_address(n) for n in value["senders"]])
        if fieldname == "signatories":
            return [(self.signatory_keys[k["signatory"]] if "signatory" in k
                     else self.attacker_keys[k["attacker"]]).public_key
                    for k in value["keys"]], value["quorum"]
        return self._resolve_arg(value)  # relayer, remoteAdapterAddress

    def _do_admin_set(self, a: dict) -> None:
        chain = self.chains[a["chain"]]
        caller = (self.owner if a["caller"] == "owner"
                  else account_address(a["caller"]))
        payload = encode_admin_set(a["field"],
                                   self._admin_value(a["field"], a["value"]))
        tx = chain.make_transaction(sender=caller,
                                    recipient=self.adapters[a["chain"]].address,
                                    payload=payload)
        chain.submit_transaction(tx)

    def _do_pause(self, a: dict) -> None:
        self.bridge.operator_pause()

    def _do_resume(self, a: dict) -> None:
        self.bridge.operator_resume()

    def _do_bridge_replay(self, a: dict) -> None:
        self.bridge.byzantine_replay(a["transfer_id"], self.tick)

    def _forged_message(self, a: dict) -> TransferMessage:
        recipient = contract_address(self.dest.config.network_id,
                                     a["recipient"])
        return TransferMessage(
            source_transaction_hash=blake2b256(
                b"forged:%d" % a["transfer_id"]),
            source_adapter_address=self.adapters["source"].address,
            recipient_contract=recipient,
            encoded_function_call=self._encoded_call(a["call"]),
            gas=a["gas"],
            source_transfer_id=a["transfer_id"],
            source_network_id=self.source.config.network_id,
        )

    def _do_bridge_forge(self, a: dict) -> None:
        m = self._forged_message(a)
        head = self.source.head_number()
        claimed = max(0, head - self.source.config.finality_depth)
        self.bridge.byzantine_forge(m, self.tick, self.source.get_block(claimed))

    def _do_bridge_flood(self, a: dict) -> None:
        self.bridge.byzantine_flood(a["count"], self.tick)

    def _do_direct_process_transfer(self, a: dict) -> None:
        """An attacker with adapter control submits processTransfer directly."""
        m = self._forged_message(a)
        digest = compute_transfer_hash(m, self.dest.config.hash_alg)
        entries = [(self.attacker_keys[i].public_key,
                    sign(self.attacker_keys[i], digest))
                   for i in a["attacker_signers"]]
        caller = {"relayer": self.relayer.public_key, "owner": self.owner}.get(
            a["caller"]) or account_address(a["caller"])
        tx = self.dest.make_transaction(
            sender=caller,
            recipient=self.adapters["dest"].address,
            payload=encode_process_transfer(m, entries),
        )
        self.dest.submit_transaction(tx)

    def _do_bridge_restart(self, a: dict) -> None:
        self.restart_bridge()

    def restart_bridge(self) -> None:
        """Kill the bridge process and rebuild it from its crash image."""
        self.bridge = BridgeNode.restore(
            self.bridge.persisted, self.bridge_config,
            source_view=self.bridge.source_view,
            dest_view=self.bridge.dest_view,
            dest_chain=self.dest,
            post=self.post,
        )

    # -- the loop ------------------------------------------------------------

    def step(self) -> None:
        self.tick += 1
        # queued requests are submitted before any other action and mining
        while self._workload and self._workload[0]["tick"] <= self.tick:
            action = self._workload.pop(0)
            if action["action"] != "request_transfer":
                self._submit_requests()
            self.apply_action(action)
        self._submit_requests()
        for chain in (self.source, self.dest):
            if self.tick % chain.config.block_time_ticks == 0:
                chain.mine_block(self.tick)
        self._deliver()
        self._run_signatories()
        self._run_monitor()
        self.bridge.step(self.tick)

    def quiescent(self) -> bool:
        """Nothing is pending: no workload action, message or tx, no
        liveness alarm still to come, and the relay is idle. Chains seal on
        schedule, so the monitor raises a liveness alarm only in the gaps of
        a chain that seals blocks further apart than the timeout, and then
        in every gap."""
        if (self._workload or self.bus or self.source.pending
                or self.dest.pending or self._alarm_in_every_gap):
            return False
        return not any(self.inboxes.values()) and self.bridge.idle()

    def run(self) -> ScenarioReport:
        quiet = 0
        while self.tick < self.config.max_ticks:
            self.step()
            quiet = quiet + 1 if self.quiescent() else 0
            if quiet >= self.grace and not self.bridge.paused:
                break
            if quiet >= 2 * self.grace:
                break  # paused bridge with nothing else pending
        return self.build_report()

    # -- reporting -----------------------------------------------------------

    def build_report(self) -> ScenarioReport:
        source_adapter = self.adapters["source"].address
        dest_adapter = self.adapters["dest"].address
        requested = []
        for ev in self.source.get_events(source_adapter,
                                         "BridgeTransferRequested",
                                         0, self.source.head_number()):
            requested.append(
                int.from_bytes(event_attr(ev, "transferId"), "big"))
        delivered = []
        delivered_ids = set()
        for ev in self.dest.get_events(dest_adapter, "Processed",
                                       0, self.dest.head_number()):
            tid = int.from_bytes(event_attr(ev, "transferId"), "big")
            delivered.append([tid, event_attr(ev, "sourceTxHash").hex(),
                              ev.block_number])
            delivered_ids.add(tid)
        stalls = self.bridge.stalls()
        stalled_ids = {s[0] for s in stalls}
        for tid in requested:
            if tid not in delivered_ids and tid not in stalled_ids:
                stalls.append([tid, "undelivered"])
        stalls.sort()
        violations = [
            [v.transfer_id, v.reason, v.dest_block_number]
            for v in causality_oracle(self.source, self.dest,
                                      dest_adapter, source_adapter)
        ]
        undelivered = [t for t in requested if t not in delivered_ids]
        if violations:
            classification = "high"
        elif undelivered:
            classification = "medium"
        else:
            classification = "low"
        return ScenarioReport(
            seed=self.config.seed,
            end_tick=self.tick,
            requested=requested,
            delivered=delivered,
            stalls=stalls,
            violations=violations,
            alarms=[list(a) for a in self.alarms],
            classification=classification,
        )


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    return World(config).run()
