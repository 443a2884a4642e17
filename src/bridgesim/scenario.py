"""Declarative fault-injection scenarios and the deterministic world loop.

A scenario is data: two chain configs, adapter parameters, signatory
behaviors, bridge settings and a timed workload. `run_scenario` executes the
whole thing on a single-threaded tick scheduler and audits the outcome with
the ground-truth causality oracle; identical configs produce byte-identical
reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

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
    ChainError,
    ChainView,
    EventLog,
    InvalidReorg,
    Transaction,
    ViewCorruption,
)
from .codec import (
    TransferMessage,
    blake2b256,
    compute_transfer_hash,
    encode_function_call,
    keygen,
    sign,
)
from .contracts import MintableToken, RejectingContract, StorageContract
from .oracle import causality_oracle
from .signatory import BEHAVIOR_MODES, Signatory

# integer scenario fields, each in [0, 2**64); the optional ones may be None
_INT_FIELDS = ("seed", "transaction_fee", "rate_budget", "rate_window_ticks",
               "sign_timeout_ticks", "max_retries", "liveness_timeout_ticks",
               "max_ticks", "quorum_size")
_OPTIONAL_INT_FIELDS = ("signatory_min_confirmations", "censor_transfer_id")


def _uint(name: str, value, bits: int = 64) -> int:
    """``value`` if it is an integer in [0, 2**bits), else a ConfigError."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or not 0 <= value < 1 << bits):
        raise ConfigError(
            f"{name} must be an integer in [0, 2**{bits}), not {value!r}")
    return value


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
    signatory_min_confirmations: int | None = None  # default: source finality
    rate_budget: int = 1000
    rate_window_ticks: int = 100
    sign_timeout_ticks: int = 8
    max_retries: int = 3
    liveness_timeout_ticks: int = 50
    reorg_response: str = "continue"
    censor_transfer_id: int | None = None
    monitor_auto_pause: bool = False
    # allow-listed adapter changes, each [chain role, field]: ["dest", "relayer"]
    expected_config_changes: list = field(default_factory=list)
    workload: list = field(default_factory=list)
    max_ticks: int = 2000

    def __post_init__(self):
        n = len(self.signatory_modes)
        if n < 1:
            raise ConfigError("at least one signatory required")
        unknown = [m for m in self.signatory_modes if m not in BEHAVIOR_MODES]
        if unknown:
            raise ConfigError(f"unknown signatory modes: {unknown}")
        for side in ("source", "dest"):
            try:
                ChainConfig(**getattr(self, side))
            except (ChainError, TypeError) as e:
                raise ConfigError(f"bad {side} chain: {e}") from None
        if self.quorum_size is None:
            self.quorum_size = default_quorum(n)
        for name in _INT_FIELDS + _OPTIONAL_INT_FIELDS:
            if name in _INT_FIELDS or getattr(self, name) is not None:
                _uint(name, getattr(self, name))
        for name in ("accept_only_authorized", "monitor_auto_pause"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false")
        if not all(isinstance(a, str) for a in self.authorized_senders):
            raise ConfigError("authorized_senders must be account names")
        if not 1 <= self.quorum_size <= n:
            raise ConfigError("quorum out of bounds")
        if self.reorg_response not in ("pause", "retry", "continue"):
            raise ConfigError(f"bad reorg_response {self.reorg_response!r}")
        for entry in self.expected_config_changes:
            if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                    or entry[0] not in ("source", "dest")
                    or not isinstance(entry[1], str)):
                raise ConfigError("expected_config_changes entries are "
                                  f"[source|dest, field], not {entry!r}")
        for action in self.workload:
            if not isinstance(action, dict):
                raise ConfigError(f"workload entry is not an object: {action!r}")
            if action.get("tick", -1) < 0 or action["tick"] > self.max_ticks:
                raise ConfigError(f"workload tick out of range: {action}")
            if "action" not in action:
                raise ConfigError(f"workload entry missing action: {action}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown scenario fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls.from_dict(json.loads(text))

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
        self.config_alarm_log: list = []
        self._monitor_cursor = {"source": 0, "dest": 0}

        self.source = Chain(ChainConfig(**config.source))
        self.dest = Chain(ChainConfig(**config.dest))
        self.chains = {"source": self.source, "dest": self.dest}

        seed_bytes = config.seed.to_bytes(8, "big", signed=False)
        self.owner = account_address("owner")
        self.relayer = keygen(blake2b256(b"relayer:" + seed_bytes))
        self.signatory_keys = [
            keygen(blake2b256(b"signatory:%d:" % i + seed_bytes))
            for i in range(len(config.signatory_modes))
        ]
        self.attacker_keys = [
            keygen(blake2b256(b"attacker:%d:" % i + seed_bytes))
            for i in range(4)
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

        minconf = config.signatory_min_confirmations
        if minconf is None:
            minconf = self.source.config.finality_depth
        self.signatories = [
            Signatory(
                signatory_id=f"signatory:{i}",
                keypair=self.signatory_keys[i],
                chain_view=ChainView(self.source),
                dest_hash_alg=self.dest.config.hash_alg,
                source_adapter=self.adapters["source"].address,
                mode=mode,
                min_confirmations=minconf,
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
            source_finality=self.source.config.finality_depth,
            dest_finality=self.dest.config.finality_depth,
            sign_timeout_ticks=config.sign_timeout_ticks,
            max_retries=config.max_retries,
            liveness_timeout_ticks=config.liveness_timeout_ticks,
            reorg_response=config.reorg_response,
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

    # -- scheduler plumbing --------------------------------------------------

    def post(self, recipient: str, message) -> None:
        """Deliver ``message`` to ``recipient`` at the next tick: a
        ``SigningRequest`` to a signatory, or ``(transfer_id, SignResponse)``
        to the bridge."""
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
                    self.post("bridge", (req.transfer.source_transfer_id, resp))

    def _run_config_monitor(self) -> None:
        expected = {tuple(e) for e in self.config.expected_config_changes}
        for name, chain in self.chains.items():
            head = chain.head_number()
            start = self._monitor_cursor[name] + 1
            if head < start:
                continue
            self._monitor_cursor[name] = head
            for ev in chain.get_events(self.adapters[name].address,
                                       "ConfigChanged", start, head):
                fieldname = event_attr(ev, "field").decode()
                if (name, fieldname) in expected:
                    continue
                self.config_alarm_log.append(
                    ["config", name, ev.block_number, fieldname])
                if self.config.monitor_auto_pause:
                    self.bridge.operator_pause()

    # -- workload actions ----------------------------------------------------

    def apply_action(self, action: dict) -> None:
        """Run one workload action; an infeasible one raises ConfigError."""
        kind = action["action"]
        where = f"workload action {kind!r} at tick {action['tick']}"
        handler = getattr(self, f"_do_{kind}", None)
        if handler is None:
            raise ConfigError(f"unknown {where}")
        try:
            handler(action)
        except KeyError as e:
            raise ConfigError(f"{where}: missing key or label {e}") from None
        except (ValueError, TypeError, IndexError, OverflowError,
                InvalidReorg) as e:
            raise ConfigError(f"{where}: {e}") from None

    def _resolve_arg(self, arg):
        if isinstance(arg, dict):
            if "account" in arg:
                return account_address(arg["account"])
            if "hex" in arg:
                return bytes.fromhex(arg["hex"])
            raise ConfigError(f"bad call argument {arg}")
        return arg

    @staticmethod
    def _gas(a: dict) -> int:
        return _uint("gas", a.get("gas", 21000))

    def _encoded_call(self, call: dict) -> bytes:
        return encode_function_call(
            call["signature"], [self._resolve_arg(a) for a in call["args"]])

    def _do_request_transfer(self, a: dict) -> None:
        """Check and queue one request; `_submit_requests` builds the tx."""
        side = a.get("chain", "source")
        chain, adapter = self.chains[side], self.adapters[side]
        recipient_net = (self.dest if chain is self.source
                         else self.source).config.network_id
        for key in ("sender", "recipient", "label"):
            if not isinstance(a.get(key, ""), str):
                raise ConfigError(f"{key} must be a string, not {a[key]!r}")
        value = _uint("value", a.get("value", self.config.transaction_fee), 256)
        recipient = contract_address(recipient_net, a.get("recipient", "storage"))
        payload = encode_request_transfer(
            recipient, self._encoded_call(a["call"]), self._gas(a))
        self._requests.append(
            (side, (account_address(a.get("sender", "alice")), adapter.address,
                    payload, value), a.get("label")))

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
        chain = self.chains[a.get("chain", "source")]
        drop = {self.labels[label] for label in a.get("drop", [])}
        chain.inject_reorg(a["depth"], drop)

    def _corruption_from(self, spec: dict) -> ViewCorruption:
        kind = spec.get("kind", "none")
        if kind == "none":
            return ViewCorruption()
        if kind == "substitute_block_hash":
            return ViewCorruption(
                kind=kind,
                block_number=spec["block_number"],
                fake_hash=blake2b256(b"substituted:%d" % spec["block_number"]),
            )
        if kind == "fabricate_request":
            chain = self.chains[spec.get("chain", "source")]
            adapter = self.adapters[spec.get("chain", "source")]
            call = self._encoded_call(spec["call"])
            recipient = contract_address(self.dest.config.network_id,
                                         spec.get("recipient", "storage"))
            gas = self._gas(spec)
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
                kind="fabricate_transfer",
                block_number=spec["block_number"],
                fake_hash=blake2b256(b"fabricated-block:%d" % spec["block_number"]),
                fake_transaction=fake_tx,
                fake_event=fake_event,
            )
        raise ConfigError(f"unknown corruption kind {kind!r}")

    def _do_faulty_view(self, a: dict) -> None:
        corruption = self._corruption_from(a["corruption"])
        target = a["target"]
        chain = self.chains[a.get("chain", "source")]
        view = ChainView(chain, corruption)
        if target == "bridge":
            if a.get("chain", "source") == "source":
                self.bridge.source_view = view
            else:
                self.bridge.dest_view = view
        elif target.startswith("signatory:"):
            self.signatories[int(target.split(":")[1])].chain_view = view
        else:
            raise ConfigError(f"unknown faulty_view target {target!r}")

    def _admin_value(self, fieldname: str, value):
        if fieldname in ("relayer", "remoteAdapterAddress"):
            return self._resolve_arg(value)
        if fieldname == "transactionFee":
            return value
        if fieldname == "authorizedSenders":
            return (value.get("accept_only", True),
                    [account_address(n) for n in value["senders"]])
        if fieldname == "signatories":
            keys = []
            for k in value["keys"]:
                if "signatory" in k:
                    keys.append(self.signatory_keys[k["signatory"]].public_key)
                elif "attacker" in k:
                    keys.append(self.attacker_keys[k["attacker"]].public_key)
                else:
                    raise ConfigError(f"bad signatory key spec {k}")
            return keys, value["quorum"]
        raise ConfigError(f"unknown admin field {fieldname!r}")

    def _do_admin_set(self, a: dict) -> None:
        chain_name = a.get("chain", "dest")
        chain = self.chains[chain_name]
        caller = (self.owner if a.get("caller", "owner") == "owner"
                  else account_address(a["caller"]))
        payload = encode_admin_set(a["field"],
                                   self._admin_value(a["field"], a["value"]))
        tx = chain.make_transaction(sender=caller,
                                    recipient=self.adapters[chain_name].address,
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
                                     a.get("recipient", "token"))
        m = TransferMessage(
            source_transaction_hash=blake2b256(
                b"forged:%d" % a["transfer_id"]),
            source_adapter_address=self.adapters["source"].address,
            recipient_contract=recipient,
            encoded_function_call=self._encoded_call(a["call"]),
            gas=self._gas(a),
            source_transfer_id=a["transfer_id"],
            source_network_id=self.source.config.network_id,
        )
        m.validate()
        return m

    def _do_bridge_forge(self, a: dict) -> None:
        m = self._forged_message(a)
        head = self.source.head_number()
        claimed = max(0, head - self.source.config.finality_depth)
        block = self.source.get_block(claimed)
        self.bridge.byzantine_forge(m, self.tick, claimed_block=claimed,
                                    claimed_block_hash=block.block_hash)

    def _do_bridge_flood(self, a: dict) -> None:
        self.bridge.byzantine_flood(a["count"], self.tick)

    def _do_direct_process_transfer(self, a: dict) -> None:
        """An attacker with adapter control submits processTransfer directly."""
        m = self._forged_message(a)
        digest = compute_transfer_hash(m, self.dest.config.hash_alg)
        entries = []
        for idx in a.get("attacker_signers", [0, 1]):
            kp = self.attacker_keys[idx]
            entries.append((kp.public_key, sign(kp, digest)))
        caller_name = a.get("caller", "attacker")
        if caller_name == "relayer":
            caller = self.relayer.public_key
        elif caller_name == "owner":
            caller = self.owner
        else:
            caller = account_address(caller_name)
        tx = self.dest.make_transaction(
            sender=caller,
            recipient=self.adapters["dest"].address,
            payload=encode_process_transfer(m, entries),
        )
        self.dest.submit_transaction(tx)

    def _do_bridge_restart(self, a: dict) -> None:
        self.restart_bridge()

    def restart_bridge(self) -> None:
        """Kill the bridge process and rebuild it from the persisted journal."""
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
        self._run_config_monitor()
        self.bridge.step(self.tick)

    def quiescent(self) -> bool:
        if self._workload or self.bus or self.source.pending or self.dest.pending:
            return False
        if any(self.inboxes.values()):
            return False
        return not (self.bridge.moving or self.bridge.queued) and all(
            j.state in ("done", "stalled") for j in self.bridge.forged_jobs)

    def run(self, on_tick=None) -> ScenarioReport:
        cfg = self.config
        grace = (cfg.sign_timeout_ticks * (cfg.max_retries + 2)
                 + self.source.config.finality_depth
                 + self.dest.config.finality_depth + 10)
        quiet = 0
        while self.tick < cfg.max_ticks:
            self.step()
            if on_tick is not None:
                on_tick(self, self.tick)
            quiet = quiet + 1 if self.quiescent() else 0
            if quiet >= grace and not self.bridge.paused:
                break
            if quiet >= 2 * grace:
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
        alarms = [list(a) for a in self.bridge.alarms] + self.config_alarm_log
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
            alarms=alarms,
            classification=classification,
        )


def run_scenario(config: ScenarioConfig, on_tick=None) -> ScenarioReport:
    return World(config).run(on_tick=on_tick)
