"""Demo user contracts invoked through the adapter's recipient call."""

from __future__ import annotations

from .chain import DispatchContext, Revert
from .codec import EncodingError, decode_function_call


class UserContract:
    """Base for contracts whose payloads are encoded function calls."""

    signatures: list[str] = []

    def __init__(self, address: bytes):
        self.address = address
        self.state: dict = {}

    def dispatch(self, ctx: DispatchContext, sender: bytes, value: int,
                 payload: bytes) -> None:
        try:
            name, args = decode_function_call(payload, self.signatures)
        except EncodingError as e:
            raise Revert(f"BadCall:{e}") from None
        self.call(ctx, sender, name, args)

    def call(self, ctx, sender, name, args) -> None:
        raise NotImplementedError


class StorageContract(UserContract):
    """Single-slot storage; the canonical setValue demo target."""

    signatures = ["setValue(uint128)", "noop()"]

    def __init__(self, address: bytes):
        super().__init__(address)
        self.state = {"value": 0}

    def call(self, ctx, sender, name, args) -> None:
        if name == "setValue":
            self.state["value"] = args[0]
            ctx.emit(self.address, "ValueChanged",
                     [("value", args[0].to_bytes(16, "big"))])
        # noop: nothing


class MintableToken(UserContract):
    """Token with a conserved total supply, to make forged mints observable."""

    signatures = ["mint(address,uint128)", "burn(address,uint128)"]

    def __init__(self, address: bytes):
        super().__init__(address)
        self.state = {"total_supply": 0, "balances": {}}

    def call(self, ctx, sender, name, args) -> None:
        holder, amount = args
        balances = self.state["balances"]
        if name == "mint":
            balances[holder] = balances.get(holder, 0) + amount
            self.state["total_supply"] += amount
        elif name == "burn":
            if balances.get(holder, 0) < amount:
                raise Revert("InsufficientBalance")
            balances[holder] = balances.get(holder, 0) - amount
            self.state["total_supply"] -= amount


class RejectingContract(UserContract):
    """Always reverts; exercises the recorded-call-status path."""

    signatures = ["setValue(uint128)"]

    def call(self, ctx, sender, name, args) -> None:
        raise Revert("AlwaysRejects")
