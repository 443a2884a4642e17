"""Exactly-once delivery across a bridge crash.

Ten transfers are in flight when the bridge process dies and is rebuilt
from its crash image: its journal and the latest immutable record of each
job, overwritten next to each journal line. Resubmissions of anything that already landed
surface as AlreadyProcessed events; no transfer is delivered twice.
"""

from bridgesim import ScenarioConfig, World
from bridgesim.adapter import event_attr

workload = [
    {"tick": 1, "action": "request_transfer", "sender": "alice",
     "recipient": "storage",
     "call": {"signature": "setValue(uint128)", "args": [i + 1]}}
    for i in range(10)
] + [{"tick": 11, "action": "bridge_restart"}]

world = World(ScenarioConfig(workload=workload, max_ticks=1500))
report = world.run()

adapter = world.adapters["dest"].address
processed = world.dest.get_events(adapter, "Processed", 0,
                                  world.dest.head_number())
already = world.dest.get_events(adapter, "AlreadyProcessed", 0,
                                world.dest.head_number())

ids = [int.from_bytes(event_attr(e, "transferId"), "big") for e in processed]
print(f"transfers requested:        {len(report.requested)}")
print(f"Processed events:           {len(processed)} (ids {ids})")
print(f"AlreadyProcessed events:    {len(already)}")
print(f"violations:                 {report.violations}")
print(f"classification:             {report.classification}")
assert ids == sorted(set(ids)), "a transfer was delivered twice"
