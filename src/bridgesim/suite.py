"""Built-in threat-matrix scenarios.

Each entry pairs a compromise scenario with the damage class the trust model
predicts for it (low: inconvenience only; medium: bridge censored, no state
corruption; high: destination state corrupted). `run_suite` executes all of
them and compares the audited classification against the prediction.

Risk labels describe how hard the compromise is to mount (low: multiple
parties must be compromised simultaneously; medium: one party; high: none)
and are carried as metadata: scenarios assume the compromise happened and
measure only impact.

The matrix is data: `threats.json` lists the entries in order, and each names
its scenario file in `threats/`, which `bridgesim run` runs as it is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib.resources import files

from .scenario import ScenarioConfig, ScenarioReport, run_scenario

THREATS = files(__package__) / "threats"


@dataclass(frozen=True)
class SuiteEntry:
    name: str
    description: str
    risk: str
    expected: str  # predicted impact classification
    file: str  # its scenario file in THREATS

    def build(self) -> ScenarioConfig:
        """Load the scenario file as `bridgesim run` does."""
        return ScenarioConfig.from_json((THREATS / self.file).read_text())


SUITE: list[SuiteEntry] = [  # in matrix order
    SuiteEntry(**row)
    for row in json.loads((files(__package__) / "threats.json").read_text())]


def run_suite() -> list[tuple[SuiteEntry, ScenarioReport]]:
    return [(entry, run_scenario(entry.build())) for entry in SUITE]
