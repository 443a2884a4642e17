import pathlib
import sys

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from bridgesim import codec  # noqa: E402


class FullVerifies:
    """Stands in for `codec.Ed25519PublicKey` and counts the keys that
    `codec.verify` builds, i.e. the signatures it checks in full."""

    def __init__(self):
        self.count = 0

    def from_public_bytes(self, data):
        self.count += 1
        return Ed25519PublicKey.from_public_bytes(data)


@pytest.fixture
def full_verifies(monkeypatch) -> FullVerifies:
    counter = FullVerifies()
    monkeypatch.setattr(codec, "Ed25519PublicKey", counter)
    return counter
