import pytest

from relayflow import CapacityOracle


@pytest.fixture
def oracle_calls(monkeypatch):
    """Every ``CapacityOracle.value_masks`` call made during the test, as
    ``(id(oracle), umask, vmask)``."""
    calls = []
    original = CapacityOracle.value_masks

    def counting(self, umask, vmask):
        calls.append((id(self), umask, vmask))
        return original(self, umask, vmask)

    monkeypatch.setattr(CapacityOracle, "value_masks", counting)
    return calls
