import numpy as np
import pytest

from relayflow import CapacityOracle


@pytest.fixture
def oracle_calls(monkeypatch):
    """Every cell an oracle evaluated during the test, as ``(id(oracle),
    umask, vmask)``: one entry per ``CapacityOracle.value_masks`` call and
    one per cell a table builder filled."""
    calls = []
    value_masks, fill = CapacityOracle.value_masks, CapacityOracle._fill

    def counting(self, umask, vmask):
        calls.append((id(self), umask, vmask))
        return value_masks(self, umask, vmask)

    def recording(self, dense, umasks, vmasks, values):
        for u, v in zip(*np.broadcast_arrays(umasks, vmasks)):
            calls.append((id(self), int(u), int(v)))
        return fill(self, dense, umasks, vmasks, values)

    monkeypatch.setattr(CapacityOracle, "value_masks", counting)
    monkeypatch.setattr(CapacityOracle, "_fill", recording)
    return calls
