"""Isolation for the telemetry suite: no recorder, no fault state, no env.

Telemetry state is process-global on purpose (one trace per run), so
every test starts and ends with it fully torn down — otherwise one
test's sink would silently capture the next test's spans.
"""
import pytest

from repro.faults import reset_fault_state
from repro.obs import (
    CLOCK_ENV,
    CONTEXT_ENV,
    TELEMETRY_ENV,
    reset_telemetry,
)

OBS_ENV = (TELEMETRY_ENV, CONTEXT_ENV, CLOCK_ENV)


@pytest.fixture(autouse=True)
def clean_obs_state(monkeypatch):
    for var in OBS_ENV:
        monkeypatch.delenv(var, raising=False)
    reset_telemetry()
    reset_fault_state()
    yield
    reset_telemetry()
    reset_fault_state()
