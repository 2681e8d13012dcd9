"""Retry policy: bounded exponential backoff with deterministic jitter.

The jitter is derived from ``crc32(seed | key | attempt)`` rather than a
random source, so a retried run backs off identically every time it is
replayed — a requirement for the chaos suite's byte-identical replays —
while distinct keys (different rounds, different stores) still decorrelate
instead of thundering in lockstep.

Classification is centralized in :func:`is_transient_fault`: injected
faults and the real-world failures they model (locked SQLite archives,
interrupted syscalls, timeouts) are retryable; everything else is fatal
and propagates.
"""
from __future__ import annotations

import os
import sqlite3
import time
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from .inject import InjectedIOError, WorkerCrash, count_retry

__all__ = [
    "RETRY_BACKOFF_ENV",
    "MAX_RETRIES_ENV",
    "RetryPolicy",
    "is_transient_fault",
]

MAX_RETRIES_ENV = "ISOPREDICT_MAX_RETRIES"
RETRY_BACKOFF_ENV = "ISOPREDICT_RETRY_BACKOFF"

#: sqlite3.OperationalError messages that indicate contention, not damage.
_SQLITE_TRANSIENT = ("database is locked", "database is busy")


def is_transient_fault(exc: BaseException) -> bool:
    """Whether retrying can plausibly clear this failure."""
    if isinstance(exc, (InjectedIOError, WorkerCrash)):
        return True
    if isinstance(exc, (TimeoutError, BlockingIOError, InterruptedError)):
        return True
    if isinstance(exc, sqlite3.OperationalError):
        msg = str(exc).lower()
        return any(marker in msg for marker in _SQLITE_TRANSIENT)
    return bool(getattr(exc, "transient", False))


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, and how long to wait between attempts."""

    max_retries: int = 2
    backoff_seconds: float = 0.05
    max_backoff_seconds: float = 2.0
    jitter_seed: int = 0

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")

    @classmethod
    def from_env(cls, jitter_seed: int = 0, **overrides) -> "RetryPolicy":
        """Policy from env vars (how the plan crosses process boundaries)."""
        kwargs = dict(jitter_seed=jitter_seed)
        raw = os.environ.get(MAX_RETRIES_ENV)
        if raw is not None:
            kwargs["max_retries"] = int(raw)
        raw = os.environ.get(RETRY_BACKOFF_ENV)
        if raw is not None:
            kwargs["backoff_seconds"] = float(raw)
        kwargs.update(overrides)
        return cls(**kwargs)

    def export_env(self) -> dict:
        """Env vars that reconstruct this policy via :meth:`from_env`."""
        return {
            MAX_RETRIES_ENV: str(self.max_retries),
            RETRY_BACKOFF_ENV: repr(self.backoff_seconds),
        }

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered.

        Doubling base capped at ``max_backoff_seconds``, scaled into
        ``[0.5, 1.0)`` of itself by a crc32 hash of (seed, key, attempt):
        deterministic per (policy, key) yet decorrelated across keys.
        """
        base = min(
            self.max_backoff_seconds, self.backoff_seconds * (2.0 ** attempt)
        )
        token = f"{self.jitter_seed}|{key}|{attempt}".encode()
        frac = zlib.crc32(token) / 2**32
        return base * (0.5 + 0.5 * frac)

    def call(
        self,
        fn: Callable,
        *,
        key: str = "",
        classify: Callable = is_transient_fault,
        sleep: Callable = time.sleep,
        on_retry: Optional[Callable] = None,
    ):
        """Run ``fn()``, retrying transient failures within budget.

        Fatal failures and budget exhaustion re-raise the original
        exception. Each retry is recorded via
        :func:`repro.faults.inject.count_retry` under ``key`` and
        reported to ``on_retry(attempt, exc)`` when given.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except BaseException as exc:  # noqa: BLE001 - classified below
                if attempt >= self.max_retries or not classify(exc):
                    raise
                count_retry(key or "retry")
                if on_retry is not None:
                    on_retry(attempt, exc)
                sleep(self.delay(attempt, key))
                attempt += 1
