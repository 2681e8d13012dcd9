"""Typed metric registry: one process-wide home for every counter family.

Before this module, each layer invented its own dict: SAT core counters
in ``Stats``, streaming rates in ``StreamMetrics``, fault accounting in
``fault_counters()``, campaign round meta in JSONL rows.  The registry
gives them one vocabulary — :class:`Counter`, :class:`Gauge`,
:class:`Histogram` — plus three operations those ad-hoc dicts never had:

* a deterministic :meth:`MetricsRegistry.snapshot` (stable key order,
  plain JSON types) written as per-worker **sidecar** files and merged
  by the exporter exactly like campaign JSONL streams;
* a deterministic :meth:`MetricsRegistry.merge` (counters/histograms
  add, gauges take the last non-None value in merge order);
* Prometheus text exposition (:meth:`MetricsRegistry.to_prometheus`)
  served live by :class:`MetricsServer` under
  ``isopredict watch --metrics-addr``.

Like the trace recorder, the global registry is fork-guarded: a forked
campaign worker that inherited the parent's counts starts from a fresh
registry so per-worker sidecars never double-count.

Convention (this settles the ``StreamMetrics`` inconsistency): every
``observe_*`` feed passes **deltas**, and the registry accumulates.
Sources that only know absolute totals (tail readers reporting
cumulative rotation counts) diff against their previous report
themselves — see ``serve/metrics.py``.
"""
from __future__ import annotations

import http.server
import json
import os
import threading
from typing import Dict, Optional

from ..jsonl import write_atomic

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "REGISTRY",
    "get_registry",
    "reset_registry",
]

_PREFIX = "isopredict_"


def _label(key) -> str:
    text = str(key)
    return text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class Counter:
    """A monotonically increasing count, optionally split by key."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[Optional[str], float] = {}

    def inc(self, amount: float = 1, key: Optional[str] = None) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, key: Optional[str] = None) -> float:
        return self._values.get(key, 0)

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "values": {
                ("" if k is None else str(k)): v
                for k, v in self._values.items()
            },
        }

    def merge(self, snap: dict) -> None:
        for key, value in snap.get("values", {}).items():
            self._values[key or None] = (
                self._values.get(key or None, 0) + value
            )

    def prometheus(self, lines: list) -> None:
        lines.append(f"# TYPE {_PREFIX}{self.name} counter")
        for key in sorted(self._values, key=lambda k: "" if k is None else str(k)):
            suffix = "" if key is None else f'{{key="{_label(key)}"}}'
            lines.append(f"{_PREFIX}{self.name}{suffix} {self._values[key]}")


class Gauge:
    """A point-in-time value (queue depth, window lag, worker count)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[Optional[str], float] = {}

    def set(self, value: float, key: Optional[str] = None) -> None:
        self._values[key] = value

    def value(self, key: Optional[str] = None):
        return self._values.get(key)

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "values": {
                ("" if k is None else str(k)): v
                for k, v in self._values.items()
            },
        }

    def merge(self, snap: dict) -> None:
        # last writer in (deterministic) merge order wins
        for key, value in snap.get("values", {}).items():
            self._values[key or None] = value

    def prometheus(self, lines: list) -> None:
        lines.append(f"# TYPE {_PREFIX}{self.name} gauge")
        for key in sorted(self._values, key=lambda k: "" if k is None else str(k)):
            suffix = "" if key is None else f'{{key="{_label(key)}"}}'
            lines.append(f"{_PREFIX}{self.name}{suffix} {self._values[key]}")


class Histogram:
    """count/sum/min/max per key — enough for rates and tails without
    bucket-boundary bikeshedding, and it merges exactly."""

    kind = "histogram"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[Optional[str], dict] = {}

    def observe(self, value: float, key: Optional[str] = None) -> None:
        cell = self._values.get(key)
        if cell is None:
            self._values[key] = {
                "count": 1, "sum": value, "min": value, "max": value,
            }
        else:
            cell["count"] += 1
            cell["sum"] += value
            cell["min"] = min(cell["min"], value)
            cell["max"] = max(cell["max"], value)

    def value(self, key: Optional[str] = None) -> Optional[dict]:
        cell = self._values.get(key)
        return dict(cell) if cell is not None else None

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "values": {
                ("" if k is None else str(k)): dict(v)
                for k, v in self._values.items()
            },
        }

    def merge(self, snap: dict) -> None:
        for key, other in snap.get("values", {}).items():
            cell = self._values.get(key or None)
            if cell is None:
                self._values[key or None] = dict(other)
            else:
                cell["count"] += other["count"]
                cell["sum"] += other["sum"]
                cell["min"] = min(cell["min"], other["min"])
                cell["max"] = max(cell["max"], other["max"])

    def prometheus(self, lines: list) -> None:
        lines.append(f"# TYPE {_PREFIX}{self.name} summary")
        for key in sorted(self._values, key=lambda k: "" if k is None else str(k)):
            suffix = "" if key is None else f'{{key="{_label(key)}"}}'
            cell = self._values[key]
            for stat in ("count", "sum", "min", "max"):
                lines.append(
                    f"{_PREFIX}{self.name}_{stat}{suffix} {cell[stat]}"
                )


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Thread-safe named collection of metrics with deterministic
    snapshot/merge — the campaign-JSONL convention applied to metrics."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, object] = {}
        self.pid = os.getpid()

    def _get(self, cls, name: str, help: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{metric.kind}, not {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(Histogram, name, help)

    def snapshot(self) -> dict:
        """Plain-JSON state in sorted name order."""
        with self._lock:
            return {
                name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)
            }

    def merge(self, snap: dict) -> None:
        """Fold another registry's snapshot into this one.

        Merging the same snapshots in the same order always yields the
        same state; the exporter sorts sidecars before merging.
        """
        for name in sorted(snap):
            entry = snap[name]
            cls = _KINDS.get(entry.get("kind"))
            if cls is None:
                continue
            self._get(cls, name, "").merge(entry)

    def to_prometheus(self) -> str:
        with self._lock:
            lines: list = []
            for name in sorted(self._metrics):
                self._metrics[name].prometheus(lines)
            return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()
            self.pid = os.getpid()


REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry, fork-guarded.

    A forked worker inherits the parent's counts; the pid check swaps in
    a fresh registry so the worker's sidecar holds only its own deltas.
    """
    global REGISTRY
    if REGISTRY.pid != os.getpid():
        REGISTRY = MetricsRegistry()
    return REGISTRY


def reset_registry() -> None:
    """Clear the global registry (test isolation)."""
    get_registry().reset()


class _MetricsHandler(http.server.BaseHTTPRequestHandler):
    registry: MetricsRegistry = REGISTRY

    def do_GET(self):  # noqa: N802 (stdlib handler naming)
        if self.path.rstrip("/") in ("", "/metrics".rstrip("/"), "/metrics"):
            body = self.registry.to_prometheus().encode()
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_response(404)
            self.end_headers()

    def log_message(self, format, *args):  # silence per-request stderr
        pass


class MetricsServer:
    """A daemon-thread Prometheus text endpoint over the live registry.

    ``isopredict watch --metrics-addr HOST:PORT`` starts one; scraping
    ``GET /metrics`` returns :meth:`MetricsRegistry.to_prometheus`.
    """

    def __init__(self, addr: str, registry: Optional[MetricsRegistry] = None):
        host, _, port = addr.rpartition(":")
        if not host:
            host = "127.0.0.1"
        self.registry = registry if registry is not None else get_registry()
        handler = type(
            "_BoundHandler", (_MetricsHandler,), {"registry": self.registry}
        )
        self._httpd = http.server.ThreadingHTTPServer(
            (host, int(port)), handler
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name="isopredict-metrics",
        )

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "MetricsServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)


def write_sidecar(path: str) -> str:
    """Atomically write this process's registry snapshot next to the
    telemetry sink (``<path>.metrics.<pid>.json``).

    Workers call this after each unit of work (campaign round, fuzz
    batch); the file is a cumulative overwrite, so a crashed worker
    leaves its last consistent snapshot behind for the merge.
    """
    sidecar = f"{path}.metrics.{os.getpid()}.json"
    write_atomic(sidecar, json.dumps(get_registry().snapshot(),
                                     sort_keys=True, separators=(",", ":")))
    return sidecar
