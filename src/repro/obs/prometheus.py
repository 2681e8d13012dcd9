"""Prometheus text exposition for the live ``watch`` endpoint.

:func:`to_prometheus` renders metrics in the trace ``metrics`` event's
``{name: {kind, values}}`` shape: counters as counters, histograms
(count/sum/min/max) as summaries, a non-empty key as a ``key`` label.
:class:`MetricsServer` serves one such rendering, read from a live
source's ``series()`` on every scrape, under
``isopredict watch --metrics-addr``.
"""
from __future__ import annotations

import http.server
import threading

__all__ = ["MetricsServer", "to_prometheus"]

_PREFIX = "isopredict_"


def _label(key: str) -> str:
    text = key.replace("\\", "\\\\").replace('"', '\\"')
    return text.replace("\n", "\\n")


def to_prometheus(metrics: dict) -> str:
    """Prometheus text for ``{name: {kind, values}}`` metrics."""
    lines: list = []
    for name in sorted(metrics):
        kind, values = metrics[name]["kind"], metrics[name]["values"]
        metric = f"{_PREFIX}{name}"
        lines.append(
            f"# TYPE {metric} "
            f"{'summary' if kind == 'histogram' else kind}"
        )
        for key in sorted(values):
            label = f'{{key="{_label(key)}"}}' if key else ""
            if kind == "histogram":
                for stat in ("count", "sum", "min", "max"):
                    lines.append(
                        f"{metric}_{stat}{label} {values[key][stat]}"
                    )
            else:
                lines.append(f"{metric}{label} {values[key]}")
    return "\n".join(lines) + ("\n" if lines else "")


class _MetricsHandler(http.server.BaseHTTPRequestHandler):
    source = None  # bound per server: anything with a ``series()``

    def do_GET(self):  # noqa: N802 (stdlib handler naming)
        if self.path.rstrip("/") in ("", "/metrics"):
            body = to_prometheus(self.source.series()).encode()
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
    """A daemon-thread Prometheus text endpoint over a live source.

    ``source.series()`` is rendered on every ``GET /metrics``;
    ``isopredict watch --metrics-addr HOST:PORT`` serves the engine's
    :class:`repro.serve.StreamMetrics`.
    """

    def __init__(self, addr: str, source):
        host, _, port = addr.rpartition(":")
        if not host:
            host = "127.0.0.1"
        handler = type(
            "_BoundHandler", (_MetricsHandler,), {"source": source}
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
