"""Prometheus text for ``{name: {kind, values}}`` metrics, served live."""
import urllib.request

import pytest

from repro.obs import MetricsServer, to_prometheus


def counter(values):
    return {"kind": "counter", "values": values}


class TestText:
    def test_counters_and_summaries_with_keys(self):
        text = to_prometheus({
            "rounds": counter({"sat": 2, "unsat": 1}),
            "windows": counter({"": 4}),
            "seconds": {"kind": "histogram", "values": {"": {
                "count": 1, "sum": 1.5, "min": 1.5, "max": 1.5,
            }}},
        })
        lines = text.splitlines()
        assert lines[0] == "# TYPE isopredict_rounds counter"
        assert 'isopredict_rounds{key="sat"} 2' in lines
        assert "isopredict_windows 4" in lines
        assert "# TYPE isopredict_seconds summary" in lines
        assert "isopredict_seconds_count 1" in lines
        assert "isopredict_seconds_sum 1.5" in lines
        assert text.endswith("\n")

    def test_names_and_keys_are_sorted(self):
        lines = to_prometheus({
            "zebra": counter({"b": 1, "a": 1}),
            "alpha": counter({"": 1}),
        }).splitlines()
        assert lines == [
            "# TYPE isopredict_alpha counter",
            "isopredict_alpha 1",
            "# TYPE isopredict_zebra counter",
            'isopredict_zebra{key="a"} 1',
            'isopredict_zebra{key="b"} 1',
        ]

    def test_label_values_are_escaped(self):
        text = to_prometheus({"c": counter({'we"ird\nkey': 1})})
        assert 'key="we\\"ird\\nkey"' in text

    def test_no_metrics_is_an_empty_page(self):
        assert to_prometheus({}) == ""


class _Live:
    def __init__(self):
        self.hits = 7

    def series(self):
        return {"hits": counter({"": self.hits})}


def test_server_renders_the_source_on_every_scrape():
    source = _Live()
    server = MetricsServer("127.0.0.1:0", source).start()
    try:
        url = f"http://{server.address}/metrics"
        assert "isopredict_hits 7" in urllib.request.urlopen(url).read().decode()
        source.hits += 1
        assert "isopredict_hits 8" in urllib.request.urlopen(url).read().decode()
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"http://{server.address}/nope")
    finally:
        server.stop()
