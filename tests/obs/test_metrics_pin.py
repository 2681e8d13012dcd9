"""Pin the ``metrics`` event a fixed-clock trace ends with.

Five CLI runs write a ``--telemetry-clock fixed`` trace each:

* ``campaign-j1`` / ``campaign-j2``: two tiny smallbank causal rounds at
  k = 2, inline and on a two-worker pool. Their metrics must be equal;
* ``campaign-faults``: the same campaign at ``--jobs 1`` on a SQLite
  archive whose first two persists fail with ``busy`` and are retried;
* ``watch``: a two-run fuzz stream with windows of 8 at k = 1;
* ``analyze``: smallbank seed 3 under the default causal strategy.

Each run's event is hashed without its ``solver_seconds`` histogram,
which restates the ``stage.*`` span durations that ``obs report``
already totals. Under the fixed clock every other series is a pure
function of the run, so a change to how counts reach the event (spans,
points, a fold at merge time) must keep every digest.

The digests are regenerated from the repository root with::

    PYTHONPATH=src python -m tests.obs.test_metrics_pin
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile

import pytest

from repro.cli import main

CAMPAIGN = [
    "campaign", "--apps", "smallbank", "--isolation", "causal",
    "--workloads", "tiny", "--seeds", "2", "--k", "2", "--quiet",
]

RUNS = {
    "campaign-j1": [*CAMPAIGN, "--jobs", "1"],
    "campaign-j2": [*CAMPAIGN, "--jobs", "2"],
    "campaign-faults": [
        *CAMPAIGN, "--jobs", "1", "--backend", "sqlite:runs.sqlite",
        "--fault-plan", "store.sqlite.persist:busy*2",
    ],
    "watch": ["watch", "--fuzz", "3", "--runs", "2", "--window", "8",
              "--k", "1"],
    "analyze": ["analyze", "--app", "smallbank", "--seed", "3"],
}

PINNED = {
    "analyze":
        "9dda78f6a7f8345759052ba6e49abc4e18711241b635926b739866138f0be59c",
    "campaign-faults":
        "2382603ee89e7f4529f2222035965493deb940d5d5b6781830a1d0a221fe3d68",
    "campaign-j1":
        "7ba9e1996e8809b72e33687ea390f4ac9624de4682e7354ce89552917e544dcc",
    "campaign-j2":
        "7ba9e1996e8809b72e33687ea390f4ac9624de4682e7354ce89552917e544dcc",
    "watch":
        "109ff4f7f48622b15b267d43221a8713c9e352782e18c621879c4cb200c96b52",
}


def metrics_of(name: str, workdir: str) -> dict:
    """Run ``name`` in ``workdir`` and return its trace's metrics event,
    without ``solver_seconds``."""
    cwd = os.getcwd()
    os.chdir(workdir)  # the archive's retry key is its relative path
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main([*RUNS[name], "--telemetry", f"{name}.jsonl",
                  "--telemetry-clock", "fixed"])
        with open(f"{name}.jsonl") as fh:
            events = [json.loads(line) for line in fh]
    finally:
        os.chdir(cwd)
    assert events[-1]["event"] == "metrics"
    metrics = dict(events[-1]["metrics"])
    metrics.pop("solver_seconds", None)
    return metrics


def digest(metrics: dict) -> str:
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def counts(metrics: dict, name: str) -> dict:
    return metrics[name]["values"]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_metrics_event_is_pinned(name, tmp_path):
    assert digest(metrics_of(name, str(tmp_path))) == PINNED[name]


def test_worker_count_does_not_move_the_metrics(tmp_path):
    one = metrics_of("campaign-j1", str(tmp_path))
    two = metrics_of("campaign-j2", str(tmp_path))
    assert one == two
    assert counts(one, "campaign_rounds") == {"unsat": 2}
    assert counts(one, "worker_rounds") == {"unsat": 2}
    assert counts(one, "solver_clauses") == {"": 101}


def test_faults_and_retries_are_counted(tmp_path):
    metrics = metrics_of("campaign-faults", str(tmp_path))
    assert counts(metrics, "faults_injected") == {
        "store.sqlite.persist:busy": 2
    }
    assert counts(metrics, "fault_retries") == {
        "store.sqlite.persist|runs.sqlite": 2
    }


def test_watch_counts_match_the_stream(tmp_path):
    metrics = metrics_of("watch", str(tmp_path))
    assert {
        key: counts(metrics, f"stream_{key}")[""]
        for key in ("runs", "transactions", "windows", "findings",
                    "coverage_gap_pairs")
    } == {"runs": 2, "transactions": 24, "windows": 4, "findings": 4,
          "coverage_gap_pairs": 17}
    assert counts(metrics, "stream_window_seconds")[""]["count"] == 4
    assert counts(metrics, "stream_lag_seconds")[""]["count"] == 2


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        print(json.dumps(
            {name: digest(metrics_of(name, workdir)) for name in RUNS},
            indent=4, sort_keys=True,
        ))
