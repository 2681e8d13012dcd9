"""Quickstart: the paper's running example (Figures 1-3), end to end.

Two clients concurrently deposit into the same empty account. The observed
execution is serializable (ending balance 110); IsoPredict predicts the
causally-consistent but unserializable execution where both deposits read
the initial balance (ending balance 60 — a lost update), and validation
confirms the prediction by replaying the application.

Uses the fluent session API: a ``ProgramsSource`` records the raw session
programs (no benchmark class needed), and one ``Analysis`` session carries
the recording through prediction and validation.

Run:  PYTHONPATH=src python examples/quickstart.py

See README.md for the project tour (all five examples, the CLI, and the
``campaign`` subcommand that runs paper-scale sweeps of this pipeline in
parallel).
"""
from repro.api import Analysis
from repro.isolation import is_causal, is_serializable
from repro.sources import ProgramsSource
from repro.viz import history_to_text


def deposit(amount):
    """Algorithm 1 from the paper."""

    def program(client, rng):
        balance = client.get("acct")  # implicitly starts a transaction
        client.put("acct", (balance or 0) + amount)
        client.commit()
        yield  # end of transaction: the scheduler may switch sessions here

    return program


def make_programs():
    return {"s1": deposit(50), "s2": deposit(60)}


def main():
    session = (
        Analysis(ProgramsSource(make_programs, initial={"acct": 0}, seed=0))
        .under("causal")
        .using("approx-relaxed")
    )

    observed = session.history  # records once, cached for the session
    print("=== Observed execution (serializable) ===")
    print(history_to_text(observed))
    assert is_serializable(observed)

    print("\n=== Predicting under causal consistency ===")
    batch = session.predict()
    assert batch.found, "the deposit example always has a prediction"
    result = batch.best
    predicted = result.predicted
    print(history_to_text(predicted, include_pco=True))
    print(f"\nstill causal:     {is_causal(predicted)}")
    print(f"serializable:     {bool(is_serializable(predicted))}")
    print(f"pco cycle:        {' < '.join(result.cycle)}")

    print("\n=== Validating by replaying the application ===")
    report = session.validate()
    print(f"validated (feasible & unserializable): {report.validated}")
    print(f"diverged: {report.diverged}")
    balances = [
        t.writes[0].value for t in report.validating.transactions()
    ]
    print(f"written balances in the validating run: {sorted(balances)}")
    print("-> the lost update is real: one deposit overwrites the other")


if __name__ == "__main__":
    main()
