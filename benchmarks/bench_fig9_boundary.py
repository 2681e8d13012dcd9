"""Figure 9: divergence and the strict vs relaxed prediction boundary.

The deposit/withdraw/deposit scenario: the unbounded prediction (9c) makes
the withdraw read balance 0, which aborts during validation (9d). The
strict boundary excludes the withdraw's write and the truncated history is
serializable (9e: UNSAT); the relaxed boundary admits a prediction (9f)
that validation must then reject or confirm.
"""
from harness import format_table
from repro import gallery
from repro.isolation import IsolationLevel, is_serializable
from repro.predict import IsoPredict, PredictionStrategy
from repro.smt import Result
from repro.validate import validate_prediction

LEVEL = IsolationLevel.CAUSAL


def deposit(amount):
    def program(client, rng):
        balance = client.get("acct")
        client.put("acct", (balance or 0) + amount)
        client.commit()
        yield

    return program


def withdraw(amount):
    def program(client, rng):
        balance = client.get("acct")
        if (balance or 0) < amount:
            client.rollback()
        else:
            client.put("acct", balance - amount)
            client.commit()
        yield

    return program


def chain(*programs):
    def program(client, rng):
        for p in programs:
            yield from p(client, rng)

    return program


PROGRAMS = {
    "s1": chain(deposit(60), deposit(5)),
    "s2": withdraw(50),
}


def test_fig9_strict_vs_relaxed(benchmark, capsys):
    observed = gallery.fig9_observed()

    def both():
        strict = IsoPredict(
            LEVEL, PredictionStrategy.APPROX_STRICT
        ).predict(observed)
        relaxed = IsoPredict(
            LEVEL, PredictionStrategy.APPROX_RELAXED
        ).predict(observed)
        return strict, relaxed

    strict, relaxed = benchmark.pedantic(both, rounds=1, iterations=1)
    with capsys.disabled():
        print(
            format_table(
                "Fig. 9e/9f: boundary comparison",
                ["boundary", "prediction"],
                [
                    ["strict", strict.status.value],
                    ["relaxed", relaxed.status.value],
                ],
            )
        )
    assert strict.status is Result.UNSAT  # 9e: truncation is serializable
    assert relaxed.status is Result.SAT  # 9f: relaxed admits a prediction


def test_fig9d_validation_catches_false_prediction(benchmark, capsys):
    """Replay the paper's exact 9c prediction: the withdraw aborts."""
    predicted = gallery.fig9c_predicted()
    observed = gallery.fig9_observed()
    report = benchmark.pedantic(
        validate_prediction,
        args=(predicted, PROGRAMS, LEVEL),
        kwargs={"observed": observed, "initial": {"acct": 0}},
        rounds=1,
        iterations=1,
    )
    assert report.diverged
    assert not report.validated
    assert is_serializable(report.validating)
    with capsys.disabled():
        sessions = {
            t.session for t in report.validating.transactions()
        }
        print(
            f"\n[fig9d] withdraw aborted during replay "
            f"(validating sessions: {sorted(sessions)}); validating "
            "execution is serializable -> false prediction rejected"
        )


def test_fixed_history_serializability_check(benchmark):
    """Validation's inner check on the Fig. 9 observed history: the
    session-frontier search, which runs without the SMT substrate."""
    h = gallery.fig9_observed()
    report = benchmark(lambda: is_serializable(h))
    assert report
