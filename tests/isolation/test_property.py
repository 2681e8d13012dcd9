"""Property tests: random histories, oracle cross-checks, level ordering."""
import ast
import importlib.util
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro.isolation
from repro.history import HistoryBuilder
from repro.isolation import (
    is_causal,
    is_read_committed,
    is_serializable,
    is_serializable_bruteforce,
    pco_unserializable,
)
from repro.isolation.checkers import _witnesses
from tests.predict.test_encoding_oracle import by_fingerprint, drain

KEYS = ["x", "y"]


def imported_modules(path: Path, package: str):
    """Every module ``path`` imports, function-local imports included;
    ``package`` resolves its relative imports."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package
            )
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


#: ``time`` functions that read a clock (``sleep`` waits, it reads none).
CLOCK_FUNCTIONS = {
    name + suffix
    for name in ("monotonic", "perf_counter", "time", "process_time")
    for suffix in ("", "_ns")
}

#: The functions outside the span recorder that may read the clock: each
#: is a deadline, a poll or a harness wall, which must keep running when
#: the telemetry clock is frozen. Every measured region is a span.
CLOCK_READERS = {
    ("repro/predict/analysis.py", "IsoPredict._deadline"),
    ("repro/predict/analysis.py", "_remaining"),
    ("repro/smt/sat.py", "SatSolver.solve"),
    ("repro/serve/incremental.py", "WindowFamily.analyze"),
    ("repro/serve/stream.py", "_Tailer.runs"),
    ("repro/fuzz/engine.py", "Fuzzer.run"),
    ("repro/perf.py", "run_measured"),
}


def clock_reads(path: Path):
    """The qualified name of the scope around each clock read in
    ``path`` (``time.monotonic()``-style calls and ``from time import``
    of a clock function)."""
    tree = ast.parse(path.read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "time"
    }

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                yield from visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.ImportFrom) and child.module == "time"
                and any(a.name in CLOCK_FUNCTIONS for a in child.names)
            ) or (
                isinstance(child, ast.Attribute)
                and isinstance(child.value, ast.Name)
                and child.value.id in modules
                and child.attr in CLOCK_FUNCTIONS
            ):
                yield ".".join(scope) or "<module>"
            yield from visit(child, scope)

    return visit(tree, ())


@st.composite
def random_history(draw, max_ops: int = 21):
    """Small random histories with consistent wr choices.

    Up to four sessions, seven transactions, three operations per
    transaction and ``max_ops`` operations in all. Transactions are
    generated per session; each read picks a writer among transactions
    that write the key (or t0). Generated histories are always
    structurally valid but make no isolation guarantee — that is the
    point.
    """
    n_sessions = draw(st.integers(min_value=1, max_value=4))
    n_txns = draw(st.integers(min_value=1, max_value=7))
    plans = []
    for i in range(n_txns):
        room = max_ops - sum(len(ops) for _, _, ops in plans)
        if room == 0:
            break
        session = draw(st.integers(min_value=0, max_value=n_sessions - 1))
        n_ops = draw(st.integers(min_value=1, max_value=min(3, room)))
        ops = []
        for _ in range(n_ops):
            kind = draw(st.sampled_from(["r", "w"]))
            key = draw(st.sampled_from(KEYS))
            ops.append((kind, key))
        plans.append((f"t{i + 1}", f"s{session}", ops))
    writers = {k: ["t0"] for k in KEYS}
    for tid, _, ops in plans:
        for kind, key in ops:
            if kind == "w" and tid not in writers[key]:
                writers[key].append(tid)
    b = HistoryBuilder(initial={k: 0 for k in KEYS})
    for tid, session, ops in plans:
        tb = b.txn(tid, session)
        for kind, key in ops:
            if kind == "w":
                tb.write(key, 1)
            else:
                candidates = [w for w in writers[key] if w != tid]
                writer = draw(st.sampled_from(candidates))
                tb.read(key, writer=writer)
    return b.build()


class TestOracleAgreement:
    @given(random_history())
    @settings(max_examples=120, deadline=None)
    def test_frontier_search_matches_bruteforce(self, history):
        report = is_serializable(history)
        brute = is_serializable_bruteforce(history)
        assert bool(report) == bool(brute)
        for order in (report.commit_order, brute.commit_order):
            if order is not None:
                assert sorted(order) == sorted(
                    t.tid for t in history.all_transactions()
                )
                assert _witnesses(history, order)

    @given(random_history())
    @settings(max_examples=120, deadline=None)
    def test_pco_witness_is_sound(self, history):
        if pco_unserializable(history):
            assert not is_serializable_bruteforce(history)

    @given(random_history())
    @settings(max_examples=120, deadline=None)
    def test_level_strength_ordering(self, history):
        """serializable => causal => rc (strictly ordered strength)."""
        if bool(is_serializable(history)):
            assert is_causal(history)
        if is_causal(history):
            assert is_read_committed(history)


#: Operations per history the exact ⊇ approx test drains. The prediction
#: space, and with it the cost of draining it, multiplies with every read
#: that has more than one writer to choose from: one 14-operation history
#: (t1 writes x, t2 writes y, four sessions each read x, y, x) holds about
#: 3,100 rc predictions.
DRAINED_OPS = 10


def assignment_keys(enum) -> list:
    return [
        (tuple(sorted(choices.items())), tuple(sorted(boundaries.items())))
        for choices, boundaries in enum.assignments
    ]


class TestApproxPredictions:
    @given(
        random_history(max_ops=DRAINED_OPS),
        st.sampled_from(["causal", "rc"]),
        st.sampled_from(["strict", "relaxed"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_drained_predictions_are_sound_and_distinct(
        self, history, level, boundary
    ):
        """Every approximate prediction is pco-cyclic and brute-force
        unserializable, none repeats, and exact CEGIS finds each one."""
        approx = drain(history, level, f"approx-{boundary}")
        for prediction in approx.predictions:
            assert prediction.cycle
            assert pco_unserializable(prediction.predicted)
            assert not is_serializable_bruteforce(prediction.predicted)
        assert len(by_fingerprint(approx)) == len(approx.predictions)
        exact = drain(history, level, f"exact-{boundary}")
        assert set(assignment_keys(approx)) <= set(assignment_keys(exact))


class TestFrontierSearch:
    def test_dead_end_is_backtracked(self):
        """s1's t1 is placeable first, but then t2 (s2) can never follow:
        t1 → t3 (wr on y) is open and t2 also writes y. Only backtracking
        to place t2 before t1 finds the serial order."""
        b = HistoryBuilder(initial={"y": 0})
        b.txn("t1", "s1").write("y", 1)
        b.txn("t2", "s2").write("y", 2)
        b.txn("t3", "s2").read("y", writer="t1")
        history = b.build()
        report = is_serializable(history)
        assert report.commit_order == ["t0", "t2", "t1", "t3"]
        assert bool(is_serializable_bruteforce(history))

    def test_isolation_does_not_import_the_solver(self):
        """The checkers stay independent of the SMT substrate whose
        predictions they check."""
        package = Path(repro.isolation.__file__).parent
        for path in sorted(package.glob("*.py")):
            for module in imported_modules(path, "repro.isolation"):
                assert module.split(".")[:2] != ["repro", "smt"], (
                    f"{path.name} imports {module}"
                )

    def test_src_imports_only_the_standard_library(self):
        """``pyproject.toml`` declares no dependencies, so every import,
        function-local ones included, is stdlib or repro itself."""
        src = Path(repro.__file__).parent.parent
        for path in sorted(src.glob("repro/**/*.py")):
            package = ".".join(path.relative_to(src).parts[:-1])
            for module in imported_modules(path, package):
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names or top in (
                    "__future__", "repro"
                ), f"{path.relative_to(src)} imports {module}"

    def test_spans_are_the_only_stopwatch(self):
        """Outside ``obs/trace.py`` only the named deadline, poll and
        harness functions read the clock; a region is timed by the span
        around it, so the fixed telemetry clock zeroes every duration."""
        src = Path(repro.__file__).parent.parent
        readers = set()
        for path in sorted(src.glob("repro/**/*.py")):
            name = path.relative_to(src).as_posix()
            if name != "repro/obs/trace.py":
                readers.update((name, scope) for scope in clock_reads(path))
        assert readers - CLOCK_READERS == set()
        assert CLOCK_READERS - readers == set()  # no stale allowance
