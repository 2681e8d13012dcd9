"""CLI tests: every subcommand end to end through main()."""
import json

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def trace_path(tmp_path):
    path = tmp_path / "trace.json"
    code = main(
        ["record", "--app", "smallbank", "--seed", "1", "--out", str(path)]
    )
    assert code == 0
    return path


class TestRecord:
    def test_record_writes_trace(self, trace_path):
        data = json.loads(trace_path.read_text())
        assert data["transactions"]
        assert "initial" in data

    def test_all_apps_recordable(self, tmp_path):
        for app in ("smallbank", "voter", "tpcc", "wikipedia"):
            out = tmp_path / f"{app}.json"
            assert main(
                ["record", "--app", app, "--out", str(out)]
            ) == 0
            assert out.exists()

    def test_large_workload_flag(self, tmp_path):
        out = tmp_path / "large.json"
        assert main(
            ["record", "--app", "voter", "--workload", "large",
             "--out", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert len(data["transactions"]) > 12


class TestCheck:
    def test_check_reports_levels(self, trace_path, capsys):
        assert main(["check", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "serializable:    True" in out
        assert "causal:          True" in out


class TestPredict:
    def test_predict_causal(self, trace_path, capsys):
        code = main(
            ["predict", str(trace_path), "--isolation", "causal",
             "--strategy", "approx-relaxed", "--max-seconds", "90"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "prediction:" in out

    def test_predict_writes_output(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "predicted.json"
        main(
            ["predict", str(trace_path), "--isolation", "rc",
             "--strategy", "approx-strict", "--out", str(out_path),
             "--max-seconds", "90"]
        )
        text = capsys.readouterr().out
        if "sat" in text.split("prediction:")[1].splitlines()[0]:
            assert out_path.exists()


class TestRender:
    def test_render_text(self, trace_path, capsys):
        assert main(["render", str(trace_path)]) == 0
        assert "session" in capsys.readouterr().out

    def test_render_dot(self, trace_path, capsys):
        assert main(["render", str(trace_path), "--format", "dot"]) == 0
        assert "digraph" in capsys.readouterr().out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["record", "--app", "nope"])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "--app", "voter"])
        assert args.seeds == 10
        assert args.isolation == "causal"


class TestAnalyze:
    def test_analyze_app_end_to_end(self, capsys):
        code = main(
            ["analyze", "--app", "smallbank", "--seed", "2",
             "--isolation", "causal", "--max-seconds", "60"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "analyzing bench:smallbank" in out
        assert "prediction:" in out
        assert "validated:" in out  # bench sources replay-validate

    def test_analyze_trace_needs_no_app(self, trace_path, capsys):
        """The acceptance path: predict on an externally loaded history."""
        code = main(
            ["analyze", "--trace", str(trace_path),
             "--isolation", "causal", "--max-seconds", "60"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "analyzing trace:" in out
        assert "prediction:" in out
        # validation cannot run without a replayable app — said, not crashed
        if "prediction: sat" in out:
            assert "validation unavailable" in out
            assert "validated:" not in out

    def test_analyze_trace_writes_prediction(self, trace_path, tmp_path,
                                             capsys):
        out_path = tmp_path / "pred.json"
        main(
            ["analyze", "--trace", str(trace_path), "--isolation", "rc",
             "--strategy", "approx-strict", "--out", str(out_path),
             "--max-seconds", "60"]
        )
        text = capsys.readouterr().out
        if "prediction: sat" in text:
            assert out_path.exists()
            data = json.loads(out_path.read_text())
            assert data["transactions"]

    def test_analyze_fuzz_source(self, capsys):
        code = main(
            ["analyze", "--fuzz", "5", "--isolation", "rc",
             "--max-seconds", "60"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "analyzing fuzz:5" in out

    def test_analyze_k_enumeration(self, capsys):
        code = main(
            ["analyze", "--app", "smallbank", "--seed", "2", "--k", "2",
             "--workload", "small", "--max-seconds", "60"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "predictions found: 2/2" in out

    def test_analyze_requires_exactly_one_source(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "--app", "smallbank", "--trace", "t.json"]
            )


class TestValidateCommand:
    def test_validate_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "obs.json"
        main(["record", "--app", "smallbank", "--seed", "0",
              "--out", str(trace)])
        predicted = tmp_path / "pred.json"
        main(["predict", str(trace), "--isolation", "rc",
              "--strategy", "approx-strict", "--out", str(predicted),
              "--max-seconds", "90"])
        capsys.readouterr()
        if not predicted.exists():
            import pytest

            pytest.skip("no prediction at seed 0")
        code = main(
            ["validate", str(predicted), "--app", "smallbank",
             "--seed", "0", "--isolation", "rc",
             "--observed", str(trace)]
        )
        out = capsys.readouterr().out
        assert "validated:" in out
        assert code in (0, 1)


class TestSolverFlags:
    @pytest.mark.parametrize(
        "flags",
        [["--portfolio", "2"], ["--deterministic"], ["--solver", "inprocess"],
         ["--budget", "30s"]],
        ids=["portfolio", "deterministic", "solver", "budget"],
    )
    def test_removed_portfolio_flags_are_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--app", "smallbank", *flags])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_campaign_rejects_removed_solver_flag(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        with pytest.raises(SystemExit) as info:
            main(
                ["campaign", "--apps", "smallbank", "--workloads", "tiny",
                 "--seeds", "1", "--solver", "inprocess", "--out", str(out)]
            )
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()  # rejected before any round ran

    def test_max_conflicts_flag_bounds_predict(self, tmp_path, capsys):
        trace = tmp_path / "obs.json"
        main(["record", "--app", "smallbank", "--seed", "1",
              "--out", str(trace)])
        capsys.readouterr()
        # a 1-conflict limit must stop the solver with unknown (rc=2)
        code = main(
            ["predict", str(trace), "--isolation", "causal",
             "--strategy", "approx-strict", "--max-conflicts", "1"]
        )
        out = capsys.readouterr().out
        assert code == 2
        assert "prediction: unknown" in out


class TestStoreBackendFlag:
    def test_analyze_on_sharded_backend(self, capsys):
        code = main(
            ["analyze", "--app", "smallbank", "--seed", "1",
             "--backend", "sharded:2", "--no-validate",
             "--max-seconds", "90"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "store_backend=sharded" in out
        assert "shards=2" in out

    def test_analyze_verdict_equal_across_backends(self, tmp_path, capsys):
        def verdict(*extra):
            code = main(
                ["analyze", "--app", "smallbank", "--seed", "1",
                 "--no-validate", "--max-seconds", "90", *extra]
            )
            assert code == 0
            out = capsys.readouterr().out
            return [
                line for line in out.splitlines()
                if line.startswith("prediction:")
            ]

        base = verdict()
        assert verdict("--backend", "sharded:2") == base
        archive = tmp_path / "cli.sqlite"
        assert verdict("--backend", f"sqlite:{archive}") == base
        # the archive reopens as a trace source with the same verdict
        assert verdict_trace_equal(base, archive, capsys)

    def test_record_through_sqlite_backend(self, tmp_path):
        archive = tmp_path / "rec.sqlite"
        out = tmp_path / "trace.json"
        code = main(
            ["record", "--app", "smallbank", "--seed", "2",
             "--backend", f"sqlite:{archive}", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["meta"]["store_backend"] == "sqlite"
        assert archive.exists()

    def test_trace_with_backend_rejected(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        main(["record", "--app", "smallbank", "--out", str(trace)])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(
                ["analyze", "--trace", str(trace),
                 "--backend", "sharded:2"]
            )

    def test_bad_backend_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["analyze", "--app", "smallbank",
                 "--backend", "redis:6379"]
            )
        assert "unknown store backend" in capsys.readouterr().err

    def test_campaign_with_backend(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        code = main(
            ["campaign", "--apps", "smallbank", "--workloads", "tiny",
             "--seeds", "2", "--backend", "sharded:2", "--no-validate",
             "--out", str(out), "--quiet"]
        )
        assert code == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(r["backend"] == "sharded:2" for r in rows)


def verdict_trace_equal(base, archive, capsys):
    code = main(
        ["analyze", "--trace", str(archive), "--no-validate",
         "--max-seconds", "90"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = [
        line for line in out.splitlines()
        if line.startswith("prediction:")
    ]
    return lines == base


class TestWatch:
    def _summary(self, capsys):
        out = capsys.readouterr().out
        return json.loads(out[out.index("{"):out.rindex("}") + 1])

    def test_watch_bounded_fuzz_stream(self, capsys):
        code = main(
            ["watch", "--fuzz", "0", "--runs", "3", "--window", "8",
             "--k", "1", "--quiet"]
        )
        summary = self._summary(capsys)
        assert summary["runs"] == 3
        assert summary["windows"] >= 3
        assert code in (0, 1)
        assert (code == 0) == (summary["findings"] > 0)

    @pytest.mark.parametrize(
        "limit", [["--max-seconds", "0"], ["--max-conflicts", "1"]],
        ids=["max_seconds", "max_conflicts"],
    )
    def test_watch_solver_limits_bound_each_window(self, limit, capsys):
        argv = ["watch", "--fuzz", "0", "--runs", "2", "--quiet"]
        assert main(argv) == 0
        unbounded = self._summary(capsys)
        assert unbounded["findings"] > 0
        assert main(argv + limit) == 1
        bounded = self._summary(capsys)
        assert bounded["windows"] == unbounded["windows"]
        assert bounded["findings"] == 0
        # one solver check per window, stopped at its first conflict
        assert bounded["conflicts"] <= bounded["windows"]

    def test_watch_trace_backlog(self, tmp_path, capsys):
        from repro.gallery import deposit_observed
        from repro.history import history_to_json

        stream = tmp_path / "stream.jsonl"
        stream.write_text(
            json.dumps(history_to_json(deposit_observed())) + "\n"
        )
        out = tmp_path / "findings.jsonl"
        code = main(
            ["watch", "--trace", str(stream), "--window", "8",
             "--k", "2", "--quiet", "--out", str(out)]
        )
        assert code == 0  # deposit has a causal anomaly
        summary = self._summary(capsys)
        assert summary["findings"] >= 1
        rows = [
            json.loads(line)
            for line in out.read_text().splitlines() if line
        ]
        assert len(rows) == summary["findings"]
        assert all(r["isolation"] == "causal" for r in rows)
        assert len({r["key"] for r in rows}) == len(rows)

    def test_watch_fuzz_archive_retention(self, tmp_path, capsys):
        from repro.store.backends import count_executions

        archive = tmp_path / "runs.sqlite"
        code = main(
            ["watch", "--fuzz", "0", "--runs", "4", "--window", "8",
             "--k", "1", "--archive", str(archive), "--keep", "2",
             "--quiet"]
        )
        assert code in (0, 1)
        assert count_executions(archive) == 2

    def test_follow_requires_trace(self, capsys):
        assert main(["watch", "--fuzz", "0", "--follow"]) == 2
        assert "--follow" in capsys.readouterr().err

    def test_archive_requires_fuzz(self, tmp_path, capsys):
        assert main(
            ["watch", "--trace", str(tmp_path / "t.jsonl"),
             "--archive", str(tmp_path / "a.sqlite")]
        ) == 2
        assert "--archive" in capsys.readouterr().err


class TestCorpusPromote:
    CORPUS = str(
        __import__("pathlib").Path(__file__).parent
        / "corpus" / "corpus.jsonl"
    )

    def test_promote_into_fresh_corpus(self, tmp_path, capsys):
        dest = tmp_path / "regression.jsonl"
        code = main(
            ["corpus", "promote", self.CORPUS,
             "--dest", str(dest), "--no-verify", "--quiet"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "promoted 12" in out
        assert dest.exists()
        # promoting again is a no-op
        assert main(
            ["corpus", "promote", self.CORPUS,
             "--dest", str(dest), "--quiet"]
        ) == 0
        assert "promoted 0" in capsys.readouterr().out

    def test_fuzz_out_dir_is_resolved(self, tmp_path, capsys):
        from shutil import copyfile

        run_dir = tmp_path / "fuzz-out"
        run_dir.mkdir()
        copyfile(self.CORPUS, run_dir / "corpus.jsonl")
        dest = tmp_path / "regression.jsonl"
        assert main(
            ["corpus", "promote", str(run_dir), "--dest", str(dest),
             "--no-verify", "--quiet"]
        ) == 0
        assert "promoted 12" in capsys.readouterr().out

    def test_missing_source_errors(self, tmp_path, capsys):
        assert main(
            ["corpus", "promote", str(tmp_path / "nope.jsonl")]
        ) == 2
        assert "no corpus" in capsys.readouterr().err
