"""The ``python -m repro.harness`` entry point."""

import json

from repro.harness.__main__ import main, parse_args


class TestParseArgs:
    def test_defaults(self):
        options = parse_args(["prog"])
        assert options.output == "EXPERIMENTS.md"
        assert options.apps is None
        assert not options.no_random

    def test_custom(self):
        options = parse_args(["prog", "out.md", "--apps", "cp,matmul",
                              "--no-random"])
        assert options.output == "out.md"
        assert options.apps == "cp,matmul"
        assert options.no_random

    def test_engine_flags_default_off(self):
        options = parse_args(["prog"])
        assert options.workers is None
        assert options.store is None
        assert options.trace is None
        assert options.profile is None

    def test_engine_flags(self):
        options = parse_args(["prog", "--workers", "4",
                              "--store", "store_dir"])
        assert options.workers == 4
        assert options.store == "store_dir"


class TestMain:
    def test_subset_run_writes_report(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        code = main(["prog", str(output), "--apps", "cp", "--no-random"])
        assert code == 0
        text = output.read_text()
        assert "# EXPERIMENTS" in text
        assert "cp" in capsys.readouterr().out

    def test_unknown_app_rejected(self, tmp_path):
        code = main(["prog", str(tmp_path / "x.md"), "--apps", "nonesuch"])
        assert code == 2

    def test_trace_flag_writes_chrome_trace(self, tmp_path, capsys):
        output = tmp_path / "report.md"
        trace = tmp_path / "trace.json"
        code = main(["prog", str(output), "--apps", "cp", "--no-random",
                     "--trace", str(trace)])
        assert code == 0
        # the tracer is global state; main() must turn it back off
        from repro.obs import tracing_enabled

        assert not tracing_enabled()

        data = json.loads(trace.read_text())
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        assert events
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        names = {event["name"] for event in events}
        assert "harness.experiment" in names
        assert "engine.simulate_batch" in names
        assert "sm.replay" in names
        # the report gains the per-stage breakdown table
        assert "Per-stage timing" in output.read_text()
        assert str(trace) in capsys.readouterr().out

    def test_profile_flag_dumps_pstats(self, tmp_path, capsys):
        import pstats

        output = tmp_path / "report.md"
        profile = tmp_path / "sweep.pstats"
        code = main(["prog", str(output), "--apps", "cp", "--no-random",
                     "--profile", str(profile)])
        assert code == 0
        stats = pstats.Stats(str(profile))
        # the sweep really ran under the profiler: the SM replay loop
        # must appear in the collected call stats
        functions = {func for _, _, func in stats.stats}
        assert any("simulate_sm" in name for name in functions)
        assert str(profile) in capsys.readouterr().out

    def test_resume_writes_then_reuses_checkpoint(self, tmp_path, capsys):
        """An interrupted run resumes by re-running with the same
        ``--store``: the config tier holds every result it recorded."""
        output = tmp_path / "report.md"
        store = tmp_path / "store"
        args = ["prog", str(output), "--apps", "cp", "--no-random",
                "--store", str(store)]
        assert main(args) == 0
        assert any((store / "config").rglob("*.entry"))
        # measured numbers are deterministic; only the telemetry
        # section carries run-dependent wall times
        def measured(text):
            return text.split("## Search engine telemetry")[0]

        first_report = output.read_text()
        capsys.readouterr()
        # second run resumes: no new evaluations or simulations,
        # identical measurements
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "evals=0 sims=0" in out
        assert measured(output.read_text()) == measured(first_report)
