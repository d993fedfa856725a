"""Resume from the result store's config tier: corrupt entries,
mid-sweep edges, streaming writes, and app identity.

The store's config tier is the engine's only persistence of
per-configuration results.  Contracts pinned here:

* a truncated or corrupt config entry never crashes the sweep — the
  store counts it (``store_corrupt``), warns, drops it, and the
  configuration is recomputed bit-identically;
* mid-sweep resume edges are bit-identical to a fresh run: a sweep
  killed between the static and simulation stages, and a store written
  under a different worker count, both resume to the same reports,
  seconds, and counters;
* pooled results reach the tier as they stream in;
* entries are keyed by the app identity and the source digest, so
  ``MatMul(n=64)``, ``MriFhd(layout=...)``, ``sim_overrides`` runtimes
  and other code never serve each other.
"""

import logging
import os

import pytest

from repro.sim.fingerprint import SimulationCache
from repro.store import CONFIG_TIER, ResultStore
from repro.tuning import ExecutionEngine, cartesian
from tests.tuning.test_static_pool import COMPARED_COUNTERS, _matmul_configs

pytestmark = pytest.mark.fast


class PlainApp:
    def __init__(self):
        self.configs = cartesian({"e": [1, 2], "u": [1, 2]})
        self.simulated = []
        self.sim_cache = SimulationCache()

    def identity(self):
        return "plain"

    def evaluate(self, config):
        return None

    def simulate(self, config):
        self.simulated.append(config)
        return 1.0 / (config["e"] + config["u"])


def _fresh_matmul_run(chosen, workers=1, store=None):
    from repro.apps import MatMul

    app = MatMul().test_instance()
    with app.search_engine(workers=workers, store=store) as engine:
        entries = engine.evaluate_all(chosen)
        seconds = engine.seconds_for(chosen)
    keyed = [(e.metrics, e.invalid_reason) for e in entries]
    return keyed, seconds, engine.stats


def _config_entry_paths(store):
    root = os.path.join(store, CONFIG_TIER)
    return sorted(
        os.path.join(dirpath, name)
        for dirpath, _dirs, names in os.walk(root)
        for name in names if name.endswith(".entry")
    )


class TestCorruptCheckpoint:
    @pytest.mark.parametrize("damage", [
        lambda blob: b"",                       # empty file
        lambda blob: blob[:len(blob) // 2],     # truncated mid-write
        lambda blob: b"not an entry at all",    # garbage
        lambda blob: blob[:-1] + bytes([blob[-1] ^ 0xFF]),  # flipped bit
    ], ids=["empty", "truncated", "garbage", "bitflip"])
    def test_corrupt_file_warns_and_restarts_fresh(
        self, tmp_path, caplog, damage
    ):
        store = str(tmp_path / "store")
        cold = PlainApp()
        with ExecutionEngine.for_app(cold, store=store) as engine:
            seconds = engine.seconds_for(cold.configs)
        paths = _config_entry_paths(store)
        assert len(paths) == len(cold.configs)
        with open(paths[0], "rb") as handle:
            blob = handle.read()
        with open(paths[0], "wb") as handle:
            handle.write(damage(blob))

        app = PlainApp()
        with caplog.at_level(logging.WARNING, logger="repro.store.disk"):
            with ExecutionEngine.for_app(app, store=store) as engine:
                assert engine.seconds_for(app.configs) == seconds
        assert engine.stats.store_corrupt == 1
        assert engine.stats.config_time_hits == len(app.configs) - 1
        assert engine.stats.simulations == 1
        assert any("corrupt" in r.getMessage() for r in caplog.records)
        # The recomputed entry is valid again and resumes normally.
        resumed = PlainApp()
        with ExecutionEngine.for_app(resumed, store=store) as again:
            assert again.seconds_for(resumed.configs) == seconds
        assert again.stats.config_time_hits == len(app.configs)
        assert resumed.simulated == []

    def test_binary_garbage_is_survivable(self, tmp_path):
        from repro.apps import MatMul

        chosen = _matmul_configs(count=3)
        store = str(tmp_path / "store")
        fresh = _fresh_matmul_run(chosen)
        _fresh_matmul_run(chosen, store=store)
        for path in _config_entry_paths(store):
            with open(path, "wb") as handle:
                handle.write(b"\xff\xfe\x00garbage\x00")

        app = MatMul().test_instance()
        with app.search_engine(store=store) as engine:
            entries = engine.evaluate_all(chosen)
            seconds = engine.seconds_for(chosen)
        assert [(e.metrics, e.invalid_reason) for e in entries] == fresh[0]
        assert seconds == fresh[1]
        assert engine.stats.store_corrupt == len(chosen)
        assert engine.stats.config_static_hits == 0
        assert engine.stats.static_evaluations == len(chosen)


class TestMidSweepResume:
    def test_checkpoint_between_static_and_simulation_stages(self, tmp_path):
        """A run killed after the static stage but before any
        simulation resumes to a bit-identical full result."""
        from repro.apps import MatMul

        chosen = _matmul_configs()
        store = str(tmp_path / "store")

        first = MatMul().test_instance()
        with first.search_engine(workers=1, store=store) as engine:
            engine.evaluate_all(chosen)  # static only, then "killed"
        assert len(_config_entry_paths(store)) == len(chosen)

        resumed_entries, resumed_seconds, resumed_stats = _fresh_matmul_run(
            chosen, store=store
        )
        fresh_entries, fresh_seconds, _ = _fresh_matmul_run(chosen)

        assert resumed_entries == fresh_entries
        assert resumed_seconds == fresh_seconds
        # The static stage replayed from disk; only simulation ran.
        assert resumed_stats.static_evaluations == 0
        assert resumed_stats.config_static_hits == len(chosen)
        assert resumed_stats.simulations == len(chosen)

    @pytest.mark.parametrize("writer_workers,resumer_workers", [
        (2, 1),
        (1, 2),
    ])
    def test_resume_across_worker_counts(self, tmp_path, writer_workers,
                                         resumer_workers):
        """A store written under one worker count resumes under another
        with bit-identical results and counters, and zero re-work."""
        chosen = _matmul_configs()
        serial_store = str(tmp_path / "serial")
        store = str(tmp_path / "store")

        _, written_seconds, _ = _fresh_matmul_run(
            chosen, workers=writer_workers, store=store
        )
        _fresh_matmul_run(chosen, store=serial_store)
        resumed_entries, resumed_seconds, resumed_stats = _fresh_matmul_run(
            chosen, workers=resumer_workers, store=store
        )
        _, _, serial_stats = _fresh_matmul_run(chosen, store=serial_store)
        fresh_entries, fresh_seconds, _ = _fresh_matmul_run(chosen)

        assert resumed_seconds == written_seconds == fresh_seconds
        assert resumed_entries == fresh_entries
        assert resumed_stats.simulations == 0
        assert resumed_stats.static_evaluations == 0
        assert resumed_stats.config_time_hits == len(chosen)
        assert resumed_stats.config_static_hits == len(chosen)
        assert {name: getattr(resumed_stats, name)
                for name in COMPARED_COUNTERS} == {
            name: getattr(serial_stats, name) for name in COMPARED_COUNTERS
        }


class TestStreamingCheckpoints:
    def test_pooled_sweep_flushes_incrementally(self, tmp_path,
                                                monkeypatch):
        """Pooled results reach the config tier as they stream in: each
        write lands right after its own result, not once at the end."""
        app = PlainApp()
        app.configs = cartesian({"e": [1, 2, 3, 4], "u": [1, 2, 3, 4]})
        engine = ExecutionEngine.for_app(
            app, workers=2, store=str(tmp_path / "store")
        )
        progress = []
        write = engine._write_stored

        def spy(config, entry):
            progress.append(len(engine._seconds))
            write(config, entry)

        monkeypatch.setattr(engine, "_write_stored", spy)
        try:
            engine.seconds_for(app.configs)
        finally:
            engine.close()
        assert engine.stats.pool_batches == 1
        assert progress == list(range(1, len(app.configs) + 1))
        assert len(_config_entry_paths(str(tmp_path / "store"))) == 16


class TestIdentity:
    """Regression: the JSON checkpoint checked only the app *name*, so
    results written by ``MatMul(n=64)`` were resumed by ``MatMul()``."""

    def _record(self, app, store, configs):
        with app.search_engine(store=store) as engine:
            engine.evaluate_all(configs)
            return engine.seconds_for(configs)

    def _replay(self, app, store, configs):
        with app.search_engine(store=store) as engine:
            engine.evaluate_all(configs)
            seconds = engine.seconds_for(configs)
        return seconds, engine.stats

    def test_problem_size_is_part_of_the_key(self, tmp_path):
        from repro.apps import MatMul

        store = str(tmp_path / "store")
        configs = [c for c in MatMul(n=64).space()][:2]
        self._record(MatMul(n=64), store, configs)
        seconds, stats = self._replay(MatMul(), store, configs)
        assert stats.config_static_hits == stats.config_time_hits == 0
        assert seconds == self._record(MatMul(), None, configs)
        _, same = self._replay(MatMul(n=64), store, configs)
        assert same.config_static_hits == len(configs)

    def test_layout_is_part_of_the_key(self, tmp_path):
        from repro.apps.mri_fhd import CONFLICTED_LAYOUT, MriFhd

        store = str(tmp_path / "store")
        app = MriFhd().test_instance()
        configs = [c for c in app.space()][:2]
        self._record(app, store, configs)
        other = MriFhd(layout=CONFLICTED_LAYOUT).test_instance()
        _, stats = self._replay(other, store, configs)
        assert stats.config_static_hits == stats.config_time_hits == 0

    def test_sim_overrides_are_part_of_the_key(self, tmp_path):
        from repro.apps import MatMul

        store = str(tmp_path / "store")
        app = MatMul(n=64)
        configs = [c for c in app.space()][:2]
        self._record(app, store, configs)
        runtime = MatMul(n=64)
        runtime.sim_overrides = {"wave_convergence_rtol": 0.05}
        _, stats = self._replay(runtime, store, configs)
        assert stats.config_static_hits == stats.config_time_hits == 0

    def test_source_digest_is_part_of_the_key(self, tmp_path, monkeypatch):
        import repro.store.disk as disk
        from repro.apps import MatMul

        store = str(tmp_path / "store")
        configs = [c for c in MatMul(n=64).space()][:2]
        self._record(MatMul(n=64), store, configs)
        monkeypatch.setattr(disk, "source_digest", lambda: "0" * 64)
        _, stats = self._replay(MatMul(n=64), store, configs)
        assert stats.config_static_hits == stats.config_time_hits == 0
        assert stats.static_evaluations == len(configs)
        # the stale entries were left alone, not served or counted corrupt
        assert stats.store_corrupt == 0
        assert len(ResultStore(store).list_keys(CONFIG_TIER)) == 2 * len(configs)
