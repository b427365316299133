"""Runner package: cache keys, payload round-trips, pool semantics."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.api import simulate_alltoall
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.config import NetworkConfig
from repro.net.faults import FaultPlan
from repro.runner import (
    SimPoint,
    canonical_extras,
    counters,
    decode_run,
    encode_run,
    point_fingerprint,
    point_key,
    resolve_jobs,
    run_point,
    run_points,
)
from repro.strategies import ARDirect, TwoPhaseSchedule


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    counters.reset()


def _point(**kw) -> SimPoint:
    defaults = dict(
        strategy=ARDirect(),
        shape=TorusShape.parse("4x4x2"),
        msg_bytes=64,
        seed=1,
    )
    defaults.update(kw)
    return SimPoint(**defaults)


class TestKeys:
    def test_key_is_stable_across_processes_conceptually(self):
        # Same logical point built twice -> same key.
        assert point_key(_point()) == point_key(_point())

    def test_fingerprint_is_json_canonical(self):
        fp = point_fingerprint(_point())
        assert json.loads(json.dumps(fp)) == fp

    def test_every_input_perturbs_the_key(self):
        base = point_key(_point())
        variants = [
            _point(msg_bytes=128),
            _point(seed=2),
            _point(shape=TorusShape.parse("4x4x4")),
            _point(strategy=TwoPhaseSchedule()),
            _point(strategy=TwoPhaseSchedule(packets_per_round=3)),
            _point(params=MachineParams(hop_latency_cycles=80.0)),
            _point(config=NetworkConfig(vc_depth=8)),
            _point(faults=FaultPlan(loss_prob=0.01)),
        ]
        keys = {point_key(p) for p in variants}
        assert base not in keys
        assert len(keys) == len(variants)

    def test_strategy_options_are_part_of_the_key(self):
        a = point_key(_point(strategy=TwoPhaseSchedule(pipelined=True)))
        b = point_key(_point(strategy=TwoPhaseSchedule(pipelined=False)))
        assert a != b


class TestCodec:
    def test_roundtrip_is_exact(self):
        run = simulate_alltoall(ARDirect(), TorusShape.parse("4x4x2"), 64, seed=1)
        back = decode_run(json.loads(json.dumps(encode_run(run))))
        assert back.strategy == run.strategy
        assert back.shape == run.shape
        assert back.msg_bytes == run.msg_bytes
        assert back.params == run.params
        assert back.predicted_cycles == run.predicted_cycles
        assert back.result.time_cycles == run.result.time_cycles
        assert back.result.events_processed == run.result.events_processed
        assert back.result.mean_final_latency == run.result.mean_final_latency
        assert np.array_equal(
            back.result.link_busy_cycles, run.result.link_busy_cycles
        )
        assert back.result.link_busy_cycles.dtype == np.float64
        # Derived metrics (what the tables render) are bit-equal too.
        assert back.percent_of_peak == run.percent_of_peak
        assert back.per_node_mb_per_s == run.per_node_mb_per_s


class TestPool:
    def test_results_in_input_order_and_identical_across_jobs(self):
        pts = [
            _point(msg_bytes=m, strategy=s())
            for m in (32, 64)
            for s in (ARDirect, TwoPhaseSchedule)
        ]
        seq = run_points(pts, jobs=1)
        counters.reset()
        par = run_points(pts, jobs=4)
        assert counters.simulated == 0  # second call hit the cache
        for a, b, p in zip(seq, par, pts):
            assert a.msg_bytes == p.msg_bytes
            assert a.strategy == p.strategy.name
            assert json.dumps(encode_run(a), sort_keys=True) == json.dumps(
                encode_run(b), sort_keys=True
            )

    def test_parallel_cold_cache_matches_sequential(self, monkeypatch, tmp_path):
        pts = [_point(msg_bytes=m) for m in (32, 64, 96)]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "a"))
        seq = run_points(pts, jobs=1)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "b"))
        par = run_points(pts, jobs=3)
        for a, b in zip(seq, par):
            assert json.dumps(encode_run(a), sort_keys=True) == json.dumps(
                encode_run(b), sort_keys=True
            )

    def test_cache_hit_executes_no_simulation(self):
        p = _point()
        run_point(p)
        assert counters.simulated == 1
        counters.reset()
        again = run_point(p)
        assert counters.simulated == 0
        assert counters.cache_hits == 1
        assert again.result.time_cycles > 0

    def test_cache_disable_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        p = _point()
        run_point(p)
        run_point(p)
        assert counters.simulated == 2
        assert counters.cache_hits == 0

    def test_faulty_points_cache_too(self):
        shape = TorusShape.parse("4x4x2")
        plan = FaultPlan.random(shape, seed=3, dead_link_fraction=0.05)
        p = _point(shape=shape, faults=plan)
        first = run_point(p)
        counters.reset()
        second = run_point(p)
        assert counters.simulated == 0
        assert json.dumps(encode_run(first), sort_keys=True) == json.dumps(
            encode_run(second), sort_keys=True
        )

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path, monkeypatch):
        from repro.runner import cache_root

        p = _point()
        run_point(p)
        entries = list(cache_root().rglob("*.json"))
        assert len(entries) == 1
        entries[0].write_text("{not json")
        counters.reset()
        run_point(p)
        assert counters.simulated == 1

    def test_corrupt_entry_warns_with_path_and_is_counted(
        self, caplog, monkeypatch
    ):
        import logging

        from repro.runner import cache_root

        # Undo any CLI-style logger configuration a prior test left on
        # the "repro" tree so caplog (root handler) sees the warning.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        p = _point()
        run_point(p)
        entry = next(cache_root().rglob("*.json"))
        entry.write_text("{truncated")
        counters.reset()
        with caplog.at_level("WARNING", logger="repro.runner.cache"):
            run_point(p)
        assert counters.cache_corrupt == 1
        messages = [rec.getMessage() for rec in caplog.records]
        assert any(
            "corrupt cache entry" in m and str(entry) in m for m in messages
        )

    def test_corrupt_entry_is_quarantined_and_recomputed(self):
        from repro.runner import cache_root

        p = _point()
        run_point(p)
        entry = next(cache_root().rglob("*.json"))
        entry.write_text("{rotten")
        counters.reset()
        run_point(p)
        assert counters.simulated == 1
        assert counters.cache_corrupt == 1
        # The rotten bytes moved aside as evidence...
        quarantine = entry.with_name(entry.name.replace(".json", ".corrupt"))
        assert quarantine.exists()
        assert quarantine.read_text() == "{rotten"
        # ...and the entry was rewritten, so the next run is a clean hit
        # that never re-parses the corrupt file.
        counters.reset()
        run_point(p)
        assert counters.cache_hits == 1
        assert counters.cache_corrupt == 0
        assert counters.simulated == 0

    def test_cache_stats_counters(self):
        pts = [_point(msg_bytes=m) for m in (32, 64)]
        run_points(pts)
        assert counters.simulated == 2
        assert counters.cache_misses == 2
        assert counters.cache_stores == 2
        assert counters.cache_hits == 0
        assert counters.sim_events > 0
        assert counters.sim_cycles > 0.0
        assert len(counters.point_keys) == 2
        counters.reset()
        run_points(pts)
        assert counters.cache_hits == 2
        assert counters.cache_misses == 0
        assert counters.cache_stores == 0
        assert counters.simulated == 0
        # Executed point keys are recorded for hits too (provenance
        # fingerprints cover the whole sweep, not just fresh points).
        assert len(counters.point_keys) == 2

    def test_snapshot_is_a_copy(self):
        run_point(_point())
        snap = counters.snapshot()
        before = dict(snap)
        run_point(_point(msg_bytes=96))
        assert snap == before
        assert snap["n_point_keys"] == 1
        assert len(counters.point_keys) == 2

    def test_snapshot_cost_is_independent_of_history(self):
        class Untouchable(list):
            """History a snapshot may measure but never copy."""

            def __iter__(self):
                raise AssertionError("snapshot copied the history")

            __getitem__ = __iter__

        counters.point_keys = Untouchable(["k"] * 500_000)
        counters.failures = Untouchable([{"kind": "timeout"}] * 1000)
        try:
            snap = counters.snapshot()
            assert snap["n_point_keys"] == 500_000
            assert snap["n_failures"] == 1000
            # And in time: far below what copying 500k entries takes.
            t0 = time.perf_counter()
            for _ in range(100):
                counters.snapshot()
            assert (time.perf_counter() - t0) / 100 < 1e-3
        finally:
            counters.reset()


class TestCanonicalExtras:
    def test_native_types_pass_through(self):
        val = {"a": 1, "b": [1.5, "x", True, None], "c": {"d": 2}}
        assert canonical_extras(val) == val

    def test_numpy_scalars_become_native(self):
        out = canonical_extras(
            {
                "i": np.int64(3),
                "f": np.float64(1.5),
                "b": np.bool_(True),
                "arr": np.array([1.0, 2.0]),
            }
        )
        assert out == {"i": 3, "f": 1.5, "b": True, "arr": [1.0, 2.0]}
        assert type(out["i"]) is int
        assert type(out["f"]) is float
        assert type(out["b"]) is bool
        assert json.loads(json.dumps(out)) == out

    def test_tuples_become_lists(self):
        assert canonical_extras({"t": (1, (2, 3))}) == {"t": [1, [2, 3]]}

    def test_non_string_key_raises_with_path(self):
        with pytest.raises(TypeError, match=r"extras\.outer: non-string"):
            canonical_extras({"outer": {1: "x"}})

    def test_unencodable_value_raises_with_path(self):
        with pytest.raises(TypeError, match=r"extras\.a\[1\]"):
            canonical_extras({"a": [0, object()]})

    def test_non_finite_float_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_extras({"x": float("nan")})
        with pytest.raises(ValueError, match="non-finite"):
            canonical_extras([float("inf")])

    def test_extras_roundtrip_through_encode(self):
        run = simulate_alltoall(
            ARDirect(), TorusShape.parse("4x4x2"), 64, seed=1
        )
        run.result.extras["custom"] = {
            "n": np.int32(7),
            "vals": (np.float64(1.0), 2.0),
        }
        back = decode_run(json.loads(json.dumps(encode_run(run))))
        assert back.result.extras["custom"] == {"n": 7, "vals": [1.0, 2.0]}


class TestResolveJobs:
    def test_default_is_sequential(self):
        assert resolve_jobs(None) == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(2) == 2  # explicit argument wins

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.raises(ValueError):
            resolve_jobs(None)
