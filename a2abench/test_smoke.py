"""Smoke tests of the benchmark on 2x2x2 and 4x4x2 shapes.

Run from the root of the repo::

    python3 -m pytest a2abench/test_smoke.py -q

They check that every metric ``BENCHMARK.json`` names is emitted with
its unit, that clean inputs fail nothing, that a corrupted payload and a
digest mismatch are each counted as failures, and that the benchmark
refuses to run without the sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def bench_env(tmp_path):
    """The benchmark's pinned environment, restored afterwards."""
    saved = dict(os.environ)
    results = bench.snapshot(bench.RESULTS)
    work = bench.OUT / f"smoke-{os.getpid()}"
    bench.prepare_environment(work)
    yield work
    shutil.rmtree(work, ignore_errors=True)
    bench.restore(bench.RESULTS, results)
    os.environ.clear()
    os.environ.update(saved)


@pytest.fixture
def wl():
    import workloads

    return workloads


def small_points(wl):
    return wl.PointsWorkload(
        "smoke_points",
        (("AR", "2x2x2", 64), ("DR", "2x2x2", 8), ("TPS", "4x4x2", 64),
         ("VMesh", "4x4x2", 64)),
        (("AR", "2x2x2", 64), ("TPS", "4x4x2", 64)),
        warm_passes=3,
    )


def small_tables(wl):
    return wl.TablesWorkload(
        "smoke_tables",
        ("resilience_sweep",),
        (("AR", "2x2x2", 64),),
        warm_passes=3,
    )


def test_spec_matches_the_code(wl):
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == wl.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == wl.PER_LAYER
    assert SPEC["paths"] == [HERE.name]


@pytest.mark.parametrize("kind", ["points", "tables"])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_clean(wl, bench_env, kind, trace):
    workload = small_points(wl) if kind == "points" else small_tables(wl)
    result = bench.run(workload, 3, 0.5, trace, bench_env)
    names = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in names}
    for m in names:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0.0
        assert result["metrics"]["net.events"]["value"] > 0
        assert result["metrics"]["net.run_s"]["value"] > 0


def test_corrupted_payload_is_a_failure(wl, bench_env, monkeypatch):
    from repro.runner import codec

    encode = codec.encode_run

    def corrupting(run):
        payload = encode(run)
        payload["result"]["link_packets"][0][0] += 1
        return payload

    monkeypatch.setattr(codec, "encode_run", corrupting)
    result = bench.run(small_points(wl), 3, 0.5, False, bench_env)
    assert not result["correct"]
    assert result["failed"] >= len(small_points(wl).points)


def test_digest_mismatch_is_a_failure(wl, bench_env, monkeypatch):
    from repro import api

    simulate = api.simulate_alltoall
    calls = []

    def drifting(strategy, shape, msg_bytes, **kw):
        calls.append(1)
        if len(calls) > len(small_points(wl).points):
            kw["seed"] = kw.get("seed", 0) + 1  # later passes drift
        return simulate(strategy, shape, msg_bytes, **kw)

    monkeypatch.setattr(api, "simulate_alltoall", drifting)
    tally = wl.Tally()
    dirs = wl.CacheDirs(bench_env / "cache")
    wl.measure(small_points(wl), 3, 1.0, tally, dirs)
    assert tally.failed > 0
    assert any("digest mismatch" in r for r in tally.reasons)


def test_compare_digests_counts_each_point(wl):
    tally = wl.Tally()
    wl.compare_digests(tally, "pass", ["a", "b", "c"], ["a", "x", "c"])
    assert (tally.attempted, tally.failed) == (3, 1)


def test_self_time_subtracts_children():
    import tracing

    rec = tracing.Recorder()
    rec.spans = [
        tracing.Span("bench.cold", 0.0, 10.0, -1, None),
        tracing.Span("net.run", 1.0, 7.0, 0, "AR@2x2x2/8B/seed0"),
        tracing.Span("runner.decode_run", 7.0, 8.0, 0, None),
    ]
    assert rec.self_times() == [3.0, 6.0, 1.0]
    assert rec.totals(lambda s: s.layer) == {
        "bench": 3.0, "net": 6.0, "runner": 1.0,
    }


def test_uninstall_restores_every_layer_call(wl):
    import tracing
    from repro.net.simulator import TorusNetwork
    from repro.runner import pool

    before = (TorusNetwork.run, pool.point_key, pool.run_points)
    rec = tracing.Recorder()
    tracing.install_layers(rec)
    assert TorusNetwork.run is not before[0]
    assert pool.point_key is not before[1]
    rec.uninstall()
    assert (TorusNetwork.run, pool.point_key, pool.run_points) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "short_msg", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
