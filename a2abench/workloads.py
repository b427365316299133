"""Workloads of the repo benchmark and the passes that measure them.

Two kinds of workload:

* A *points* workload simulates a fixed list of (strategy, shape,
  message size) points in-process with the cache bypassed.  Per point a
  cold pass calls ``point_key``, ``simulate_alltoall``, ``encode_run``
  and ``decode_run`` -- the runner's sequential uncached path -- and the
  decoded run must reproduce the fresh one.
* A *tables* workload runs paper experiments through ``run_experiment``
  against a fresh throwaway cache, the path a user of the CLI takes.

After the cold work both run *warm* passes: every point again through
the runner with the cache holding every result, so nothing simulates.

Every check that fails is counted in a :class:`Tally`; the benchmark's
``failed`` count and ``failed_frac`` come from it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Union

import numpy as np

from repro import api
from repro.check.config import CheckConfig
from repro.experiments import registry
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net.trace import SimulationResult
from repro.obs.config import ObsConfig
from repro.runner import SimPoint, cache, codec, point_label, pool
from repro.strategies import ARDirect, DRDirect, TwoPhaseSchedule, VirtualMesh2D

import tracing

STRATEGIES = {
    "AR": ARDirect,
    "DR": DRDirect,
    "TPS": TwoPhaseSchedule,
    "VMesh": VirtualMesh2D,
}

#: Experiments with a per-experiment cold time metric, in run order.
TABLE_EXPERIMENTS = (
    "tab1_symmetric",
    "tab2_asymmetric",
    "tab3_tps",
    "tab4_latency",
    "resilience_sweep",
)

#: (simulated column, paper column) pairs behind ``paper_gap_pp``.
PAPER_COLUMNS = (("AR % of peak", "paper %"), ("TPS % of peak", "paper TPS %"))

PointSpec = tuple[str, str, int]


@dataclass(frozen=True)
class PointsWorkload:
    name: str
    points: tuple[PointSpec, ...]
    #: Points run plain, observed and checked for the overhead metrics.
    overhead_points: tuple[PointSpec, ...]
    #: Warm passes after each cold pass of an untraced run.
    warm_passes: int = 100


@dataclass(frozen=True)
class TablesWorkload:
    name: str
    experiments: tuple[str, ...]
    overhead_points: tuple[PointSpec, ...]
    scale: str = "tiny"
    jobs: int = 2
    warm_passes: int = 100


Workload = Union[PointsWorkload, TablesWorkload]

WORKLOADS: dict[str, Workload] = {
    "short_msg": PointsWorkload(
        "short_msg",
        tuple((s, "8x4x4", m) for s in STRATEGIES for m in (8, 64)),
        (("AR", "8x4x4", 64), ("TPS", "8x4x4", 64)),
        warm_passes=150,
    ),
    "long_msg": PointsWorkload(
        "long_msg",
        tuple((s, "4x4x4", 1024) for s in STRATEGIES)
        + (("AR", "8x4x4", 512), ("TPS", "8x4x4", 512)),
        (("AR", "4x4x4", 1024), ("TPS", "4x4x4", 1024)),
        warm_passes=150,
    ),
    "tables_sweep": TablesWorkload(
        "tables_sweep",
        TABLE_EXPERIMENTS,
        (("AR", "4x4x4", 464), ("TPS", "4x4x4", 464)),
        warm_passes=100,
    ),
}

#: Units of every metric the benchmark reports.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "strategies.build_s": "s",
    "strategies.self_s": "s",
    "net.init_s": "s",
    "net.run_s": "s",
    **{f"net.run_s.{s}": "s" for s in STRATEGIES},
    "net.self_s": "s",
    "net.events": "count",
    "net.events_per_hop": "events/hop",
    "net.delivered_packets": "count",
    "net.forwarded_packets": "count",
    "net.sim_cycles": "cycles",
    "net.link_util_mean": "ratio",
    "net.link_util_max": "ratio",
    "api.self_s": "s",
    "runner.key_s": "s",
    "runner.encode_s": "s",
    "runner.decode_s": "s",
    "runner.payload_bytes": "bytes",
    "runner.cache_put_s": "s",
    "runner.cache_get_s": "s",
    "runner.self_s": "s",
    "runner.warm_s_mean": "s",
    "runner.pool_efficiency": "ratio",
    "runner.simulated": "count",
    "runner.cache_hits": "count",
    "runner.cache_misses": "count",
    "runner.cache_stores": "count",
    "runner.retries": "count",
    "runner.timeouts": "count",
    **{f"experiments.cold_s.{e}": "s" for e in TABLE_EXPERIMENTS},
    "experiments.warm_s_p90": "s",
    "experiments.render_s": "s",
    "experiments.self_s": "s",
    "experiments.paper_gap_pp": "pp",
    "obs.overhead_frac": "ratio",
    "check.overhead_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_s": "s",
    "trace.spans": "count",
    "trace.span_cost_s": "s",
    "failed_frac": "ratio",
}

#: Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "strategies.build_program": "strategies.build_s",
    "net.build_network": "net.init_s",
    "net.set_fifo_groups": "net.init_s",
    "net.run": "net.run_s",
    "runner.point_key": "runner.key_s",
    "runner.encode_run": "runner.encode_s",
    "runner.decode_run": "runner.decode_s",
    "runner.cache_put": "runner.cache_put_s",
    "runner.cache_get": "runner.cache_get_s",
    "experiments.render": "experiments.render_s",
}


@dataclass
class Tally:
    """Checks made and failed; each failure keeps a one-line reason."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def check(self, ok: bool, reason: str, n: int = 1) -> bool:
        self.attempted += n
        if not ok:
            self.failed += n
            self.reasons.append(reason)
        return ok


@dataclass
class Cold:
    """One cold pass: what it cost and what it produced."""

    wall: float
    #: Simulated events (provenance ``simulated_events`` for tables).
    events: int
    #: ``label=digest`` per point, in execution order.
    digests: list
    #: (cache key, encoded payload) of the distinct points.
    payloads: list = field(default_factory=list)
    #: Tables: wall, result and canonical rows per experiment.
    exp_walls: dict = field(default_factory=dict)
    exp_results: list = field(default_factory=list)
    rows: dict = field(default_factory=dict)


# --------------------------------------------------------------------- #
# checks
# --------------------------------------------------------------------- #


def result_digest(res) -> str:
    """SHA-256 over (time_cycles, events_processed, final_deliveries,
    link_packets) of a :class:`SimulationResult` or its payload dict."""
    if isinstance(res, dict):
        lp = res.get("link_packets")
        vals = [res["time_cycles"], res["events_processed"],
                res["final_deliveries"], lp]
    else:
        lp = res.link_packets
        vals = [res.time_cycles, res.events_processed, res.final_deliveries,
                None if lp is None else lp.tolist()]
    vals = [float(vals[0]), int(vals[1]), int(vals[2]), vals[3]]
    return hashlib.sha256(json.dumps(vals).encode()).hexdigest()


def combined_digest(digests: list) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def same_run(fresh: api.AllToAllRun, back: api.AllToAllRun) -> bool:
    """Whether a decoded run reproduces the fresh one field for field."""
    head = ("strategy", "shape", "msg_bytes", "params", "predicted_cycles")
    if any(getattr(fresh, a) != getattr(back, a) for a in head):
        return False
    for f in fields(SimulationResult):
        x = getattr(fresh.result, f.name)
        y = getattr(back.result, f.name)
        if f.name == "extras":
            x = codec.canonical_extras(x)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (
                isinstance(x, np.ndarray)
                and isinstance(y, np.ndarray)
                and x.dtype == y.dtype
                and np.array_equal(x, y)
            ):
                return False
        elif x != y:
            return False
    return True


def compare_digests(tally: Tally, what: str, ref: list, got: list) -> None:
    """One check per point: *got* must match the reference pass."""
    if len(ref) != len(got):
        tally.check(False, f"{what}: {len(got)} points vs {len(ref)}", len(ref))
        return
    for a, b in zip(ref, got):
        tally.check(a == b, f"{what}: digest mismatch {b} vs {a}")


def sim_counts(payloads: list) -> dict:
    """Exact simulated counts over (key, encoded run payload) pairs."""
    results = [p["result"] for _, p in payloads]
    events = sum(r["events_processed"] for r in results)
    hops = sum(r["total_hops"] for r in results)
    util_mean, util_max = [], []
    for r in results:
        busy = np.asarray(r["link_busy_cycles"], dtype=np.float64)
        t = r["time_cycles"]
        util_mean.append(float(busy.sum()) / (t * r["num_links"]))
        util_max.append(float(busy.max()) / t)
    return {
        "net.events": events,
        "net.events_per_hop": events / hops if hops else 0.0,
        "net.delivered_packets": sum(r["delivered_packets"] for r in results),
        "net.forwarded_packets": sum(r["forwarded_packets"] for r in results),
        "net.sim_cycles": sum(r["time_cycles"] for r in results),
        "net.link_util_mean": statistics.fmean(util_mean) if util_mean else 0.0,
        "net.link_util_max": max(util_max, default=0.0),
    }


def paper_gap_pp(exp_results: list) -> float:
    """Mean |simulated % of peak - paper %| over the tables' rows."""
    gaps = [
        abs(row[sim] - row[paper])
        for r in exp_results
        for row in r.rows
        for sim, paper in PAPER_COLUMNS
        if row.get(sim) is not None and row.get(paper) is not None
    ]
    return statistics.fmean(gaps) if gaps else 0.0


# --------------------------------------------------------------------- #
# passes
# --------------------------------------------------------------------- #


_PARAMS = MachineParams.bluegene_l()

#: Warm passes after each cold pass of a traced run.
TRACED_WARM = 100


def make_point(spec: PointSpec, seed: int) -> SimPoint:
    strategy, shape, msg = spec
    return SimPoint(
        STRATEGIES[strategy](), TorusShape.parse(shape), msg, _PARAMS, seed=seed
    )


class CacheDirs:
    """Fresh throwaway cache directories under one root."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.n = 0

    def fresh(self) -> Path:
        self.n += 1
        path = self.root / f"c{self.n}"
        shutil.rmtree(path, ignore_errors=True)
        os.environ["REPRO_CACHE_DIR"] = str(path)
        return path


def points_cold(points: list, tally: Tally) -> Cold:
    """Simulate every point in-process: key, run, encode, decode."""
    done = []
    t0 = time.perf_counter()
    for p in points:
        key = codec.point_key(p)
        try:
            run = api.simulate_alltoall(
                p.strategy, p.shape, p.msg_bytes, params=p.params, seed=p.seed
            )
        except Exception as exc:  # any error fails the point
            done.append((p, key, exc, None, None))
            continue
        payload = codec.encode_run(run)
        done.append((p, key, run, payload, codec.decode_run(payload)))
    wall = time.perf_counter() - t0
    with tracing.section("bench.check"):
        return _check_points_cold(wall, done, tally)


def _check_points_cold(wall: float, done: list, tally: Tally) -> Cold:
    cold = Cold(wall, 0, [])
    for p, key, run, payload, back in done:
        label = point_label(p)
        if payload is None:
            tally.check(False, f"{label}: {type(run).__name__}: {run}")
            cold.digests.append(f"{label}=error")
            continue
        tally.check(
            same_run(run, back),
            f"{label}: decode_run(encode_run(run)) differs from the fresh run",
        )
        cold.events += run.result.events_processed
        cold.digests.append(f"{label}={result_digest(payload['result'])}")
        cold.payloads.append((key, payload))
    return cold


def points_fill(cold: Cold, tally: Tally) -> None:
    """Store every cold result the way the runner does after a miss."""
    for key, payload in cold.payloads:
        tally.check(cache.cache_put(key, payload), f"cache_put {key} failed")


def points_warm(points: list, cold: Cold, tally: Tally) -> float:
    """One all-cached pass through ``run_points``; returns its wall."""
    sims = pool.counters.simulated
    t0 = time.perf_counter()
    try:
        runs = pool.run_points(points, jobs=1)
    except Exception as exc:
        tally.check(False, f"warm pass raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0
    wall = time.perf_counter() - t0
    with tracing.section("bench.check"):
        got = [
            f"{point_label(p)}={result_digest(r.result)}"
            for p, r in zip(points, runs)
        ]
        tally.check(
            pool.counters.simulated == sims and got == cold.digests,
            "warm pass simulated points or returned results differing from cold",
        )
    return wall


def points_pooled(points: list, jobs: int,
                  tally: Tally) -> tuple[float, int, list]:
    """The cold work through ``run_points(jobs=...)`` with the cache off;
    returns (wall, simulated events, digests)."""
    os.environ["REPRO_CACHE"] = "0"
    t0 = time.perf_counter()
    try:
        runs = pool.run_points(points, jobs=jobs)
    except Exception as exc:
        tally.check(False, f"pooled pass raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0, 0, []
    finally:
        del os.environ["REPRO_CACHE"]
    wall = time.perf_counter() - t0
    return wall, sum(r.result.events_processed for r in runs), [
        f"{point_label(p)}={result_digest(r.result)}" for p, r in zip(points, runs)
    ]


def _rows(result) -> str:
    return json.dumps(result.rows, sort_keys=True, default=repr)


def tables_cold(
    wl: TablesWorkload, seed: int, jobs: int, tally: Tally, render: bool = False
) -> Cold:
    """Every experiment once through ``run_experiment`` on a fresh cache
    (the caller points ``REPRO_CACHE_DIR`` at an empty directory)."""
    cold = Cold(0.0, 0, [])
    t0 = time.perf_counter()
    keys = []
    for exp in wl.experiments:
        s = time.perf_counter()
        n = len(pool.counters.point_keys)
        try:
            result = registry.run_experiment(
                exp, scale=wl.scale, seed=seed, jobs=jobs
            )
        except Exception as exc:
            tally.check(False, f"{exp}: {type(exc).__name__}: {exc}")
            continue
        if render:
            result.render()
        cold.exp_walls[exp] = time.perf_counter() - s
        cold.exp_results.append(result)
        keys.append(pool.counters.point_keys[n:])
    cold.wall = time.perf_counter() - t0
    with tracing.section("bench.check"):
        _check_tables_cold(cold, keys, tally)
    return cold


def _check_tables_cold(cold: Cold, exp_keys: list, tally: Tally) -> None:
    seen = set()
    for result, keys in zip(cold.exp_results, exp_keys):
        prov = result.provenance
        tally.check(
            not result.failures,
            f"{result.exp_id}: {len(result.failures)} point(s) failed",
            len(keys),
        )
        cold.events += prov["simulated_events"]
        cold.rows[result.exp_id] = _rows(result)
        for key in keys:
            payload = cache.cache_get(key)
            if payload is None:
                cold.digests.append(f"{result.exp_id}:{key[:12]}=missing")
                continue
            cold.digests.append(
                f"{result.exp_id}:{key[:12]}={result_digest(payload['result'])}"
            )
            if key not in seen:
                seen.add(key)
                cold.payloads.append((key, payload))


def tables_warm(wl: TablesWorkload, seed: int, cold: Cold, tally: Tally) -> float:
    """One all-cached pass over every experiment; returns its wall."""
    sims = pool.counters.simulated
    results = {}
    t0 = time.perf_counter()
    try:
        for exp in wl.experiments:
            results[exp] = registry.run_experiment(
                exp, scale=wl.scale, seed=seed, jobs=wl.jobs
            )
    except Exception as exc:
        tally.check(False, f"warm pass raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0
    wall = time.perf_counter() - t0
    with tracing.section("bench.check"):
        tally.check(
            pool.counters.simulated == sims
            and {e: _rows(r) for e, r in results.items()} == cold.rows,
            "warm pass simulated points or yielded rows differing from cold",
        )
    return wall


def overhead_fracs(wl: Workload, seed: int, tally: Tally) -> tuple[float, float]:
    """``simulate_alltoall`` cost with observability and with checking
    on, each relative to the plain network, summed over the overhead
    points.  Both opt-in layers must replay the plain event stream
    exactly."""
    configs = {
        "plain": {},
        "obs": {"obs": ObsConfig(link_stats=True, profile=True)},
        "check": {"check": CheckConfig()},
    }
    spent = dict.fromkeys(configs, 0.0)
    for spec in wl.overhead_points:
        p = make_point(spec, seed)
        ref = None
        for kind, extra in configs.items():
            t0 = time.perf_counter()
            try:
                run = api.simulate_alltoall(
                    p.strategy, p.shape, p.msg_bytes, params=p.params,
                    seed=p.seed, **extra,
                )
            except Exception as exc:
                tally.check(False, f"{kind} {point_label(p)}: {exc!r}")
                continue
            spent[kind] += time.perf_counter() - t0
            digest = result_digest(run.result)
            ref = ref or digest
            tally.check(
                digest == ref, f"{kind} {point_label(p)} changed the event stream"
            )
    base = spent["plain"]
    if base <= 0.0:
        return 0.0, 0.0
    return spent["obs"] / base - 1.0, spent["check"] / base - 1.0


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# --------------------------------------------------------------------- #
# measurements
# --------------------------------------------------------------------- #


def _cold(wl: Workload, seed: int, jobs: int, tally: Tally, dirs: CacheDirs,
          render: bool = False) -> Cold:
    if isinstance(wl, TablesWorkload):
        dirs.fresh()
        return tables_cold(wl, seed, jobs, tally, render)
    return points_cold([make_point(s, seed) for s in wl.points], tally)


class WarmPasses:
    """All-cached passes over the results of one cold pass.

    A tables workload's cold pass already stored its results in the
    current cache; a points workload's results are stored here, into a
    fresh cache, the way the runner stores them after a miss."""

    def __init__(self, wl: Workload, seed: int, cold: Cold, tally: Tally,
                 dirs: CacheDirs) -> None:
        if isinstance(wl, TablesWorkload):
            self._one = lambda: tables_warm(wl, seed, cold, tally)
        else:
            dirs.fresh()
            points_fill(cold, tally)
            points = [make_point(s, seed) for s in wl.points]
            self._one = lambda: points_warm(points, cold, tally)
        self.walls: list = []

    def run(self, passes: int) -> "WarmPasses":
        self.walls.extend(self._one() for _ in range(passes))
        return self


def measure(wl: Workload, seed: int, seconds: float, tally: Tally,
            dirs: CacheDirs) -> tuple[dict, list]:
    """The untraced run: end-to-end metrics plus the digest lines.

    Each cycle is a cold pass followed by ``warm_passes`` all-cached
    passes, which check the cached path and print its timing.  A points
    workload repeats the cycle while another one fits in *seconds*; a
    tables workload makes one cycle (its cold pass is the sweep, the
    cache writes and the pool start).  The warm count is fixed because
    the runner's process-wide counters grow with every pass and every
    ``run_experiment`` copies them, so a warm pass gets slower the more
    passes its process has made."""
    start = time.perf_counter()
    jobs = wl.jobs if isinstance(wl, TablesWorkload) else 1
    colds, cycles, warm = [], [], None
    while True:
        t0 = time.perf_counter()
        colds.append(_cold(wl, seed, jobs, tally, dirs))
        warm = warm or WarmPasses(wl, seed, colds[0], tally, dirs)
        warm.run(wl.warm_passes)
        cycles.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (isinstance(wl, TablesWorkload)
                or elapsed + statistics.median(cycles) > seconds):
            break
    for i, c in enumerate(colds[1:], 2):
        compare_digests(tally, f"cold pass {i}", colds[0].digests, c.digests)
    metrics = {
        "wall_s": statistics.median(c.wall for c in colds),
        "events_per_s": sum(c.events for c in colds) / sum(c.wall for c in colds),
        "peak_rss_mb": peak_rss_mb(),
    }
    q = statistics.quantiles(warm.walls, n=10)
    lines = [
        f"cold passes: {len(colds)}; warm passes: {len(warm.walls)}, "
        f"mean {statistics.fmean(warm.walls)!r} s, p10 {q[0]!r} s, "
        f"median {statistics.median(warm.walls)!r} s, p90 {q[-1]!r} s",
    ]
    if colds[0].exp_results:
        lines.append(f"paper_gap_pp {paper_gap_pp(colds[0].exp_results)!r}")
    return metrics, lines + digest_lines(wl, colds[0])


def digest_lines(wl: Workload, cold: Cold) -> list:
    return [f"digest {wl.name} {combined_digest(cold.digests)}"] + [
        f"  point {d}" for d in cold.digests
    ]


def measure_traced(wl: Workload, seed: int, tally: Tally, dirs: CacheDirs,
                   spans_path: Path) -> tuple[dict, list]:
    """The traced run: per-layer metrics.

    The cold pass runs in-process (``jobs=1``) twice, untraced and then
    traced, each followed by its warm passes; the difference is the
    tracing overhead.  A ``jobs=2`` cold pass then gives the pool
    efficiency, and the overhead points give the opt-in layers' cost."""
    tables = isinstance(wl, TablesWorkload)
    before = pool.counters.snapshot()

    ref = _cold(wl, seed, 1, tally, dirs, render=True)
    ref_warm = WarmPasses(wl, seed, ref, tally, dirs).run(TRACED_WARM).walls

    rec = tracing.Recorder()
    tracing.install_layers(rec)
    try:
        with rec.span("bench.cold"):
            traced = _cold(wl, seed, 1, tally, dirs, render=True)
        with rec.span("bench.warm"):
            traced_warm = WarmPasses(wl, seed, traced, tally, dirs).run(
                TRACED_WARM
            ).walls
    finally:
        rec.uninstall()
    rec.dump(spans_path)

    if tables:
        pooled = _cold(wl, seed, wl.jobs, tally, dirs)
    else:
        points = [make_point(s, seed) for s in wl.points]
        pooled = Cold(*points_pooled(points, 2, tally))
    compare_digests(tally, "traced cold pass", ref.digests, traced.digests)
    compare_digests(tally, "jobs=2 cold pass", ref.digests, pooled.digests)
    obs_frac, check_frac = overhead_fracs(wl, seed, tally)

    after = pool.counters.snapshot()
    m = dict.fromkeys(PER_LAYER, 0.0)
    for name, t in rec.totals(lambda s: SPAN_METRICS.get(s.name)).items():
        m[name] = t
    for name, t in rec.totals(
        lambda s: f"net.run_s.{s.point.split('@')[0]}"
        if s.name == "net.run" and s.point else None
    ).items():
        if name in m:
            m[name] = t
    layers = rec.totals(lambda s: s.layer)
    for layer in ("strategies", "net", "api", "runner", "experiments"):
        m[f"{layer}.self_s"] = layers.get(layer, 0.0)
    m.update(sim_counts(traced.payloads))
    m["runner.payload_bytes"] = sum(
        len(json.dumps(p, separators=(",", ":"))) for _, p in traced.payloads
    )
    m["runner.pool_efficiency"] = ref.wall / (2.0 * pooled.wall)
    m["runner.warm_s_mean"] = statistics.fmean(ref_warm)
    for k in ("simulated", "cache_hits", "cache_misses", "cache_stores",
              "retries", "timeouts"):
        m[f"runner.{k}"] = after[k] - before[k]
    for exp, t in pooled.exp_walls.items():
        m[f"experiments.cold_s.{exp}"] = t
    if tables:
        m["experiments.warm_s_p90"] = statistics.quantiles(ref_warm, n=10)[-1]
        m["experiments.paper_gap_pp"] = paper_gap_pp(ref.exp_results)
    m["obs.overhead_frac"] = obs_frac
    m["check.overhead_frac"] = check_frac
    untraced_s = ref.wall + sum(ref_warm)
    traced_s = traced.wall + sum(traced_warm)
    m["trace.overhead_s"] = traced_s - untraced_s
    m["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    roots = rec.totals(lambda s: s.name if s.parent < 0 else None)
    m["trace.uncovered_s"] = sum(roots.values())
    m["trace.spans"] = len(rec.spans)
    m["trace.span_cost_s"] = len(rec.spans) * tracing.span_cost()
    lines = [
        f"untraced cold {ref.wall!r} s + warm {sum(ref_warm)!r} s; "
        f"traced cold {traced.wall!r} s + warm {sum(traced_warm)!r} s; "
        f"jobs=2 cold {pooled.wall!r} s",
    ]
    return m, lines + digest_lines(wl, ref)
