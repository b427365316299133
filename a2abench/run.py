#!/usr/bin/env python3
"""The repo benchmark.

Usage, from the root of a checkout::

    python3 a2abench/run.py --workload short_msg --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and ``BENCHMARK.json``), checks
its outputs, and prints human-readable lines (checks, per-point digests,
metrics) followed, as the last line of standard output, by one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer metrics of a separate traced run.

The benchmark reads and writes only inside the checkout: its throwaway
result cache lives under ``.bench_out/`` and is removed at exit; a
traced run leaves its spans in ``.bench_out/spans-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
#: ``resilience_sweep`` writes its degradation curve here on every run;
#: the benchmark puts the directory back as it found it.
RESULTS = ROOT / "benchmarks" / "benchmark_results"

#: Child-process set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7


class PreconditionError(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def prepare_environment(work: Path) -> None:
    """Pin every ``REPRO_*`` knob: progress off, a throwaway cache."""
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    os.environ["REPRO_PROGRESS"] = "0"
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    # Provenance runs ``git describe``; keep git from looking above the
    # checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    sys.path.insert(0, str(ROOT / "src"))


def check_preconditions(work: Path) -> None:
    """What must hold before anything is timed."""
    from repro.model.torus import TorusShape
    from repro.net.faultsim import build_network
    from repro.net.simulator import TorusNetwork
    from repro.obs.progress import progress_wanted
    from repro.runner import cache

    net = build_network(TorusShape.parse("2x2x2"))
    if type(net) is not TorusNetwork:
        raise PreconditionError(
            f"build_network() returned {type(net).__name__}, "
            "expected a plain TorusNetwork"
        )
    for attr in ("tracer", "metrics"):
        if hasattr(net, attr):
            raise PreconditionError(f"the plain network has {attr!r}")
    root = cache.cache_root().resolve()
    home = (Path.home() / ".cache" / "repro").resolve()
    if root == home or home in root.parents or work.resolve() not in root.parents:
        raise PreconditionError(f"cache root {root} is not the throwaway dir")
    if not cache.cache_enabled():
        raise PreconditionError("the result cache is disabled")
    if progress_wanted():
        raise PreconditionError("progress rendering is on")


def snapshot(folder: Path) -> dict:
    if not folder.is_dir():
        return {}
    return {p: p.read_bytes() for p in folder.iterdir() if p.is_file()}


def restore(folder: Path, saved: dict) -> None:
    for path in snapshot(folder):
        if path not in saved:
            path.unlink()
    for path, data in saved.items():
        if not path.is_file() or path.read_bytes() != data:
            path.write_bytes(data)


def measure_setup() -> float:
    """Median wall of ``SETUP_SAMPLES`` child set-ups."""
    walls = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py")],
            check=True,
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def run(wl, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Measure workload *wl* and return the result object."""
    import workloads

    check_preconditions(work)
    import probe_setup

    probe_setup.setup()
    OUT.mkdir(parents=True, exist_ok=True)

    tally = workloads.Tally()
    dirs = workloads.CacheDirs(work / "cache")
    if trace:
        spans = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
        metrics, lines = workloads.measure_traced(wl, seed, tally, dirs, spans)
        units = workloads.PER_LAYER
        metrics["failed_frac"] = tally.failed / max(tally.attempted, 1)
    else:
        setup = measure_setup()
        metrics, lines = workloads.measure(wl, seed, seconds, tally, dirs)
        metrics["setup_s"] = setup
        units = workloads.END_TO_END
    for line in lines:
        print(line)
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    print(f"checks: {tally.attempted} attempted, {tally.failed} failed")
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metric set mismatch: {sorted(set(metrics) ^ set(units))}"
        )
    for name in units:
        print(f"  {name} = {metrics[name]!r} {units[name]}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"a2abench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = OUT / f"run-{os.getpid()}"
    prepare_environment(work)
    results = snapshot(RESULTS)
    try:
        import workloads

        wl = workloads.WORKLOADS.get(args.workload)
        if wl is None:
            raise PreconditionError(
                f"unknown workload {args.workload!r}; "
                f"known: {', '.join(workloads.WORKLOADS)}"
            )
        result = run(wl, args.seed, args.seconds, bool(args.trace), work)
    except PreconditionError as exc:
        print(f"a2abench: precondition failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        restore(RESULTS, results)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
