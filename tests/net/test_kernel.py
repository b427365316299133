"""The compiled event loop (:mod:`repro.net.kernel`) against the Python
reference loop.

* bit identity: every strategy, the golden 4x4x2 trace's deliveries and
  the golden per-link packet snapshot, reproduced by the kernel;
* run-time contracts: heartbeats, the SIGALRM watchdog, Ctrl-C, limit
  errors, deadlock diagnostics and program exceptions behave exactly as
  on the Python loop;
* fallback: a failed build, a missing compiler, an overridden handler
  or a port layout wider than the kernel's mask all run the Python loop.
"""

from __future__ import annotations

import _thread
import importlib.util
import json
import logging
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import simulate_alltoall
from repro.check.differential import kernel_leg, result_mismatches
from repro.model.machine import MachineParams
from repro.model.torus import TorusShape
from repro.net import (
    DeadlockError,
    ListProgram,
    NetworkConfig,
    PacketSpec,
    RoutingMode,
    SimulationLimitError,
    TorusNetwork,
    kernel,
)
from repro.net.program import BaseProgram
from repro.net.simulator import live_progress
from repro.runner import SimPoint
from repro.runner.supervise import PointTimeoutError, _heartbeats, watchdog
from repro.strategies import (
    ARDirect,
    CreditedTPS,
    DRDirect,
    MPIDirect,
    ThrottledAR,
    TwoPhaseSchedule,
    VirtualMesh2D,
)
from repro.strategies.data import kind_of_tag

needs_kernel = pytest.mark.skipif(
    not kernel.available(), reason="no usable C compiler"
)

SHAPE = TorusShape.parse("4x4x2")
STRATEGIES = [
    ARDirect(),
    DRDirect(),
    ThrottledAR(),
    MPIDirect(),
    TwoPhaseSchedule(),
    TwoPhaseSchedule(linear_axis=2),
    CreditedTPS(),
    VirtualMesh2D(),
]
STRATEGY_IDS = [
    "AR", "DR", "AR-throttle", "MPI", "TPS", "TPS-axis2", "TPS-credit", "VMesh",
]
GOLDEN_TRACE = (
    Path(__file__).parent.parent / "obs" / "data" / "golden_trace_4x4x2.jsonl"
)


def _run(engine, strategy, shape, msg, seed=1, config=None):
    with kernel.use_engine(engine):
        return simulate_alltoall(
            strategy, shape, msg, seed=seed, config=config
        ).result


def _outcome(engine, fn):
    """Result of *fn* under *engine*, or the (type, message) it raised."""
    with kernel.use_engine(engine):
        try:
            return fn()
        except Exception as exc:  # compared across engines below
            return type(exc), str(exc)


# --------------------------------------------------------------------- #
# bit identity
# --------------------------------------------------------------------- #


@needs_kernel
class TestBitIdentity:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=STRATEGY_IDS)
    @pytest.mark.parametrize("shape,msg", [("4x4x2", 256), ("4x2x3", 64)])
    def test_strategy_results_identical(self, strategy, shape, msg):
        shp = TorusShape.parse(shape)
        ours = _run("kernel", strategy, shp, msg)
        ref = _run("python", strategy, shp, msg)
        assert ours.final_deliveries > 0
        assert result_mismatches(ours, ref) == []

    @pytest.mark.parametrize("sizing", [
        dict(num_dynamic_vcs=1, vc_depth=2, num_injection_fifos=2,
             reception_fifo_depth=2),
        dict(num_dynamic_vcs=3, vc_depth=1, bubble_entry_tokens=3,
             num_injection_fifos=6, injection_fifo_depth=1),
        dict(vc_depth=16, injection_fifo_depth=2, reception_fifo_depth=1),
    ], ids=["narrow", "wide-shallow", "deep-vc"])
    @pytest.mark.parametrize("strategy", [ARDirect(), TwoPhaseSchedule()],
                             ids=lambda s: s.name)
    def test_router_sizing_identical(self, sizing, strategy):
        cfg = NetworkConfig.from_machine(MachineParams.bluegene_l(), **sizing)
        ours = _run("kernel", strategy, SHAPE, 2000, seed=3, config=cfg)
        ref = _run("python", strategy, SHAPE, 2000, seed=3, config=cfg)
        assert result_mismatches(ours, ref) == []

    def test_mesh_and_extent_one_axes(self):
        shp = TorusShape.parse("3Mx1x4")
        for strategy in (ARDirect(), DRDirect(), VirtualMesh2D()):
            ours = _run("kernel", strategy, shp, 100)
            ref = _run("python", strategy, shp, 100)
            assert result_mismatches(ours, ref) == []

    def test_golden_trace_deliveries_under_kernel(self):
        # The golden trace comes from the instrumented (Python) network.
        # Record the sampled packets' delivery hooks on the kernel and
        # check every golden inject/deliver record is reproduced exactly.
        golden = [json.loads(x) for x in GOLDEN_TRACE.read_text().splitlines()]
        sample = 8  # the golden ObsConfig's trace_sample
        seen: list = []

        class Recording(BaseProgram):
            def __init__(self, inner):
                self.inner = inner

            def injection_plan(self, node):
                return self.inner.injection_plan(node)

            def on_delivery(self, node, packet, now):
                if packet.pid % sample == 0:
                    seen.append((node, packet, now))
                return self.inner.on_delivery(node, packet, now)

            def expected_final_deliveries(self):
                return self.inner.expected_final_deliveries()

        program = Recording(ARDirect().build_program(
            SHAPE, 64, MachineParams.bluegene_l(), 1
        ))
        with kernel.use_engine("kernel"):
            result = TorusNetwork(SHAPE).run(program)
        delivers = {
            r["pid"]: r for r in golden if r["kind"] == "deliver"
        }
        injects = {r["pid"]: r for r in golden if r["kind"] == "inject"}
        assert delivers and len(seen) >= len(delivers)
        got = {}
        for node, pkt, now in seen:
            got[pkt.pid] = {
                "final": pkt.final_dst == node, "kind": "deliver",
                "node": node, "phase": kind_of_tag(pkt.tag), "pid": pkt.pid,
                "src": pkt.src, "t": now, "t0": pkt.inject_time,
            }
        for pid, rec in delivers.items():
            assert got[pid] == rec
            assert injects[pid]["t"] == rec["t0"]
            assert injects[pid]["node"] == rec["src"]
        assert result.time_cycles >= max(r["t"] for r in delivers.values())

    def test_golden_per_link_packet_snapshot_under_kernel(self):
        spec = importlib.util.spec_from_file_location(
            "golden_linkstats", GOLDEN_TRACE.parent.parent / "test_linkstats.py"
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        ours = _run("kernel", ARDirect(), SHAPE, 256)
        assert ours.link_packets.reshape(-1).tolist() == mod.GOLDEN_PACKETS

    def test_kernel_leg_is_clean_and_skips_faulty_points(self):
        from repro.net.faults import FaultPlan

        assert kernel_leg(SimPoint(TwoPhaseSchedule(), SHAPE, 100, seed=2)) == []
        faulty = SimPoint(
            ARDirect(), SHAPE, 64, faults=FaultPlan(loss_prob=0.01)
        )
        assert kernel_leg(faulty) == []


# --------------------------------------------------------------------- #
# run-time contracts
# --------------------------------------------------------------------- #

#: A run long enough (many kernel chunks) to be interrupted mid-flight.
BIG = TorusShape.parse("8x8x8")


@needs_kernel
class TestRunContracts:
    def test_heartbeat_sees_sim_cycles_during_kernel_run(self):
        records: list = []
        with kernel.use_engine("kernel"):
            with _heartbeats("key", "AR@8x4x4", 0, records.append, 0.002):
                res = simulate_alltoall(
                    ARDirect(), TorusShape.parse("8x4x4"), 256, seed=0
                ).result
        assert res.events_processed > 4 * kernel.CHUNK_EVENTS
        moving = [
            r for r in records
            if r["sim_cycles"] and 0 < r["sim_cycles"] < res.time_cycles
        ]
        assert moving, f"no in-flight sim_cycles in {len(records)} heartbeats"
        assert live_progress() is None

    def test_watchdog_interrupts_kernel(self):
        hook = sys.unraisablehook
        t0 = time.monotonic()
        with pytest.raises(PointTimeoutError):
            with watchdog(0.2, "point"):
                with kernel.use_engine("kernel"):
                    simulate_alltoall(ARDirect(), BIG, 4096, seed=0)
        assert time.monotonic() - t0 < 10
        assert sys.unraisablehook is hook
        assert live_progress() is None

    def test_ctrl_c_interrupts_kernel(self):
        timer = threading.Timer(0.2, _thread.interrupt_main)
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                with kernel.use_engine("kernel"):
                    simulate_alltoall(ARDirect(), BIG, 4096, seed=0)
        finally:
            timer.cancel()

    @pytest.mark.parametrize(
        "limits", [{"max_events": 5000}, {"max_cycles": 3000.0}],
        ids=["events", "cycles"],
    )
    def test_limit_errors_identical(self, limits):
        cfg = NetworkConfig.from_machine(MachineParams.bluegene_l(), **limits)
        errs = {}
        for engine in ("kernel", "python"):
            with kernel.use_engine(engine):
                with pytest.raises(SimulationLimitError) as info:
                    simulate_alltoall(
                        TwoPhaseSchedule(), SHAPE, 256, seed=1, config=cfg
                    )
            e = info.value
            errs[engine] = (
                str(e), e.events_processed, e.packets_in_flight,
                e.recv_pending, e.fwd_pending, e.pending_by_node,
            )
        assert errs["kernel"] == errs["python"]
        assert errs["kernel"][2] > 0

    def test_deadlock_diagnostics_identical(self):
        # One VC slot can never satisfy the two-slot bubble entry rule:
        # deterministic packets strand in their injection FIFOs.
        cfg = NetworkConfig.from_machine(
            MachineParams.bluegene_l(), vc_depth=1
        )

        def run():
            plans = [
                [PacketSpec(dst=(u + 5) % 16, wire_bytes=64,
                            mode=RoutingMode.DETERMINISTIC)] * 12
                for u in range(16)
            ]
            return TorusNetwork(TorusShape.parse("4x4"), config=cfg).run(
                ListProgram(plans)
            )

        ours, ref = _outcome("kernel", run), _outcome("python", run)
        assert ours[0] is DeadlockError
        assert "not quiescent" in ours[1]
        assert ours == ref

    def test_wrong_expectation_identical(self):
        class Short(ListProgram):
            def expected_final_deliveries(self):
                return super().expected_final_deliveries() + 1

        def run():
            return TorusNetwork(SHAPE).run(
                Short([[PacketSpec(dst=(u + 1) % 32, wire_bytes=64)]
                       for u in range(32)])
            )

        ours = _outcome("kernel", run)
        assert ours[0] is DeadlockError
        assert ours == _outcome("python", run)

    def test_plan_exception_propagates_unchanged(self):
        boom = ValueError("plan broke")

        class Broken(ListProgram):
            def injection_plan(self, node):
                yield from super().injection_plan(node)
                if node == 3:
                    raise boom

        hook = sys.unraisablehook
        with kernel.use_engine("kernel"):
            with pytest.raises(ValueError) as info:
                TorusNetwork(SHAPE).run(
                    Broken([[PacketSpec(dst=(u + 7) % 32, wire_bytes=96)] * 3
                            for u in range(32)])
                )
        assert info.value is boom
        assert sys.unraisablehook is hook

    def test_delivery_exception_propagates_unchanged(self):
        boom = KeyError("delivery broke")

        class Broken(ListProgram):
            def on_delivery(self, node, packet, now):
                if packet.pid == 40:
                    raise boom
                return ()

        def run():
            return TorusNetwork(SHAPE).run(
                Broken([[PacketSpec(dst=(u + 9) % 32, wire_bytes=64)] * 4
                        for u in range(32)])
            )

        with kernel.use_engine("kernel"):
            with pytest.raises(KeyError) as info:
                run()
        assert info.value is boom

    def test_non_final_delivery_raises_same_error(self):
        # BaseProgram programs skip the delivery callback for final
        # packets; a non-final one still reaches BaseProgram.on_delivery.
        def run():
            plans = [[] for _ in range(32)]
            plans[0] = [PacketSpec(dst=5, wire_bytes=64, final_dst=6)]
            return TorusNetwork(SHAPE).run(ListProgram(plans))

        ours = _outcome("kernel", run)
        assert ours[0] is RuntimeError and "non-final" in ours[1]
        assert ours == _outcome("python", run)

    def test_out_of_range_spec_raises(self):
        plans = [[] for _ in range(32)]
        plans[2] = [PacketSpec(dst=99, wire_bytes=64)]
        with kernel.use_engine("kernel"):
            with pytest.raises(ValueError, match="outside the network"):
                TorusNetwork(SHAPE).run(ListProgram(plans))


# --------------------------------------------------------------------- #
# fallback
# --------------------------------------------------------------------- #


@pytest.fixture
def fresh_kernel():
    """Forget the loaded library before and after the test."""
    kernel.reset()
    yield
    kernel.reset()


@pytest.fixture
def fallback_log():
    """Fallback warnings of the kernel logger (captured directly: other
    tests may stop ``repro`` records from propagating to the root)."""
    records: list = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("repro.net.kernel")
    logger.addHandler(handler)
    yield lambda: [
        r.getMessage() for r in records
        if "compiled kernel not used" in r.getMessage()
    ]
    logger.removeHandler(handler)


class TestFallback:
    def test_failed_build_falls_back_and_logs_once(
        self, fresh_kernel, monkeypatch, tmp_path, fallback_log
    ):
        def broken(cmd, target):
            raise kernel.KernelUnavailable("compiler crashed")

        monkeypatch.setattr(kernel, "_cache_dirs", lambda: [tmp_path])
        monkeypatch.setattr(kernel, "_build", broken)
        runs = [_run(None, ARDirect(), SHAPE, 64) for _ in range(2)]
        ref = _run("python", ARDirect(), SHAPE, 64)
        assert result_mismatches(runs[0], ref) == []
        assert result_mismatches(runs[1], ref) == []
        msgs = fallback_log()
        assert len(msgs) == 1 and "compiler crashed" in msgs[0]
        assert not kernel.available()

    def test_missing_compiler_falls_back(
        self, fresh_kernel, monkeypatch, fallback_log
    ):
        monkeypatch.setenv("CC", "no-such-cc-for-repro")
        res = _run(None, DRDirect(), SHAPE, 64)
        assert res.final_deliveries == 32 * 31
        assert len(fallback_log()) == 1
        with pytest.raises(kernel.KernelUnavailable):
            _run("kernel", DRDirect(), SHAPE, 64)

    def test_failing_compiler_falls_back(self, fresh_kernel, monkeypatch):
        monkeypatch.setenv("CC", "false")
        assert not kernel.available()

    @needs_kernel
    def test_unwritable_cache_dir_uses_next(
        self, fresh_kernel, monkeypatch, tmp_path
    ):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where a directory should be")
        second = tmp_path / "second"
        monkeypatch.setattr(
            kernel, "_cache_dirs", lambda: [blocked / "sub", second]
        )
        assert kernel.available()
        assert [p.suffix for p in second.iterdir()] == [".so"]

    def test_wide_port_layout_runs_python(self, fresh_kernel, fallback_log):
        cfg = NetworkConfig.from_machine(
            MachineParams.bluegene_l(), num_injection_fifos=60
        )
        res = _run(None, ARDirect(), SHAPE, 64, config=cfg)
        assert res.final_deliveries == 32 * 31
        with pytest.raises(kernel.KernelUnavailable, match="port mask"):
            _run("kernel", ARDirect(), SHAPE, 64, config=cfg)
        assert any("port mask" in m for m in fallback_log())

    def test_overridden_handler_runs_python(self):
        class Patched(TorusNetwork):
            __slots__ = ()

            def _launch(self, u, d, v, h, vc):
                super()._launch(u, d, v, h, vc)

        plans = [[PacketSpec(dst=(u + 3) % 32, wire_bytes=64)]
                 for u in range(32)]
        with kernel.use_engine("kernel"):
            with pytest.raises(kernel.KernelUnavailable, match="overrides"):
                Patched(SHAPE).run(ListProgram(plans))
        assert Patched(SHAPE).run(ListProgram(plans)).final_deliveries == 32

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            with kernel.use_engine("fortran"):
                pass
