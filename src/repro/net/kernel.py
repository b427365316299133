"""Compiled event loop for the pristine network (``_kernel.c``).

:meth:`repro.net.simulator.TorusNetwork.run` hands its event loop to a
small C kernel whenever the network is a plain ``TorusNetwork`` whose
handler methods are all the base-class ones (no fault, observability or
checking layer, no monkeypatch).  The kernel is a line-by-line port of
those handlers over the same struct-of-arrays state and produces the same
event stream bit for bit; the Python handlers plus ``_run_dispatch`` stay
as the reference implementation and the fallback.

Build.  The C source is compiled on first use by the system C compiler
(``$CC``, default ``gcc``) with :data:`FLAGS` — ``-ffp-contract=off`` and
no ``-ffast-math``/``-march=native``, so the floating-point arithmetic is
exactly the Python arithmetic.  The shared object is cached in the
package's ``__pycache__/`` (or a per-user temp directory when the package
is read-only) under a name keyed by a hash of the source, the compiler
identity and the flags, and is written via a temp file plus
:func:`os.replace`, so concurrent pool workers can race safely.  When no
compiler works the failure is logged once per process and every run
takes the Python loop.

Boundary.  Python objects never enter C.  The kernel calls back into
Python at exactly the two points where the Python loop touches them:
pulling the next :class:`PacketSpec` of a node's injection plan (lazily,
as ``_plan_peek`` does) and running the program's delivery hook
(``_finish_delivery``).  A program that inherits
:meth:`BaseProgram.on_delivery` is not called back for final deliveries,
whose hook would return ``()``.  The kernel also returns to Python every
:data:`CHUNK_EVENTS` events, so signal handlers (the per-point SIGALRM
watchdog, Ctrl-C) and the heartbeat's :func:`live_progress` keep working.
An exception raised inside a callback — by the program or by a signal
handler — cannot cross the C frames; it is captured through
``sys.unraisablehook``, the kernel unwinds, and :func:`run` re-raises the
same exception object.  The hook is swapped for the duration of a run,
so, like :func:`~repro.net.simulator.live_progress`, this assumes one
simulation at a time per process (sweeps parallelize across processes).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import logging
import os
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
from collections import deque
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from repro.net.packet import Packet, PacketSpec, RoutingMode
from repro.net.program import BaseProgram

log = logging.getLogger(__name__)

SOURCE = Path(__file__).with_name("_kernel.c")
#: Compiler flags; part of the cache key.
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
#: Events the kernel processes between returns to Python.
CHUNK_EVENTS = 1 << 16
#: Ports per node the kernel's 64-bit occupancy mask can hold.
MAX_PORTS = 63

# k_run / k_start_node return codes (see _kernel.c).
_K_DONE, _K_YIELD, _K_LIMIT_CYCLES, _K_LIMIT_EVENTS = 0, 1, 2, 3
_K_ERR_CALLBACK, _K_ERR_NOMEM, _K_ERR_SPEC, _K_ERR_STATE = -1, -2, -3, -4

# Exchange records (layouts of kspec_t and kdlv_t in _kernel.c).
_SPEC = struct.Struct("<qqddiiiiiii?3x")
_DLV = struct.Struct("<qqqdQiiiiiiiidd")

#: RoutingMode members by value (0, 1, ...): indexing skips the enum call
#: materialize makes per delivery; other values go through RoutingMode
#: and raise just as materialize does.
_MODES = tuple(RoutingMode)
assert [int(m) for m in _MODES] == list(range(len(_MODES)))

#: Both callbacks take the node and return a count (see _kernel.c).
_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int32, ctypes.c_int32)

_P = ctypes.c_void_p
_D = ctypes.c_double
_I64 = ctypes.c_int64
_I32 = ctypes.c_int32


class KState(ctypes.Structure):
    """Mirror of the kernel's state block (``K`` in ``_kernel.c``).

    The order is checked field by field against the library at load
    time (names, offsets and total size)."""

    _fields_ = (
        [(n, _P) for n in (
            "nbr", "coord", "colm", "dirtab", "dir_off", "port_dir",
            "port_axis", "link_busy", "busy_cycles", "link_packets",
            "tokens", "fifo_free", "recv_free", "q_buf", "q_hd", "q_n",
            "rp_buf", "rp_hd", "rp_n", "pmask", "queued", "arb",
            "cpu_active", "cpu_rr", "fifo_rr", "cpu_kind", "cpu_arg",
            "cpu_fifo", "plan_state", "plan_last_start", "pace",
            "fwd_head", "fwd_tail", "fwd_len", "staging", "dlv",
        )]
        + [("plan_cb", _CALLBACK), ("dlv_cb", _CALLBACK)]
        + [(n, _P) for n in (
            "fifo", "heap", "pool", "pool_free", "specs", "spec_free", "jb",
        )]
        + [(n, _D) for n in (
            "now", "max_cycles_t", "beta", "hop_t", "cpu_fixed",
            "cpu_incr", "alpha", "last_final_delivery", "last_delivery",
            "final_latency_sum", "final_latency_max",
        )]
        + [(n, _I64) for n in (
            "max_events", "n_events", "next_pid", "seq",
            "injected_packets", "delivered_packets", "final_deliveries",
            "forwarded_packets", "injected_wire_bytes", "total_hops",
            "peak_forward_backlog",
        )]
        + [(n, _I32) for n in (
            "p", "ndim", "ndirs", "nvcs", "ndyn", "bubble", "nfifos",
            "nports", "nvp", "bubble_entry", "ngroups", "q_shift",
            "q_mask", "rp_shift", "rp_mask", "skip_final", "cb_failed",
            "fifo_cap", "fifo_hd", "fifo_n",
            "heap_n", "heap_cap", "pool_cap", "pool_nfree", "spec_cap",
            "spec_nfree",
        )]
    )


class KernelUnavailable(RuntimeError):
    """The compiled kernel cannot be built or loaded here."""


# --------------------------------------------------------------------- #
# build and load
# --------------------------------------------------------------------- #

_UNSET = object()
_state: dict = {"lib": _UNSET, "forced": None, "logged": set()}


def _compiler() -> tuple[list[str], str]:
    """The compiler command and an identity string for the cache key
    (resolved path, size and mtime of the executable: cheap, and it
    changes whenever the compiler is replaced)."""
    cmd = shlex.split(os.environ.get("CC") or "gcc")
    exe = shutil.which(cmd[0]) if cmd else None
    if exe is None:
        raise KernelUnavailable(f"no C compiler ({' '.join(cmd) or 'CC'!r} not found)")
    real = os.path.realpath(exe)
    st = os.stat(real)
    return cmd, f"{real}:{st.st_size}:{st.st_mtime_ns}:{' '.join(cmd[1:])}"


def _cache_dirs() -> list[Path]:
    """Where the shared object is looked for and built, in order."""
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return [
        SOURCE.parent / "__pycache__",
        Path(tempfile.gettempdir()) / f"repro-kernel-{uid}",
    ]


def _build(cmd: list[str], target: Path) -> None:
    """Compile the kernel into *target* atomically (temp file + replace)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        try:
            proc = subprocess.run(
                [*cmd, *FLAGS, "-o", tmp, str(SOURCE)],
                stdin=subprocess.DEVNULL,
                capture_output=True,
                text=True,
                timeout=300,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise KernelUnavailable(f"{cmd[0]} did not run: {exc}") from exc
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            raise KernelUnavailable(
                f"{cmd[0]} exited with status {proc.returncode}: "
                + " | ".join(tail)
            )
        os.replace(tmp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)


def _check_layout(lib: ctypes.CDLL) -> None:
    for fn in (lib.k_fields, lib.k_offsets, lib.k_nfields, lib.k_sizeof):
        fn.argtypes = ()
    lib.k_fields.restype = ctypes.c_char_p
    lib.k_offsets.restype = ctypes.POINTER(ctypes.c_int64)
    lib.k_nfields.restype = ctypes.c_int64
    lib.k_sizeof.restype = ctypes.c_int64
    names = lib.k_fields().decode().rstrip(",").split(",")
    theirs = list(zip(names, lib.k_offsets()[:lib.k_nfields()]))
    mine = [(n, getattr(KState, n).offset) for n, _ in KState._fields_]
    if mine != theirs or lib.k_sizeof() != ctypes.sizeof(KState):
        raise KernelUnavailable("state layout differs from kernel.KState")


def _load() -> ctypes.CDLL:
    cmd, ident = _compiler()
    key = hashlib.sha256(
        SOURCE.read_bytes() + b"\0" + ident.encode() + b"\0"
        + " ".join(FLAGS).encode()
    ).hexdigest()[:20]
    name = f"_kernel-{key}.so"
    errors = []
    for d in _cache_dirs():
        target = d / name
        if not target.exists():
            try:
                _build(cmd, target)
            except OSError as exc:  # read-only dir, etc.: try the next
                errors.append(f"{d}: {exc}")
                continue
        try:
            lib = ctypes.CDLL(str(target))
        except OSError as exc:
            errors.append(f"{target}: {exc}")
            continue
        _check_layout(lib)
        ks = ctypes.POINTER(KState)
        for fn in ("k_init", "k_start_node", "k_run", "k_fwd_specs"):
            getattr(lib, fn).restype = ctypes.c_int32
        lib.k_init.argtypes = (ks, ctypes.c_int32)
        lib.k_start_node.argtypes = (ks, ctypes.c_int32)
        lib.k_run.argtypes = (ks, ctypes.c_int64)
        lib.k_fwd_specs.argtypes = (ks, ctypes.c_int32, ctypes.c_void_p)
        lib.k_release.argtypes = (ks,)
        lib.k_release.restype = None
        return lib
    raise KernelUnavailable("no usable cache directory: " + "; ".join(errors))


def log_once(reason: str) -> None:
    """Log why a run falls back to the Python loop, once per reason."""
    if reason not in _state["logged"]:
        _state["logged"].add(reason)
        log.warning("compiled kernel not used: %s; running the Python "
                    "event loop", reason)


def load() -> Optional[ctypes.CDLL]:
    """The kernel library, built on first use; None (logged once) when
    no compiler works here."""
    if _state["lib"] is _UNSET:
        try:
            _state["lib"] = _load()
        except (KernelUnavailable, OSError) as exc:
            log_once(str(exc))
            _state["lib"] = None
    return _state["lib"]


def reset() -> None:
    """Forget the loaded library and logged reasons (tests)."""
    _state["lib"] = _UNSET
    _state["logged"].clear()


def available() -> bool:
    """Whether the compiled kernel can run here."""
    return load() is not None


def forced_engine() -> Optional[str]:
    """The engine :func:`use_engine` pins, or None (automatic)."""
    return _state["forced"]


@contextlib.contextmanager
def use_engine(engine: Optional[str]) -> Iterator[None]:
    """Pin the event loop of plain-network runs in this block:
    ``"python"`` (the reference ``_run_dispatch``), ``"kernel"`` (the
    compiled loop; a run raises :class:`KernelUnavailable` when it cannot
    be used) or None (automatic)."""
    if engine not in (None, "python", "kernel"):
        raise ValueError(f"unknown engine {engine!r}")
    prev = _state["forced"]
    _state["forced"] = engine
    try:
        yield
    finally:
        _state["forced"] = prev


# --------------------------------------------------------------------- #
# running a program
# --------------------------------------------------------------------- #


def _inherits_base_delivery(program) -> bool:
    if getattr(type(program), "on_delivery", None) is not BaseProgram.on_delivery:
        return False
    return "on_delivery" not in getattr(program, "__dict__", {})


#: (net attribute, numpy dtype) of the state arrays shared with C and
#: copied back into the network's lists after the run.
_STATE = (
    ("link_busy", np.float64), ("busy_cycles", np.float64),
    ("link_packets", np.int64), ("tokens", np.int32),
    ("fifo_free", np.int32), ("recv_free", np.int32),
    ("q_hd", np.int32), ("q_n", np.int32),
    ("rp_hd", np.int32), ("rp_n", np.int32),
    ("pmask", np.uint64), ("queued", np.int32), ("arb", np.int32),
    ("cpu_rr", np.int32), ("fifo_rr", np.int32),
    ("plan_last_start", np.float64), ("pace", np.float64),
)

_STATS = (
    "injected_packets", "delivered_packets", "final_deliveries",
    "forwarded_packets", "injected_wire_bytes", "total_hops",
    "peak_forward_backlog", "last_final_delivery", "last_delivery",
    "final_latency_sum", "final_latency_max",
)


def run(net, program, lib: ctypes.CDLL) -> int:
    """Run *program* on *net* through the kernel; returns the number of
    events processed.  Raises exactly what the Python loop raises
    (:class:`SimulationLimitError` with the same snapshot, exceptions
    from the program), and leaves the network's state lists as the
    Python loop would, so ``_check_quiescent`` and ``_result`` work
    unchanged."""
    from repro.net.simulator import TICK_SCALE  # the simulator imports us

    p = net._p
    ks = KState()
    kref = ctypes.byref(ks)
    keep = {}  # numpy arrays and ctypes objects C points into

    def share(field, values, dtype):
        a = np.ascontiguousarray(np.asarray(values, dtype=dtype).ravel())
        keep[field] = a
        setattr(ks, field, a.ctypes.data)
        return a

    share("nbr", net._nbr, np.int32)
    share("coord", net._coord, np.int32)
    share("colm", net._colm, np.int32)
    tabs, offs = [], []
    for axis in range(net._ndim):
        for hb in (0, 1):
            offs.append(sum(len(t) for t in tabs))
            tabs.append(net._dirtab[axis][hb])
    share("dirtab", [x for t in tabs for x in t], np.int32)
    share("dir_off", offs, np.int32)
    share("port_dir", net._port_dir, np.int32)
    share("port_axis", net._port_axis, np.int32)
    arrays = {
        name: share(name, getattr(net, "_" + name), dtype)
        for name, dtype in _STATE
    }
    # Ring contents are kernel pool handles: never copied in or out (the
    # rings start empty; see TorusNetwork._kernel_library).
    share("q_buf", np.zeros(len(net._q_buf), np.int32), np.int32)
    share("rp_buf", np.zeros(len(net._rp_buf), np.int32), np.int32)
    cpu_active = share("cpu_active", net._cpu_active, np.int32)
    for name in ("cpu_kind", "cpu_arg", "cpu_fifo", "fwd_len"):
        share(name, np.zeros(p, np.int32), np.int32)
    for name in ("plan_state", "fwd_head", "fwd_tail"):
        share(name, np.full(p, -1, np.int32), np.int32)
    plan_state, fwd_len = keep["plan_state"], keep["fwd_len"]
    pace = arrays["pace"]

    cfg = net.config
    ks.max_cycles_t = cfg.max_cycles * TICK_SCALE
    ks.max_events = min(cfg.max_events, 2**63 - 1)
    ks.now = net._now
    ks.beta = net._beta
    ks.hop_t = net._hop_t
    ks.cpu_fixed = net._cpu_fixed
    ks.cpu_incr = net._cpu_incr
    ks.alpha = net._alpha
    st = net.stats
    for name in _STATS:
        setattr(ks, name, getattr(st, name))
    ks.next_pid = next(net._pid)
    for name in ("p", "ndim", "ndirs", "nvcs", "ndyn", "bubble", "nfifos",
                 "nports", "nvp", "bubble_entry", "ngroups", "q_shift",
                 "q_mask", "rp_shift", "rp_mask"):
        setattr(ks, name, getattr(net, "_" + name))

    # --- callbacks ------------------------------------------------------
    skip = _inherits_base_delivery(program)
    ks.skip_final = int(skip)
    plan_iter = net._plan_iter
    plan_next = net._plan_next
    tags: list = []  # slot -> tag of a spec whose delivery is called back
    free_slots: list = []
    stage = [ctypes.create_string_buffer(_SPEC.size * 64)]
    ks.staging = ctypes.addressof(stage[0])
    dlv_buf = ctypes.create_string_buffer(_DLV.size)
    ks.dlv = ctypes.addressof(dlv_buf)
    pack = _SPEC.pack_into
    unpack = _DLV.unpack_from

    on_delivery = program.on_delivery

    def plan_cb(u):
        spec = next(plan_iter[u], None)
        if spec is None:
            plan_iter[u] = None
            return 0
        plan_next[u] = spec
        if skip:
            slot = -1
        elif free_slots:
            slot = free_slots.pop()
            tags[slot] = spec.tag
        else:
            slot = len(tags)
            tags.append(spec.tag)
        pack(stage[0], 0, spec.payload_bytes, spec.seq,
             spec.extra_cpu_cycles, spec.alpha_cycles, spec.dst,
             spec.wire_bytes, spec.mode, spec.fifo_group, spec.final_dst,
             slot, -1, spec.new_message)
        return 1

    def dlv_cb(u):
        (pid, payload, seq, _, _, src, dst, wire, mode, final, hops, vc,
         slot, inject_f, now_f) = unpack(dlv_buf)
        if slot >= 0:
            tag = tags[slot]
            tags[slot] = None
            free_slots.append(slot)
        else:
            tag = None
        fwd = on_delivery(u, Packet(
            pid, src, dst, wire,
            _MODES[mode] if 0 <= mode < len(_MODES) else RoutingMode(mode),
            tag, final, payload, inject_f, now_f, hops, vc,
            (pid * 0x9E3779B1) >> 7, seq, False,
        ), now_f)
        if not fwd:
            return 0
        n = 0
        buf = stage[0]
        for spec in fwd:
            if (n + 1) * _SPEC.size > len(buf):
                grown = ctypes.create_string_buffer(len(buf) * 2)
                ctypes.memmove(grown, buf, len(buf))
                stage[0] = buf = grown
                ks.staging = ctypes.addressof(grown)
            if free_slots:
                slot = free_slots.pop()
                tags[slot] = spec.tag
            else:
                slot = len(tags)
                tags.append(spec.tag)
            pack(buf, n * _SPEC.size, spec.payload_bytes, spec.seq,
                 spec.extra_cpu_cycles, spec.alpha_cycles, spec.dst,
                 spec.wire_bytes, spec.mode, spec.fifo_group,
                 spec.final_dst, slot, -1, spec.new_message)
            n += 1
        return n

    ks.plan_cb = c_plan = _CALLBACK(plan_cb)
    ks.dlv_cb = c_dlv = _CALLBACK(dlv_cb)
    raised: list = []
    prev_hook = sys.unraisablehook

    def capture(unraisable):
        if unraisable.object is plan_cb or unraisable.object is dlv_cb:
            raised.append(unraisable.exc_value)
            ks.cb_failed = 1
        else:
            prev_hook(unraisable)

    def check(rc: int) -> None:
        if rc == _K_ERR_CALLBACK:
            raise raised[0]
        if rc == _K_ERR_NOMEM:
            raise MemoryError("simulator kernel out of memory")
        if rc == _K_ERR_SPEC:
            raise ValueError(
                "PacketSpec outside the network: dst must be a node rank "
                f"in [0, {p}) and wire_bytes >= 0"
            )
        if rc == _K_ERR_STATE:
            raise AssertionError("CPU completion with no pending op")

    sys.unraisablehook = capture
    rc = _K_DONE
    try:
        check(lib.k_init(kref, net._pool.capacity))
        for u in range(p):
            plan_iter[u] = iter(program.injection_plan(u))
            pace[u] = net._pace[u] = program.pace_cycles(u) * TICK_SCALE
            check(lib.k_start_node(kref, u))
        stats = net.stats
        while True:
            rc = lib.k_run(kref, CHUNK_EVENTS)
            # Telemetry for live_progress() and a chance for pending
            # signal handlers (watchdog, Ctrl-C) to run.
            net._now = ks.now
            stats.delivered_packets = ks.delivered_packets
            if rc != _K_YIELD:
                break
        check(rc)
    finally:
        sys.unraisablehook = prev_hook
        try:
            _copy_back(net, ks, arrays, cpu_active, plan_state, fwd_len,
                       tags, lib, kref)
        finally:
            lib.k_release(kref)
            del c_plan, c_dlv, keep
    n_events = ks.n_events
    if rc == _K_LIMIT_CYCLES:
        raise net._limit_error(
            f"simulation exceeded {cfg.max_cycles:.3g} cycles", n_events
        )
    if rc == _K_LIMIT_EVENTS:
        raise net._limit_error(
            f"simulation exceeded {cfg.max_events} events", n_events
        )
    return n_events


def _copy_back(net, ks, arrays, cpu_active, plan_state, fwd_len, tags,
               lib, kref) -> None:
    """Leave the network's Python state as the Python loop would have,
    except for the packet pool, the ring contents and the pending CPU
    ops: packets still in flight (after a limit error) are kernel
    handles, which Python cannot resolve."""
    net._now = ks.now
    for name, arr in arrays.items():
        getattr(net, "_" + name)[:] = arr.tolist()
    net._cpu_active[:] = cpu_active.astype(bool).tolist()
    st = net.stats
    for name in _STATS:
        setattr(st, name, getattr(ks, name))
    net._pid = itertools.count(ks.next_pid)
    for u in np.flatnonzero(plan_state < 0).tolist():
        net._plan_next[u] = None
    buf = ctypes.create_string_buffer(_SPEC.size * max(int(fwd_len.max(initial=0)), 1))
    for u in np.flatnonzero(fwd_len).tolist():
        n = lib.k_fwd_specs(kref, u, buf)
        net._fwd_pending[u] = deque(
            PacketSpec(
                dst, wire, RoutingMode(mode), group, newmsg,
                tags[slot] if 0 <= slot < len(tags) else None,
                final, payload, extra, alpha, seq,
            )
            for (payload, seq, extra, alpha, dst, wire, mode, group, final,
                 slot, _, newmsg) in _SPEC.iter_unpack(buf.raw[:n * _SPEC.size])
        )
