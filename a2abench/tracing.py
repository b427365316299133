"""Span recorder for the traced run, and the self-time computation.

Each layer is observed from outside, through its public calls: while a
:class:`Recorder` is installed, those functions and methods are replaced
by thin wrappers that record one span per call (name, start, end, parent
span, point id).  Spans stay in memory and are written out by the caller
at exit.  Untraced runs install nothing, so they pay nothing.

The layer of a span is the first component of its name (``net.run`` is
layer ``net``).  A span's *self time* is its duration minus the
durations of its direct children; summed per layer this says where the
wall clock went.  The root span's self time is the part of the pass that
no layer span covers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Iterator, Optional


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Recorder.spans`, or -1.
    parent: int
    #: ``point_label`` of the point being simulated, inherited from the
    #: enclosing span when the call does not name one.
    point: Optional[str]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


#: The installed recorder, if any (see :func:`section`).
_active: Optional["Recorder"] = None


@contextmanager
def section(name: str) -> Iterator[None]:
    """A span of the benchmark's own code while a recorder is installed.

    Layer calls made inside it are not recorded: a section covers the
    benchmark's checks, whose reads of the cache are not the runner's."""
    rec = _active
    if rec is None or rec.paused:
        yield
        return
    with rec.span(name):
        rec.paused = True
        try:
            yield
        finally:
            rec.paused = False


class Recorder:
    """In-memory span list plus the patch table of wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.paused = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- spans

    def _open(self, name: str, point: Optional[str]) -> int:
        parent = self._stack[-1] if self._stack else -1
        if point is None and parent >= 0:
            point = self.spans[parent].point
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, point))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, point: Optional[str] = None) -> Iterator[int]:
        idx = self._open(name, point)
        try:
            yield idx
        finally:
            self._close(idx)

    def wrap(
        self,
        name: str,
        fn: Callable,
        point_of: Optional[Callable[..., str]] = None,
    ) -> Callable:
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rec.paused:
                return fn(*args, **kwargs)
            idx = rec._open(name, point_of(*args, **kwargs) if point_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(idx)

        return traced

    # --------------------------------------------------------- patching

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch_function(self, name: str, fn: Callable, point_of=None) -> None:
        """Wrap every module-level binding of *fn* in the ``repro``
        package, so ``from x import fn`` copies are covered too."""
        traced = self.wrap(name, fn, point_of)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def patch_method(self, name: str, base: type, method: str) -> None:
        """Wrap *method* on *base* and on every subclass that overrides it."""
        todo, seen = [base], set()
        while todo:
            cls = todo.pop()
            if cls in seen:
                continue
            seen.add(cls)
            todo.extend(cls.__subclasses__())
            if method in vars(cls):
                self._set(cls, method, self.wrap(name, vars(cls)[method]))

    def uninstall(self) -> None:
        global _active
        _active = None
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # ---------------------------------------------------------- output

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def totals(self, key: Callable[[Span], Optional[str]]) -> dict[str, float]:
        """Self time summed per ``key(span)`` (spans keyed None skipped)."""
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            k = key(s)
            if k is not None:
                out[k] = out.get(k, 0.0) + t
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded call adds over a bare call (a wrapped no-op
    against the no-op itself, best of three)."""

    def noop():
        return None

    traced = Recorder().wrap("bench.noop", noop)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def install_layers(rec: Recorder) -> None:
    """Wrap the public calls of every layer the benchmark times."""
    from repro import api
    from repro.experiments import registry
    from repro.experiments.common import ExperimentResult
    from repro.net.faultsim import build_network
    from repro.net.simulator import TorusNetwork
    from repro.runner import SimPoint, cache, codec, point_label, pool
    from repro.strategies.base import AllToAllStrategy

    global _active
    _active = rec
    rec.patch_method("strategies.build_program", AllToAllStrategy, "build_program")
    rec.patch_method("strategies.predict_cycles", AllToAllStrategy, "predict_cycles")
    rec.patch_function("net.build_network", build_network)
    rec.patch_method("net.set_fifo_groups", TorusNetwork, "set_fifo_groups")
    rec.patch_method("net.run", TorusNetwork, "run")
    rec.patch_function(
        "api.simulate_alltoall",
        api.simulate_alltoall,
        lambda strategy, shape, msg_bytes, *a, seed=0, **k: point_label(
            SimPoint(strategy, shape, msg_bytes, seed=seed)
        ),
    )
    rec.patch_function("runner.point_key", codec.point_key)
    rec.patch_function("runner.encode_run", codec.encode_run)
    rec.patch_function("runner.decode_run", codec.decode_run)
    rec.patch_function("runner.cache_get", cache.cache_get)
    rec.patch_function("runner.cache_put", cache.cache_put)
    rec.patch_function("runner.run_points", pool.run_points)
    rec.patch_function("experiments.run_experiment", registry.run_experiment)
    rec.patch_method("experiments.render", ExperimentResult, "render")
