"""Layer-boundary tracing for the benchmark's traced run.

Every span is recorded from the benchmark's side of a layer boundary: the
wrappers below sit between the engine and the policy (``repro.core``),
between the engine and its latency model (``repro.sim.latency``), and
around two methods the Venn scheduler calls on itself (plan refresh and
supply-rate estimation).  Nothing inside ``src/`` is modified.

Each span accumulates its call count and *self* time (its duration minus
the time of traced spans nested inside it), so the self times of all spans
plus the engine's own time partition the wall time of ``Simulator.run()``.

The wrappers are module-level classes, not closures, so a traced
simulator still pickles: ``Simulator.snapshot()`` works on the traced run.
"""

from __future__ import annotations

import time
from typing import Dict, List

# Span names; the traced run reports one metric family per name.
ASSIGN = "core.assign"
CHECKIN = "core.checkin"
RESPONSE = "core.response"
LIFECYCLE = "core.lifecycle"
PLAN_REFRESH = "core.plan_refresh"
SUPPLY_RATES = "core.supply_rates"
LATENCY = "sim.latency"
# Engine bookkeeping the policy calls back into from ``assign_batch``; its
# self time is engine time, so it is not part of :meth:`Tracer.traced_self_s`.
COMMIT = "sim.commit"
SPANS = (ASSIGN, CHECKIN, RESPONSE, LIFECYCLE, PLAN_REFRESH, SUPPLY_RATES, LATENCY)


class SpanStats:
    """Aggregate of every call of one span."""

    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class Tracer:
    """Per-span call counts and self times, plus assign samples.

    ``assign_samples`` holds the inclusive wall time of every scalar
    ``assign`` consult (a batched consult contributes its time divided by
    the devices it consumed, once per device).  ``assign_hits`` counts
    consults that returned a request.
    """

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {
            name: SpanStats() for name in SPANS + (COMMIT,)
        }
        self.assign_samples: List[float] = []
        self.assign_hits = 0
        # Child time accumulated by each open span, innermost last.
        self._stack: List[float] = []

    def __reduce__(self):
        # Measurement state is not simulation state: a simulator snapshot
        # carries an empty tracer, so ``resilience.snapshot_mb`` measures
        # the engine alone.
        return (Tracer, ())

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside span ``name``; returns ``(result, seconds)``."""
        stack = self._stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            dt = time.perf_counter() - t0
            child = stack.pop()
            stats = self.spans[name]
            stats.calls += 1
            stats.self_s += dt - child
            if stack:
                stack[-1] += dt
        return out, dt

    def add_calls(self, name: str, extra: int) -> None:
        """Count ``extra`` more consults for a batched call of ``name``."""
        self.spans[name].calls += extra

    def traced_self_s(self) -> float:
        """Self time of every layer span (the run's non-engine time)."""
        return sum(self.spans[name].self_s for name in SPANS)


class TracedMethod:
    """Instance-attribute stand-in for one method of ``owner``, timed.

    Installed as ``owner.<name>``, it shadows the class method for calls
    the owner makes on itself (``self.refresh_plan(now)``) and calls the
    class's function, so it holds no bound method and pickles with its
    owner.
    """

    def __init__(self, owner, name: str, tracer: Tracer, span: str) -> None:
        self.owner = owner
        self.name = name
        self.tracer = tracer
        self.span = span

    def __call__(self, *args):
        fn = getattr(type(self.owner), self.name)
        return self.tracer.call(self.span, fn, self.owner, *args)[0]


def trace_method(owner, name: str, tracer: Tracer, span: str) -> None:
    """Time every call of ``owner.<name>`` under ``span``."""
    setattr(owner, name, TracedMethod(owner, name, tracer, span))


class _TracedCommit:
    """The engine's commit callback of ``assign_batch``, timed as the
    :data:`COMMIT` span so its engine work stays out of the policy's self
    time."""

    def __init__(self, commit, tracer: Tracer) -> None:
        self.commit = commit
        self.tracer = tracer
        self.commits = 0

    def __call__(self, i, request):
        self.commits += 1
        return self.tracer.call(COMMIT, self.commit, i, request)[0]


class TracedPolicy:
    """Policy wrapper timing every engine→policy call.

    The decision entry points (``assign``, ``assign_batch``,
    ``assign_batch_bulk``), the check-in and response hooks and their
    batch twins, and the lifecycle hooks are wrapped explicitly, so a
    batching engine cannot reach the inner policy around the tracer.  The
    ledger path ``assign_batch_bulk`` is hidden when the inner policy has
    none, because the engine probes it with ``getattr`` and must fall back
    exactly as it would for the bare policy.  Everything else (``bind_rng``,
    ``plan_version``, ``use_index``, ...) is forwarded untimed.
    """

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer
        self.name = getattr(inner, "name", type(inner).__name__)
        if not hasattr(inner, "assign_batch_bulk"):
            self.assign_batch_bulk = None
        refresh = getattr(inner, "refresh_plan", None)
        if callable(refresh):
            trace_method(inner, "refresh_plan", tracer, PLAN_REFRESH)
        supply = getattr(inner, "supply", None)
        if callable(getattr(supply, "rates", None)):
            trace_method(supply, "rates", tracer, SUPPLY_RATES)

    # -- decisions --------------------------------------------------------
    def assign(self, device, now):
        tracer = self._tracer
        out, dt = tracer.call(ASSIGN, self._inner.assign, device, now)
        tracer.assign_samples.append(dt)
        if out is not None:
            tracer.assign_hits += 1
        return out

    def assign_batch(self, devices, now, commit):
        traced_commit = _TracedCommit(commit, self._tracer)
        out, dt = self._tracer.call(
            ASSIGN, self._inner.assign_batch, devices, now, traced_commit
        )
        self._record_batch(len(devices), traced_commit.commits, dt)
        return out

    def assign_batch_bulk(self, devices, now):
        tracer = self._tracer
        (consumed, proposals), dt = tracer.call(
            ASSIGN, self._inner.assign_batch_bulk, devices, now
        )
        self._record_batch(consumed, len(proposals), dt)
        return consumed, proposals

    def _record_batch(self, consulted: int, hits: int, dt: float) -> None:
        tracer = self._tracer
        # The span counted one call; count every device it consulted.
        tracer.add_calls(ASSIGN, max(consulted, 1) - 1)
        tracer.assign_hits += hits
        if consulted:
            tracer.assign_samples.extend([dt / consulted] * consulted)

    # -- supply and responses --------------------------------------------
    def on_device_checkin(self, device, now):
        self._tracer.call(CHECKIN, self._inner.on_device_checkin, device, now)

    def on_device_checkin_batch(self, device_ids, times, sig_ids, sig_table, profile_of):
        self._tracer.call(
            CHECKIN,
            self._inner.on_device_checkin_batch,
            device_ids,
            times,
            sig_ids,
            sig_table,
            profile_of,
        )

    def on_response(self, request, device, now):
        self._tracer.call(RESPONSE, self._inner.on_response, request, device, now)

    def on_response_batch(self, request, devices, now):
        self._tracer.call(
            RESPONSE, self._inner.on_response_batch, request, devices, now
        )

    # -- lifecycle ---------------------------------------------------------
    def on_job_arrival(self, job, now):
        self._tracer.call(LIFECYCLE, self._inner.on_job_arrival, job, now)

    def on_job_finished(self, job_id, now):
        self._tracer.call(LIFECYCLE, self._inner.on_job_finished, job_id, now)

    def on_request_open(self, request, now):
        self._tracer.call(LIFECYCLE, self._inner.on_request_open, request, now)

    def on_request_closed(self, request, now):
        self._tracer.call(LIFECYCLE, self._inner.on_request_closed, request, now)

    def __getattr__(self, item):
        # Guarded: unpickling probes attributes before ``_inner`` exists.
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(item)
        return getattr(inner, item)


class TracedLatency:
    """Latency-model wrapper timing the engine's outcome draws (one per
    committed assignment)."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def sample_outcome(self, job, device, now=0.0):
        return self._tracer.call(
            LATENCY, self._inner.sample_outcome, job, device, now
        )[0]

    def sample_outcomes_batch(self, jobs, devices, now=0.0):
        out = self._tracer.call(
            LATENCY, self._inner.sample_outcomes_batch, jobs, devices, now
        )[0]
        # One outcome per assignment: count draws, not calls.
        self._tracer.add_calls(LATENCY, max(len(devices), 1) - 1)
        return out

    def __getattr__(self, item):
        inner = self.__dict__.get("_inner")
        if inner is None:
            raise AttributeError(item)
        return getattr(inner, item)
