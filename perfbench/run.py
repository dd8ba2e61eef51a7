"""The repository's benchmark: spec-to-metrics wall time and Venn's JCT gain.

One invocation runs one workload (see ``perfbench/workloads.py``) end to
end through public APIs.  A pass is environment synthesis
(``build_devices``, ``build_availability``, ``build_workload``), then
``Simulator(...)``, ``run()`` and the metric reduction for each policy
(``random``, then ``venn``).

    python3 perfbench/run.py --workload paper_large --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
medians over passes made until ``--seconds`` have passed (at least
:data:`MIN_PASSES`).  Every later pass must reproduce the first exactly.
Before its own set-up each pass times set-ups that run nothing, so that
``setup_s`` is a median over many set-ups (see :data:`SETUP_SAMPLE_S`).

``--trace 1`` reports the per-layer metrics: after one pass it repeats
every policy run with the tracing wrappers of ``perfbench/tracing.py``
installed, checks that the traced twin reproduces the untraced run
exactly, and takes one ``Simulator.snapshot()`` of each traced run.

Every policy run is one operation.  It fails when it raises or fails the
output checks (:func:`check_run`); ``correct`` is false if any failed.
Human-readable lines (each metric with its unit, each run's metrics
digest, a JSON run record with the machine fingerprint) come first; the
last line is the JSON result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _require_sources() -> None:
    """Exit with an error (and no result line) when ``src/`` is missing."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            f"perfbench: no repro sources under {SRC}; run from a checkout\n"
        )
        raise SystemExit(2)


if __name__ == "__main__":
    _require_sources()
    # The benchmark writes nothing into the checkout it measures.
    sys.dont_write_bytecode = True
for _path in (ROOT, SRC):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import numpy as np  # noqa: E402

from perfbench import tracing  # noqa: E402
from perfbench.workloads import POLICIES, WORKLOADS, Workload  # noqa: E402
from repro.analysis.stats import summarize_run  # noqa: E402
from repro.core.baselines import make_policy  # noqa: E402
from repro.experiments.environment import (  # noqa: E402
    Environment,
    build_availability,
    build_devices,
    build_workload,
)
from repro.resilience.record import metrics_digest  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

#: Passes every ``--trace 0`` run makes, however short ``--seconds`` is.
#: The reported times are medians over the passes: on a shared 2-core VM the
#: same pass varies by 15 % or more from one run to the next.
MIN_PASSES = 3

#: Seconds of set-up-only samples each ``--trace 0`` pass takes before its
#: own set-up (at least one).  A set-up lasts 1.5 s on ``paper_large``, so a
#: burst of load on the shared host moves it more than it moves a run; the
#: reported ``setup_s`` is the median of every set-up of the run except the
#: first, which warms up.
SETUP_SAMPLE_S = 3.0

#: Units of every metric the benchmark reports.
END_TO_END_UNITS: Dict[str, str] = {
    "e2e_s": "s",
    "setup_s": "s",
    "run_s": "s",
    "events_per_s": "events/s",
    "peak_rss_mb": "MB",
    "jct_speedup_vs_random": "x",
}
PER_LAYER_UNITS: Dict[str, str] = {
    "traces.capacity_s": "s",
    "traces.availability_s": "s",
    "traces.workload_s": "s",
    "traces.sessions": "count",
    "traces.us_per_device": "us",
    "sim.init_s": "s",
    "sim.events": "count",
    "sim.checkins": "count",
    "sim.engine_self_s": "s",
    "sim.engine_us_per_event": "us",
    "sim.latency_s": "s",
    "sim.latency.calls": "count",
    "core.assign.calls": "count",
    "core.assign_self_s": "s",
    "core.assign_p50_us": "us",
    "core.assign_p99_us": "us",
    "core.assign.samples": "count",
    "core.assign.hit_ratio": "fraction",
    "core.checkin_s": "s",
    "core.checkin.calls": "count",
    "core.response_s": "s",
    "core.lifecycle_s": "s",
    "core.plan_refresh_s": "s",
    "core.plan_refresh.calls": "count",
    "core.supply_rates_s": "s",
    "core.plan_full_rebuilds": "count",
    "core.plan_incremental_updates": "count",
    "resilience.snapshot_s": "s",
    "resilience.snapshot_mb": "MB",
    "analysis.reduce_s": "s",
    "model.avg_jct_h": "h",
    "model.completion_rate": "fraction",
    "model.sched_delay_s": "s",
    "model.response_s": "s",
    "model.round_abort_rate": "fraction",
    "model.task_failure_rate": "fraction",
    "trace.overhead": "fraction",
}


# --------------------------------------------------------------------- #
# One pass: config -> environment -> simulator -> run -> metrics rows
# --------------------------------------------------------------------- #
@dataclass
class Setup:
    """The time each trace layer took to synthesise an environment."""

    capacity_s: float
    availability_s: float
    workload_s: float

    @property
    def synthesis_s(self) -> float:
        return self.capacity_s + self.availability_s + self.workload_s


@dataclass
class PolicyRun:
    """One policy's simulation and its reduced metrics row."""

    policy: str
    init_s: float = 0.0
    run_s: float = 0.0
    reduce_s: float = 0.0
    events: int = 0
    row: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    #: Inputs of the output checks: per-job censored JCTs, participants of
    #: completed rounds, and assignments (counted by the traced run only).
    jcts: List[float] = field(default_factory=list)
    participants: int = 0
    assignments: Optional[int] = None
    #: Reasons the run failed its output checks (or the error it raised).
    errors: List[str] = field(default_factory=list)


def synthesize(workload: Workload, seed: int) -> Tuple[Environment, Setup]:
    """Build devices, availability trace and jobs, timing each layer."""
    config = workload.experiment_config(seed)
    t0 = time.perf_counter()
    devices = build_devices(config)
    t1 = time.perf_counter()
    availability = build_availability(config)
    t2 = time.perf_counter()
    jobs = build_workload(config)
    t3 = time.perf_counter()
    env = Environment(
        config=config, devices=devices, availability=availability, workload=jobs
    )
    return env, Setup(t1 - t0, t2 - t1, t3 - t2)


def time_setup(workload: Workload, seed: int) -> float:
    """Time one set-up that runs nothing: synthesis plus every policy's
    ``Simulator.__init__``, as a pass's set-up is counted."""
    env, setup = synthesize(workload, seed)
    init_s = 0.0
    for name in POLICIES:
        policy = new_policy(name, env)
        t0 = time.perf_counter()
        make_simulator(workload, env, policy)
        init_s += time.perf_counter() - t0
    return setup.synthesis_s + init_s


def make_simulator(workload: Workload, env: Environment, policy) -> Simulator:
    return Simulator(
        devices=env.devices,
        availability=env.availability,
        workload=env.workload,
        policy=policy,
        config=workload.simulation_config(env.config),
    )


def new_policy(name: str, env: Environment):
    return make_policy(name, seed=env.config.seed_for("policy"))


def reduce_metrics(run: PolicyRun, metrics) -> None:
    """The metric reduction: summary row, digest and check inputs."""
    t0 = time.perf_counter()
    row = summarize_run(metrics)
    attempts = metrics.total_aborts + sum(
        jm.rounds_completed for jm in metrics.jobs.values()
    )
    row["round_abort_rate"] = metrics.total_aborts / attempts if attempts else 0.0
    row["task_failure_rate"] = metrics.error_rate
    run.row = row
    run.digest = metrics_digest(metrics)
    run.jcts = list(metrics.job_jcts().values())
    run.participants = sum(
        len(p) for jm in metrics.jobs.values() for p in jm.round_participants
    )
    run.reduce_s = time.perf_counter() - t0


def check_run(run: PolicyRun, twin: Optional[PolicyRun] = None) -> List[str]:
    """Output checks of one policy run; returns the reasons it fails.

    Sanity: completion rate in [0, 1]; every job's JCT (censored at the
    horizon) positive; every participant of a completed round is a
    successful response; and, where the traced run counted assignments,
    responses plus failures do not exceed them.  ``twin`` is the same
    policy's run on the same inputs: its metrics digest and event count
    must match exactly.
    """
    errors = []
    row = run.row
    if not 0.0 <= row["completion_rate"] <= 1.0:
        errors.append(f"completion_rate {row['completion_rate']} outside [0, 1]")
    if not run.jcts or min(run.jcts) <= 0.0:
        errors.append("a job has a non-positive JCT")
    if run.participants > row["total_responses"]:
        errors.append(
            f"{run.participants} round participants > "
            f"{row['total_responses']:.0f} responses"
        )
    reported = row["total_responses"] + row["total_failures"]
    if run.assignments is not None and reported > run.assignments:
        errors.append(
            f"responses + failures {reported:.0f} > assignments {run.assignments}"
        )
    if twin is not None:
        if run.digest != twin.digest:
            errors.append(
                f"metrics digest {run.digest} differs from the twin's {twin.digest}"
            )
        if run.events != twin.events:
            errors.append(
                f"{run.events} events differ from the twin's {twin.events}"
            )
    return errors


def run_policy(
    workload: Workload, env: Environment, name: str, twin: Optional[PolicyRun] = None
) -> PolicyRun:
    """Untraced run of one policy: init, run, reduce, each timed.

    ``twin`` is an earlier run of the same policy on the same inputs.
    """
    run = PolicyRun(policy=name)
    try:
        policy = new_policy(name, env)
        t0 = time.perf_counter()
        sim = make_simulator(workload, env, policy)
        t1 = time.perf_counter()
        metrics = sim.run()
        t2 = time.perf_counter()
        run.init_s, run.run_s = t1 - t0, t2 - t1
        run.events = sim.events_processed
        reduce_metrics(run, metrics)
        run.errors = check_run(run, twin)
    except Exception:  # a policy run is one operation: record and go on
        run.errors = [traceback.format_exc()]
    return run


@dataclass
class Pass:
    """One measured pass: config -> environment -> every policy's row."""

    setup: Setup
    runs: Dict[str, PolicyRun]
    e2e_s: float
    #: Set-up-only samples timed before this pass's own set-up.
    setup_samples: List[float] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        """Synthesis plus every policy's ``Simulator.__init__``."""
        return self.setup.synthesis_s + sum(r.init_s for r in self.runs.values())

    @property
    def run_s(self) -> float:
        return sum(r.run_s for r in self.runs.values())

    @property
    def events(self) -> int:
        return sum(r.events for r in self.runs.values())


def run_pass(
    workload: Workload,
    seed: int,
    twin: Optional[Pass] = None,
    setup_sample_s: float = 0.0,
) -> Tuple[Environment, Pass]:
    """Time one pass; ``twin`` is an earlier pass it must reproduce.

    With ``setup_sample_s`` > 0 the pass first times set-ups that run
    nothing, at least one, until they add up to ``setup_sample_s``.
    """
    samples: List[float] = []
    while setup_sample_s > 0 and sum(samples) < setup_sample_s:
        samples.append(time_setup(workload, seed))
    t0 = time.perf_counter()
    env, setup = synthesize(workload, seed)
    runs = {
        name: run_policy(workload, env, name, twin.runs[name] if twin else None)
        for name in POLICIES
    }
    return env, Pass(setup, runs, time.perf_counter() - t0, samples)


@dataclass
class TracedRun:
    """A traced twin: the policy run, its tracer and its snapshot."""

    run: PolicyRun
    tracer: tracing.Tracer
    plan_profile: Optional[Dict[str, object]] = None
    snapshot_s: float = 0.0
    snapshot_mb: float = 0.0


def run_traced(workload: Workload, env: Environment, untraced: PolicyRun) -> TracedRun:
    """Repeat one policy run with every layer boundary traced."""
    tracer = tracing.Tracer()
    traced = TracedRun(PolicyRun(policy=untraced.policy), tracer)
    run = traced.run
    try:
        inner = new_policy(untraced.policy, env)
        t0 = time.perf_counter()
        sim = make_simulator(workload, env, tracing.TracedPolicy(inner, tracer))
        sim.latency = tracing.TracedLatency(sim.latency, tracer)
        t1 = time.perf_counter()
        metrics = sim.run()
        t2 = time.perf_counter()
        run.init_s, run.run_s = t1 - t0, t2 - t1
        run.events = sim.events_processed
        run.assignments = tracer.spans[tracing.LATENCY].calls
        profile = getattr(inner, "plan_profile", None)
        traced.plan_profile = profile.as_dict() if profile is not None else None
        t3 = time.perf_counter()
        snapshot = sim.snapshot()
        traced.snapshot_s = time.perf_counter() - t3
        traced.snapshot_mb = len(snapshot.payload) / 1e6
        reduce_metrics(run, metrics)
        run.errors = check_run(run, twin=untraced)
    except Exception:
        run.errors = [traceback.format_exc()]
    return traced


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def _value(runs: Dict[str, PolicyRun], policy: str, key: str) -> Optional[float]:
    run = runs.get(policy)
    if run is None or not run.row:
        return None
    return float(run.row[key])


def jct_speedup(runs: Dict[str, PolicyRun]) -> Optional[float]:
    base = _value(runs, "random", "average_jct")
    venn = _value(runs, "venn", "average_jct")
    if base is None or venn is None or venn <= 0.0:
        return None
    return base / venn


def end_to_end_metrics(passes: List[Pass]) -> Dict[str, Optional[float]]:
    """Medians over the passes; the simulated result is every pass's.

    ``setup_s`` is the median over every set-up of the run, the passes'
    own and the set-up-only samples, except the first (warm-up).
    """
    rates = [p.events / p.run_s for p in passes if p.run_s > 0]
    setups = [s for p in passes for s in p.setup_samples + [p.setup_s]]
    return {
        "e2e_s": statistics.median(p.e2e_s for p in passes),
        "setup_s": statistics.median(setups[1:] or setups),
        "run_s": statistics.median(p.run_s for p in passes),
        "events_per_s": statistics.median(rates) if rates else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jct_speedup_vs_random": jct_speedup(passes[0].runs),
    }


def per_layer_metrics(
    env: Environment, measured: Pass, traced: Dict[str, TracedRun]
) -> Dict[str, Optional[float]]:
    """Layer metrics summed over every traced policy run."""
    setup, runs = measured.setup, measured.runs

    def span(name: str, attr: str) -> float:
        return sum(getattr(t.tracer.spans[name], attr) for t in traced.values())

    samples = np.asarray(
        [s for t in traced.values() for s in t.tracer.assign_samples], dtype=float
    )
    assign_calls = span(tracing.ASSIGN, "calls")
    traced_run_s = sum(t.run.run_s for t in traced.values())
    untraced_run_s = measured.run_s
    engine_self_s = traced_run_s - sum(
        t.tracer.traced_self_s() for t in traced.values()
    )
    events = sum(t.run.events for t in traced.values())
    plans = [t.plan_profile for t in traced.values() if t.plan_profile]
    num_devices = len(env.devices)
    return {
        "traces.capacity_s": setup.capacity_s,
        "traces.availability_s": setup.availability_s,
        "traces.workload_s": setup.workload_s,
        "traces.sessions": len(env.availability.sessions),
        "traces.us_per_device": (setup.capacity_s + setup.availability_s)
        / num_devices
        * 1e6,
        "sim.init_s": sum(r.init_s for r in runs.values()),
        "sim.events": events,
        "sim.checkins": sum(
            t.run.row.get("total_checkins", 0.0) for t in traced.values()
        ),
        "sim.engine_self_s": engine_self_s,
        "sim.engine_us_per_event": engine_self_s / events * 1e6 if events else None,
        "sim.latency_s": span(tracing.LATENCY, "self_s"),
        "sim.latency.calls": span(tracing.LATENCY, "calls"),
        "core.assign.calls": assign_calls,
        "core.assign_self_s": span(tracing.ASSIGN, "self_s"),
        "core.assign_p50_us": float(np.percentile(samples, 50)) * 1e6
        if samples.size
        else None,
        "core.assign_p99_us": float(np.percentile(samples, 99)) * 1e6
        if samples.size
        else None,
        "core.assign.samples": int(samples.size),
        "core.assign.hit_ratio": sum(t.tracer.assign_hits for t in traced.values())
        / assign_calls
        if assign_calls
        else None,
        "core.checkin_s": span(tracing.CHECKIN, "self_s"),
        "core.checkin.calls": span(tracing.CHECKIN, "calls"),
        "core.response_s": span(tracing.RESPONSE, "self_s"),
        "core.lifecycle_s": span(tracing.LIFECYCLE, "self_s"),
        "core.plan_refresh_s": span(tracing.PLAN_REFRESH, "self_s"),
        "core.plan_refresh.calls": span(tracing.PLAN_REFRESH, "calls"),
        "core.supply_rates_s": span(tracing.SUPPLY_RATES, "self_s"),
        "core.plan_full_rebuilds": sum(p["full_rebuilds"] for p in plans),
        "core.plan_incremental_updates": sum(
            p["incremental_updates"] for p in plans
        ),
        "resilience.snapshot_s": sum(t.snapshot_s for t in traced.values()),
        "resilience.snapshot_mb": max(
            (t.snapshot_mb for t in traced.values()), default=None
        ),
        "analysis.reduce_s": sum(r.reduce_s for r in runs.values()),
        "model.avg_jct_h": _hours(_value(runs, "venn", "average_jct")),
        "model.completion_rate": _value(runs, "venn", "completion_rate"),
        "model.sched_delay_s": _value(runs, "venn", "average_scheduling_delay"),
        "model.response_s": _value(runs, "venn", "average_response_time"),
        "model.round_abort_rate": _value(runs, "venn", "round_abort_rate"),
        "model.task_failure_rate": _value(runs, "venn", "task_failure_rate"),
        "trace.overhead": traced_run_s / untraced_run_s - 1.0
        if untraced_run_s > 0
        else None,
    }


def _hours(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds / 3600.0


# --------------------------------------------------------------------- #
# Fingerprint
# --------------------------------------------------------------------- #
def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(workload: Workload, seed: int, trace: bool) -> Dict[str, object]:
    params = asdict(workload)
    params.pop("why")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
        "trace": trace,
        "workload": params,
    }


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #
def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> Dict:
    """Run one workload; returns the result and the run record."""
    t_start = time.perf_counter()
    setup_sample_s = 0.0 if trace else SETUP_SAMPLE_S
    env, first = run_pass(workload, seed, setup_sample_s=setup_sample_s)
    operations = list(first.runs.values())
    digests = {name: r.digest for name, r in first.runs.items()}

    if trace:
        traced = {
            name: run_traced(workload, env, first.runs[name]) for name in POLICIES
        }
        operations += [t.run for t in traced.values()]
        digests.update({f"{name}:traced": t.run.digest for name, t in traced.items()})
        metrics = per_layer_metrics(env, first, traced)
        units = PER_LAYER_UNITS
    else:
        del env
        passes = [first]
        while len(passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
            passes.append(
                run_pass(workload, seed, twin=first, setup_sample_s=setup_sample_s)[1]
            )
            operations += passes[-1].runs.values()
        metrics = end_to_end_metrics(passes)
        units = END_TO_END_UNITS

    failed = sum(1 for op in operations if op.errors)
    missing = [name for name, value in metrics.items() if value is None]
    return {
        "result": {
            "correct": failed == 0 and not missing,
            "attempted": len(operations),
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        },
        "record": {
            "fingerprint": fingerprint(workload, seed, trace),
            "digests": digests,
            "events": {name: r.events for name, r in first.runs.items()},
            "errors": [e for op in operations for e in op.errors],
            "wall_s": time.perf_counter() - t_start,
        },
    }


def report(outcome: Dict, out=sys.stdout) -> None:
    """Print metrics with units, digests, the run record, then the result."""
    result, record = outcome["result"], outcome["record"]
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "n/a" if value is None else f"{value:.6g}"
        out.write(f"{name:32s} {shown:>14s} {metric['unit']}\n")
    for run, digest in record["digests"].items():
        out.write(f"digest {run:14s} {digest}\n")
    out.write(
        f"failed_run_share {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} of {result['attempted']} operations)\n"
    )
    for error in record["errors"]:
        sys.stderr.write(error.rstrip() + "\n")
    out.write("record " + json.dumps(record, sort_keys=True) + "\n")
    out.write(json.dumps(result) + "\n")
    out.flush()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    outcome = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report(outcome)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
