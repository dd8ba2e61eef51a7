"""Tests of the benchmark itself, on scaled-down copies of its workloads."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace

import pytest

from perfbench import run, tracing
from perfbench.workloads import POLICIES, WORKLOADS
from repro.resilience.record import metrics_digest
from repro.sim.engine import SimulationConfig, Simulator

SCALE = 0.03


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def outcomes(request):
    """Untraced and traced outcome of one scaled-down workload."""
    workload = WORKLOADS[request.param].scaled(SCALE)
    return {
        trace: run.measure(workload, seed=5, seconds=0.0, trace=trace)
        for trace in (False, True)
    }


@pytest.mark.parametrize(
    "trace, units", [(False, run.END_TO_END_UNITS), (True, run.PER_LAYER_UNITS)]
)
def test_every_declared_metric_is_emitted_with_its_unit(outcomes, trace, units):
    result = outcomes[trace]["result"]
    assert result["correct"], outcomes[trace]["record"]["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_metric_declarations_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_traced_self_times_are_non_negative(outcomes):
    metrics = outcomes[True]["result"]["metrics"]
    for name, metric in metrics.items():
        if name.endswith("_s"):
            assert metric["value"] >= 0.0, name


def test_traced_twin_reproduces_the_untraced_run(outcomes):
    digests = outcomes[True]["record"]["digests"]
    for policy in ("random", "venn"):
        assert digests[f"{policy}:traced"] == digests[policy]
    # Same seed in another invocation: same simulated results.
    assert outcomes[False]["record"]["digests"] == {
        p: digests[p] for p in ("random", "venn")
    }


def test_setup_is_sampled_beyond_the_passes():
    workload = WORKLOADS["fleet_50k"].scaled(SCALE)
    _, one = run.run_pass(workload, seed=5, setup_sample_s=1e-9)
    assert len(one.setup_samples) == 1 and one.setup_samples[0] > 0.0
    _, none = run.run_pass(workload, seed=5)
    assert none.setup_samples == []
    # The first (warm-up) set-up is left out of the median.
    one.setup_samples, none.setup_samples = [1e6], [2.0, 3.0]
    one.setup, none.setup = run.Setup(5.0, 0.0, 0.0), run.Setup(4.0, 0.0, 0.0)
    for r in [*one.runs.values(), *none.runs.values()]:
        r.init_s = 0.0
    assert run.end_to_end_metrics([one, none])["setup_s"] == 3.5


def test_output_check_fires_on_a_mismatched_digest():
    workload = WORKLOADS["paper_large"].scaled(SCALE)
    env, _ = run.synthesize(workload, seed=5)
    untraced = run.run_policy(workload, env, "venn")
    assert untraced.errors == []
    twin = run.run_traced(workload, env, untraced).run
    assert twin.errors == []
    untraced.digest = "0" * 32
    errors = run.check_run(twin, twin=untraced)
    assert len(errors) == 1 and "digest" in errors[0]


def test_sanity_checks_fire():
    workload = WORKLOADS["paper_large"].scaled(SCALE)
    env, _ = run.synthesize(workload, seed=5)
    good = run.run_policy(workload, env, "random")
    bad = run.PolicyRun(**{**good.__dict__, "row": dict(good.row)})
    bad.row["completion_rate"] = 1.5
    bad.jcts = [0.0]
    bad.assignments = 0
    errors = run.check_run(bad)
    assert len(errors) == 3, errors


def test_traced_policy_pickles_with_an_empty_tracer():
    # Module-level wrappers pickle (the traced run snapshots its simulator);
    # the tracer comes back empty.
    tracer = tracing.Tracer()
    tracer.call(tracing.ASSIGN, sum, [1, 2])
    policy = tracing.TracedPolicy(run.make_policy("venn", seed=1), tracer)
    clone = pickle.loads(pickle.dumps(policy))
    assert clone.name == "venn"
    assert isinstance(clone._inner.refresh_plan, tracing.TracedMethod)
    assert clone._tracer.spans[tracing.ASSIGN].calls == 0


def test_batch_protocols_keep_a_batching_engine_exact():
    # The engine's batched rails reach the policy only through the batch
    # protocols; a wrapper missing one would be bypassed or break them.
    if "vectorized_dispatch" not in SimulationConfig.__dataclass_fields__:
        pytest.skip("the engine has no batched rail")
    workload = WORKLOADS["paper_large"].scaled(SCALE)
    env, _ = run.synthesize(workload, seed=5)
    config = replace(
        workload.simulation_config(env.config), vectorized_dispatch=True
    )
    for name in POLICIES:
        untraced = run.run_policy(workload, env, name)
        tracer = tracing.Tracer()
        policy = tracing.TracedPolicy(run.new_policy(name, env), tracer)
        if name == "random":
            assert policy.assign_batch_bulk is None
        sim = Simulator(
            devices=env.devices,
            availability=env.availability,
            workload=env.workload,
            policy=policy,
            config=config,
        )
        sim.latency = tracing.TracedLatency(sim.latency, tracer)
        assert metrics_digest(sim.run()) == untraced.digest
        assert tracer.spans[tracing.ASSIGN].calls > 0
        assert tracer.spans[tracing.LATENCY].calls > 0


def test_cli_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    with open(os.path.join(run.ROOT, "perfbench", "run.py")) as src:
        (bench / "run.py").write_text(src.read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "paper_large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
