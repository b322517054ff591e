"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""
import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest

import heatlab as hl
from perfbench import harness, run, tracing
from perfbench.workloads import WORKLOADS

ROOT = harness.ROOT


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().splitlines()[-1])


def test_declared_names_match_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(tracing.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    spec = _spec()
    result = _run("--workload", "cli-calls", "--seed", "3",
                  "--seconds", "0", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in declared}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    if trace == "1":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["verify.checks"] > 0 and m["verify.failed_checks"] == 0
        # self times cover the traced time, minus the benchmark's own glue
        assert m["trace.self_sum_s"] <= m["trace.wall_s"]
        assert m["trace.self_sum_s"] >= 0.9 * m["trace.wall_s"]


def test_forced_failures_count_and_do_not_abort():
    def boom():
        raise RuntimeError("forced")

    def declared():
        raise hl.errors.KrylovBreakdown("forced")

    tasks = [harness.Task("ok", lambda: 1, lambda out: out == 1),
             harness.Task("raises", boom, lambda out: True),
             harness.Task("declared", declared, lambda out: True),
             harness.Task("misses", lambda: 2, lambda out: out == 1),
             harness.Task("bad-check", lambda: None, lambda out: out[0]),
             harness.Task("ok-again", lambda: 1, lambda out: out == 1)]
    outcomes = harness.run_pass(tasks)
    assert [o.error for o in outcomes] == [
        None, "RuntimeError", "KrylovBreakdown", "check", "check", None]
    assert [o.declared for o in outcomes] == [
        True, False, True, True, True, True]
    metrics, details = harness.end_to_end([outcomes], [1.0], 1.0)
    assert details["fail_ratio"] == pytest.approx(4 / 6)
    assert metrics["pass_ratio"] == pytest.approx(2 / 6)
    # failed tasks rank above every finished one
    assert metrics["task_p50_ms"] == pytest.approx(
        1000 * sum(o.seconds for o in outcomes))
    assert harness.failures_by_task([outcomes])["raises"] == {
        "RuntimeError": 1}


def _digest(obj):
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, _digest(getattr(obj, f.name)))
            for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(_digest(x) for x in obj)
    if isinstance(obj, float):
        return obj.hex()
    return obj


def _recording(tasks, outputs):
    """The tasks, with each call's output appended to ``outputs``."""
    def record(call):
        outputs.append(call())
        return outputs[-1]
    return [harness.Task(t.label, lambda call=t.call: record(call), t.check)
            for t in tasks]


def test_traced_and_untraced_outputs_are_identical(tmp_path):
    workload = WORKLOADS["perturb-ladder"]
    state = workload.prepare(workload.setup(5, tmp_path), tmp_path)
    original = hl.perturbation.sg_apply
    plain_out, traced_out = [], []
    plain = harness.run_pass(_recording(workload.tasks(state), plain_out))
    tracer = tracing.Tracer()
    with tracer.installed():
        assert hl.perturbation.sg_apply is not original
        traced = harness.run_pass(
            _recording(workload.tasks(state), traced_out), tracer)
    assert hl.perturbation.sg_apply is original
    assert [o.error for o in plain] == [o.error for o in traced] \
        == [None] * len(plain)
    assert [_digest(x) for x in plain_out] == [_digest(x) for x in traced_out]
    assert {s.task for s in tracer.spans} == {o.label for o in traced}


def test_imported_names_become_child_spans():
    g = hl.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    op = hl.assemble(g)
    tracer = tracing.Tracer()
    with tracer.installed():
        tracer.task = "t"
        hl.rate_kernel(op, 0, 1, hl.TimeGrid.geometric(1.0, 2.0, 4))
        tracer.task = None
    names = {s.name: s for s in tracer.spans}
    chain = ["semigroup.pade13_expm", "semigroup.heat_kernel",
             "asymptotics.kernel_factorization_defects",
             "asymptotics.rate_kernel"]
    for child, parent in zip(chain, chain[1:]):
        assert tracer.spans[names[child].parent].name == parent
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["operators.eigendecompose.calls"] == 2
    assert metrics["operators.eigendecompose.hit_ratio"] == 0.5
    assert metrics["semigroup.pade13_expm.calls"] == 1
    assert 0 < metrics["asymptotics.rate_kernel.check_share"] < 1


def test_checks_reject_perturbed_answers(tmp_path):
    workload = WORKLOADS["longtime-path"]
    state = workload.prepare(workload.setup(1, tmp_path), tmp_path)
    tasks = {t.label: t for t in workload.tasks(state)}
    for label in ("path/apply/spectral/t=1", "star/apply/spectral/t=10",
                  "path/resolvent", "star/strong_convergence_check"):
        out = tasks[label].call()
        assert tasks[label].check(out)
        assert not tasks[label].check(out * (1 + 1e-6))
