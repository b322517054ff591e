"""heatlab benchmark: one command for every workload and metric.

Usage, from the repository root::

    python3 perfbench/run.py --workload longtime-path --seed 1 --seconds 30 --trace 0

The run is single-process and closed loop: each task starts when the
previous one has ended, and BLAS keeps its default thread count.  The
seed generates every input; heatlab sees only the generated graphs,
vectors and files (``cli-calls`` also draws the seeds that the
verification battery's sections take).  Each task's output is checked
against an independent route outside the timed region; a task that
raises or misses its check fails, and the run goes on.

``--trace 0`` repeats passes over the workload's task list while the
next one fits in ``--seconds`` and prints the end-to-end metrics:

* ``setup_s``: median over five fresh processes of the time from spawn
  to inputs generated, validated and assembled (``import heatlab``
  included);
* ``wall_s``: time of one pass, each task taken at its median time
  across the run's passes;
* ``task_p50_ms`` and ``task_tail_ms``: median task latency and the
  highest percentile with ten tasks of a pass beyond it (percentile and
  task count are printed alongside), each task again at its median
  across passes; a failed task ranks above all;
* ``pass_ratio``: share of attempted tasks that neither raised nor
  missed their check (``fail_ratio`` is one minus it);
* ``peak_rss_mb``: peak resident memory of the process that ran the
  tasks (for cli-calls, of the largest CLI process; its in-process
  battery sections hold far less).

``--trace 1`` runs a warm-up pass, then untraced and traced passes in
turn for ``--seconds``, wraps heatlab's public functions in spans and
prints the per-layer metrics of ``tracing.PER_LAYER``: those of the
traced set-up and the first traced pass, and ``trace_overhead_ratio``
over all pairs.  For cli-calls both kinds of pass call
``heatlab.cli.main`` in-process.

The last line of standard output is the result JSON; the line before it
holds details (environment, failures by task and layer).  Both, and the
spans of a traced run, are also written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "heatlab").is_dir():
    sys.exit(f"no heatlab sources under {ROOT / 'src'}")
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import harness, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3


def untraced(workload, seed, seconds, state):
    passes = harness.measure(lambda: workload.tasks(state), seconds)
    # read before the set-up samples, which are child processes too
    rss = harness.peak_rss_mb(children=workload.in_children)
    setup = harness.sample_setup(workload.name, seed, SETUP_SAMPLES)
    metrics, details = harness.end_to_end(passes, setup, rss)
    details["failures_by_task"] = harness.failures_by_task(passes)
    return passes, metrics, details


def traced(workload, state, tracer, setup_seconds, seconds):
    """Untraced and traced passes in turn while the next pair fits in
    ``seconds`` (at least one pair); spans come from the first traced one."""
    in_process = workload.in_children
    harness.run_pass(workload.tasks(state, in_process))  # warm-up, discarded
    plain, spanned = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(harness.run_pass(workload.tasks(state, in_process)))
        recorder = tracer if not spanned else tracing.Tracer()
        with recorder.installed():
            spanned.append(harness.run_pass(
                workload.tasks(state, in_process), recorder))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            break
    first = spanned[0]
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["cli.import_s"] = statistics.median(
        harness.sample_import(IMPORT_SAMPLES))
    for sub in tracing.SUBCOMMANDS:
        calls = [o.seconds for o in first
                 if in_process and o.label.split("/")[0] == sub]
        metrics[f"cli.{sub}.wall_ms"] = (1000.0 * statistics.median(calls)
                                         if calls else 0.0)
    metrics["cli.artifact_bytes"] = (workload.artifact_bytes(state)
                                     if in_process else 0)
    metrics["trace.wall_s"] = setup_seconds + sum(o.seconds for o in first)
    metrics["trace.self_sum_s"] = sum(metrics[f"{m}.self_s"]
                                      for m in tracing.MODULES)
    metrics["trace_overhead_ratio"] = (harness.typical_wall(spanned)
                                       / harness.typical_wall(plain))
    details = {"failures_by_layer": tracing.failures_by_layer(tracer.spans),
               "failures_by_task": harness.failures_by_task(plain + spanned),
               "pairs": len(plain)}
    return plain + spanned, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        if args.setup_only:
            workload.setup(args.seed, workdir)
            print("ready", flush=True)
            return 0
        tracer = tracing.Tracer()
        start = time.perf_counter()
        if args.trace:
            tracer.task = "setup"
            with tracer.installed():
                inputs = workload.setup(args.seed, workdir)
            tracer.task = None
        else:
            inputs = workload.setup(args.seed, workdir)
        setup_seconds = time.perf_counter() - start
        state = workload.prepare(inputs, workdir)
        if args.trace:
            passes, metrics, details = traced(workload, state, tracer,
                                              setup_seconds, args.seconds)
            names = tracing.PER_LAYER
        else:
            passes, metrics, details = untraced(workload, args.seed,
                                                args.seconds, state)
            names = harness.END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [o for p in passes for o in p]
    result = {
        "correct": all(o.declared and (o.error != "check"
                                       or o.label in workload.known_wrong)
                       for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in names},
    }
    details = {"workload": workload.name, "trace": args.trace,
               "environment": harness.environment(args.seed), **details}
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(
        json.dumps({"details": details, "result": result}, indent=1))
    if args.trace:
        tracer.dump(stem.with_name(stem.name + "-spans.json"))
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
