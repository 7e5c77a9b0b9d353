"""One benchmark client process: set up, then run one workload closed-loop.

``python3 -m perfbench.client --workload W --seed N --seconds T --trace 0|1``
(started by ``perfbench/run.py`` with ``src`` and the checkout root on
``PYTHONPATH``).  Set-up is the import of ``repro`` plus one discarded
warm-up iteration, timed from this module's first line.  Then it runs
iterations until ``T`` seconds have passed, at least one of each kind
(``--host`` first records the host block):

* ``--trace 0``: every iteration untraced; prints the raw samples that
  ``run.py`` pools over the run's client processes into end-to-end metrics.
* ``--trace 1``: untraced and traced iterations alternate; traced ones turn
  on the ``repro.obs`` tracer and the :class:`~perfbench.layers.LayerTimer`
  and give the per-layer metrics; the two medians give the tracing overhead.
  The spans are written out as a Chrome trace at the end.

Human-readable lines go first; the last stdout line is one JSON object.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def spread(values) -> str:
    """``n``, median and quartiles of a sample, for the human-readable lines."""
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} median={q2:.4g} q1={q1:.4g} q3={q3:.4g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--part", type=int, default=0,
                        help="which of the run's client processes this is (keeps inputs distinct)")
    parser.add_argument("--host", action="store_true", help="calibrate and print the host block")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (the timed import)

    from perfbench.host import host_block, usable_cores
    from perfbench.layers import LayerTimer
    from perfbench.workloads import WORKLOADS, Signatures
    from repro.obs import Tracer, disable_tracing, enable_tracing, validate_chrome_trace
    from repro.obs.export import chrome_trace_document, write_chrome_trace

    import_s = time.perf_counter() - _T0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    cores = usable_cores()
    jobs = cores if cores >= 2 else 1
    args.out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](
        args.scale, args.seed, jobs, args.out, Signatures(args.scale),
    )
    warmup = workload.iteration(0)
    setup_s = time.perf_counter() - _T0
    result = {"setup_s": setup_s, "import_s": import_s}

    host = None
    if args.host or args.trace:
        host = host_block(workload.scale["calibration_n"], jobs)
        print("HOST " + json.dumps(host, sort_keys=True))
        if host["campaign_jobs_fallback"] and args.workload.startswith("campaign"):
            print(f"FALLBACK campaigns ran at jobs=1 on a {cores}-core box: "
                  "no parallel dispatch was measured")

    tracer = Tracer()
    timer = LayerTimer(tracer)
    plain, traced = [], []
    start = time.perf_counter()
    index = 1 + args.part * 1_000_000
    while time.perf_counter() - start < args.seconds or not plain or (args.trace and not traced):
        if args.trace and len(traced) < len(plain):
            events_from = len(tracer.events)
            enable_tracing(tracer)
            timer.enable()
            timer.reset()
            try:
                outcome = workload.iteration(index, timer)
            finally:
                timer.disable()
                disable_tracing()
            gemm_s, gemm_flops = timer.gemm(events_from)
            outcome.layers.update(timer.layer_values(gemm_s, gemm_flops, host["gemm_gflops"]))
            traced.append(outcome)
        else:
            plain.append(workload.iteration(index))
        index += 1

    outcomes = [warmup] + plain + traced
    result["attempted"] = sum(o.attempted for o in outcomes)
    result["failed"] = sum(o.failed for o in outcomes)
    if args.trace:
        walls = [o.wall_s for o in plain]
        print(f"SAMPLES run_s untraced {spread(walls)}")
        print(f"SAMPLES run_s traced {spread([o.wall_s for o in traced])}")
        result["metrics"] = _layer_metrics(traced, walls, host)
        _check_layer_sum(workload, traced)
        trace_path = args.out.parent / f"trace-{args.workload}-seed{args.seed}.json"
        other = {"workload": args.workload, "seed": args.seed, "host": host}
        write_chrome_trace(trace_path, tracer, other_data=other)
        issues = validate_chrome_trace(chrome_trace_document(tracer, other))
        workload.checks.expect("chrome trace valid", not issues, "; ".join(issues[:3]))
        print(f"TRACE {trace_path} ({len(tracer.events)} events)")
    else:
        # Raw samples: run.py pools them over the run's client processes.
        result["samples"] = {
            "run_s": [o.wall_s for o in plain],
            "cosma_run_s": [o.cosma_s for o in plain],
            "runs_per_s": [o.runs / o.wall_s for o in plain],
        }
        result["ratios"] = [r for o in outcomes for r in o.ratios]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["checks"] = workload.checks.as_dict()
    print(json.dumps(result))
    return 0


def _layer_metrics(traced, untraced_walls, host) -> dict:
    """Per-layer medians over the traced iterations, plus counts and overhead."""
    names = sorted({name for o in traced for name in o.layers})
    metrics = {name: _median([o.layers.get(name, 0.0) for o in traced]) for name in names}
    for name in ("sweeps.worker_busy_s", "sweeps.worker_idle_fraction", "sweeps.worker_spawns",
                 "sweeps.retries", "store.resume_s"):
        metrics.setdefault(name, 0.0)
    counts = traced[0].counts
    for algorithm, (rounds, words, flops) in counts.items():
        metrics[f"machine.rounds.{algorithm}"] = rounds
        metrics[f"machine.words_sent.{algorithm}"] = words
        metrics[f"machine.flops.{algorithm}"] = flops
    traced_wall = _median([o.wall_s for o in traced])
    untraced_wall = _median(untraced_walls)
    metrics["obs.trace_overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    metrics["host.gemm_gflops"] = host["gemm_gflops"]
    return metrics


def _check_layer_sum(workload, traced) -> None:
    """Single runs: the per-layer self times must add up to the traced run_s."""
    if not workload.name.startswith("paper_"):
        workload.checks.skip(
            "layer self times sum to traced run_s",
            "campaign runs execute in worker processes the benchmark does not instrument",
        )
        return
    parts = ("api.verify_s", "algorithms.plan_s", "machine.build_s", "core.execute_s",
             "machine.conservation_s")
    layer_sum = sum(_median([o.layers[name] for o in traced]) for name in parts)
    wall = _median([o.wall_s for o in traced])
    error = abs(layer_sum - wall) / wall
    print(f"LAYERSUM {layer_sum:.4f}s of traced run_s {wall:.4f}s ({100 * error:.2f}% apart)")
    workload.checks.expect(
        "layer self times sum to traced run_s", error <= 0.05,
        f"layers {layer_sum:.4f}s vs run_s {wall:.4f}s",
    )


if __name__ == "__main__":
    sys.exit(main())
