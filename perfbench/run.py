"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1``.

Run from the root of a checkout.  Workloads and metrics are declared in
``BENCHMARK.json``; ``perfbench/README.md`` says what each one measures.

This script imports nothing from ``src``.  It starts fresh
``python3 -m perfbench.client`` processes against the checkout's ``src``
tree, one after another, and waits for each (and anything it spawned) to
end:

* ``--trace 0``: three clients, each timing its own set-up and measuring
  for a third of ``--seconds``; the metrics are medians over the pooled
  samples (``setup_s`` over the three set-ups).
* ``--trace 1``: one client for the whole ``--seconds`` (per-layer metrics).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without the checkout's ``src/repro`` package the
script exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.client import spread  # noqa: E402  (stdlib-only at import)

#: Client processes per --trace 0 run.  Each sets up (timed) and measures a
#: third of the run, so per-process effects average out of the medians.
CLIENTS = 3
#: Every run must end within 180s; leave room for process teardown.
BUDGET_S = 170.0


def _run_client(argv: list[str], env: dict, deadline: float) -> dict:
    """Run one client in its own session; return its result object.

    The client's human-readable lines are echoed; the process group is
    killed and reaped afterwards so no campaign worker outlives the run.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "perfbench.client", *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        _kill_group(proc.pid)
    if stdout is None:
        proc.wait()
        raise SystemExit(f"perfbench: client {argv} exceeded the time budget")
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: client {argv} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left of a client's process group and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(100):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _print_checks(per_client: list[dict]) -> bool:
    """Merge the clients' check tallies, print them, and return whether all passed."""
    passed: dict[str, int] = {}
    failed: dict[str, list] = {}
    skipped: dict[str, str] = {}
    for checks in per_client:
        for name, count in checks["passed"].items():
            passed[name] = passed.get(name, 0) + count
        for name, details in checks["failed"].items():
            failed.setdefault(name, []).extend(details)
        skipped.update(checks["skipped"])
    for name in sorted(set(passed) | set(failed)):
        if name in failed:
            print(f"CHECK FAIL {name}: {len(failed[name])} failed, e.g. {failed[name][0]}")
        else:
            print(f"CHECK PASS {name} x{passed[name]}")
    for name, reason in sorted(skipped.items()):
        print(f"CHECK SKIPPED {name}: {reason}")
    return not failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="COSMA reproduction benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper",
                        help="problem sizes; 'tiny' is for the self-test only")
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + BUDGET_S

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro package under {ROOT}; nothing to benchmark",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = config["per_layer"] if args.trace else config["end_to_end"]

    work = ROOT / ".perfbench_out"
    out = work / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = str(tmp)
    client_args = [
        "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
        "--scale", args.scale, "--out", str(out),
    ]
    parts = 1 if args.trace else CLIENTS
    try:
        results = [
            _run_client(
                client_args + ["--seconds", str(args.seconds / parts), "--part", str(part)]
                + (["--host"] if part == 0 else []),
                env, deadline,
            )
            for part in range(parts)
        ]
    finally:
        shutil.rmtree(out, ignore_errors=True)

    correct = _print_checks([r["checks"] for r in results])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        metrics = results[0]["metrics"]
    else:
        metrics = {"setup_s": statistics.median(r["setup_s"] for r in results)}
        print("SAMPLES setup_s " + spread([r["setup_s"] for r in results]))
        for name in ("run_s", "cosma_run_s", "runs_per_s"):
            pooled = [value for r in results for value in r["samples"][name]]
            metrics[name] = statistics.median(pooled)
            print(f"SAMPLES {name} {spread(pooled)}")
        metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in results)
        metrics["ok_fraction"] = 1.0 - failed / max(1, attempted)
        ratios = [ratio for r in results for ratio in r["ratios"]]
        metrics["optimality_ratio"] = statistics.fmean(ratios) if ratios else 0.0
    report = {}
    for entry in declared:
        name = entry["name"]
        if name not in metrics:
            print(f"perfbench: the client did not measure {name}", file=sys.stderr)
            return 1
        report[name] = {"value": metrics[name], "unit": entry["unit"]}
        print(f"METRIC {args.workload} {name} = {metrics[name]:.6g} {entry['unit']}")
    print(f"failed_fraction = {failed / max(1, attempted):.6g} ({failed} of {attempted} operations)")
    print(f"elapsed {time.monotonic() - start:.1f}s")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
