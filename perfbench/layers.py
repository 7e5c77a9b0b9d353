"""Per-layer timing for the traced run, recorded from the benchmark's side.

While enabled, :class:`LayerTimer` wraps the public entry point of each
layer -- ``AlgorithmSpec.plan`` / ``AlgorithmSpec.run`` (algorithms, core,
baselines), ``DistributedMachine.__init__`` and
``CommCounters.assert_conservation`` (machine) and ``ResultStore.put``
(sweeps store) -- and the benchmark opens spans of its own around
``api.multiply`` and ``run_campaign``.  Spans nest; each one's *self* time
(its duration minus its children's) is summed per layer name, so the layers
of one call add up to the call.  Every span is also appended to the
:mod:`repro.obs` tracer, whose ``gemm`` track (COSMA's batched plane GEMMs)
splits execution into GEMM and counter accounting; the tracer is exported
as a Chrome trace when the run ends.

Only the benchmark process is instrumented: campaign workers run their
algorithms out of sight, so on campaign workloads the algorithm layers show
the benchmark's own in-process COSMA pass and the supervisor's pruning.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager

from repro.algorithms import AlgorithmSpec
from repro.machine import CommCounters, DistributedMachine
from repro.obs import Tracer
from repro.sweeps import ResultStore

#: Registry name -> the module that implements it (per-layer metric names).
ALGORITHM_LAYERS = {
    "COSMA": "core.cosma",
    "ScaLAPACK": "baselines.summa",
    "CTF": "baselines.grid25d",
    "CARMA": "baselines.carma",
    "Cannon": "baselines.cannon",
}


class LayerTimer:
    """Self-time accounting over nested spans, mirrored into an obs tracer."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start_ns, children_ns]
        self._patched: list[tuple] = []

    # -- spans --------------------------------------------------------------
    def push(self, name: str) -> None:
        self._stack.append([name, self.tracer.now_ns(), 0])

    def pop(self) -> None:
        name, start, children = self._stack.pop()
        duration = self.tracer.now_ns() - start
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[name] += (duration - children) / 1e9
        self.calls[name] += 1
        self.tracer.complete(name, "layer", start, duration, track="layers")

    @contextmanager
    def span(self, name: str):
        self.push(name)
        try:
            yield
        finally:
            self.pop()

    def reset(self) -> None:
        """Start a new iteration's accounting (spans keep going to the tracer)."""
        self.self_s.clear()
        self.calls.clear()

    # -- entry-point wrapping ------------------------------------------------
    def _wrap(self, owner, attr: str, namer) -> None:
        original = owner.__dict__[attr]
        timer = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            timer.push(namer(args))
            try:
                return original(*args, **kwargs)
            finally:
                timer.pop()

        setattr(owner, attr, timed)
        self._patched.append((owner, attr, original))

    def enable(self) -> None:
        if self._patched:
            return
        self._wrap(AlgorithmSpec, "plan", lambda args: "algorithms.plan")
        self._wrap(AlgorithmSpec, "run", lambda args: f"run:{args[0].name}")
        self._wrap(DistributedMachine, "__init__", lambda args: "machine.build")
        self._wrap(CommCounters, "assert_conservation", lambda args: "machine.conservation")
        self._wrap(ResultStore, "put", lambda args: "store.put")

    def disable(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- per-iteration layer values ---------------------------------------------
    def gemm(self, events_from: int) -> tuple[float, float]:
        """``(seconds, flops)`` of the ``gemm`` track since event ``events_from``."""
        seconds = flops = 0.0
        for name, cat, _ts, dur, args, track in self.tracer.events[events_from:]:
            if track == "gemm" and dur is not None:
                seconds += dur / 1e9
                flops += 2.0 * args["m"] * args["n"] * args["k"]
        return seconds, flops

    def layer_values(self, gemm_s: float, gemm_flops: float, host_gflops: float) -> dict:
        """This iteration's per-layer seconds, named after the repo's modules."""
        run_s = {alg: self.self_s.get(f"run:{alg}", 0.0) for alg in ALGORITHM_LAYERS}
        execute_s = sum(run_s.values())
        gemm_gflops = gemm_flops / gemm_s / 1e9 if gemm_s > 0 else 0.0
        values = {
            "api.verify_s": self.self_s.get("api.multiply", 0.0),
            "algorithms.plan_s": self.self_s.get("algorithms.plan", 0.0),
            "machine.build_s": self.self_s.get("machine.build", 0.0),
            "core.execute_s": execute_s,
            "core.gemm_s": gemm_s,
            "core.gemm_gflops": gemm_gflops,
            "core.gemm_fraction": gemm_gflops / host_gflops if host_gflops > 0 else 0.0,
            "machine.accounting_s": execute_s - gemm_s,
            "machine.conservation_s": self.self_s.get("machine.conservation", 0.0),
            "store.put_s": self.self_s.get("store.put", 0.0),
            "store.puts": self.calls.get("store.put", 0),
        }
        for alg, layer in ALGORITHM_LAYERS.items():
            values[f"{layer}.run_s"] = run_s[alg]
        return values

