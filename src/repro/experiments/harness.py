"""Benchmark harness: run any algorithm on any scenario and collect metrics.

The harness plays the role of the paper's job scripts + mpiP profiling: it
builds a fresh :class:`~repro.machine.simulator.DistributedMachine` for every
(algorithm, scenario) pair, generates the input matrices, runs the algorithm,
verifies the numerical result with Freivalds' probe check
(:func:`~repro.machine.transport.verify_product`: ``C X`` against
``A (B X)`` within a rounding-error bound, no reference ``A @ B``) and records
the communication counters.  Every run additionally asserts word conservation
(every word sent was received by exactly one rank).

Runs accept a ``mode`` (``legacy`` / ``zerocopy`` / ``volume``, see
:mod:`repro.machine.transport`).  In volume mode the inputs are shape tokens
-- no matrices are generated or multiplied -- so numerical verification is
skipped; all communication counters are identical to the other modes, which
is what allows sweeps at the paper's true scale.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.algorithms import ALGORITHMS, DEFAULT_ALGORITHMS, get_algorithm
from repro.machine.simulator import DistributedMachine
from repro.machine.transport import MODES, ShapeToken, verify_product
from repro.obs.trace import active_tracer
from repro.workloads.scaling import Scenario

@dataclass
class AlgorithmRun:
    """Metrics of one algorithm execution on one scenario."""

    algorithm: str
    scenario: Scenario
    #: Whether the result passed :func:`~repro.machine.transport.verify_product`
    #: -- True when verification was skipped (see ``verified``).
    correct: bool
    #: Average words moved (sent + received) per rank -- Table 4's metric.
    mean_words_per_rank: float
    #: Average words *received* per rank -- the quantity the I/O theory bounds.
    mean_received_per_rank: float
    #: Maximum words moved through any rank (critical path).
    max_words_per_rank: int
    #: Maximum words received by any rank.
    max_received_per_rank: int
    #: Maximum flops executed by any rank.
    max_flops_per_rank: int
    total_flops: int
    #: Maximum number of communication rounds on any rank (latency proxy).
    rounds: int
    #: Mean words attributable to the input matrices / the output matrix.
    input_words_per_rank: float
    output_words_per_rank: float
    #: Number of messages on the busiest rank.
    max_messages_per_rank: int
    #: Execution mode the run used (``legacy`` / ``zerocopy`` / ``volume``).
    mode: str = "legacy"
    #: Whether the numerical result was actually checked (Freivalds' probe
    #: check against ``A (B X)``).
    verified: bool = True

    @property
    def mean_megabytes_per_rank(self) -> float:
        return self.mean_words_per_rank * 8.0 / 1e6

    @property
    def p(self) -> int:
        return self.scenario.p


@dataclass
class RunFailure:
    """Structured record of one run that raised instead of completing.

    Sweep campaigns must not abort wholesale because one (algorithm,
    scenario) point is infeasible -- e.g. a memory size too small for any
    schedule.  :func:`run_algorithm_safe` converts the exception into this
    record so the campaign runner (and the result store) can persist it and
    keep going.

    The taxonomy fields below are filled in by the campaign supervisor
    (:mod:`repro.sweeps.runner`) when a run is quarantined after exhausting
    its retry budget: how many attempts were made, how long they took, the
    signal that killed the worker (``9`` for a SIGKILL/OOM death, ``None``
    when the run failed in-process), the tail of the worker's traceback and
    whether the final error class was considered retryable at all.
    """

    algorithm: str
    scenario: Scenario
    mode: str
    error_type: str
    error_message: str
    #: Execution attempts made before this failure became final.
    attempts: int = 1
    #: Wall-clock seconds spent across all attempts (0.0 when unknown).
    duration_s: float = 0.0
    #: Signal number that killed the worker process, if it died hard.
    exit_signal: int | None = None
    #: Last lines of the worker-side traceback (empty for clean captures).
    traceback_tail: str = ""
    #: Whether the error class was retryable under the campaign's policy.
    retryable: bool = False

    @property
    def correct(self) -> bool:
        return False


AlgorithmFn = Callable[[np.ndarray, np.ndarray, Scenario, DistributedMachine], np.ndarray]

# ``ALGORITHMS`` and ``DEFAULT_ALGORITHMS`` are re-exported from
# :mod:`repro.algorithms` for backward compatibility: the hard-coded closure
# dict that used to live here became the registry's mapping view.  The COSMA
# delta heuristic that was inlined here is now
# :func:`repro.algorithms.cosma_idle_fraction`, shared with the API and CLI.


def run_algorithm(
    name: str,
    scenario: Scenario,
    seed: int = 0,
    verify: bool = True,
    mode: str = "legacy",
    compress_rounds: bool = False,
    shards: int = 1,
    plane_dtype: str = "float64",
) -> AlgorithmRun:
    """Run one algorithm on one scenario and collect its metrics.

    ``name`` may be any registered algorithm name or alias
    (:mod:`repro.algorithms`); the returned run carries the canonical name.
    ``mode`` selects the payload transport; in ``"volume"`` mode the inputs
    are shape tokens and numerical verification is skipped (counters only).
    ``compress_rounds`` opts into steady-state round compression (effective
    in volume mode only; counters are byte-identical either way, see
    :class:`~repro.machine.counters.RoundCompressor`).  ``shards`` shards
    the plane engine's numeric GEMMs over worker processes
    (:mod:`repro.machine.shard`; counters are byte-identical across shard
    counts) and ``plane_dtype`` selects the numeric payload dtype
    (verification uses the dtype's rounding-error bound).  Every run
    ends with a word-conservation assertion
    (:meth:`~repro.machine.counters.CommCounters.assert_conservation`).
    """
    spec = get_algorithm(name)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    if not spec.supports_mode(mode):
        raise ValueError(f"{spec.name} does not support mode {mode!r}; supported: {spec.modes}")
    shape = scenario.shape
    if mode == "volume":
        a_matrix: np.ndarray | ShapeToken = ShapeToken((shape.m, shape.k))
        b_matrix: np.ndarray | ShapeToken = ShapeToken((shape.k, shape.n))
    else:
        a_matrix, b_matrix = shape.random_matrices(seed=seed)
    machine = DistributedMachine(
        scenario.p, memory_words=scenario.memory_words, mode=mode,
        compress_rounds=compress_rounds, shards=shards, plane_dtype=plane_dtype,
    )
    options: dict = {}
    if spec.name == "COSMA":
        # Hand the memoized planned grid to the executor so the fitting
        # search runs once per scenario, not once per (mode, repeat) -- the
        # same handshake api.multiply performs.  Planning failures fall
        # through to the executor so error behaviour is unchanged.
        try:
            run_plan = spec.plan(scenario)
        except Exception:  # noqa: BLE001 - the run itself reports the error
            run_plan = None
        if run_plan is not None and run_plan.feasible and run_plan.grid is not None:
            options["grid"] = run_plan.grid
    tracer = active_tracer()
    run_span = (
        tracer.span(
            f"run:{spec.name}", cat="run",
            args={
                "algorithm": spec.name, "scenario": scenario.name,
                "p": scenario.p, "mode": mode,
            },
            track="run",
        )
        if tracer is not None
        else nullcontext()
    )
    with run_span:
        product = spec.run(a_matrix, b_matrix, scenario, machine, **options)
        if machine.trace is not None:
            # Flush activity after the last round boundary (or the whole run,
            # for algorithms that never mark one) into a final round span.
            machine.trace.commit_round(machine.peak_resident_words)
    verified = bool(verify) and mode != "volume"
    correct = verify_product(a_matrix, b_matrix, product) if verified else True
    machine.counters.assert_conservation()
    counters = machine.counters
    return AlgorithmRun(
        algorithm=spec.name,
        scenario=scenario,
        correct=correct,
        mode=mode,
        verified=verified,
        mean_words_per_rank=counters.mean_words_per_rank(),
        mean_received_per_rank=counters.mean_received_per_rank(),
        max_words_per_rank=counters.max_words_per_rank(),
        max_received_per_rank=counters.max_received_per_rank(),
        max_flops_per_rank=counters.max_flops_per_rank(),
        total_flops=counters.total_flops,
        rounds=counters.max_rounds(),
        input_words_per_rank=counters.mean_input_words_per_rank(),
        output_words_per_rank=counters.mean_output_words_per_rank(),
        max_messages_per_rank=counters.max_messages_per_rank(),
    )


def run_algorithm_safe(
    name: str,
    scenario: Scenario,
    seed: int = 0,
    verify: bool = True,
    mode: str = "legacy",
    compress_rounds: bool = False,
    shards: int = 1,
    plane_dtype: str = "float64",
) -> AlgorithmRun | RunFailure:
    """Like :func:`run_algorithm` but captures failures as :class:`RunFailure`.

    Unknown algorithm names and unknown modes still raise (those are caller
    bugs, not scenario properties); everything raised while executing the
    scenario -- infeasible memory, schedule errors, conservation violations --
    comes back as a structured record.
    """
    name = get_algorithm(name).name  # raises UnknownAlgorithmError (a KeyError)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {MODES}")
    try:
        return run_algorithm(
            name, scenario, seed=seed, verify=verify, mode=mode,
            compress_rounds=compress_rounds, shards=shards, plane_dtype=plane_dtype,
        )
    except Exception as exc:  # noqa: BLE001 - the point is to capture anything
        return RunFailure(
            algorithm=name,
            scenario=scenario,
            mode=mode,
            error_type=type(exc).__name__,
            error_message=str(exc),
        )


def run_scenario(
    scenario: Scenario,
    algorithms: Iterable[str] = DEFAULT_ALGORITHMS,
    seed: int = 0,
    verify: bool = True,
    mode: str = "legacy",
    compress_rounds: bool = False,
) -> dict[str, AlgorithmRun]:
    """Run several algorithms on the same scenario (same input matrices)."""
    return {
        name: run_algorithm(
            name, scenario, seed=seed, verify=verify, mode=mode,
            compress_rounds=compress_rounds,
        )
        for name in algorithms
    }


def sweep(
    scenarios: Iterable[Scenario],
    algorithms: Iterable[str] = DEFAULT_ALGORITHMS,
    seed: int = 0,
    verify: bool = True,
    mode: str = "legacy",
    on_error: str = "raise",
    compress_rounds: bool = False,
) -> list[AlgorithmRun | RunFailure]:
    """Run the full cross product of scenarios and algorithms.

    ``on_error="capture"`` records a :class:`RunFailure` for any point that
    raises and keeps sweeping; the default ``"raise"`` preserves the historic
    fail-fast behaviour.
    """
    if on_error not in ("raise", "capture"):
        raise ValueError(f"on_error must be 'raise' or 'capture', got {on_error!r}")
    algorithms = tuple(algorithms)
    runner = run_algorithm if on_error == "raise" else run_algorithm_safe
    runs: list[AlgorithmRun | RunFailure] = []
    for scenario in scenarios:
        for name in algorithms:
            runs.append(
                runner(
                    name, scenario, seed=seed, verify=verify, mode=mode,
                    compress_rounds=compress_rounds,
                )
            )
    return runs


def group_by_scenario(runs: Iterable[AlgorithmRun]) -> Mapping[str, dict[str, AlgorithmRun]]:
    """Group a flat list of runs into ``{scenario name: {algorithm: run}}``."""
    grouped: dict[str, dict[str, AlgorithmRun]] = {}
    for run in runs:
        grouped.setdefault(run.scenario.name, {})[run.algorithm] = run
    return grouped
