"""The four closed-loop workloads: one client process, one operation at a time.

Each iteration is seeded and split into inputs -> run -> verify.  Inputs
come from ``numpy.random.default_rng([seed, iteration])`` (single runs) or a
campaign seed derived the same way, so no iteration repeats an earlier one's
``(shape, seed)`` and the program's input and reference caches cannot turn
later iterations into cache hits.  Single runs go through ``api.multiply``
with ``mode="plane"`` or ``"volume"``; campaigns through ``run_campaign``
with a ``SweepSpec`` into a fresh ``ResultStore``.

Every operation's counter signature ``(rounds, mean received words per
rank, total flops)`` is compared with the values pinned in
``signatures.json``; a missing pin fails the check instead of skipping it.
"""

from __future__ import annotations

import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import api
from repro.machine import ConservationError, ShapeToken
from repro.sweeps import ResultStore, SweepSpec, run_campaign

from perfbench.layers import LayerTimer

ALGORITHMS = ("COSMA", "ScaLAPACK", "CTF", "CARMA", "Cannon")
SIGNATURES_FILE = Path(__file__).with_name("signatures.json")

#: Problem sizes per scale.  ``paper`` is what the benchmark measures;
#: ``tiny`` exists for the self-test.  A point is ``(m, n, k, p, S)``.
SCALES = {
    "paper": {
        # The paper's limited-memory point: 137.5 GFLOP, S = 101000 words.
        "plane_point": (4096, 4096, 4096, 1024, 101_000),
        # The same point plus the largeK family's limited-memory point at
        # p = 256, which keeps an iteration of ten volume runs near 3.5s.
        "volume_points": ((4096, 4096, 4096, 1024, 101_000), (625, 625, 10_000, 256, 101_000)),
        "campaign_volume": {
            "families": ("square", "largeK", "largeM", "flat"),
            "regimes": ("limited", "extra"),
            "p_values": (16, 64, 144, 256),
            "memory_words": 2048,
        },
        "campaign_plane": {
            "families": ("square", "flat"),
            "regimes": ("limited",),
            "p_values": (16, 64, 256),
            "memory_words": 16384,
        },
        "calibration_n": 2048,
    },
    "tiny": {
        "plane_point": (256, 256, 256, 16, 16384),
        "volume_points": ((256, 256, 256, 16, 16384), (64, 64, 1024, 16, 16384)),
        "campaign_volume": {
            "families": ("square", "flat"),
            "regimes": ("limited",),
            "p_values": (4, 16),
            "memory_words": 2048,
        },
        "campaign_plane": {
            "families": ("square",),
            "regimes": ("limited",),
            "p_values": (4, 16),
            "memory_words": 2048,
        },
        "calibration_n": 256,
    },
}


def signature_key(algorithm: str, m: int, n: int, k: int, p: int, s: int) -> str:
    return f"{algorithm}@{m}x{n}x{k}/p{p}/S{s}"


class Checks:
    """Named correctness checks: PASS / FAIL counts, and SKIPPED with a reason."""

    def __init__(self) -> None:
        self.passed: dict[str, int] = {}
        self.failed: dict[str, list[str]] = {}
        self.skipped: dict[str, str] = {}

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        if ok:
            self.passed[name] = self.passed.get(name, 0) + 1
        else:
            self.failed.setdefault(name, []).append(detail)

    def skip(self, name: str, reason: str) -> None:
        self.skipped[name] = reason

    def as_dict(self) -> dict:
        return {"passed": self.passed, "failed": self.failed, "skipped": self.skipped}


class Signatures:
    """Pinned counter signatures; ``record=True`` collects them instead (pinning)."""

    def __init__(self, scale: str, record: bool = False) -> None:
        self.record = record
        self.table: dict[str, list] = {}
        if not record:
            self.table = json.loads(SIGNATURES_FILE.read_text())[scale]

    def check(self, checks: Checks, key: str, rounds: int, received: float, flops: int) -> None:
        signature = [int(rounds), float(received), int(flops)]
        if self.record:
            self.table[key] = signature
            return
        pinned = self.table.get(key)
        checks.expect(
            "counter signature", pinned == signature,
            f"{key}: got {signature}, pinned {pinned}",
        )


@dataclass
class Outcome:
    """What one iteration measured."""

    #: The run_s sample: the multiply call(s) or the campaign, wall seconds.
    wall_s: float = 0.0
    #: Runs inside ``wall_s`` (the runs_per_s numerator).
    runs: int = 0
    #: Seconds of the iteration's COSMA calls alone.
    cosma_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    #: COSMA's received words per rank over the Theorem 2 bound, per COSMA run.
    ratios: list[float] = field(default_factory=list)
    #: Exact per-algorithm counts: algorithm -> [rounds, words sent, flops].
    counts: dict[str, list[int]] = field(
        default_factory=lambda: {alg: [0, 0, 0] for alg in ALGORITHMS}
    )
    #: Per-layer values this iteration measured (filled on traced iterations).
    layers: dict[str, float] = field(default_factory=dict)

    def count(self, algorithm: str, rounds: int, words: int, flops: int) -> None:
        row = self.counts[algorithm]
        row[0] += int(rounds)
        row[1] += int(words)
        row[2] += int(flops)


class Workload:
    """Base class: one operation helper shared by every workload."""

    name = ""

    def __init__(self, scale: str, seed: int, jobs: int, out_dir: Path,
                 signatures: Signatures) -> None:
        self.scale = SCALES[scale]
        self.seed = seed
        self.jobs = jobs
        self.out_dir = out_dir
        self.signatures = signatures
        self.checks = Checks()

    def rng(self, iteration: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, iteration])

    def iteration(self, index: int, timer: LayerTimer | None = None) -> Outcome:
        raise NotImplementedError

    def multiply(self, outcome: Outcome, point, algorithm: str, mode: str,
                 timer: LayerTimer | None, rng: np.random.Generator | None = None):
        """One ``api.multiply`` call with its checks; returns its wall seconds."""
        m, n, k, p, s = point
        key = signature_key(algorithm, m, n, k, p, s)
        if mode == "volume":
            a, b = ShapeToken((m, k)), ShapeToken((k, n))
        else:
            a = rng.uniform(-1.0, 1.0, (m, k))
            b = rng.uniform(-1.0, 1.0, (k, n))
        outcome.attempted += 1
        span = timer.span("api.multiply") if timer is not None else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                report = api.multiply(a, b, p, s, algorithm=algorithm, mode=mode)
        except ConservationError as exc:
            elapsed = time.perf_counter() - start
            outcome.failed += 1
            self.checks.expect("word conservation", False, f"{key}: {exc}")
            return elapsed
        except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
            elapsed = time.perf_counter() - start
            outcome.failed += 1
            self.checks.expect("multiply completes", False, f"{key}: {type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        self.checks.expect("multiply completes", True)
        self.checks.expect("word conservation", True)
        self.signatures.check(
            self.checks, key, report.rounds, report.mean_received_per_rank, report.total_flops,
        )
        outcome.count(algorithm, report.rounds, report.total_communicated_words, report.total_flops)
        if algorithm == "COSMA":
            outcome.ratios.append(report.optimality_ratio)
        if mode == "volume":
            self.checks.skip(
                "product verified",
                "volume mode moves ShapeToken payloads; there is no product to verify",
            )
            return elapsed
        correct = report.verified and report.correct and self._probe(a, b, report.matrix, rng)
        self.checks.expect("product verified", correct, f"{key}: product differs from A @ B")
        if not correct:
            outcome.failed += 1
        return elapsed

    @staticmethod
    def _probe(a, b, c, rng) -> bool:
        """The benchmark's own check: ``C x == A (B x)`` for a random ``x``.

        Independent of the program's ``allclose`` and O(n^2); a single wrong
        element moves one entry of ``C x`` by far more than float64 rounding.
        """
        x = rng.uniform(-1.0, 1.0, c.shape[1])
        want = a @ (b @ x)
        scale = float(np.max(np.abs(want))) or 1.0
        return float(np.max(np.abs(c @ x - want))) <= 1e-9 * scale


class PaperPlane(Workload):
    """Verified numeric COSMA at the paper's p=1024, 4096^3 point."""

    name = "paper_plane"

    def iteration(self, index, timer=None):
        outcome = Outcome()
        outcome.wall_s = self.multiply(
            outcome, self.scale["plane_point"], "COSMA", "plane", timer, self.rng(index),
        )
        outcome.cosma_s = outcome.wall_s
        outcome.runs = 1
        return outcome


class PaperVolume(Workload):
    """All five algorithms, counters only, at the paper point and a largeK point."""

    name = "paper_volume"

    def iteration(self, index, timer=None):
        outcome = Outcome()
        pairs = [(point, alg) for point in self.scale["volume_points"] for alg in ALGORITHMS]
        # The seed draws the order the ten calls are issued in.
        for i in self.rng(index).permutation(len(pairs)):
            point, alg = pairs[i]
            elapsed = self.multiply(outcome, point, alg, "volume", timer)
            outcome.wall_s += elapsed
            if alg == "COSMA":
                outcome.cosma_s += elapsed
        outcome.runs = len(pairs)
        return outcome


class Campaign(Workload):
    """``run_campaign`` over a sweep grid, then the grid's COSMA runs in-process.

    ``run_s`` and ``runs_per_s`` time the supervised campaign alone;
    ``cosma_run_s`` times the same grid's COSMA runs through ``api.multiply``
    in this process, the unsupervised cost of that share of the work.
    """

    mode = ""

    def spec(self, index: int) -> SweepSpec:
        campaign_seed = int(self.rng(index).integers(1 << 31))
        return SweepSpec(
            name=f"{self.name}-{index}", algorithms=ALGORITHMS, mode=self.mode,
            seed=campaign_seed, verify=True, **self.scale[self.name],
        )

    def iteration(self, index, timer=None):
        outcome = Outcome()
        spec = self.spec(index)
        store_dir = self.out_dir / f"store-{self.name}-{index}"
        shutil.rmtree(store_dir, ignore_errors=True)
        try:
            store = ResultStore(store_dir)
            span = timer.span("sweeps.run_campaign") if timer is not None else nullcontext()
            start = time.perf_counter()
            with span:
                result = run_campaign(spec, store, jobs=self.jobs)
            outcome.wall_s = time.perf_counter() - start
            outcome.runs = result.executed
            self._check_records(outcome, result)
            if timer is not None:
                self._campaign_layers(outcome, spec, store, result, timer)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        rng = self.rng(index)
        for scenario in spec.scenarios():
            shape = scenario.shape
            point = (shape.m, shape.n, shape.k, scenario.p, scenario.memory_words)
            outcome.cosma_s += self.multiply(outcome, point, "COSMA", self.mode, timer, rng)
        return outcome

    def _check_records(self, outcome: Outcome, result) -> None:
        for record in result.records:
            outcome.attempted += 1
            scenario = record["scenario"]
            shape = scenario["shape"]
            m, n, k = shape["m"], shape["n"], shape["k"]
            p, s = scenario["p"], scenario["memory_words"]
            key = signature_key(record["algorithm"], m, n, k, p, s)
            if record["status"] != "ok":
                outcome.failed += 1
                error = record.get("error", {})
                self.checks.expect(
                    "campaign record ok", False,
                    f"{key}: {error.get('type')}: {error.get('message')}",
                )
                continue
            self.checks.expect("campaign record ok", True)
            metrics = record["metrics"]
            if self.mode == "volume":
                self.checks.skip(
                    "campaign product verified",
                    "volume mode moves ShapeToken payloads; there is no product to verify",
                )
            else:
                verified = bool(metrics["verified"] and metrics["correct"])
                self.checks.expect("campaign product verified", verified, f"{key}: not verified")
                if not verified:
                    outcome.failed += 1
            received = metrics["mean_received_per_rank"]
            self.signatures.check(
                self.checks, key, metrics["rounds"], received, metrics["total_flops"],
            )
            # Every word sent is received exactly once (word conservation).
            outcome.count(record["algorithm"], metrics["rounds"], round(received * p),
                          metrics["total_flops"])
            if record["algorithm"] == "COSMA":
                outcome.ratios.append(received / api.lower_bound_parallel(m, n, k, p, s))

    def _campaign_layers(self, outcome, spec, store, result, timer) -> None:
        metrics = result.metrics
        busy = metrics.get("sweeps.run.latency_s", {}).get("sum", 0.0)
        jobs = max(1, min(self.jobs, result.executed))
        with timer.span("sweeps.resume"):
            start = time.perf_counter()
            resumed = run_campaign(spec, store, jobs=self.jobs)
            resume_s = time.perf_counter() - start
        self.checks.expect(
            "resume serves every run from the store",
            resumed.cached == len(result.records) and resumed.executed == 0,
            f"cached {resumed.cached} of {len(result.records)}, executed {resumed.executed}",
        )
        outcome.layers.update({
            "sweeps.worker_busy_s": busy,
            "sweeps.worker_idle_fraction": 1.0 - busy / (outcome.wall_s * jobs),
            "sweeps.worker_spawns": metrics.get("sweeps.workers.spawns", {}).get("value", 0),
            "sweeps.retries": metrics.get("sweeps.runs.retried", {}).get("value", 0),
            "store.resume_s": resume_s,
        })


class CampaignVolume(Campaign):
    name = "campaign_volume"
    mode = "volume"


class CampaignPlane(Campaign):
    name = "campaign_plane"
    mode = "plane"


WORKLOADS = {cls.name: cls for cls in (PaperPlane, PaperVolume, CampaignVolume, CampaignPlane)}
