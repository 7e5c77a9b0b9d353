"""Verification must reject wrong products and accept right ones.

:func:`~repro.machine.transport.verify_product` replaced the reference
``A @ B`` + ``allclose`` check with Freivalds' probe check.  These tests
show both directions:

* **mutations** -- four corruptions of a correct product (one element, one
  row scaled, two off-diagonal blocks swapped, one k-layer partial dropped),
  each in float64 and float32, are rejected by the helper itself and end to
  end by ``api.multiply`` and ``harness.run_algorithm`` for every registered
  algorithm that runs in plane mode;
* **no false rejects** -- a hypothesis property over random shapes (largeK,
  flat, thin), value scales 1e-3..1e3 and both dtypes: a correctly computed
  product always verifies, and the verdict is a pure function of the inputs.

The exact ``np.allclose(C, A @ B)`` oracle lives here, not in the program.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import AlgorithmSpec, get_algorithm, registered_algorithms
from repro.api import multiply
from repro.experiments.harness import run_algorithm
from repro.machine.transport import allclose_tolerances, verify_product
from repro.obs.trace import tracing
from repro.workloads.scaling import limited_memory_sweep

DTYPES = ("float64", "float32")


def _add_to_one_element(a, b, c):
    bump = 1e-3 if c.dtype == np.float64 else 1e-1
    c[c.shape[0] // 2, c.shape[1] // 3] += bump * np.max(np.abs(c))
    return c


def _scale_one_row(a, b, c):
    c[c.shape[0] // 3] *= 1.01
    return c


def _swap_off_diagonal_blocks(a, b, c):
    h = min(c.shape) // 2
    upper = c[:h, h : 2 * h].copy()
    c[:h, h : 2 * h] = c[h : 2 * h, :h]
    c[h : 2 * h, :h] = upper
    return c


def _drop_one_k_layer(a, b, c):
    k = a.shape[1]
    k0, k1 = k // 4, k // 2
    c -= (np.asarray(a)[:, k0:k1] @ np.asarray(b)[k0:k1, :]).astype(c.dtype)
    return c


CORRUPTIONS = {
    "element": _add_to_one_element,
    "row-scale": _scale_one_row,
    "block-swap": _swap_off_diagonal_blocks,
    "k-layer-drop": _drop_one_k_layer,
}

#: Every registered algorithm with a plane-mode executor.
PLANE_ALGORITHMS = tuple(
    name for name in registered_algorithms() if get_algorithm(name).supports_mode("plane")
)
SCENARIO = limited_memory_sweep("square", [9], 2048)[0]


def _corrupting_run(monkeypatch, corruption):
    """Wrap ``AlgorithmSpec.run`` so every executed product comes back corrupted."""
    original = AlgorithmSpec.run

    def run(self, a_matrix, b_matrix, scenario, machine, **options):
        product = original(self, a_matrix, b_matrix, scenario, machine, **options)
        return corruption(a_matrix, b_matrix, np.array(product))

    monkeypatch.setattr(AlgorithmSpec, "run", run)


class TestHelperRejectsMutations:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corruption_is_rejected(self, rng, corruption, dtype):
        a = rng.uniform(-1.0, 1.0, (96, 128))
        b = rng.uniform(-1.0, 1.0, (128, 80))
        product = a.astype(dtype) @ b.astype(dtype)
        tol = 1e-4 if dtype == "float32" else 1e-10
        assert np.allclose(product, a @ b, rtol=tol, atol=tol * 128)
        assert verify_product(a, b, product)
        corrupted = CORRUPTIONS[corruption](a, b, product.copy())
        assert not verify_product(a, b, corrupted)

    def test_wrong_shape_and_non_finite_are_rejected(self, rng):
        a, b = rng.standard_normal((12, 9)), rng.standard_normal((9, 7))
        product = a @ b
        assert not verify_product(a, b, product[:, :6])
        product[3, 4] = np.nan
        assert not verify_product(a, b, product)


class TestEndToEndRejectsMutations:
    """``correct`` must come back False when an algorithm returns a wrong product."""

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("name", PLANE_ALGORITHMS)
    def test_api_multiply(self, monkeypatch, name, corruption, dtype):
        a, b = SCENARIO.shape.random_matrices(seed=0)
        _corrupting_run(monkeypatch, CORRUPTIONS[corruption])
        report = multiply(
            a, b, SCENARIO.p, SCENARIO.memory_words,
            algorithm=name, mode="plane", plane_dtype=dtype,
        )
        assert report.verified
        assert not report.correct

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("name", PLANE_ALGORITHMS)
    def test_harness_run_algorithm(self, monkeypatch, name, corruption, dtype):
        _corrupting_run(monkeypatch, CORRUPTIONS[corruption])
        run = run_algorithm(name, SCENARIO, mode="plane", plane_dtype=dtype)
        assert run.verified
        assert not run.correct


class TestNoFalseReject:
    @settings(max_examples=120, deadline=None)
    @given(
        shape=st.one_of(
            st.tuples(st.integers(1, 48), st.integers(1, 48), st.integers(1, 48)),
            # largeK: k >> m, n
            st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(500, 20000)),
            # flat: m, n >> k
            st.tuples(st.integers(100, 400), st.integers(100, 400), st.integers(1, 4)),
        ),
        scale_exponents=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        nonnegative=st.booleans(),
        dtype=st.sampled_from(DTYPES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_correct_products_always_verify(
        self, shape, scale_exponents, nonnegative, dtype, seed
    ):
        m, n, k = shape
        rng = np.random.default_rng(seed)
        low = 0.0 if nonnegative else -1.0
        a = rng.uniform(low, 1.0, (m, k)) * 10.0 ** scale_exponents[0]
        b = rng.uniform(low, 1.0, (k, n)) * 10.0 ** scale_exponents[1]
        product = a.astype(dtype) @ b.astype(dtype)
        assert verify_product(a, b, product)
        # Same inputs, same verdict: the probe comes from a fixed seed.
        assert verify_product(a.copy(), b.copy(), product.copy())

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name", PLANE_ALGORITHMS)
    def test_every_algorithm_verifies_its_own_product(self, name, dtype):
        """The uncorrupted runs behind the end-to-end mutation cases pass."""
        a, b = SCENARIO.shape.random_matrices(seed=0)
        report = multiply(
            a, b, SCENARIO.p, SCENARIO.memory_words,
            algorithm=name, mode="plane", plane_dtype=dtype,
        )
        assert report.verified and report.correct
        assert report.matrix.dtype == dtype
        tol = 1e-4 if dtype == "float32" else 1e-10
        assert np.allclose(report.matrix, a @ b, rtol=tol, atol=tol * SCENARIO.shape.k)
        run = run_algorithm(name, SCENARIO, mode="plane", plane_dtype=dtype)
        assert run.verified and run.correct


def test_tolerance_scales_with_dtype_and_k():
    assert allclose_tolerances("float64", 4096) == pytest.approx(4096 * 2.0**-53)
    assert allclose_tolerances("float32", 4096) > allclose_tolerances("float64", 4096)
    # float32's probabilistic bound grows like sqrt(k), float64's worst case like k.
    ratio32 = allclose_tolerances("float32", 40000) / allclose_tolerances("float32", 400)
    assert ratio32 == pytest.approx(10.0, rel=0.05)
    assert allclose_tolerances("float64", 40000) == pytest.approx(
        100 * allclose_tolerances("float64", 400)
    )


class TestVerifySpan:
    def test_plane_run_opens_one_verify_span(self, rng):
        a, b = rng.standard_normal((48, 40)), rng.standard_normal((40, 56))
        with tracing() as tracer:
            report = multiply(a, b, 8, 8192, mode="plane")
            run_algorithm("COSMA", SCENARIO, mode="plane")
        assert report.correct
        spans = tracer.spans("verify")
        assert [span[0] for span in spans] == ["verify", "verify"]
        assert all(span[5] == "run" for span in spans)

    def test_volume_run_has_no_verify_span(self):
        with tracing() as tracer:
            run_algorithm("COSMA", SCENARIO, mode="volume")
        assert tracer.spans("verify") == []
