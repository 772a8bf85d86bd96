"""Tests of the Pade scaling-and-squaring matrix exponential."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import DimensionError
from repro.linalg.expm import _expm_branch, expm, expm_stack


class TestExpmBasics:
    def test_zero_matrix_gives_identity(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_scalar_matrix(self):
        assert np.allclose(expm(np.array([[2.0]])), [[np.exp(2.0)]])

    def test_empty_matrix(self):
        assert expm(np.zeros((0, 0))).shape == (0, 0)

    def test_diagonal_matrix(self):
        d = np.diag([1.0, -2.0, 0.5])
        assert np.allclose(expm(d), np.diag(np.exp([1.0, -2.0, 0.5])))

    def test_nilpotent_matrix_exact(self):
        # exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly.
        n = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(expm(n), [[1.0, 1.0], [0.0, 1.0]])

    def test_rotation_generator(self):
        # exp(theta * J) is a rotation matrix.
        theta = 0.7
        j = np.array([[0.0, -theta], [theta, 0.0]])
        expected = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        assert np.allclose(expm(j), expected)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            expm(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionError):
            expm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestExpmAgainstScipy:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("scale", [0.01, 1.0, 30.0])
    def test_random_matrices(self, n, scale, rng):
        a = rng.standard_normal((n, n)) * scale
        assert np.allclose(expm(a), sla.expm(a), rtol=1e-8, atol=1e-8)

    def test_stiff_matrix(self, rng):
        # Widely separated eigenvalues exercise the squaring phase.
        a = np.diag([-1000.0, -1.0, -0.001]) + 0.1 * rng.standard_normal((3, 3))
        assert np.allclose(expm(a), sla.expm(a), rtol=1e-7, atol=1e-9)

    def test_defective_matrix(self):
        # Jordan block: exp has polynomial off-diagonal terms.
        a = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, 2.0]])
        assert np.allclose(expm(a), sla.expm(a), rtol=1e-10)


class TestExpmProperties:
    @given(
        arrays(
            np.float64,
            (3, 3),
            elements=st.floats(-3.0, 3.0, allow_nan=False),
        )
    )
    def test_inverse_property(self, a):
        # e^A e^{-A} = I for any square A.
        product = expm(a) @ expm(-a)
        assert np.allclose(product, np.eye(3), atol=1e-8)

    @given(
        arrays(
            np.float64,
            (3, 3),
            elements=st.floats(-2.0, 2.0, allow_nan=False),
        ),
        st.floats(0.1, 2.0),
    )
    def test_semigroup_property(self, a, t):
        # e^{A(t+s)} = e^{At} e^{As} when the exponents commute (same A).
        left = expm(a * (t + 1.0))
        right = expm(a * t) @ expm(a * 1.0)
        assert np.allclose(left, right, rtol=1e-7, atol=1e-7)

    @given(
        arrays(
            np.float64,
            (4, 4),
            elements=st.floats(-2.0, 2.0, allow_nan=False),
        )
    )
    def test_determinant_is_exp_trace(self, a):
        # det(e^A) = e^{tr A} (Jacobi's formula).
        det = np.linalg.det(expm(a))
        assert np.isclose(det, np.exp(np.trace(a)), rtol=1e-6)


def _mixed_stack(rng):
    """Matrices of shapes 2-7 on every Pade branch, plus Van Loan blocks.

    Each random matrix is scaled to a target 1-norm: 0.01, 0.2, 0.8 and 1.8
    land on orders 3, 5, 7 and 9; 4, 20 and 300 on order 13 with 0, 2
    and 6 squarings.  Eigenvalues stay below 300 in modulus, so every
    exponential is finite.  The co-simulation embeddings
    ``[[A, B], [0, 0]] * dt`` of every library plant follow, then a 1x1
    matrix; the stack comes back shuffled.
    """
    from repro.control.plants import PLANT_LIBRARY

    matrices = []
    for n in range(2, 8):
        for norm in (0.01, 0.2, 0.8, 1.8, 4.0, 20.0, 300.0):
            a = rng.standard_normal((n, n))
            matrices.append(a * (norm / np.linalg.norm(a, 1)))
    for plant in PLANT_LIBRARY.values():
        system = plant.state_space()
        n, m = system.n_states, system.n_inputs
        block = np.zeros((n + m, n + m))
        block[:n, :n] = system.a
        block[:n, n:] = system.b
        for dt in rng.uniform(1e-5, 0.2, size=4):
            matrices.append(block * dt)
    matrices.append(np.array([[-0.7]]))
    return [matrices[i] for i in rng.permutation(len(matrices))]


class TestExpmStack:
    @pytest.mark.parametrize("seed", range(4))
    def test_slices_bit_identical_to_expm(self, seed):
        matrices = _mixed_stack(np.random.default_rng(seed))
        branches = {
            _expm_branch(a, np.linalg.norm(a, 1)) for a in matrices if a.shape[0] > 1
        }
        assert {3, 5, 7, 9, 13} <= {order for order, _ in branches}
        assert max(squarings for _, squarings in branches) >= 1
        stacked = expm_stack(matrices)
        assert len(stacked) == len(matrices)
        for a, got in zip(matrices, stacked):
            want = expm(a)
            assert np.isfinite(want).all()
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_empty_stack(self):
        assert expm_stack([]) == []
