import numpy as np
import pytest

from diffpareto.network import (
    CombinationMatrix,
    as_matrix,
    as_vector,
    identity_combination,
    perron_theta,
)

# left-stochastic 2x2 whose Perron vector solves 0.3*t1 = 0.4*t2, t1+t2 = 1
A22 = np.array([[0.7, 0.4], [0.3, 0.6]])
THETA22 = np.array([4.0 / 7.0, 3.0 / 7.0])


def dominant_eigpair(p: np.ndarray) -> tuple[float, np.ndarray]:
    """Dominant eigenpair of a left-stochastic matrix from the package API."""
    n = p.shape[0]
    data = perron_theta(CombinationMatrix(p, kind="left_stochastic"), identity_combination(n))
    return float(np.abs(np.linalg.eigvals(p)).max()), data.theta


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError, match="finite"):
        as_vector([np.inf])


def test_mat_mul_fixes_perron_vector():
    assert np.allclose(A22 @ THETA22, THETA22, atol=1e-15)
    _, vec = dominant_eigpair(A22)
    assert np.allclose(A22 @ vec, vec, atol=1e-12)


def test_dominant_eigpair_two_by_two():
    value, vec = dominant_eigpair(A22)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(vec, THETA22, atol=1e-10)


def test_dominant_eigpair_doubly_stochastic_uniform():
    p = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
    _, vec = dominant_eigpair(p)
    assert np.allclose(vec, np.full(3, 1.0 / 3.0), atol=1e-10)
