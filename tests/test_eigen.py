import numpy as np
import pytest

from stockwave.eigen import _symmetric_eigensystem
from helpers import charpoly_coefficients, random_symmetric


def test_matches_characteristic_polynomial_roots():
    rng = np.random.default_rng(43)
    for size in (2, 3, 4):
        for _ in range(10):
            a = random_symmetric(rng, size)
            values, _ = _symmetric_eigensystem(a)
            roots = np.sort(np.roots(charpoly_coefficients(a)).real)
            assert np.max(np.abs(values - roots)) < 1e-8


def test_eigenpairs_have_small_residual():
    rng = np.random.default_rng(47)
    a = random_symmetric(rng, 30)
    values, vectors = _symmetric_eigensystem(a)
    residual = np.max(np.linalg.norm(a @ vectors - vectors * values[None, :], axis=0))
    assert residual < 1e-12 * np.linalg.norm(a)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(30))) < 1e-13
    assert np.all(np.diff(values) >= 0.0)


def test_matches_lapack_reference():
    rng = np.random.default_rng(53)
    a = random_symmetric(rng, 25)
    values, _ = _symmetric_eigensystem(a)
    assert np.max(np.abs(values - np.linalg.eigvalsh(a))) < 1e-11


def test_trace_preserved():
    rng = np.random.default_rng(59)
    a = random_symmetric(rng, 12)
    values, _ = _symmetric_eigensystem(a)
    assert values.sum() == pytest.approx(np.trace(a), abs=1e-11)


def test_diagonal_input_short_circuits():
    values, vectors = _symmetric_eigensystem(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(values, [-1.0, 2.0, 3.0])
    assert np.array_equal(vectors, np.eye(3)[:, [1, 2, 0]])


def test_single_entry_matrix():
    values, vectors = _symmetric_eigensystem(np.array([[4.0]]))
    assert values[0] == 4.0
    assert vectors[0, 0] == 1.0
