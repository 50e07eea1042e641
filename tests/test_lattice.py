"""Closest-vector queries and the lattice search budget, checked
against the independent oracles in conftest."""
import re

import numpy as np
import pytest

from chabauty import _lattice
from chabauty.errors import EnumerationBudgetExceeded

from conftest import brute_closest, random_group


def skewed_basis(rng, n):
    """Unit rows and a long last row leaning on them, the shape of
    [(1, 0, 0), (0, 1, 0), (0.2, 0.3, 50)]."""
    basis = np.eye(n)
    basis[-1, :-1] = rng.uniform(-0.5, 0.5, size=n - 1)
    basis[-1, -1] = 50.0
    return basis


@pytest.mark.parametrize("n", range(1, 6))
def test_closest_matches_brute_oracle(rng, n):
    reduced = random_group(rng, n, (0, int(rng.integers(1, n + 1))))
    # on the skewed basis a half on the long row would put targets 25
    # away, beyond what the oracle's box can hold at n = 5
    for basis, halves in ((reduced.discrete_basis, slice(None)),
                          (skewed_basis(rng, n), slice(0, n - 1))):
        q = basis.shape[0]
        solver = _lattice.LatticeSolver(basis)
        scattered = (rng.integers(-3, 4, size=(12, q)) @ basis
                     + rng.normal(scale=0.7, size=(12, n)))
        # half-integer combinations: equidistant from several points
        half = np.zeros((12, q))
        half[:, halves] = 0.5 * rng.integers(0, 2, size=(12, q))[:, halves]
        ties = (rng.integers(-3, 4, size=(12, q)) + half) @ basis
        targets = np.vstack([scattered, ties])
        dist, coeffs = solver.closest(targets)
        np.testing.assert_allclose(dist, brute_closest(basis, targets),
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            dist, np.linalg.norm(coeffs @ solver.basis - targets, axis=1),
            rtol=0, atol=1e-12)


def test_search_budget_names_nodes_and_cap():
    with pytest.raises(EnumerationBudgetExceeded) as err:
        _lattice.enumerate_ball(np.eye(3), 30.0, cap=1000)
    # the first level holds 61 nodes, the second the points of a disc
    a, b = np.meshgrid(np.arange(-30, 31), np.arange(-30, 31))
    nodes = int(np.sum(a * a + b * b <= 900))
    message = str(err.value)
    assert re.search(rf"\b{nodes}\b", message)
    assert re.search(r"\b1000\b", message)
