from __future__ import annotations

import warnings

import numpy as np
import pytest

from spal import kmedoids as kmedoids_module
from spal.kmedoids import kmedoids

from oracles import kmedoids_brute_force, pam_reference


def test_k_equals_n_returns_everything():
    pts = np.random.default_rng(0).standard_normal((7, 3))
    assert kmedoids(pts, 7).tolist() == list(range(7))


def test_k_one_picks_most_central():
    pts = np.array([[0.0], [1.0], [2.0], [10.0]])
    assert kmedoids(pts, 1).tolist() == [1]  # argmin of total distance


def test_two_far_clusters():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 2)) * 0.1
    b = rng.standard_normal((5, 2)) * 0.1 + 100.0
    pts = np.vstack([a, b])
    medoids = kmedoids(pts, 2, seed=3)
    assert sorted(m // 5 for m in medoids) == [0, 1]  # one per cluster
    optimal, _ = kmedoids_brute_force(pts, 2)
    assert set(medoids.tolist()) == optimal


def test_matches_brute_force_cost_on_small_inputs():
    rng = np.random.default_rng(2)
    for trial in range(10):
        pts = rng.standard_normal((9, 2))
        k = int(rng.integers(1, 4))
        medoids = kmedoids(pts, k, seed=trial)
        _, best_cost = kmedoids_brute_force(pts, k)
        D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
        cost = D[:, medoids].min(axis=1).sum()
        # PAM is a heuristic; build+swap should still land on the optimum here
        assert cost <= best_cost + 1e-9


def test_deterministic_given_seed():
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((30, 4))
    assert kmedoids(pts, 5, seed=11).tolist() == kmedoids(pts, 5, seed=11).tolist()


def test_invalid_k():
    pts = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmedoids(pts, 0)
    with pytest.raises(ValueError):
        kmedoids(pts, 5)


@pytest.mark.parametrize("kwargs, message", [
    ({"k": 2.5}, "k must be an integer, got 2.5"),
    ({"k": True}, "k must be an integer"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer"),
])
def test_rejects_bad_arguments_where_they_enter(kwargs, message):
    # k=2.5 used to fail inside _swap_deltas with a TypeError
    pts = np.random.default_rng(6).standard_normal((8, 2))
    with pytest.raises(ValueError, match=message):
        kmedoids(pts, **{"k": 3, **kwargs})


def test_max_swaps_zero_keeps_the_greedy_build(monkeypatch):
    points = np.random.default_rng(5).standard_normal((40, 2))
    monkeypatch.setattr(kmedoids_module, "_MAX_SWAPS", 0)
    with pytest.warns(RuntimeWarning, match="stopped after 0 swaps"):
        got = kmedoids(points, 6, seed=0)
    assert got.tolist() == pam_reference(points, 6, seed=0, max_swaps=0).tolist()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rejects_a_non_finite_point_naming_its_row(value):
    # a NaN used to give "attempt to get argmin of an empty sequence"
    pts = np.random.default_rng(7).standard_normal((8, 2))
    pts[5, 1] = value
    with pytest.raises(ValueError, match="points row 5 holds a non-finite value"):
        kmedoids(pts, 3)
    with pytest.raises(ValueError, match="points row 5 "):
        kmedoids(pts[:, 1], 3)  # one-dimensional input


def _reference_cases(rng, count):
    """Random (points, k, seed) cases for comparison with the per-medoid loop.

    Every other case repeats m Gaussian locations 1, 2, ..., m times, so
    copies of one point tie exactly and the seed priority must pick among
    them. Distinct multiplicities keep two different locations from tying
    through a balanced cluster. Such ties, like one-dimensional median
    plateaus, are exact in real arithmetic but not in floating point, and
    both implementations leave them to rounding.
    """
    for case in range(count):
        d = int(rng.integers(2, 4))
        if case % 2:
            m = int(rng.integers(2, 9))
            locations = rng.standard_normal((m, d))
            points = rng.permutation(np.repeat(locations, np.arange(1, m + 1), axis=0))
        else:
            points = rng.standard_normal((int(rng.integers(2, 41)), d))
        n = len(points)
        k = (1, 2, max(n - 1, 1), int(rng.integers(1, n + 1)))[(case // 2) % 4]
        yield points, k, int(rng.integers(0, 1000))


@pytest.mark.parametrize("chunk", [1, 3, 7, kmedoids_module._ROW_CHUNK])
def test_matches_per_medoid_reference_loop(monkeypatch, chunk):
    monkeypatch.setattr(kmedoids_module, "_ROW_CHUNK", chunk)
    for points, k, seed in _reference_cases(np.random.default_rng(0), 64):
        expected = pam_reference(points, k, seed=seed)
        got = kmedoids(points, k, seed=seed)
        assert got.tolist() == expected.tolist(), (len(points), k, seed)


def test_no_single_swap_improves():
    rng = np.random.default_rng(4)
    for trial in range(12):
        n = int(rng.integers(30, 41))
        points = rng.standard_normal((n, int(rng.integers(1, 4))))
        if trial % 3 == 0:
            points = points[rng.integers(0, n // 2, n)]  # duplicates
        k = int(rng.integers(1, 8))
        medoids = kmedoids(points, k, seed=trial)
        D = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
        cost = D[:, medoids].min(axis=1).sum()
        for slot in range(k):
            for c in np.setdiff1d(np.arange(n), medoids):
                swapped = medoids.copy()
                swapped[slot] = c
                assert D[:, swapped].min(axis=1).sum() >= cost - 1e-9 * cost


def test_swap_cap_warns_only_when_an_improving_swap_remains(monkeypatch):
    points = np.random.default_rng(5).standard_normal((40, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        converged = kmedoids(points, 6, seed=0)
    monkeypatch.setattr(kmedoids_module, "_MAX_SWAPS", 1)
    with pytest.warns(RuntimeWarning, match="stopped after 1 swaps"):
        capped = kmedoids(points, 6, seed=0)
    assert capped.tolist() != converged.tolist()
    assert capped.tolist() == pam_reference(points, 6, seed=0, max_swaps=1).tolist()


def test_refuses_oversized_distance_matrix(monkeypatch):
    def no_cdist(*args):
        raise AssertionError("cdist called past the size guard")

    monkeypatch.setattr(kmedoids_module, "_MAX_DENSE_BYTES", 8 * 99 * 99)
    monkeypatch.setattr("scipy.spatial.distance.cdist", no_cdist)  # kmedoids imports it per call
    with pytest.raises(ValueError, match=r"n=100 .*GiB.*subsample"):
        kmedoids(np.zeros((100, 2)), 3)
