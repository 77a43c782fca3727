"""Lloyd k-means with plus-plus seeding and empty-cluster repair."""

from __future__ import annotations

import numpy as np

from .errors import InputError, check_count
from .graphs import relabel_by_first_occurrence
from .partition import Clustering


def _sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (n, k) squared distances without forming n*k*f intermediates
    p2 = (points * points).sum(axis=1, keepdims=True)
    c2 = (centers * centers).sum(axis=1)
    d = p2 + c2 - 2.0 * points @ centers.T
    np.maximum(d, 0.0, out=d)
    return d


def _plus_plus_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = _sq_dists(points, centers[:1])[:, 0]
    for i in range(1, k):
        total = closest.sum()
        if total <= 0:
            # all mass already covered; any uncovered duplicate point works
            centers[i] = points[rng.integers(n)]
            continue
        idx = int(np.searchsorted(np.cumsum(closest), rng.random() * total))
        idx = min(idx, n - 1)
        centers[i] = points[idx]
        closest = np.minimum(closest, _sq_dists(points, centers[i : i + 1])[:, 0])
    return centers


def default_k(n: int) -> int:
    """Aim for clusters of around 128 nodes."""
    return max(2, min(n, int(round(n / 128))))


def kmeans(points: np.ndarray, k: int | None = None, seed: int = 0,
           max_iters: int = 100) -> tuple[Clustering, float]:
    """Cluster row vectors; returns (Clustering, inertia).

    Assignment ties go to the lowest cluster id and emptied clusters are
    re-seeded with the point farthest from its centroid, so inertia never
    increases from one iteration to the next. It stops when the assignment
    repeats, or when the inertia stops falling, keeping the last assignment.
    """
    max_iters = check_count("max_iters", max_iters, 1)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("points must be a non-empty 2d array")
    n = points.shape[0]
    if k is None:
        k = default_k(n)
    if not 1 <= k <= n:
        raise InputError(f"k={k} out of range for n={n}")
    rng = np.random.default_rng(seed)
    centers = _plus_plus_init(points, k, rng)
    rows = np.arange(n)
    assign = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(max_iters):
        d = _sq_dists(points, centers)
        new_assign = d.argmin(axis=1)
        for c in range(k):
            if (new_assign == c).any():
                continue
            # re-seed it with the worst-fit point of a cluster that keeps a member (k <= n: one exists)
            keeps = np.bincount(new_assign, minlength=k)[new_assign] > 1
            worst = int(np.where(keeps, d[rows, new_assign], -1.0).argmax())
            new_assign[worst] = c
            centers[c] = points[worst]
            d[:, c] = _sq_dists(points, centers[c : c + 1])[:, 0]
        converged = np.array_equal(new_assign, assign)
        for c in range(k):
            centers[c] = points[new_assign == c].mean(axis=0)
        inertia = float(_sq_dists(points, centers)[rows, new_assign].sum())
        if history and inertia >= history[-1] and not converged:
            break  # rounding moved points between identical centres
        assign = new_assign
        history.append(inertia)
        if converged:
            break
    inertia = history[-1]
    clustering = Clustering(assignment=relabel_by_first_occurrence(assign),
                            algorithm_tag="KM",
                            params={"k": int(k), "seed": seed, "inertia": inertia,
                                    "inertia_history": history})
    return clustering, inertia
