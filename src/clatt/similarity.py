"""Pair-counting similarity between partitions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError


class DegenerateClusteringError(InputError):
    """Similarity is undefined: one side is all-singletons or one cluster."""


@dataclass(frozen=True)
class PairCounts:
    """Co-membership agreement over all unordered node pairs."""

    n11: int
    n10: int
    n01: int
    n00: int


def _assignment(c) -> np.ndarray:
    a = getattr(c, "assignment", c)
    return np.asarray(a, dtype=np.int64)


def pair_counts(a, b) -> PairCounts:
    """Count node pairs by co-membership in each clustering.

    Runs in O(n log n) time and O(n) memory whatever the cluster ids: both
    sides are relabelled densely, and pair totals come from binomial sums
    over the nonzero contingency cells, never from pair enumeration.
    """
    a = _assignment(a)
    b = _assignment(b)
    if a.shape != b.shape:
        raise ValueError("clusterings cover different node counts")
    n = a.shape[0]
    a = np.unique(a, return_inverse=True)[1]
    b_ids, b = np.unique(b, return_inverse=True)
    joint = np.unique(a * b_ids.size + b, return_counts=True)[1]

    def pairs(counts) -> int:
        return int(sum(math.comb(int(c), 2) for c in counts))

    same_both = pairs(joint)
    same_a = pairs(np.bincount(a))
    same_b = pairs(np.bincount(b))
    total = math.comb(n, 2)
    n11 = same_both
    n10 = same_a - same_both
    n01 = same_b - same_both
    n00 = total - n11 - n10 - n01
    return PairCounts(n11=n11, n10=n10, n01=n01, n00=n00)


def correlation_coefficient(a, b) -> float:
    """Pearson correlation of the two binary co-membership pair vectors.

    Symmetric, in [-1, 1], exactly 1.0 when both sides are equal and
    non-degenerate. Degenerate input (all singletons or a single cluster
    on either side) has a zero denominator and raises.
    """
    pc = pair_counts(a, b)
    num = pc.n11 * pc.n00 - pc.n10 * pc.n01
    d2 = ((pc.n11 + pc.n10) * (pc.n01 + pc.n00)
          * (pc.n11 + pc.n01) * (pc.n10 + pc.n00))
    if d2 == 0:
        raise DegenerateClusteringError(
            "correlation undefined: a side is all-singletons or one cluster")
    r = math.isqrt(d2)
    if r * r == d2:
        return num / r  # exact integer square root keeps CC(a, a) == 1.0
    return num / math.sqrt(d2)


def similarity_matrix(clusterings: list) -> tuple[np.ndarray, dict]:
    """Pairwise CC matrix; degenerate pairs become NaN with a reason entry.

    Returns (k x k matrix, {(i, j): reason}). The diagonal is computed like
    any other pair, so a degenerate clustering is NaN against itself too.
    """
    k = len(clusterings)
    out = np.full((k, k), np.nan)
    reasons = {}
    for i in range(k):
        for j in range(i, k):
            try:
                cc = correlation_coefficient(clusterings[i], clusterings[j])
            except DegenerateClusteringError as e:
                reasons[(i, j)] = str(e)
                continue
            out[i, j] = out[j, i] = cc
    return out, reasons
