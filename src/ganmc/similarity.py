"""Track similarity scoring and retention of the most market-like samples.

Similarity between two equal-length tracks is the mean of
1 - |x_i - y_i| / (|x_i| + |y_i|), which lies in [0, 1] for nonnegative
inputs and is invariant under a common rescaling of both tracks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SimilarityError(ValueError):
    pass


@dataclass(frozen=True)
class SimilarityRanking:
    """Per-track scores and the retained index set."""

    scores: np.ndarray    # shape (N2,), in [0, 1]
    selected: np.ndarray  # 0-based indices of retained tracks, ascending score


def tsim(x, y) -> float:
    """Mean per-element similarity of two equal-length tracks; 1.0 means identical."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.ndim != 1 or yv.ndim != 1:
        raise SimilarityError("tsim expects 1-D inputs")
    if xv.shape != yv.shape:
        raise SimilarityError(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    if xv.shape[0] == 0:
        raise SimilarityError("empty vectors")
    return float(_similarities(xv[None, :], yv)[0])


def _similarities(tracks: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """tsim of every row of `tracks` against `reference`."""
    denom = np.abs(tracks)
    denom += np.abs(reference)
    term = np.subtract(tracks, reference)
    np.abs(term, out=term)
    with np.errstate(invalid="ignore", divide="ignore"):
        term /= denom
    np.subtract(1.0, term, out=term)
    # both entries zero: identical values, similarity 1
    term[denom == 0.0] = 1.0
    return term.mean(axis=1)


def retained_count(n2: int, alpha: float) -> int:
    """Size of the retained set: N2 - ceil(alpha * N2) + 1."""
    return n2 - math.ceil(alpha * n2) + 1


def rank_and_select(tracks, reference, alpha: float) -> SimilarityRanking:
    """Score every track against the reference window and keep the top tail.

    Tracks are sorted by ascending similarity (ties broken by original
    index, ascending); the retained set is the trailing slice of that
    order, i.e. the most similar tracks.
    """
    if not (0.0 < alpha < 1.0):
        raise SimilarityError(f"alpha must be in (0,1), got {alpha}")
    mat = np.asarray(tracks, dtype=float)
    if mat.ndim != 2 or mat.shape[0] < 1:
        raise SimilarityError("tracks must be a nonempty 2-D array")
    ref = np.asarray(reference, dtype=float)
    if ref.shape != (mat.shape[1],):
        raise SimilarityError(
            f"reference length {ref.shape[0]} != track length {mat.shape[1]}"
        )
    scores = _similarities(mat, ref)
    keep = retained_count(mat.shape[0], alpha)
    selected = np.argsort(scores, kind="stable")[-keep:]
    return SimilarityRanking(scores=scores, selected=selected)
