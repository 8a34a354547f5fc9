"""Track similarity scoring and retention of the most market-like samples.

Similarity between two equal-length tracks is the mean of
1 - |x_i - y_i| / (|x_i| + |y_i|), which lies in [0, 1] for nonnegative
inputs and is invariant under a common rescaling of both tracks.

Scores are computed in blocks of SCORE_BLOCK_ROWS tracks, each with the
same operations, in the same order, as one pass over every track, so a
score does not depend on the block split. The retained set is found by
partitioning the scores at the retention threshold and stably sorting
only the tracks at or above it, which gives the same indices in the same
order as a stable sort of every score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# tracks scored per block: the two float64 scratch blocks and the two tiled
# copies of the reference, 256 rows of a 64-day track, are 128 KiB each and
# stay in L2
SCORE_BLOCK_ROWS = 256


class SimilarityError(ValueError):
    pass


@dataclass(frozen=True)
class SimilarityRanking:
    """Per-track scores and the retained index set."""

    scores: np.ndarray    # shape (N2,), in [0, 1]
    # 0-based indices of retained tracks, ascending score, ties by ascending index
    selected: np.ndarray


def tsim(x, y) -> float:
    """Mean per-element similarity of two equal-length tracks; 1.0 means identical."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape:
        raise SimilarityError(f"length mismatch: {xv.shape[0]} vs {yv.shape[0]}")
    if xv.shape[0] == 0:
        raise SimilarityError("empty vectors")
    return float(_similarities(xv[None, :], yv)[0])


def _similarities(tracks: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """tsim of every row of `tracks` against `reference`, in blocks of SCORE_BLOCK_ROWS rows."""
    n, t = tracks.shape
    scores = np.empty(n)
    # |x| + |y| is 0 only where both are 0, so only a zero in the reference
    # can give a term with both entries zero
    zero_ref = bool(np.any(reference == 0.0))
    rows = min(n, SCORE_BLOCK_ROWS)
    # the reference and its abs tiled to a block's shape: each elementwise
    # pass is one contiguous loop rather than one short loop per row
    ref_tile = np.tile(reference, (rows, 1))
    abs_tile = np.abs(ref_tile)
    denom_buf, term_buf = np.empty((rows, t)), np.empty((rows, t))
    for start in range(0, n, rows):
        block = tracks[start : start + rows]
        k = len(block)
        denom, term = denom_buf[:k], term_buf[:k]
        np.abs(block, out=denom)
        denom += abs_tile[:k]
        np.subtract(block, ref_tile[:k], out=term)
        np.abs(term, out=term)
        with np.errstate(invalid="ignore", divide="ignore"):
            term /= denom
        np.subtract(1.0, term, out=term)
        if zero_ref:
            # both entries zero: identical values, similarity 1
            term[denom == 0.0] = 1.0
        term.mean(axis=1, out=scores[start : start + len(block)])
    return scores


def retained_count(n2: int, alpha: float) -> int:
    """Size of the retained set: N2 - ceil(alpha * N2) + 1."""
    return n2 - math.ceil(alpha * n2) + 1


def rank_and_select(tracks, reference, alpha: float) -> SimilarityRanking:
    """Score every track against the reference window and keep the top tail.

    Tracks are sorted by ascending similarity (ties broken by original
    index, ascending); the retained set is the trailing slice of that
    order, i.e. the most similar tracks. NaN scores sort last.
    """
    if not (0.0 < alpha < 1.0):
        raise SimilarityError(f"alpha must be in (0,1), got {alpha}")
    mat = np.asarray(tracks, dtype=float)
    ref = np.asarray(reference, dtype=float)
    if ref.shape != (mat.shape[1],):
        raise SimilarityError(
            f"reference length {ref.shape[0]} != track length {mat.shape[1]}"
        )
    scores = _similarities(mat, ref)
    n, keep = mat.shape[0], retained_count(mat.shape[0], alpha)
    # the lowest retained score, and every track not below it in index
    # order (NaN is never below)
    threshold = np.partition(scores, n - keep)[n - keep]
    candidates = np.flatnonzero(~(scores < threshold))
    selected = candidates[np.argsort(scores[candidates], kind="stable")[-keep:]]
    return SimilarityRanking(scores=scores, selected=selected)
