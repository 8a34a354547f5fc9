import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganmc.similarity import (
    SCORE_BLOCK_ROWS,
    SimilarityError,
    rank_and_select,
    retained_count,
    tsim,
)

positive_vectors = st.lists(
    st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=32
)


class TestTsim:
    def test_identical_vectors_score_one(self):
        x = [1.0, 2.5, 100.0]
        assert tsim(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_half(self):
        assert tsim([1.0, 1.0], [3.0, 3.0]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_against_one(self):
        assert tsim([1.0], [0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_both_zero_term_is_one(self):
        assert tsim([0.0, 1.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(SimilarityError, match="length mismatch"):
            tsim([1.0, 2.0], [1.0])

    def test_empty_vectors(self):
        with pytest.raises(SimilarityError, match="empty"):
            tsim([], [])

    @given(x=positive_vectors, y=positive_vectors)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_range_and_scale_invariance(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        s = tsim(x, y)
        assert 0.0 <= s <= 1.0
        assert s == pytest.approx(tsim(y, x), abs=1e-12)
        assert s == pytest.approx(
            tsim([2 * v for v in x], [2 * v for v in y]), abs=1e-12
        )

    @given(x=positive_vectors)
    @settings(max_examples=100, deadline=None)
    def test_self_similarity_is_one(self, x):
        assert tsim(x, x) == pytest.approx(1.0, abs=1e-12)


class TestRankAndSelect:
    def test_retained_count_alpha_08(self):
        assert retained_count(10, 0.8) == 3

    def test_selection_size_matches_formula(self, rng):
        tracks = rng.uniform(50, 150, (10, 4))
        ref = rng.uniform(50, 150, 4)
        ranking = rank_and_select(tracks, ref, 0.8)
        assert len(ranking.selected) == 3
        scores = ranking.scores[ranking.selected]
        assert np.all(np.diff(scores) >= 0)
        dropped = np.delete(ranking.scores, ranking.selected)
        assert scores.min() >= dropped.max()

    def test_scores_match_elementwise_formula(self, rng):
        tracks = rng.uniform(0.5, 50.0, (40, 7))
        tracks[3] = 0.0
        ref = rng.uniform(0.5, 50.0, 7)
        ref[2] = 0.0
        ranking = rank_and_select(tracks, ref, 0.5)
        for row, score in zip(tracks, ranking.scores):
            terms = [
                1.0 if a == b == 0.0 else 1.0 - abs(a - b) / (abs(a) + abs(b))
                for a, b in zip(row, ref)
            ]
            assert score == pytest.approx(np.mean(terms), abs=1e-15)

    def test_all_identical_tie_break_keeps_last_indices(self):
        ref = np.array([1.0, 2.0, 3.0])
        tracks = np.tile(ref, (5, 1))
        ranking = rank_and_select(tracks, ref, 0.5)
        # ceil(0.5*5)=3 -> keep 3; the stable sort leaves identity order,
        # so the retained tail is the last indices in ascending order
        np.testing.assert_array_equal(ranking.selected, [2, 3, 4])

    def test_single_track(self):
        ranking = rank_and_select(np.array([[1.0, 2.0]]), np.array([1.0, 2.0]), 0.5)
        np.testing.assert_array_equal(ranking.selected, [0])

    def test_alpha_out_of_range(self):
        tracks = np.ones((2, 2))
        with pytest.raises(SimilarityError, match="alpha"):
            rank_and_select(tracks, np.ones(2), 1.0)

    def test_reference_length_mismatch(self):
        with pytest.raises(SimilarityError, match="reference length"):
            rank_and_select(np.ones((2, 3)), np.ones(4), 0.5)

    @given(n2=st.integers(1, 100), alpha=st.floats(0.01, 0.99), seed=st.integers(0, 99))
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force_sort(self, n2, alpha, seed):
        rng = np.random.default_rng(seed)
        tracks = rng.uniform(1.0, 100.0, (n2, 5))
        ref = rng.uniform(1.0, 100.0, 5)
        ranking = rank_and_select(tracks, ref, alpha)
        pairs = sorted(
            ((tsim(t, ref), i) for i, t in enumerate(tracks)),
            key=lambda p: (p[0], p[1]),
        )
        keep = n2 - math.ceil(alpha * n2) + 1
        expected = [i for _, i in pairs[n2 - keep :]]
        assert ranking.selected.tolist() == expected

    @staticmethod
    def _one_pass_scores(tracks, ref):
        denom = np.abs(tracks) + np.abs(ref)
        with np.errstate(invalid="ignore", divide="ignore"):
            term = 1.0 - np.abs(tracks - ref) / denom
        term[denom == 0.0] = 1.0
        return term.mean(axis=1)

    @pytest.mark.parametrize("n2", [1, SCORE_BLOCK_ROWS - 1, SCORE_BLOCK_ROWS, SCORE_BLOCK_ROWS + 1,
                                    3 * SCORE_BLOCK_ROWS + 5, 5120])
    def test_blocks_match_one_pass_and_stable_sort(self, n2):
        rng = np.random.default_rng(n2)
        # tracks drawn from a pool of 12 rows: every score is tied many times,
        # so ties straddle the retention threshold
        tracks = rng.uniform(50.0, 150.0, (12, 64))[rng.integers(0, 12, n2)]
        ref = rng.uniform(50.0, 150.0, 64)
        ref[5] = 0.0
        tracks[0] = 0.0  # against the zero reference entry: both zero, term 1
        if n2 > 1:
            tracks[-1, 9] = np.inf  # inf / inf: a NaN score
        ranking = rank_and_select(tracks, ref, 0.8)
        expected = self._one_pass_scores(tracks, ref)
        np.testing.assert_array_equal(ranking.scores, expected)
        assert ranking.scores[0] == 1.0 / 64
        keep = retained_count(n2, 0.8)
        np.testing.assert_array_equal(ranking.selected, np.argsort(expected, kind="stable")[-keep:])
        if n2 > 1:
            assert np.isnan(ranking.scores[-1]) and ranking.selected[-1] == n2 - 1
        if n2 > SCORE_BLOCK_ROWS:
            dropped = np.delete(ranking.scores, ranking.selected)
            assert np.any(dropped == ranking.scores[ranking.selected[0]])
