import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganmc import windowing
from ganmc.windowing import (
    NoViableStrideError,
    WindowingError,
    partition,
    search_stride,
)


def brute_force_windows(values, d, T):
    """Direct transcription of the start-index rule: starts at k*d while they fit."""
    values = np.asarray(values, dtype=float)
    out = []
    k = 0
    while k * d + T <= len(values):
        out.append(values[k * d : k * d + T])
        k += 1
    return np.array(out)


class TestPartition:
    def test_n10_t4_d3(self):
        src = np.arange(1.0, 11.0)
        ws = partition(src, d=3, T=4)
        assert len(ws) == 3
        np.testing.assert_array_equal(ws.windows[0], [1, 2, 3, 4])
        np.testing.assert_array_equal(ws.windows[1], [4, 5, 6, 7])
        np.testing.assert_array_equal(ws.windows[2], [7, 8, 9, 10])

    def test_n_equals_t_single_window(self):
        src = np.arange(1.0, 7.0)
        for d in (1, 3, 6):
            ws = partition(src, d=d, T=6)
            assert len(ws) == 1
            np.testing.assert_array_equal(ws.windows[0], src)

    def test_n10_t4_d1_seven_windows(self):
        src = np.arange(10.0)
        ws = partition(src, d=1, T=4)
        assert len(ws) == 7
        np.testing.assert_array_equal(ws.windows, brute_force_windows(src, 1, 4))

    def test_too_short_series(self):
        with pytest.raises(WindowingError, match="series too short"):
            partition(np.arange(3.0), d=1, T=4)

    def test_bad_stride(self):
        with pytest.raises(WindowingError, match="stride"):
            partition(np.arange(10.0), d=0, T=4)

    @given(
        n=st.integers(2, 50),
        T=st.integers(1, 10),
        d=st.integers(1, 10),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force(self, n, T, d, seed):
        if T > n or d > T:
            return
        src = np.random.default_rng(seed).uniform(1.0, 100.0, n)
        ws = partition(src, d=d, T=T)
        np.testing.assert_array_equal(ws.windows, brute_force_windows(src, d, T))
        assert len(ws) == (n - T) // d + 1

    def test_count_non_increasing_in_stride(self):
        src = np.arange(100.0)
        counts = [len(partition(src, d, 10)) for d in range(1, 11)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


class TestSearchStride:
    def test_probe_never_collapses_picks_d1(self):
        src = np.random.default_rng(0).uniform(50, 150, 1000)
        d, ws = search_stride(src, T=100, n1=5, train_probe=lambda ws: False)
        assert d == 1
        assert len(ws) == 901

    def test_probe_collapses_until_d3(self):
        src = np.random.default_rng(0).uniform(50, 150, 200)
        d, ws = search_stride(src, T=20, n1=2, train_probe=lambda ws: ws.d < 3)
        assert d == 3
        assert len(ws) == (200 - 20) // 3 + 1

    def test_unreachable_n1(self):
        src = np.arange(1.0, 51.0)
        with pytest.raises(NoViableStrideError) as exc:
            search_stride(src, T=40, n1=100, train_probe=lambda ws: False)
        assert exc.value.diagnostics[1].startswith("size")

    def test_search_ends_at_the_first_short_stride(self, monkeypatch):
        # no larger stride can reach N1, so none of their window sets is built
        built = []
        monkeypatch.setattr(windowing, "partition",
                            lambda values, d, T: built.append(d) or partition(values, d, T))
        with pytest.raises(NoViableStrideError) as exc:
            search_stride(np.arange(1.0, 51.0), T=40, n1=100, train_probe=lambda ws: False)
        assert exc.value.diagnostics == {1: "size 11 < N1=100"}
        assert built == [1]

    def test_diagnostics_record_collapse(self):
        src = np.arange(1.0, 51.0)
        with pytest.raises(NoViableStrideError) as exc:
            search_stride(src, T=10, n1=1, train_probe=lambda ws: True)
        assert all(v == "probe collapsed" for v in exc.value.diagnostics.values())
