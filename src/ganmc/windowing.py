"""Sliding-window training sets over a price history.

A window set collects every length-T slice of the source series whose
start index steps by a stride d. The stride search walks d upward until
the set is large enough and a training probe reports no collapse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class WindowingError(ValueError):
    pass


class NoViableStrideError(WindowingError):
    """No stride in 1..T yields a large-enough, non-collapsing window set."""

    def __init__(self, diagnostics: dict[int, str]):
        self.diagnostics = dict(diagnostics)
        lines = "; ".join(f"d={d}: {why}" for d, why in sorted(diagnostics.items()))
        super().__init__(f"no viable stride ({lines})")


@dataclass(frozen=True)
class WindowSet:
    """Training set of T-length price windows taken at stride d."""

    windows: np.ndarray  # shape (count, T)
    d: int

    def __len__(self) -> int:
        return self.windows.shape[0]


def partition(values: Sequence[float] | np.ndarray, d: int, T: int) -> WindowSet:
    """Slice a price series into windows starting at 0-based indices k*d."""
    src = np.asarray(values, dtype=float)
    n = src.shape[0]
    if d < 1:
        raise WindowingError(f"stride must be >= 1, got {d}")
    if T < 1:
        raise WindowingError(f"window length must be >= 1, got {T}")
    if T > n:
        raise WindowingError(f"series too short: T={T} > n={n}")
    if d > T:
        raise WindowingError(f"stride {d} exceeds window length {T}")
    windows = sliding_window_view(src, T)[::d].copy()
    return WindowSet(windows=windows, d=d)


def search_stride(
    values: Sequence[float] | np.ndarray,
    T: int,
    n1: int,
    train_probe: Callable[[WindowSet], bool],
) -> tuple[int, WindowSet]:
    """Smallest stride whose window set has >= n1 windows and a passing probe.

    train_probe returns True when training collapsed for that window set.
    """
    src = np.asarray(values, dtype=float)
    if n1 < 1:
        raise WindowingError(f"N1 must be >= 1, got {n1}")
    diagnostics: dict[int, str] = {}
    for d in range(1, T + 1):
        ws = partition(src, d, T)
        if len(ws) < n1:
            # the count (n - T) // d + 1 never grows with d: no later stride reaches N1
            diagnostics[d] = f"size {len(ws)} < N1={n1}"
            break
        if train_probe(ws):
            diagnostics[d] = "probe collapsed"
            continue
        return d, ws
    raise NoViableStrideError(diagnostics)
