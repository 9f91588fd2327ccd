"""Ceilings on the spectrum of a state, and the per-path bookkeeping that
turns them into skipped eigen solves.

For n >= 3 the engine (:func:`mmlab.simulate.simulate_block`) takes each
maximum over the states X_k of a path in two passes.  The bound pass reads
the states a few steps at a time (:class:`Window`), bounds each from above
(:func:`ceilings`), records the bounds (:func:`record`) and keeps, per
path, copies of the states whose bounds are the largest (:class:`Best`).
Solved, those give lower bounds on the maxima.  The solve pass solves a
state only where a recorded bound still :func:`reaches` one.
"""

from __future__ import annotations

import math

import numpy as np

# relative width added to every eigenvalue bound before it may skip a
# solve: eigvalsh and the bound arithmetic are accurate to a small multiple
# of n * eps (about 1e-16) relative to the norms involved, so this leaves
# room for n far beyond any dimension a LAPACK solve per path can afford
MARGIN = 1e-8
# squares summed below n^2 times this have lost digits to underflow: the
# smallest normal float over the unit roundoff
SQUARES_FLOOR = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
# most bytes of states a Window keeps; speed and memory only
WINDOW_BYTES = 1 << 18


def ceilings(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ceilings on ||x|| and lambda_max(x), as eigvalsh returns them, for
    each matrix of a stack of symmetric ``x``; inf or nan where x is too
    large to square.

    Wolkowicz and Styan (Linear Algebra Appl. 29, 1980): with m = tr x / n,
    every eigenvalue lies within sqrt((n-1)/n) * ||x - m I||_F of m.  x - m I
    is formed explicitly, since ||x||_F^2 - n m^2 cancels to about
    sqrt(eps) * ||x|| near x = m I, which is wider than the margin.  Both
    ceilings are widened by the margin times |m| + ||x - m I||_F, which
    bounds ||x|| and so the rounding of eigvalsh and of this arithmetic.
    """
    c, n = x.shape[:2]
    mean = np.einsum("cii->c", x) / n
    dev = x.reshape(c, n * n).copy()
    dev[:, :: n + 1] -= mean[:, None]
    squares = np.einsum("ci,ci->c", dev, dev)
    # squares below the smallest normal float lose digits: unless x is
    # exactly m I, so small a sum certifies nothing
    unsure = squares < n * n * SQUARES_FLOOR
    if unsure.any():
        unsure = np.flatnonzero(unsure)
        squares[unsure[dev[unsure].any(axis=1)]] = np.inf
    radius = np.sqrt(squares)
    size = np.abs(mean)
    spread = radius * (math.sqrt((n - 1) / n) + MARGIN) + MARGIN * size
    size += spread
    return size, mean + spread


def record(row: np.ndarray, ceiling: np.ndarray) -> None:
    """Store ``ceiling`` in the float32 ``row``, rounded up so that it stays
    a ceiling (nan stays nan)."""
    row[...] = ceiling
    np.nextafter(row, np.float32(np.inf), out=row)


def reaches(ceiling: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Where a value at most ``ceiling`` may reach ``floor``, a lower bound
    on the maximum it competes for: a tie reaches, and so does a nan on
    either side."""
    return ~(ceiling < floor)


class Window:
    """The bound pass's last few states: up to ``length`` consecutive
    states X_{k0+1}, ... in rows 1 to ``count`` of ``states``, row 0
    holding X_{k0}, and their ceilings (see :func:`ceilings`) in ``norm``
    and ``top``, shape (count + 1, paths).  ``length`` is a power of two up
    to ``longest``, so that windows fall inside batches of that many steps,
    and as large as WINDOW_BYTES allows.
    """

    def __init__(self, paths: int, n: int, steps: int, longest: int):
        length = longest
        while length > 1 and (length + 1) * paths * n * n * 8 > WINDOW_BYTES:
            length //= 2
        self.length, self.steps = length, steps
        self.states = np.zeros((length + 1, paths, n, n))
        # X_0 = 0, whose ceilings are 0
        self.norm = self.top = np.zeros((1, paths))

    def add(self, step) -> bool:
        """Take the state after ``step``; True once the window is full or
        the chunk's last step is in, with the ceilings worked out."""
        j = step.k % self.length
        if j == 0 and step.k:
            self.states[0] = self.states[self.length]
        self.states[j + 1] = step.x
        if j < self.length - 1 and step.k < self.steps - 1:
            return False
        self.k0, self.count = step.k - j, j + 1
        x = self.states[1 : j + 2]
        norm, top = ceilings(x.reshape(-1, *x.shape[2:]))
        self.norm = np.concatenate([self.norm[-1:], norm.reshape(j + 1, -1)])
        self.top = np.concatenate([self.top[-1:], top.reshape(j + 1, -1)])
        return True


class Best:
    """Per path, copies of the states at the step with the largest ceiling
    offered so far, their grid indices and that step's ``ve``.  Until a
    path is offered a step its states are X_0 = 0."""

    def __init__(self, paths: int, n: int, count: int):
        self.ceiling = np.full(paths, -np.inf)
        self.states = np.zeros((count, paths, n, n))
        self.index = np.zeros((count, paths), dtype=np.int64)
        self.ve = np.zeros(paths)

    def copy(self) -> Best:
        twin = Best.__new__(Best)
        twin.__dict__ = {name: value.copy() for name, value in self.__dict__.items()}
        return twin

    def offer(self, ceilings, window: Window, rows, ve=None) -> None:
        """Offer the window's steps, whose ceilings are ``ceilings`` (count,
        paths); where one beats a path's best, keep the window's states at
        the step's index plus each of ``rows``, and the step's ``ve``."""
        step = ceilings.argmax(axis=0)
        paths = np.arange(len(step))
        top = ceilings[step, paths]
        idx = (top > self.ceiling).nonzero()[0]
        if len(idx):
            step = step[idx]
            self.ceiling[idx] = top[idx]
            for kept, index, row in zip(self.states, self.index, rows):
                kept[idx] = window.states[step + row, idx]
                index[idx] = window.k0 + step + row
            if ve is not None:
                self.ve[idx] = ve[step, idx]
