"""Ceilings on the spectrum of a state, and the per-path bookkeeping that
turns them into skipped eigen solves.

For n >= 3 the engine (:func:`mmlab.simulate.simulate_block`) takes each
maximum over the states X_k of a path in two passes.  The bound pass reads
the states a few steps at a time (:class:`Window`), bounds each from above
(:func:`ceilings`), records the bounds (:func:`record`) and keeps, per
path, copies of the states whose bounds are the largest (:class:`Best`).
Solved, those give lower bounds on the maxima.  The solve pass flags a
state where a recorded bound still :func:`reaches` one, bounds the flagged
states again by :func:`sharper_ceilings`, and solves those whose sharper
bounds still reach.  The sharper bound costs about ten times the first,
and a third of a small eigvalsh, so it runs on the flagged states only.
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
# bytes of states above which a Window halves its length, down to one
# step (two states per path): speed and memory only
WINDOW_BYTES = 1 << 18
# the ||x - m I||_F^2 for which the eighth powers in sharper_ceilings stay
# normal floats
EIGHTH_RANGE = (1e-60, 1e60)
# most bytes of states sharper_ceilings bounds at once; its temporaries
# take a few times that.  Memory only
SHARP_BYTES = 1 << 16
# largest n at which sharper_ceilings bounds more than ceilings: beyond
# it the bound rules out too few solves to pay for its products (goe_like
# with N = n at 256 paths and 64 steps: n = 12 gains, n = 16 loses), and
# from about n = 100 its rounding, about n^3.5 eps relative to
# ||x - m I||_F, would near MARGIN
EIGHTH_MAX_N = 12


def _deviation(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For a stack of symmetric ``x`` (c, n, n): m = tr x / n, x - m I
    flattened to (c, n * n), and ||x - m I||_F^2."""
    c, n = x.shape[:2]
    mean = np.einsum("cii->c", x) / n
    dev = x.reshape(c, n * n).copy()
    dev[:, :: n + 1] -= mean[:, None]
    return mean, dev, np.einsum("ci,ci->c", dev, dev)


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
    return _styan(x.shape[1], *_deviation(x))


def _styan(n, mean, dev, squares):
    """The ceilings of :func:`ceilings`, from what :func:`_deviation`
    returns."""
    # squares below the smallest normal float lose digits: unless x is
    # exactly m I, so small a sum certifies nothing
    unsure = squares < n * n * SQUARES_FLOOR
    if unsure.any():
        unsure = np.flatnonzero(unsure)
        squares = squares.copy()
        squares[unsure[dev[unsure].any(axis=1)]] = np.inf
    radius = np.sqrt(squares)
    size = np.abs(mean)
    spread = radius * (math.sqrt((n - 1) / n) + MARGIN) + MARGIN * size
    size += spread
    return size, mean + spread


def sharper_ceilings(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ceilings on ||x|| and lambda_max(x), as eigvalsh returns them, for
    each matrix of a stack of symmetric ``x``: those of :func:`ceilings`,
    lowered by an eighth-power bound.

    With m, D = x - m I and R = sqrt((n-1)/n) ||D||_F as there, let
    P = D + R I and Q = R I - D.  No eigenvalue of a symmetric A exceeds
    (tr A^8)^(1/8) = ||A^4||_F^(1/4) in magnitude, so lambda_max(x) <=
    m - R + ||P^4||_F^(1/4) and -lambda_min(x) <= -m - R + ||Q^4||_F^(1/4),
    and ||x|| is at most the larger.  The shift makes the top eigenvalue of
    D the largest of P in magnitude (the bottom one of Q), so the bound is
    close where the rest of the spectrum lies well below it.  Both are
    widened as in :func:`ceilings`.  The products' rounding is at most
    about n^3.5 eps ||D||_F: entries of P^4 are rounded against those of
    |P|^4, ||P||_F^2 = n ||D||_F^2 and ||P^4||_F >= R^4.  Where ||D||_F^2
    lies outside EIGHTH_RANGE, or n exceeds EIGHTH_MAX_N, the ceilings are
    those of :func:`ceilings` alone.
    """
    if x.shape[1] > EIGHTH_MAX_N:
        return ceilings(x)
    norm, top = np.empty(len(x)), np.empty(len(x))
    block = max(1, SHARP_BYTES // (8 * x.shape[1] ** 2))
    for at in range(0, len(x), block):
        part = slice(at, at + block)
        norm[part], top[part] = _sharper(x[part])
    return norm, top


def _sharper(x):
    """:func:`sharper_ceilings` of one block."""
    n = x.shape[1]
    mean, dev, squares = _deviation(x)
    norm, top = _styan(n, mean, dev, squares)
    low, high = EIGHTH_RANGE
    sure = (squares >= low) & (squares <= high)
    if not sure.any():
        return norm, top
    rows = slice(None) if sure.all() else np.flatnonzero(sure)
    mean, squares, dev = mean[rows], squares[rows], dev[rows]
    radius = np.sqrt((n - 1) / n * squares)
    widen = MARGIN * (np.abs(mean) + np.sqrt(squares)) - radius
    # P, then Q, in the one buffer of D
    diag = dev[:, :: n + 1]
    d = diag.copy()
    diag += radius[:, None]
    hi = _root8(dev.reshape(-1, n, n)) + widen + mean
    np.negative(dev, out=dev)
    np.subtract(radius[:, None], d, out=diag)
    lo = _root8(dev.reshape(-1, n, n)) + widen - mean
    top[rows] = np.minimum(top[rows], hi)
    norm[rows] = np.minimum(norm[rows], np.maximum(hi, lo))
    return norm, top


def _root8(a: np.ndarray) -> np.ndarray:
    """(tr A^8)^(1/8) = ||A^4||_F^(1/4) for each of a stack of symmetric
    ``a``."""
    a = a @ a
    a = a @ a
    return np.sqrt(np.sqrt(np.sqrt(np.einsum("cij,cij->c", a, a))))


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
