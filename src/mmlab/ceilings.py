"""Ceilings on the spectrum of a state, and the per-path bookkeeping that
turns them into skipped eigen solves.

For n >= 3 the engine (:func:`mmlab.simulate.simulate_block`) takes each
maximum over the states X_k of a path from a few exact spectra and many
upper bounds.  Every state is a combination of one fixed basis, and
:func:`sweep` bounds them all from their coefficients
(:class:`Coefficients`), without forming a state.  The bounds are
recorded (:func:`record`), and per path the coefficients of the steps
whose bounds are the largest are kept (:class:`Best`).  Rebuilt and
solved, those give lower bounds on the maxima.  A :class:`Replay` of the
states then flags those whose recorded bounds still :func:`reaches` one,
bounds them again by :func:`sharper_ceilings`, and solves those whose
sharper bounds still reach.  The sharper bound costs about ten times the
first, and a third of a small eigvalsh, so it runs on the flagged states
only.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# relative width added to every eigenvalue bound before it may skip a
# solve: eigvalsh and the bound arithmetic are accurate to a small multiple
# of n * eps (about 1e-16) relative to the norms involved, so this leaves
# room for n far beyond any dimension a LAPACK solve per path can afford
MARGIN = 1e-8
EPS = np.finfo(np.float64).eps
# squares summed below n^2 times this have lost digits to underflow: the
# smallest normal float over the unit roundoff
SQUARES_FLOOR = np.finfo(np.float64).tiny / EPS
# the smallest subnormal float: the most a product's underflow loses is
# half of it
SUBNORMAL = math.ldexp(1.0, -1074)
# added to each scaled basis norm of Coefficients, whose largest entry is
# near 1: far above what underflows in its traces and Gram matrix, far
# below any norm that matters
TINY_WEIGHT = math.ldexp(1.0, -500)
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
    return _widened(n, mean, np.sqrt(squares))


def _widened(n, mean, radius):
    """Ceilings on ||x|| and lambda_max(x) from m = tr x / n and a radius
    at least ||x - m I||_F, widened by the margin."""
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


class Coefficients:
    """Ceilings on X = sum_b c_b B_b, for a fixed stack ``basis`` of M
    symmetric n x n matrices, from the coefficients c alone.

    Every Euler state is such a combination.  Where the integrand depends
    on time alone, X_k = sum_i W_k^i A_i with the drivers' running sums
    W_k = sum_{j<k} dB_j, and time_poly adds its slopes S_i with the
    coefficients sum_{j<k} t_j dB_j^i.  On path_feedback the step
    X_{k+1} = (1 + g_k) X_k + sum_i dB_k^i A_i, with g_k = gamma sum_i dB_k^i,
    keeps X_k = sum_i c_{k,i} A_i on the coefficient path
    c_{k+1} = (1 + g_k) c_k + dB_k (:meth:`feedback_path`).  Then
    tr X = c . tau with tau_b = tr B_b, and
    ||X - (tr X / n) I||_F^2 = c^T G c with G the Gram matrix of the
    traceless parts B_b - (tau_b / n) I: the Wolkowicz-Styan ceilings of
    :func:`ceilings` at O(M^2) per state, not O(n^2) per basis matrix.

    Rounding, with u = eps / 2 the unit roundoff, gamma_m = m u / (1 - m u),
    ||B_b||_F read as the computed norms (rounded up) and
    S_k = sum_{j<k} sum_b |dc_j^b| ||B_b||_F the size of the path of
    coefficient increments dc up to grid index k:

    (a) The Euler state and sum_b c_{k,b} B_b, with c as computed, differ
        by rounding only: ||X^Euler_k - sum_b c_{k,b} B_b||_F <= drift_k,
        drift_k = 2 (k + M + n + 4) eps S_k + k n (2M + 3) 2^-1074.
        Step j adds D_j = fl(sum_i dB_j^i fl(A_i + fl(t_j S_i))), within
        gamma_{N+3} sum_b |dc_j^b| |B_b| of its exact value entrywise, and
        the sum X_j + D_j rounds by u times its size, at most
        (1 + gamma) sum_{l<=j} sum_b |dc_l^b| |B_b|.  Over k steps that is
        (N + 3 + k)(1 + gamma) u S_k in the Frobenius norm.  The computed c
        is a running sum (of the products t_j dB_j on the slopes), within
        gamma_{k+1} sum_{j<k} |dc_j^b| of the exact one: (k + 1) u S_k
        more.  Underflow adds at most 2^-1075 per product and nothing to a
        sum, n (2M + 3) 2^-1075 per step in the Frobenius norm.  The bound
        also covers the traces and the mean below (n + M + 2) u S_k, and
        the (M + 1) u S_k of :meth:`rebuild`.  It grows with k and S_k, so
        the bound at a later grid index holds for every state before it.
    (a') On path_feedback (M = N) X and c both take the step as
        fl(fl(v + d) + fl(g_k v)), with d = D_k = fl(sum_i dB_k^i A_i)
        for X and d = dB_k for c, and g_k computed once, bit for bit as
        the stepper computes it.  Each result is within
        2u(1 + u)(|v| + |d| + |g_k| |v|) + 2^-1074 of v + d + g_k v
        entrywise, and D_k within gamma_N sum_i |dB_k^i| |A_i| + (N + 1)
        2^-1075 of its exact value.  So E_k = X^Euler_k - sum_b c_{k,b} B_b
        follows E_{k+1} = (1 + g_k) E_k + e_k.  With w_k = sum_b |c_{k,b}|
        ||B_b||_F, a_k = sum_b |dB_k^b| ||B_b||_F + (1 + |g_k|) w_k, the
        underflow U = n (2M + 3) 2^-1074 + 2^-1074 sum_b ||B_b||_F and
        1 + |g| <= 3 max(1, |1 + g|), the step's own rounding is
        ||e_k||_F <= (N + 4)(1 + 2^-38) u a_k + U
        + 6u(1 + u) max(1, |1 + g_k|) ||E_k||_F (for N u <= 2^-40).
        Later steps multiply it by their 1 + g_l.  With
        G_k = prod_{l<k} max(1, |1 + g_l|) and S_k = sum_{j<k} a_j, the
        recursion gives ||E_k||_F <= (1 + 7u)^k G_k ((N + 4)(1 + 2^-38) u
        S_k + k U), and that of c gives w_k <= (1 + 7u)^k (1 + 3u) G_k
        (S_k + k U), so the (2n + 2M + 6) u w_k of the traces, the Gram
        radius and :meth:`rebuild` in (a) come on top.  Both are covered by
        drift_k = G_k ((3M + 2n + 10) eps S_k + 2 k U), whose factor 2
        also covers the (1 + O(u))^k of these bounds and of computing G_k
        and S_k on any grid of fewer than 2^40 steps.  It grows with k,
        S_k and G_k.
    (b) c^T G c cancels where the state is small against its coefficients
        (a basis matrix and nearly its negative on equal coefficients,
        say).  Its rounding, at most gamma_{n^2 + 2M} w^2 with
        w = sum_b |c_b| ||B_b - (tau_b / n) I||_F, goes inside the square
        root.  After the root it would cost sqrt(gamma) w, far above the
        margin times the norm of such a small state, so no margin that
        scales with the state can cover it.

    G is the Gram matrix of the traceless parts as computed, which move
    the radius by (n + 3) u S_k at most, inside (a).  Every ceiling is
    widened by (a) on top of the widening of :func:`ceilings`.  The basis
    is scaled by a power of two to entries below 1, so that G neither
    overflows nor underflows; ``TINY_WEIGHT`` added to each basis norm
    covers what underflows in the scaled traces and Gram matrix.
    """

    def __init__(self, basis: np.ndarray):
        self.basis = basis
        m, n = basis.shape[:2]
        self.n, self.m = n, m
        largest = float(np.abs(basis).max())
        self.scale = math.ldexp(1.0, math.frexp(largest)[1]) if largest > 0.0 else 1.0
        scaled = basis / self.scale
        self.trace = np.einsum("bii->b", scaled)
        free = scaled.reshape(m, n * n).copy()
        free[:, :: n + 1] -= self.trace[:, None] / n
        self.gram = free @ free.T
        # each norm rounded up past its own rounding
        grow = 1.0 + (n * n + 2) * EPS
        self.norms = np.sqrt(np.einsum("bij,bij->b", scaled, scaled)) * grow + TINY_WEIGHT
        self.free_norms = np.sqrt(np.einsum("bi,bi->b", free, free)) * grow + TINY_WEIGHT
        self.in_root = (n * n + 2 * m + 2) * EPS
        # per step, what underflow adds to the Euler state, in scaled units;
        # on path_feedback U of (a'), whose sum_b ||B_b||_F is below n M
        # in scaled units
        self.underflow = n * (2 * m + 3) * SUBNORMAL / self.scale
        self.feedback_underflow = self.underflow + n * m * SUBNORMAL

    def sizes(self, dc: np.ndarray) -> np.ndarray:
        """sum_b |dc^b| ||B_b||_F for each row of coefficients ``dc``
        (..., M), in the units of :meth:`ceilings`; summed over the steps
        up to grid index k they give S_k."""
        return np.abs(dc) @ self.norms

    def feedback_path(self, gamma, c, dB, ks: range, size, growth) -> np.ndarray:
        """The coefficients (len(ks) + 1, paths, M) of path_feedback's
        states at grid indices ks.start to ks.stop, from those at ks.start,
        ``c`` (paths, M), the feedback ``gamma`` and the increments ``dB``
        (paths, steps, drivers).  Adds each step's a_k of (a') to ``size``
        and multiplies ``growth`` by its max(1, |1 + g_k|), in place."""
        rows = np.empty((len(ks) + 1, *c.shape))
        rows[0] = c
        for j, k in enumerate(ks, 1):
            dB_k = dB[:, k, :]
            # g_k as EulerScheme.advance computes it
            g = gamma * dB_k.sum(axis=1)
            size += self.sizes(dB_k) + (1.0 + np.abs(g)) * self.sizes(c)
            growth *= np.maximum(1.0, np.abs(1.0 + g))
            c = rows[j] = (c + dB_k) + g[:, None] * c
        return rows

    def drift(self, size, k, growth=None):
        """Bound (a) at grid index ``k`` on paths whose S_k are ``size``,
        or (a') where their G_k are ``growth``, in the units of the
        basis."""
        return self.scale * self._drift(size, k, growth)

    def _drift(self, size, k, growth):
        if growth is None:
            return (2.0 * EPS) * (k + self.m + self.n + 4) * size + k * self.underflow
        terms = (3 * self.m + 2 * self.n + 10) * EPS * size + 2 * k * self.feedback_underflow
        return growth * terms

    def ceilings(self, c, size, k, growth=None) -> tuple[np.ndarray, np.ndarray]:
        """Ceilings on ||X^Euler|| and lambda_max(X^Euler), as eigvalsh
        returns them, from the coefficients ``c`` (..., paths, M) of
        states at grid indices up to ``k``, on paths whose S_k are
        ``size`` (in the units of :meth:`sizes`) and, on path_feedback,
        whose G_k are ``growth``; inf where they leave float64 range."""
        mean = c @ self.trace / self.n
        squares = np.einsum("...b,...b->...", c @ self.gram, c)
        w = np.abs(c) @ self.free_norms
        radius = np.sqrt(np.maximum(squares, 0.0) + self.in_root * w * w)
        norm, top = _widened(self.n, mean, radius)
        drift = self._drift(size, k, growth)
        return self.scale * (norm + drift), self.scale * (top + drift)

    def rebuild(self, c: np.ndarray) -> np.ndarray:
        """sum_b c_b B_b for each row of ``c`` (..., M)."""
        return np.einsum("...b,bij->...ij", c, self.basis)


class Batch(NamedTuple):
    """The coefficient ceilings of one batch of steps from grid index k0:
    rows 0 to ``count`` of ``norm`` and ``top`` bound X_{k0}, ..., and
    ``c`` holds their coefficients (see :class:`Coefficients`)."""

    k0: int
    count: int
    norm: np.ndarray
    top: np.ndarray
    c: np.ndarray


class Best:
    """Per path, the step with the largest ceiling offered so far.

    For each of ``rows`` (0 for the state before the step, 1 for the state
    after it) it keeps the state's grid index and its ``m`` coefficients
    (see :class:`Coefficients`), and the step's ``ve``.  Until a path is
    offered a step it keeps X_0 = 0.  Once the kept states are solved,
    ``eigs`` holds their spectra row by row, and ``slack`` how far below
    them the exact spectra of the Euler states may lie.
    """

    def __init__(self, paths: int, rows: tuple[int, ...], m: int):
        self.rows = rows
        self.ceiling = np.full(paths, -np.inf)
        self.kept = np.zeros((len(rows), paths, m))
        self.index = np.zeros((len(rows), paths), dtype=np.int64)
        self.ve = np.zeros(paths)
        self.slack = np.zeros((len(rows), 1))

    def copy(self) -> Best:
        twin = Best.__new__(Best)
        twin.__dict__ = {
            name: value.copy() if isinstance(value, np.ndarray) else value
            for name, value in self.__dict__.items()
        }
        return twin

    def offer(self, ceilings, batch, ve=None) -> None:
        """Offer the steps of ``batch`` from grid index ``batch.k0``, whose
        ceilings are ``ceilings`` (count, paths); where one beats a path's
        best, keep it.  A nan ceiling never wins, and the other steps of
        its batch are offered as usual."""
        nan = np.isnan(ceilings)
        if nan.any():
            ceilings = np.where(nan, -np.inf, ceilings)
        step = ceilings.argmax(axis=0)
        paths = np.arange(len(step))
        top = ceilings[step, paths]
        idx = (top > self.ceiling).nonzero()[0]
        if len(idx):
            step = step[idx]
            self.ceiling[idx] = top[idx]
            for j, row in enumerate(self.rows):
                self.index[j, idx] = batch.k0 + step + row
                self.kept[j, idx] = batch.c[step + row, idx]
            if ve is not None:
                self.ve[idx] = ve[step, idx]


def sweep(scheme, maxima, dB, batch: int) -> np.ndarray:
    """The bound pass: array arithmetic on the coefficient path of the
    increments ``dB`` (paths, steps, drivers) of ``scheme``, a
    :class:`mmlab.simulate.EulerScheme`, ``batch`` steps at a time, with
    no state formed.  Each of the ``maxima`` collectors' ``bound`` records
    a :class:`Batch`'s ceilings and offers its steps to the trackers,
    which keep the coefficients of the steps with the largest ceilings.
    Returns each path's bound (a), on path_feedback (a'), at the last step
    (see :class:`Coefficients`), in the units of the basis."""
    coefficients, steps = scheme.coefficients, scheme.grid.steps
    paths = len(dB)
    # row 0 of each is X_{k0}: X_0 = 0 for the first batch
    c = np.zeros((1, paths, coefficients.m))
    norm = top = np.zeros((1, paths))
    size = np.zeros(paths)
    # G_k of (a'); the other families' update adds to the state
    growth = np.ones(paths) if scheme.feedback else None
    for k0 in range(0, steps, batch):
        ks = range(k0, min(k0 + batch, steps))
        if growth is None:
            dc = scheme.increments(dB, ks)
            # running sums in step order, as the bound (a) assumes
            c = np.cumsum(np.concatenate([c[-1:], dc]), axis=0)
            size += coefficients.sizes(dc).sum(axis=0)
        else:
            c = coefficients.feedback_path(scheme.spec.gamma, c[-1], dB, ks, size, growth)
        # the bound grows with the grid index, the size and the growth, so
        # that at the batch's last step holds for all of its states
        norm_k, top_k = coefficients.ceilings(c[1:], size, ks.stop, growth)
        norm = np.concatenate([norm[-1:], norm_k])
        top = np.concatenate([top[-1:], top_k])
        for m in maxima:
            m.bound(Batch(k0, len(ks), norm, top, c))
    return coefficients.drift(size, steps, growth)


def kept_states(bests: list[Best], paths: int):
    """What the trackers keep, once per state: the sorted keys
    grid index * paths + path of their states, what they keep of each, and
    for each of their rows, stacked, the index of its state."""
    index = np.concatenate([b.index for b in bests]).reshape(-1)
    key = index * paths + np.tile(np.arange(paths), len(index) // paths)
    unique, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    kept = np.concatenate([b.kept for b in bests])
    return unique, kept.reshape(-1, *kept.shape[2:])[first], inverse


def per_tracker(bests: list[Best], values: np.ndarray, inverse: np.ndarray) -> list:
    """Per tracker, ``values`` (one per kept state) at its rows."""
    rows = values[inverse.reshape(-1)].reshape(-1, len(bests[0].ve), *values.shape[1:])
    bounds = np.cumsum([0] + [len(b.rows) for b in bests])
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


class Replay:
    """Settles the maxima over x after steps 0 to steps - 2, which
    :meth:`take` is handed in order, on ``paths`` paths of n x n states.

    ``maxima`` are the collectors that take maxima over x (see
    :class:`mmlab.simulate._Collector`).  The replay works one batch of
    ``batch`` steps at a time, or a shorter span of one where the batch's
    flagged states would exceed ``budget`` bytes.  Each collector's
    ``flags`` says which states of a span its recorded ceilings still let
    move its maxima.  Those are re-certified by :func:`sharper_ceilings`:
    each collector's ``recertify`` says which of them may still move its
    maxima, and ``solve`` solves the survivors in one call.  ``settle``
    then takes x after each step of the span, in order.  No state of a
    ``dropped`` path is flagged.
    """

    def __init__(self, maxima, steps, paths, n, batch, budget, solve, dropped=None):
        self.maxima, self.steps, self.n = maxima, steps, n
        self.batch, self.budget, self.solve, self.dropped = batch, budget, solve, dropped
        # ceilings on the states of one span, row j holding X_{k0 + j}: inf
        # where a state is not flagged; row 0 is the last span's last row,
        # X_0 = 0 for the first
        self.norm = self.top = np.zeros((1, paths))
        self.ks = range(0)

    def take(self, k: int, x: np.ndarray) -> None:
        """x after step k."""
        if k == self.ks.stop:
            self._span(k)
        at = slice(self.starts[k - self.ks.start], self.starts[k - self.ks.start + 1])
        self.flagged[at] = x[self.col[at]]
        if k == self.ks.stop - 1:
            self._settle()

    def _span(self, k0):
        """The rest of this batch of steps, or as much of it as keeps the
        flagged states within the budget, and at least one step."""
        n = self.n
        end = min(k0 - k0 % self.batch + self.batch, self.steps - 1)
        need = np.logical_or.reduce([c.flags(slice(k0, end)) for c in self.maxima])
        if self.dropped is not None:
            need[:, self.dropped] = False
        held = np.cumsum(need.sum(axis=1)) * (8 * n * n)
        self.ks = range(k0, k0 + max(1, int(np.searchsorted(held, self.budget, side="right"))))
        # the flagged states: x after step k0 + row on path col
        self.row, self.col = need[: len(self.ks)].nonzero()
        self.starts = np.searchsorted(self.row, np.arange(len(self.ks) + 1))
        self.flagged = np.empty((len(self.row), n, n))

    def _settle(self):
        ks, row, col, flagged = self.ks, self.row, self.col, self.flagged
        k0, paths = ks.start, self.norm.shape[1]
        norm = np.concatenate([self.norm[-1:], np.full((len(ks), paths), np.inf)])
        top = np.concatenate([self.top[-1:], np.full((len(ks), paths), np.inf)])
        norm[row + 1, col], top[row + 1, col] = sharper_ceilings(flagged)
        survive = np.logical_or.reduce([c.recertify(k0, norm, top) for c in self.maxima])[row, col]
        solved = self.solve(flagged[survive]) if survive.any() else np.zeros((0, self.n))
        row, col = row[survive], col[survive]
        starts = np.searchsorted(row, np.arange(len(ks) + 1))
        for j, k in enumerate(ks):
            at = slice(starts[j], starts[j + 1])
            for c in self.maxima:
                c.settle(k, col[at], solved[at])
        self.norm, self.top, self.flagged = norm, top, None
