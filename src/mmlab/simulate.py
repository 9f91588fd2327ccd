"""Brownian drivers and Euler construction of the matrix integral.

The process and its quadratic variation are built step by step on a
uniform grid with left-endpoint (Ito) evaluation:

    x[k+1]  = x[k]  + sum_i H_i(t_k, state_k) * dB_k^i
    qv[k+1] = qv[k] + sum_i H_i(t_k, state_k)^2 * dt

The increments are fixed by one 64-bit seed per path: path j's are
numpy's PCG64 seeded through SeedSequence from its seed, that is
``default_rng(seed).standard_normal((steps, drivers)) * sqrt(dt)``, bit
for bit.  :func:`brownian_increments` draws a whole chunk of paths, with
the SeedSequence hash run once over all of their seeds.

One stepper, :meth:`EulerScheme.steps`, runs this update on a batch of
increments (paths, steps, drivers), moving x by :meth:`EulerScheme.advance`;
:func:`simulate_path` runs it on one path and keeps the whole
:class:`Trajectory` (trajectory dumps).
:func:`simulate_block` runs it on each chunk of a block and, after every
step, feeds one collector object per :class:`CollectorPlan` field from a
cache that solves each spectrum (x, qv, sum_i H_i^2, sum_i H_i) at most
once per step.

The statistics that read x at every step, sup_k ||X_k|| and the bridge
suprema of lambda_max, are maxima over the steps, and a maximum does not
depend on the order of its terms.  Each is taken by one method,
``settle(k, idx, eigs)``, from x after step k solved on the paths ``idx``.
Where the dimension has a closed form (n <= 2) ``settle`` sees every path
after every step.  For n >= 3, where every solve is a LAPACK call, x is
bounded from above by the Wolkowicz-Styan ceilings (from tr X and
||X - (tr X / n) I||_F alone), and per path the states whose ceilings are
the largest are kept.  Solved in one call, those give lower bounds that
the maxima actually attain somewhere on the path, and a state is flagged
where its ceilings still reach such a bound.  Every state is
X_k = sum_b c_{k,b} B_b on the fixed basis of the payloads (and slopes),
with coefficients that depend on the increments alone, so the bound pass
is array arithmetic on the drivers' coefficient path
(:class:`~mmlab.ceilings.Coefficients`), and the kept states are rebuilt
from their coefficients, their spectra lowered by the rounding between
the two.  Where the integrand depends on time alone the chunk then takes
one pass through the stepper.  On path_feedback the stepper pass comes
first, since the bridge's variance and admitted levels depend on the
path, then the bound pass, and a replay of x alone by
:meth:`EulerScheme.advance`.  Either way, a batch of steps at a
time, the flagged states are bounded again by the sharper eighth-power
ceilings of :func:`~mmlab.ceilings.sharper_ceilings` (up to n = 12) and
against the maxima so far; those that still reach are solved in one call
and fed to ``settle``, and every path at the last step.  The ceilings are
widened by a relative margin far above the rounding of ``eigvalsh``, so
the outputs are bit-identical to solving every path at every step.  On
path_feedback the bound pass brackets qv by Weyl's inequality and solves
it only where a sigma^2 level falls inside.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ceilings import (
    MARGIN,
    Best,
    Coefficients,
    Replay,
    kept_states,
    per_tracker,
    record,
    reaches,
    sweep,
)
from .errors import InputDomainError, PathBlowupError
from .integrands import (
    IntegrandSpec,
    aggregates,
    deterministic_sum,
    deterministic_sum_squares,
    feedback_sum,
    feedback_sum_squares,
    is_path_dependent,
)
from .linalg import has_closed_form, schatten_from_eigenvalues, stacked_eigenvalues

DEFAULT_HORIZON = 1.0
DEFAULT_STEPS = 256

# paths processed per vectorized slice inside a block; pure per-path
# arithmetic, so the value affects memory and speed only
_CHUNK = 1024
# grid steps per batch of bridge draws; memory and speed only
_BRIDGE_STEPS = 16
# most bytes of flagged states the replay holds at once, unless one
# step's exceed it; memory only
_REPLAY_BYTES = 1 << 20

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1
# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_SEED_INIT_A, _SEED_MULT_A = 0x43B0D7E5, 0x931E8875
_SEED_INIT_B, _SEED_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEED_MIX_L, _SEED_MIX_R = 0xCA01F9DD, 0x4973F715
# splitmix64 increment (golden-ratio constant); counter streams step by it
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, horizon] with `steps` Euler steps."""

    horizon: float = DEFAULT_HORIZON
    steps: int = DEFAULT_STEPS

    def __post_init__(self):
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise InputDomainError(f"horizon must be positive and finite, got {self.horizon}")
        if self.steps < 1:
            raise InputDomainError(f"steps must be >= 1, got {self.steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    def times(self) -> np.ndarray:
        """steps+1 grid points; the last one equals horizon exactly."""
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class Trajectory:
    """One realized path of (X, <X>) on the grid; index 0 is t = 0."""

    times: np.ndarray
    x: np.ndarray
    qv: np.ndarray

    def __post_init__(self):
        self.times.flags.writeable = False
        self.x.flags.writeable = False
        self.qv.flags.writeable = False


def _path_seeds(seeds) -> np.ndarray:
    """``seeds`` as a 1-D uint64 array.

    Raises InputDomainError unless every seed is an integer in [0, 2^64).
    A list is read seed by seed: numpy would turn a list that mixes seeds
    below 2^63 with seeds above it into float64.
    """
    if isinstance(seeds, np.ndarray) and seeds.ndim == 1:
        if seeds.dtype.kind == "u" or (seeds.dtype.kind == "i" and (seeds >= 0).all()):
            return seeds.astype(np.uint64, copy=False)
    try:
        values = [operator.index(s) for s in seeds]
    except TypeError:
        raise InputDomainError("path seeds must form a 1-D sequence of integers") from None
    if not all(0 <= v <= MASK64 for v in values):
        raise InputDomainError("path seeds must lie in [0, 2^64)")
    return np.array(values, dtype=np.uint64)


def _hashmix(value: np.ndarray, key: int, mult: int) -> tuple[np.ndarray, int]:
    """One step of numpy's SeedSequence hash on uint32 words; returns the
    hashed words and the next key.  The keys never depend on the data."""
    following = key * mult & MASK32
    value = (value ^ np.uint32(key)) * np.uint32(following)
    return value ^ (value >> 16), following


def seed_words(seeds: np.ndarray) -> np.ndarray:
    """(len(seeds), 4) uint64: ``SeedSequence(seed).generate_state(4, np.uint64)``
    for every uint64 seed, as uint32 array arithmetic over all seeds at once.

    A seed is the entropy words (low, high) mixed into a pool of four.  A
    seed below 2^32 has one word, and SeedSequence hashes the pool slot it
    leaves empty from 0, exactly as it hashes a zero high word.
    """
    low = (seeds & MASK32).astype(np.uint32)
    high = (seeds >> 32).astype(np.uint32)
    zero = np.zeros(len(seeds), dtype=np.uint32)
    key = _SEED_INIT_A
    pool = []
    for word in (low, high, zero, zero):
        hashed, key = _hashmix(word, key, _SEED_MULT_A)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, key = _hashmix(pool[src], key, _SEED_MULT_A)
                mixed = pool[dst] * np.uint32(_SEED_MIX_L) - hashed * np.uint32(_SEED_MIX_R)
                pool[dst] = mixed ^ (mixed >> 16)
    key = _SEED_INIT_B
    state = np.empty((len(seeds), 8), dtype=np.uint64)
    for i in range(8):
        state[:, i], key = _hashmix(pool[i % 4], key, _SEED_MULT_B)
    # each 64-bit word is two consecutive 32-bit words, low word first;
    # C order, since PCG64 reads a path's four words from memory
    return state[:, 0::2] | state[:, 1::2] << 32


@functools.cache
def _fixed_seed_sequence() -> type:
    """An ISeedSequence whose state is words worked out beforehand.

    Built on first use, so that importing mmlab leaves numpy.random
    unimported.  PCG64 asks its seed sequence only for
    ``generate_state(4, np.uint64)``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class FixedSeedSequence(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return FixedSeedSequence


def brownian_increments(grid: TimeGrid, drivers: int, seeds) -> np.ndarray:
    """(len(seeds), steps, drivers) Gaussian increments of variance dt.

    Path j's increments are, bit for bit,
    ``default_rng(seeds[j]).standard_normal((steps, drivers)) * sqrt(dt)``:
    numpy's PCG64 seeded through SeedSequence from the path's 64-bit seed.
    The SeedSequence hash runs once over all seeds (:func:`seed_words`);
    numpy then seeds each path's PCG64 from the words as it would itself.
    """
    if drivers < 1:
        raise InputDomainError(f"drivers must be >= 1, got {drivers}")
    words = seed_words(_path_seeds(seeds))
    fixed = _fixed_seed_sequence()
    Generator, PCG64 = np.random.Generator, np.random.PCG64
    dB = np.empty((len(words), grid.steps, drivers))
    for path, w in zip(dB, words):
        Generator(PCG64(fixed(w))).standard_normal(out=path)
    dB *= math.sqrt(grid.dt)
    return dB


class EulerStep(NamedTuple):
    """A batch of paths after Euler step k, i.e. at grid index k + 1.

    ``x`` and ``qv`` are the states at t_{k+1}; ``x_left`` and
    ``s2`` = sum_i H_i(t_k)^2 are the left-endpoint values the step
    used.  For families whose integrand depends on time alone ``qv`` and
    ``s2`` are one (n, n) matrix shared by every path.  ``excluded``
    flags the paths dropped so far by :func:`_drop`: those whose state
    left float64 range (carried on as zeros) and those a collector
    dropped.  It is one array, updated in place.
    """

    k: int
    x_left: np.ndarray
    x: np.ndarray
    qv: np.ndarray
    s2: np.ndarray
    excluded: np.ndarray


class EulerScheme:
    """The left-endpoint Euler update of one integrand on one grid.

    Construction does the path-free work once: the driver aggregates
    and, for families whose integrand depends on time alone, ``s2``
    (sum_i H_i(t_k)^2 at each left endpoint, shape (steps, n, n)), ``qv``
    (the quadratic variation on the whole grid, shape (steps + 1, n, n)),
    both None for path_feedback; and for every family ``coefficients``,
    the ceilings of the states from their coefficients on the basis of
    the payloads (and slopes).
    """

    def __init__(self, spec: IntegrandSpec, grid: TimeGrid):
        self.spec = spec
        self.grid = grid
        self.feedback = is_path_dependent(spec)
        self.agg = aggregates(spec)
        self.times = grid.times()
        self.s2 = self.qv = None
        n = spec.n
        if not self.feedback:
            with np.errstate(over="ignore", invalid="ignore"):
                self.s2 = deterministic_sum_squares(spec, self.times[:-1])
                self.qv = np.concatenate(
                    [np.zeros((1, n, n)), np.cumsum(self.s2 * grid.dt, axis=0)]
                )
        basis = spec.matrices
        if spec.slopes is not None:
            basis = np.concatenate([basis, spec.slopes])
        self.coefficients = Coefficients(basis)

    def increments(self, dB, ks: range) -> np.ndarray:
        """The coefficient increments (len(ks), paths, M) of the steps
        ``ks``, from the increments ``dB`` (paths, steps, drivers): dB_k,
        and on time_poly also t_k dB_k for the slopes."""
        dc = dB[:, ks.start : ks.stop].transpose(1, 0, 2)
        if self.spec.slopes is None:
            return dc
        return np.concatenate([dc, self.times[ks.start : ks.stop, None, None] * dc], axis=-1)

    def advance(self, x, dB_k, k):
        """x after Euler step k, from x at t_k and the increments ``dB_k``
        (paths, drivers): the one X update, which the stepper and the
        path_feedback replay of :func:`simulate_block` run.  On
        path_feedback :meth:`~mmlab.ceilings.Coefficients.feedback_path`
        takes the same step on the coefficients."""
        spec = self.spec
        h_k = spec.matrices
        if spec.family == "time_poly":
            h_k = spec.matrices + self.times[k] * spec.slopes
        x_next = x + np.einsum("ci,ikl->ckl", dB_k, h_k)
        if not self.feedback:
            return x_next
        return x_next + spec.gamma * dB_k.sum(axis=1)[:, None, None] * x

    def steps(self, dB):
        """Yield one :class:`EulerStep` per grid step of the paths driven
        by ``dB`` (paths, steps, drivers), starting from x = qv = 0."""
        spec, grid = self.spec, self.grid
        K, n, dt = grid.steps, spec.n, grid.dt
        if dB.shape[1:] != (K, spec.drivers):
            raise InputDomainError(
                f"increments shape {dB.shape} does not match (paths, steps, drivers) = "
                f"(..., {K}, {spec.drivers})"
            )
        c = dB.shape[0]
        x = np.zeros((c, n, n))
        qv = np.zeros((c, n, n)) if self.feedback else None
        excluded = np.zeros(c, dtype=bool)
        for k in range(K):
            x_left = x
            with np.errstate(over="ignore", invalid="ignore"):
                if self.feedback:
                    s2 = feedback_sum_squares(spec, x, self.agg)
                    # sanitize before any eigen work: a blown-up state must
                    # never reach LAPACK
                    _drop(_bad_rows(s2), excluded, x, qv, s2)
                    qv = qv + s2 * dt
                else:
                    s2, qv = self.s2[k], self.qv[k + 1]
                x = self.advance(x, dB[:, k, :], k)
                states = (x, qv) if self.feedback else (x,)
                _drop(_bad_rows(*states), excluded, *states)
            yield EulerStep(k, x_left, x, qv, s2, excluded)


def simulate_path(spec: IntegrandSpec, grid: TimeGrid, seed) -> Trajectory:
    """One full trajectory for one seed: the stepper on a single path.

    Raises PathBlowupError at the first step whose state leaves float64
    range.
    """
    n = spec.n
    x = np.zeros((grid.steps + 1, n, n))
    qv = np.zeros((grid.steps + 1, n, n))
    dB = brownian_increments(grid, spec.drivers, [seed])
    for step in EulerScheme(spec, grid).steps(dB):
        x[step.k + 1] = step.x
        qv[step.k + 1] = step.qv
        if step.excluded[0] or not np.isfinite(qv[step.k + 1]).all():
            raise PathBlowupError(f"path left float64 range at step {step.k + 1}")
    return Trajectory(times=grid.times(), x=x, qv=qv)


def supermartingale_series(traj: Trajectory, beta: float) -> np.ndarray:
    """Tr exp(beta*x[k] - (beta^2/2)*qv[k]) along the grid.

    Starts at the matrix dimension exactly; an exponent or a trace that
    overflows raises PathBlowupError rather than returning infinity.
    """
    if not math.isfinite(beta):
        raise InputDomainError(f"beta must be finite, got {beta}")
    with np.errstate(over="ignore", invalid="ignore"):
        m = beta * traj.x - (0.5 * beta * beta) * traj.qv
    # a non-finite exponent must never reach LAPACK
    if not np.isfinite(m).all():
        raise PathBlowupError(f"supermartingale exponent at beta = {beta:g} overflows float64")
    eigs = stacked_eigenvalues(m)
    top = float(eigs.max())
    if top + math.log(traj.x.shape[-1]) > math.log(np.finfo(np.float64).max):
        raise PathBlowupError("supermartingale statistic overflows float64")
    return np.exp(eigs).sum(axis=-1)


def exact_constant_spectral_norms(matrices, seed, count: int) -> np.ndarray:
    """Spectral norms of `count` independent exact samples of X_1.

    Vectorized sampler for the constant family; diagonal payloads (the
    diag_basis case) reduce to a max of folded Gaussians, which keeps
    large n cheap.  A sample that leaves float64 range gets a non-finite
    norm, without a numpy warning, and never reaches LAPACK.
    """
    mats = np.asarray(matrices, dtype=np.float64)
    if count < 1:
        raise InputDomainError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    n = mats.shape[-1]
    diagonal = all(np.array_equal(m, np.diag(np.diag(m))) for m in mats)
    with np.errstate(over="ignore", invalid="ignore"):
        if diagonal:
            diags = np.stack([np.diag(m) for m in mats])
            g = rng.standard_normal((count, mats.shape[0]))
            return np.abs(g @ diags).max(axis=1)
        out = np.full(count, np.inf)
        chunk = max(1, 2**22 // (n * n * 8))
        for done in range(0, count, chunk):
            g = rng.standard_normal((min(chunk, count - done), mats.shape[0]))
            x = np.einsum("si,ikl->skl", g, mats)
            finite = np.isfinite(x).all(axis=(1, 2))
            out[done : done + len(g)][finite] = _norm(stacked_eigenvalues(x[finite]))
    return out


def default_checkpoints(steps: int) -> tuple[int, ...]:
    """Eight grid indices spanning 0..steps, always including both ends
    (fewer on a grid of fewer than seven steps)."""
    if steps < 1:
        raise InputDomainError(f"checkpoints need a grid with steps >= 1, got {steps}")
    return tuple(sorted({round(j * steps / 7) for j in range(8)}))


def splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 avalanche of a uint64 array, in place; returns z.

    Array arithmetic wraps mod 2^64 without overflow warnings.
    """
    tmp = np.empty_like(z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def bridge_exponentials(seeds, steps) -> np.ndarray:
    """Exp(1) draws -log(1 - U), shape (len(steps), len(seeds)).

    U for (path, step k) comes from splitmix64(seed + (k+1)*gamma), its
    top 52 bits as a double in [0, 1): a counter stream pure in (path
    seed, step), so no paths x steps buffer is needed and the path's
    Brownian increments are left untouched.
    """
    offsets = (np.asarray(steps, dtype=np.uint64) + np.uint64(1)) * np.uint64(SPLITMIX_GAMMA)
    z = np.asarray(seeds, dtype=np.uint64)[None, :] + offsets[:, None]
    splitmix64(z)
    # mantissa bits under the exponent of 1.0 give w = 1 + U in [1, 2)
    z >>= np.uint64(12)
    z |= np.uint64(0x3FF0000000000000)
    w = z.view(np.float64)
    np.subtract(2.0, w, out=w)
    np.log(w, out=w)
    return np.negative(w, out=w)


@dataclass(frozen=True)
class CollectorPlan:
    """What simulate_block records per path: one collector per field.

    The sup and terminal spectral norms and the terminal ||qv|| are always
    recorded.  ``sigma2_levels`` adds the Brownian-bridge tail maxima:
    ``bridge_sup``, the supremum of lambda_max between grid points, and per
    level ``bridge_prefix_max``, the same over the steps where ||qv|| stays
    <= level, so the event {some t <= T: lambda_max(X_t) >= u, ||<X>_t|| <=
    level} is ``bridge_prefix_max >= u``.  ``supermartingale_betas`` adds
    Tr exp(beta*X - (beta^2/2)*<X>) at the grid's ``default_checkpoints``,
    ``schatten_orders`` the Schatten norms of X_T, ``quad_schatten_orders``
    the left-endpoint quadratures of ||sum_i H_i^2||_p and ``sum_norm_quad``
    that of ||sum_i H_i||^2.
    """

    sigma2_levels: tuple[float, ...] = ()
    supermartingale_betas: tuple[float, ...] = ()
    schatten_orders: tuple[float, ...] = ()
    quad_schatten_orders: tuple[float, ...] = ()
    sum_norm_quad: bool = False


def _bad_rows(*stacks: np.ndarray) -> np.ndarray | None:
    """Mask of matrices (first axis) with a non-finite entry in any stack.

    None when everything is finite: the whole-array test is the cheap
    common case, and the per-matrix reduction runs only after it fails.
    """
    if all(np.isfinite(a).all() for a in stacks):
        return None
    return ~np.logical_and.reduce([np.isfinite(a).all(axis=(-2, -1)) for a in stacks])


def _drop(bad: np.ndarray | None, excluded: np.ndarray, *stacks: np.ndarray) -> None:
    """The one exclusion rule: flag the ``bad`` paths (a :func:`_bad_rows`
    mask) in ``excluded`` and zero their matrices in ``stacks``, in place."""
    if bad is not None:
        excluded |= bad
        for a in stacks:
            a[bad] = 0.0


def _norm(eigs: np.ndarray) -> np.ndarray:
    """Spectral norm from ascending eigenvalues on the last axis."""
    return np.maximum(np.abs(eigs[..., 0]), np.abs(eigs[..., -1]))


def _peak(a, b, ve):
    """Maximum of a Brownian bridge from ``a`` to ``b`` whose variance over
    the step times an Exp(1) draw is ``ve``: nondecreasing in a and b."""
    d = b - a
    return 0.5 * (a + b + np.sqrt(d * d + ve))


class _Spectra:
    """Eigenvalues of one Euler step's matrices, each solved at most once.

    ``x`` is the state at t_{k+1}, ``qv`` the quadratic variation there,
    ``s2`` = sum_i H_i(t_k)^2 and ``h`` = sum_i H_i(t_k).  When the
    integrand depends on time alone qv, s2 and h are path-free:
    :meth:`path_free` solves each once on the whole grid (qv by grid index,
    s2 and h by step) and a step is served its row.  On path_feedback, and
    always for x, they are solved on every path.

    Where the dimension has a closed form, which costs less than any bound,
    x is solved on every path at every step, and :func:`simulate_block`
    hands it to the collectors' ``settle``.  Otherwise (``certify``) x is
    solved here only at the last step.
    """

    def __init__(self, scheme: EulerScheme):
        self.scheme = scheme
        self.certify = not has_closed_form(scheme.spec.n)
        self._grid: dict[str, np.ndarray] = {}

    def at(self, step: EulerStep) -> None:
        """Move to ``step``.  Solve x on every path, unless solves are
        certified and this is not the last step."""
        self.step, self._step = step, {}
        self.last = step.k == self.scheme.grid.steps - 1
        if self.last or not self.certify:
            self("x")

    def path_free(self, name: str) -> np.ndarray | None:
        scheme = self.scheme
        if not scheme.feedback and name != "x" and name not in self._grid:
            if name == "h":
                stack = deterministic_sum(scheme.spec, scheme.times[:-1])
            else:
                stack = getattr(scheme, name)
            self._grid[name] = stacked_eigenvalues(stack)
        return self._grid.get(name)

    def __call__(self, name: str) -> np.ndarray:
        """Eigenvalues of ``name`` at this step: (paths, n), or (n,) when
        path-free."""
        if name not in self._step:
            step, scheme = self.step, self.scheme
            whole = self.path_free(name)
            if whole is not None:
                self._step[name] = whole[step.k + 1 if name == "qv" else step.k]
            elif name == "h":
                h = feedback_sum(scheme.spec, step.x_left, scheme.agg)
                self._step[name] = stacked_eigenvalues(h)
            else:
                self._step[name] = stacked_eigenvalues(getattr(step, name))
        return self._step[name]


class _Collector:
    """One statistic: its output columns, its update and its chunk state.

    ``columns`` maps each output name to its per-path shape.  ``start``
    hands over a chunk's output rows (views, written in place) and path
    seeds, ``update`` runs after every Euler step and ``finish`` after
    the last one, while the spectra still hold that step.

    A collector whose output is a maximum over the steps of a function of
    x's spectrum defines ``settle(k, idx, eigs)``, the only code that
    writes that output: it takes the maxima from x after step k, solved on
    the paths ``idx`` (an index array, or ``slice(None)`` for every path).
    Its ``update`` reads no x.  Where x has a closed form, ``settle`` sees
    every path right after every step's ``update``.  Otherwise (solves are
    certified) the collector lists its :class:`~mmlab.ceilings.Best`
    trackers in ``bests``, and ``bound`` takes the coefficient ceilings of
    the states of each batch of steps of the bound pass (a
    :class:`~mmlab.ceilings.Batch`): it offers them to the trackers and
    records them.  After the bound pass ``lower`` turns the spectra of the
    kept states, less their ``slack``, into lower bounds on the maxima,
    and decides from the recorded ceilings, per step and path, whether x
    after the step may move a maximum.  The :class:`~mmlab.ceilings.Replay` reads that by
    ``flags(ks)``, a span of steps ``ks`` at a time inside one batch of
    _BRIDGE_STEPS, and ``recertify(k0, norm, top)`` re-decides it for the
    span from k0 from sharper ceilings on x after each step (rows 1 on of
    ``norm`` and ``top``, row 0 x before step k0), against the lower
    bounds raised to the maxima so far; ``settle`` is then called where x
    may still move a maximum, and on every path at the last step.
    """

    bests: tuple[Best, ...] = ()
    settle = None

    def start(self, rows: dict[str, np.ndarray], seeds: np.ndarray) -> None:
        self.rows = rows

    def update(self, step: EulerStep, spectra: _Spectra) -> None:
        pass

    def finish(self, spectra: _Spectra) -> None:
        pass


class _Norms(_Collector):
    """sup_k ||X_k||, ||X_T|| and ||<X>_T||; always on.

    Certified, the bound pass keeps each path's state with the largest norm
    ceiling.  Its norm, lowered by its slack, bounds sup_k ||X_k|| from
    below, the ``floor`` (on path_feedback ||X_T|| if larger), and the
    replay solves a state only where its ceiling, and then its sharper
    ceiling, reach that bound or the maximum so far.
    """

    columns = {"sup_spectral": (), "terminal_spectral": (), "terminal_qv_norm": ()}

    def __init__(self, spectra: _Spectra):
        self.spectra = spectra

    def start(self, rows, seeds):
        self.rows = rows
        if self.spectra.certify:
            paths, scheme = len(seeds), self.spectra.scheme
            self.best = Best(paths, (1,), scheme.coefficients.m)
            self.bests = (self.best,)
            self.ceilings = np.empty((scheme.grid.steps, paths), dtype=np.float32)

    def bound(self, batch):
        norm = batch.norm[1:]
        self.best.offer(norm, batch)
        record(self.ceilings[batch.k0 : batch.k0 + batch.count], norm)

    def finish(self, spectra):
        self.rows["terminal_spectral"][...] = _norm(spectra("x"))
        self.rows["terminal_qv_norm"][...] = _norm(spectra("qv"))

    def lower(self):
        # ||X_T|| is known here on path_feedback only; elsewhere its row is
        # still 0, which bounds a norm from below too
        floor = _norm(self.best.eigs[0]) - self.best.slack[0]
        self.floor = np.maximum(self.rows["terminal_spectral"], floor)
        self.need = reaches(self.ceilings, self.floor)
        self.ceilings = None

    def flags(self, ks):
        return self.need[ks]

    def recertify(self, k0, norm, top):
        # the maximum so far is attained, so it is a lower bound too
        np.maximum(self.floor, self.rows["sup_spectral"], out=self.floor)
        return reaches(norm[1:], self.floor)

    def settle(self, k, idx, eigs):
        sup = self.rows["sup_spectral"]
        sup[idx] = np.maximum(sup[idx], _norm(eigs))


class _BridgeTail(_Collector):
    """Brownian-bridge suprema of lambda_max, per sigma^2 level and overall.

    Per step the bridge maximum is sampled exactly given its endpoints, with
    local variance ||sum_i H_i(t_k)^2||: exact for n = 1, an upper bound on
    the local variance of lambda_max for n > 1.

    ``settle`` keeps lambda_max after each step of a batch of steps and,
    once the batch is complete, takes the exact peaks of its candidate
    steps; every step is a candidate until ``lower`` says otherwise.

    The peak is nondecreasing in both endpoints, so the lambda_max ceilings
    of a step's endpoints bound it.  Certified, the bound pass keeps each
    path's endpoint pair with the largest peak ceiling, overall and per
    level over the steps the level admits (a level shares the overall pair
    until a step it does not admit); their peaks, from the endpoints'
    lambda_max lowered by their slack, bound the maxima from below.  A step
    is a candidate where its peak ceiling reaches the overall bound or that
    of a level admitting it, and x is needed after a step where it or the
    next step is one.  The replay keeps a candidate only where the peak
    ceiling from the sharper ceilings of its endpoints also reaches, the
    bound raised to the maximum so far.  A span of steps re-decides its own
    steps only, so x after its last step stays needed where the next
    span's first step is a candidate of the bound pass.

    On path_feedback ``update`` records each step's variance and admitted
    levels per path for ``settle`` and ``bound``; the one-pass route keeps
    one batch of steps.  Where <X> has no closed form each path's ||<X>||
    is bracketed: Weyl's inequality moves the ends by
    dt * lambda(sum_i H_i^2) per step, and <X> is solved only where a level
    falls inside the bracket, and on every path at the last step.
    """

    def __init__(self, levels, spectra: _Spectra):
        self.levels = np.asarray(levels, dtype=np.float64)
        self.grid, self.spectra = spectra.scheme.grid, spectra
        self.columns = {"bridge_prefix_max": (len(levels),), "bridge_sup": ()}

    def start(self, rows, seeds):
        self.rows, self.seeds = rows, seeds
        spectra, paths, steps = self.spectra, len(seeds), self.grid.steps
        s2, qv = spectra.path_free("s2"), spectra.path_free("qv")
        # path_feedback works out each step's variance and admitted levels
        # per path, step by step; per step, var is (paths,) or (1,) and the
        # admitted levels (paths, levels) or (1, levels)
        self.record = s2 is None
        if s2 is not None:
            # time-only families: they are path-free, worked out once on
            # the whole grid
            self.var = 2.0 * self.grid.dt * _norm(s2)[:, None]
            self.admits = np.less_equal.outer(_norm(qv)[1:], self.levels)[:, None]
        else:
            self.bracket = spectra.certify
            span = steps if self.bracket else min(steps, _BRIDGE_STEPS)
            self.var = np.empty((span, paths))
            self.admits = np.empty((span, paths, len(self.levels)), dtype=bool)
        # path_feedback: lambda_max(<X>) from below, ||<X>|| from above
        self.qv_floor = np.zeros(paths)
        self.qv_ceil = np.zeros(paths)
        # lambda_max after the steps of one batch; row 0 is the batch's
        # left end, X_0 = 0 for the first
        self.lam = np.full((_BRIDGE_STEPS + 1, paths), np.nan)
        self.lam[0] = 0.0
        self.cand = None
        # the Exp(1) draws of one batch of steps, from grid index exps_from
        self.exps_from = None
        if spectra.certify:
            self.best = Best(paths, (0, 1), spectra.scheme.coefficients.m)
            self.bests = (self.best,)
            self.level_bests = [self.best] * len(self.levels)
            self.ceilings = np.empty((steps, paths), dtype=np.float32)

    def _inside(self, spectra, s2):
        """Whether each path's ||qv|| at the step's right end stays <= each
        level, on path_feedback."""
        levels = self.levels
        if spectra.last or not self.bracket:
            return np.less_equal.outer(_norm(spectra("qv")), levels)
        dt = self.grid.dt
        s2_norm = _norm(s2)
        slack = MARGIN * (self.qv_ceil + dt * s2_norm)
        floor = self.qv_floor + dt * s2[:, 0] - slack
        ceil = self.qv_ceil + dt * s2_norm + slack
        settled = (ceil[:, None] < levels) | (floor[:, None] > levels)
        # qv is solved, in one call, only on the paths that no level
        # settles; the others stay NaN
        solved = ~settled.all(axis=1)
        qv = np.full(s2.shape, np.nan)
        if solved.any():
            qv[solved] = stacked_eigenvalues(spectra.step.qv[solved])
        exact = _norm(qv)
        self.qv_floor = np.where(solved, qv[:, -1], floor)
        self.qv_ceil = np.where(solved, exact, ceil)
        return np.where(solved[:, None], exact[:, None] <= levels, ceil[:, None] < levels)

    def update(self, step, spectra):
        if self.record:
            s2, k = spectra("s2"), step.k % len(self.var)
            self.var[k] = 2.0 * self.grid.dt * _norm(s2)
            self.admits[k] = self._inside(spectra, s2)

    def _exps(self, k0):
        """The Exp(1) draws of the batch of steps from ``k0``, (steps,
        paths), drawn once per batch and pass."""
        if self.exps_from != k0:
            stop = min(k0 + _BRIDGE_STEPS, self.grid.steps)
            self.exps = bridge_exponentials(self.seeds, range(k0, stop))
            self.exps_from = k0
        return self.exps

    def _ceiling(self, ks, norm, top):
        """Ceilings on the peaks of the steps ``ks`` from ceilings on
        their endpoints (count + 1, paths), and their ``ve``."""
        first = ks.start % _BRIDGE_STEPS
        ve = self.var[ks] * self._exps(ks.start - first)[first : first + len(top) - 1]
        # the margin scales with every magnitude in the peak's arithmetic,
        # so it covers the rounding
        ceiling = _peak(top[:-1], top[1:], ve) + MARGIN * (norm[:-1] + norm[1:] + np.sqrt(ve))
        return ceiling, ve

    def _floor(self, ks):
        """Per step of ``ks`` and path, the lower bound its peak must
        reach: the overall one, or the least of those of the levels that
        admit the step."""
        overall, *levels = self.floors
        floor = overall
        for j, level in enumerate(levels):
            floor = np.where(self.admits[ks, :, j], np.minimum(floor, level), floor)
        return floor

    def bound(self, batch):
        ks = slice(batch.k0, batch.k0 + batch.count)
        ceiling, ve = self._ceiling(ks, batch.norm, batch.top)
        for j, admitted in enumerate(np.moveaxis(self.admits[ks], -1, 0)):
            if self.level_bests[j] is self.best:
                if admitted.all():
                    continue
                self.level_bests[j] = self.best.copy()
                self.bests += (self.level_bests[j],)
            if admitted.any():
                level = np.where(admitted, ceiling, -np.inf)
                self.level_bests[j].offer(level, batch, ve)
        self.best.offer(ceiling, batch, ve)
        record(self.ceilings[ks], ceiling)

    def lower(self):
        def floor(best):
            (a, b), (a_slack, b_slack) = best.eigs, best.slack
            return _peak(a[:, -1] - a_slack, b[:, -1] - b_slack, best.ve)

        overall = floor(self.best)
        levels = [overall if b is self.best else floor(b) for b in self.level_bests]
        self.floors = [overall, *levels]
        steps, paths = self.ceilings.shape
        self.cand = np.empty((steps, paths), dtype=bool)
        for k0 in range(0, steps, _BRIDGE_STEPS):
            ks = slice(k0, k0 + _BRIDGE_STEPS)
            self.cand[ks] = reaches(self.ceilings[ks], self._floor(ks))
        self.ceilings = None

    def recertify(self, k0, norm, top):
        ks = slice(k0, k0 + len(top) - 1)
        # the maxima so far are attained, so they are lower bounds too (new
        # arrays: a level may share the overall one)
        overall, *levels = self.floors
        prefix = self.rows["bridge_prefix_max"]
        self.floors = [np.maximum(overall, self.rows["bridge_sup"])]
        self.floors += [np.maximum(level, prefix[:, j]) for j, level in enumerate(levels)]
        self.cand[ks] &= reaches(self._ceiling(ks, norm, top)[0], self._floor(ks))
        return self.flags(ks)

    def flags(self, ks):
        """Where x after the steps ``ks`` is needed: after a candidate step
        and before one."""
        cand = self.cand[ks]
        need = cand.copy()
        need[:-1] |= cand[1:]
        # x after the span's last step is also a left end of the next
        # step, which keeps the bound pass's verdict
        if ks.stop < len(self.cand):
            need[-1] |= self.cand[ks.stop]
        return need

    def settle(self, k, idx, eigs):
        j = k % _BRIDGE_STEPS
        self.lam[j + 1, idx] = eigs[:, -1]
        if j < _BRIDGE_STEPS - 1 and k < self.grid.steps - 1:
            return
        # the batch is complete: its exact peaks where a step is a candidate
        first = (k - j) % len(self.var)
        ks = slice(first, first + j + 1)
        lam = self.lam[: j + 2]
        ve = self.var[ks] * self._exps(k - j)[: j + 1]
        peak = _peak(lam[:-1], lam[1:], ve)
        if self.cand is not None:
            peak = np.where(self.cand[ks], peak, -np.inf)
        sup = self.rows["bridge_sup"]
        np.maximum(sup, peak.max(axis=0), out=sup)
        prefix = self.rows["bridge_prefix_max"]
        for level in range(len(self.levels)):
            admitted = self.admits[ks, :, level]
            if admitted.any():
                top = np.where(admitted, peak, -np.inf).max(axis=0)
                np.maximum(prefix[:, level], top, out=prefix[:, level])
        self.lam[0] = lam[-1]
        self.lam[1:] = np.nan


class _Supermartingale(_Collector):
    """Tr exp(beta*X - (beta^2/2)*<X>) per beta at each of the grid's
    checkpoints; the first, t = 0, is the dimension n."""

    def __init__(self, betas, grid: TimeGrid, n: int):
        checkpoints = default_checkpoints(grid.steps)
        self.betas, self.n = betas, n
        self.slot = {cp: j for j, cp in enumerate(checkpoints)}
        self.columns = {"supermart": (len(betas), len(checkpoints))}

    def start(self, rows, seeds):
        self.rows = rows["supermart"]
        self.rows[:, :, 0] = float(self.n)

    def update(self, step, spectra):
        j = self.slot.get(step.k + 1)
        if j is None:
            return
        for b, beta in enumerate(self.betas):
            m = beta * step.x - (0.5 * beta * beta) * step.qv
            # an overflowed exponent must never reach LAPACK: drop the path
            _drop(_bad_rows(m), step.excluded, m)
            self.rows[:, b, j] = np.exp(stacked_eigenvalues(m)).sum(axis=-1)


class _TerminalSchatten(_Collector):
    """Schatten norms of X_T."""

    def __init__(self, orders):
        self.orders = orders
        self.columns = {"schatten_terminal": (len(orders),)}

    def finish(self, spectra):
        for j, order in enumerate(self.orders):
            self.rows["schatten_terminal"][:, j] = schatten_from_eigenvalues(spectra("x"), order)


class _Quadrature(_Collector):
    """Left-endpoint quadratures dt * sum_k f(spectrum_k), one per term f.

    On a path-free spectrum each is one math.fsum over the grid; on
    path_feedback a per-path Kahan sum, step by step.
    """

    def __init__(self, name, spectrum, terms, shape, spectra: _Spectra):
        self.name, self.spectrum, self.terms, self.spectra = name, spectrum, terms, spectra
        self.columns = {name: shape}
        self.dt = spectra.scheme.grid.dt

    def start(self, rows, seeds):
        self.total = rows[self.name].reshape(len(seeds), -1)
        self.comp = np.zeros_like(self.total)
        whole = self.spectra.path_free(self.spectrum)
        # a path-free quadrature is summed here, once; no step adds to it
        self.stepwise = self.terms if whole is None else ()
        if whole is not None:
            self.total[...] = [self.dt * math.fsum(f(whole)) for f in self.terms]

    def update(self, step, spectra):
        for j, f in enumerate(self.stepwise):
            y = self.dt * f(spectra(self.spectrum)) - self.comp[:, j]
            t = self.total[:, j] + y
            self.comp[:, j] = (t - self.total[:, j]) - y
            self.total[:, j] = t


def _collectors(plan: CollectorPlan, spectra: _Spectra) -> list[_Collector]:
    """The norms, then one collector per requested CollectorPlan field."""
    grid, n = spectra.scheme.grid, spectra.scheme.spec.n
    out: list[_Collector] = [_Norms(spectra)]
    if plan.sigma2_levels:
        out.append(_BridgeTail(plan.sigma2_levels, spectra))
    if plan.supermartingale_betas:
        out.append(_Supermartingale(plan.supermartingale_betas, grid, n))
    if plan.schatten_orders:
        out.append(_TerminalSchatten(plan.schatten_orders))
    if plan.quad_schatten_orders:
        orders = plan.quad_schatten_orders
        terms = [lambda e, p=p: schatten_from_eigenvalues(e, p) for p in orders]
        out.append(_Quadrature("quad_schatten", "s2", terms, (len(orders),), spectra))
    if plan.sum_norm_quad:
        out.append(_Quadrature("sum_norm_quad", "h", [lambda e: _norm(e) ** 2], (), spectra))
    return out


def _bound(scheme: EulerScheme, maxima: list[_Collector], dB, dropped=None) -> Replay:
    """The bound pass over a chunk (:func:`~mmlab.ceilings.sweep`), then
    its lower bounds, and the :class:`~mmlab.ceilings.Replay` that takes x
    after it: batches of _BRIDGE_STEPS steps, at most _REPLAY_BYTES of
    flagged states, solved here through ``stacked_eigenvalues``.

    The kept states X~ = sum_b c_b B_b are rebuilt from their coefficients
    and solved in one call.  Each eigenvalue is lowered by bound (a) of
    :class:`~mmlab.ceilings.Coefficients` ((a') on path_feedback) at the
    chunk's last step, and by the margin, so that it bounds the Euler
    state's from below (Weyl's inequality).  A bridge pair is lowered by
    the margin times sqrt(ve) more, which covers the rounding of its peak.
    The replay solves the Euler state again where a kept state is flagged.
    """
    drift = sweep(scheme, maxima, dB, _BRIDGE_STEPS)
    bests = [b for c in maxima for b in c.bests]
    paths, coefficients = len(dB), scheme.coefficients
    unique, c, inverse = kept_states(bests, paths)
    grid_index = unique // paths
    # X_0 = 0 needs no solve; a rebuilt state that left float64 range
    # gets nan, which certifies nothing, and never reaches LAPACK
    eigs = np.zeros((len(unique), scheme.spec.n))
    solve = np.flatnonzero(grid_index > 0)
    eigs[solve] = np.nan
    x = coefficients.rebuild(c[solve])
    finite = np.isfinite(x).all(axis=(1, 2))
    if not finite.all():
        x, solve = x[finite], solve[finite]
    eigs[solve] = stacked_eigenvalues(x)
    del x
    slack = drift[unique % paths] + MARGIN * _norm(eigs)
    rows = zip(bests, per_tracker(bests, eigs, inverse), per_tracker(bests, slack, inverse))
    for b, e, s in rows:
        b.eigs, b.slack = e, s + MARGIN * np.sqrt(b.ve)
    for c in maxima:
        c.lower()
    steps, n = scheme.grid.steps, scheme.spec.n
    return Replay(
        maxima, steps, paths, n, _BRIDGE_STEPS, _REPLAY_BYTES, stacked_eigenvalues, dropped
    )


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def simulate_block(
    spec: IntegrandSpec, grid: TimeGrid, seeds, plan: CollectorPlan | None = None
) -> dict[str, np.ndarray]:
    """Stream a block of paths and return per-path statistic arrays.

    Results for path j depend only on (spec, grid, seeds[j], plan), so
    any partition of a batch into blocks reproduces identical numbers.
    A path whose state or supermartingale exponent leaves float64 range,
    or with a non-finite entry in any output, is flagged in the returned
    ``excluded`` mask instead of raising.  Overflow in the arithmetic
    raises no numpy warning: the exclusion mask reports it.
    """
    plan = plan or CollectorPlan()
    seeds = _path_seeds(seeds)
    total = len(seeds)
    scheme = EulerScheme(spec, grid)
    spectra = _Spectra(scheme)
    collectors = _collectors(plan, spectra)
    out = {name: np.zeros((total, *shape)) for c in collectors for name, shape in c.columns.items()}
    excluded = out["excluded"] = np.zeros(total, dtype=bool)
    if scheme.qv is not None and not np.isfinite(scheme.qv).all():
        # the shared qv left float64 range: no path has a finite
        # statistic, and a non-finite matrix must never reach LAPACK
        excluded[:] = True
        return out
    # the collectors that take maxima over x
    maxima = [c for c in collectors if c.settle]
    for start in range(0, total, _CHUNK):
        idx = slice(start, min(start + _CHUNK, total))
        chunk_seeds = seeds[idx]
        dB = brownian_increments(grid, spec.drivers, chunk_seeds)
        for c in collectors:
            c.start({name: out[name][idx] for name in c.columns}, chunk_seeds)
        replay = None
        if spectra.certify and not scheme.feedback:
            replay = _bound(scheme, maxima, dB)
        for step in scheme.steps(dB):
            spectra.at(step)
            for c in collectors:
                c.update(step, spectra)
            if replay is not None:
                if not spectra.last:
                    replay.take(step.k, step.x)
            elif not spectra.certify:
                for c in maxima:
                    c.settle(step.k, slice(None), spectra("x"))
        for c in collectors:
            c.finish(spectra)
        dropped = step.excluded
        if spectra.certify and scheme.feedback:
            # the bridge's var and admits come from the stepper pass, so
            # the bound pass follows it, and a replay of x alone.  No drop
            # touched a kept path's state, so the replay gives the stepper
            # pass's states bit for bit; a dropped path's may have left
            # float64 range, and none of them is flagged
            replay = _bound(scheme, maxima, dB, dropped)
            x = np.zeros((len(dB), spec.n, spec.n))
            for k in range(grid.steps - 1):
                x = scheme.advance(x, dB[:, k, :], k)
                replay.take(k, x)
        if spectra.certify:
            # X_T, which the stepper solved on every path
            for c in maxima:
                c.settle(grid.steps - 1, slice(None), spectra("x"))
        # the one exclusion rule: a state that left float64 range, or a
        # non-finite statistic (np.maximum carries a nan or inf peak to
        # the end), must not reach an event count or an interval
        rows = excluded[idx]
        rows |= dropped
        for values in out.values():
            rows |= ~np.isfinite(values[idx].reshape(len(chunk_seeds), -1)).all(axis=1)
    return out
