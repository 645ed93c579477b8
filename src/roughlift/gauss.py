"""Exact Gaussian path samplers on uniform grids.

* Brownian motion: iid increments.
* Fractional Brownian motion: circulant embedding of the increment
  covariance (real FFTs, exact in law, O(n log n)); a run builds the
  embedding's root once (``embedding_root``) and passes it to every draw.

  Both draw a batch of seeds in one call, one path a seed, each with the
  bits of its seed's draw alone.
* The physical pair (P, W): the momentum of dP = -(M/eps^2) P dt + dW
  stepped with its exact joint Gaussian transition, so the law at grid
  points carries no discretisation error.  The mean step P -> E P is a
  blocked matmul scan in real arithmetic (``_ou_scan_block``; Kogge & Stone
  1973; Blelloch 1990), stable for any E: E = exp(-M h/eps^2) is a 2-norm
  contraction (M + M^T = 2A > 0), and every block of its matrices, at every
  level, is a power of E, of norm <= 1.

Everything is deterministic given the arguments and the seed, which must
lie in [0, 2^64); Monte Carlo trials derive per-trial substreams with a
counter-based splitmix hash so parallel runs reproduce bit-identically in
any order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy 2 loads these two subpackages on first use; importing them here keeps
# that cost (about 15 ms) at start-up instead of inside a run's first trial
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .linstable import StableDrift, check_finite, ou_joint_transition
from .tensor2 import ROW_BLOCK, any_blockwise, running_sum_block

_MASK64 = (1 << 64) - 1

# Step rule for the physical pair: the OU relaxation time is eps^2/lam, and
# the downstream piecewise-linear area approximation must resolve it.
STEP_SAFETY = 0.1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _u64(value: int, name: str) -> int:
    """``int(value)``, rejected outside [0, 2^64) rather than wrapped mod 2^64."""
    if not 0 <= int(value) < 2 ** 64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    return int(value)


def derive_seed(base_seed: int, *indices: int) -> int:
    """Counter-based substream seed: chain base ^ hash(index) per index.
    The base seed and every index must lie in [0, 2^64)."""
    s = _u64(base_seed, "base seed")
    for ix in indices:
        s = _splitmix64(s ^ _splitmix64(_u64(ix, "seed index")))
    return s


def float_index(x: float) -> int:
    """Bit pattern of a float, usable as a derive_seed index."""
    return int(np.float64(x).view(np.uint64))


def _rng(seed: int) -> np.random.Generator:
    """Philox stream of a seed in [0, 2^64)."""
    return np.random.Generator(np.random.Philox(key=_u64(seed, "seed")))


@dataclass(frozen=True)
class GridPath:
    """Uniform-grid path started at the origin."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.values, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if t.ndim != 1 or len(t) < 1 or x.ndim != 2 or x.shape[0] != len(t):
            raise ValueError("times/values lengths inconsistent")
        if np.any(x[0] != 0.0):
            raise ValueError("path must start at the origin")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", x)


def uniform_times(n: int, T: float) -> np.ndarray:
    # arange/n first: i/n is rounded once, so grids of different resolution
    # agree bitwise on shared rational points.  In place, so the grid costs
    # one array of n + 1 floats.
    t = np.arange(n + 1, dtype=float)
    t /= n
    t *= T
    return t


def _running_sums(seeds, n: int, d: int, steps) -> np.ndarray:
    """(B, n + 1, d) paths from the origin of the B seeds, member b the
    running sum (running_sum_block) of the (n, d) steps ``steps(seed)`` of
    its seed, so each member has the bits of a batch of one.  The batch's
    array is allocated after the first member's steps are drawn, and each
    member's steps are freed before the next are drawn."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    for b, seed in enumerate(seeds):
        inc = steps(seed)
        if b == 0:
            out = np.empty((len(seeds), n + 1, d))
            out[:, 0] = 0.0
        running_sum_block(inc, out[b], 0)
        del inc
    return out


def sample_bm(T: float, N: int, d: int, seeds) -> np.ndarray:
    """Brownian motion on the uniform N-step grid on [0, T] for each of the
    B seeds, as a (B, N + 1, d) array: iid N(0, T/N) increments, one Philox
    stream a seed (one draw is a batch of one)."""
    if N < 1 or d < 1 or T <= 0.0:
        raise ValueError("need N >= 1, d >= 1, T > 0")
    scale = np.sqrt(T / N)

    def steps(seed):
        inc = _rng(seed).standard_normal((N, d))
        inc *= scale
        return inc

    return _running_sums(seeds, N, d, steps)


def fgn_autocov(k, H: float, spacing: float = 1.0) -> np.ndarray:
    """Autocovariance of fBm increments over consecutive length-``spacing``
    steps: spacing^{2H}/2 (|k+1|^{2H} + |k-1|^{2H} - 2|k|^{2H})."""
    k = np.abs(np.asarray(k, dtype=float))
    rho = 0.5 * ((k + 1.0) ** (2 * H) + np.abs(k - 1.0) ** (2 * H) - 2.0 * k ** (2 * H))
    return spacing ** (2 * H) * rho


def _embedding_eigenvalues(n: int, H: float) -> np.ndarray:
    """Eigenvalues of the minimal circulant embedding of n unit-spacing fGn
    steps.  Its first row, the autocovariance at lags 0..n, n-1..1, is real
    and symmetric, so the 2n eigenvalues are real and mirror about n: this
    returns the first n + 1."""
    r = fgn_autocov(np.arange(n + 1), H)
    return np.fft.rfft(np.concatenate([r, r[-2:0:-1]])).real


def embedding_root(n: int, H: float) -> np.ndarray:
    """Read-only square roots of the embedding eigenvalues of n fGn steps at
    Hurst index H: what sample_fbm maps its normals through.  The embedding
    is nonnegative definite for fGn at every H (Dietrich & Newsam 1997;
    Perrin et al. 2002), so a negative eigenvalue raises ValueError."""
    g = _embedding_eigenvalues(n, H)
    if g.min() < -1e-10 * g.max():
        raise ValueError(f"negative embedding eigenvalue {g.min():g}")
    root = np.sqrt(np.clip(g, 0.0, None))
    root.flags.writeable = False
    return root


def _fgn_circulant(rng: np.random.Generator, d: int, n: int, root: np.ndarray) -> np.ndarray:
    """d rows of exact unit-spacing fGn: each row of 2n iid normals mapped
    through the real symmetric square root ``root`` of the circulant
    embedding, first n outputs kept.  Real input and a real symmetric
    spectrum make the map one rfft/irfft pair; the root scales the real and
    imaginary parts, uncast, and the normals are dropped once transformed."""
    spectrum = np.fft.rfft(rng.standard_normal((d, 2 * n)))
    spectrum.real *= root
    spectrum.imag *= root
    return np.fft.irfft(spectrum, n=2 * n)[:, :n]


def sample_fbm(seeds, H: float, n: int, d: int = 1, T: float = 1.0,
               root=None) -> np.ndarray:
    """d components of fractional Brownian motion with Hurst index H at
    times i*T/n, i = 0..n, exact in law, for each of the B seeds, as a
    (B, n + 1, d) array (one draw is a batch of one).

    A member draws its 2n normals per component from its seed's Philox
    stream as one (d, 2n) block (the stream of d successive draws), maps
    them through one rfft/irfft pair (_fgn_circulant) and sums them into
    its row of the batch, so it has the bits of its draw alone.  The
    transforms run one member at a time: a batch holds its array and one
    member's transform, 4d floats a step.  ``root`` is
    ``embedding_root(n, H)``, built here when not given.
    """
    if not (0.0 < H < 1.0):
        raise ValueError("H must lie in (0, 1)")
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    if T <= 0.0:
        raise ValueError("T must be positive")
    if root is None:
        root = embedding_root(n, H)
    elif root.shape != (n + 1,):
        raise ValueError(f"root must have shape {(n + 1,)}, got {root.shape}")
    scale = (T / n) ** H

    def steps(seed):
        inc = _fgn_circulant(_rng(seed), d, n, root)
        for row in inc:  # one stride walks a row, so numpy takes no iterator buffer
            row *= scale
        return inc.T

    return _running_sums(seeds, n, d, steps)


def required_steps(drift: StableDrift, eps: float, T: float) -> int:
    """Smallest N with T/N <= STEP_SAFETY * eps^2 / ||M||."""
    normM = float(np.linalg.norm(drift.M, 2))
    return max(1, int(np.ceil(T * normM / (STEP_SAFETY * eps ** 2))))


# Width, in floats, of one row of the OU scan's in-block matmul: blocks of
# s = max(2, SCAN_WIDTH // d) steps.  Scanning 1.86M steps on one core of a
# Xeon (OpenBLAS), widths 16 to 64 ran within about 20% of each other at
# d = 1, 2 and 4, with no steady winner; at d = 2, widths 128 and 256 took
# 1.3x and 1.8x as long, as the Toeplitz matrix's zero half costs flops.
SCAN_WIDTH = 64


def _scan_levels(E: np.ndarray, rows: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(T, S) of each level of _ou_scan_block on chunks of at most ``rows``
    steps.  Level l scans with F = E^(s^l): T is the (s d)^2 Toeplitz matrix
    whose block (i, m) is (F^(m - i))^T for i <= m and 0 otherwise, and S
    is the (d, s d) row of (F^1)^T .. (F^s)^T.  A level of r steps leaves
    ceil(r / s) - 1 block ends for the next, which scans them with F^s, the
    last power of S.  The matrices are read-only."""
    d = E.shape[0]
    s = max(2, SCAN_WIDTH // d)
    lag = np.arange(s)[None, :] - np.arange(s)[:, None]  # m - i
    levels = []
    F = E
    while True:
        powers = np.empty((s + 1, d, d))  # (F^k)^T, doubling k per matmul
        powers[0], powers[1] = np.eye(d), F.T
        k = 1
        while k < s:
            m = min(k, s - k)
            np.matmul(powers[1:m + 1], powers[k], out=powers[k + 1:k + m + 1])
            k += m
        blocks = np.where((lag >= 0)[:, :, None, None], powers[np.maximum(lag, 0)], 0.0)
        levels.append((blocks.transpose(0, 2, 1, 3).reshape(s * d, s * d),
                       powers[1:].transpose(1, 0, 2).reshape(d, s * d)))
        for matrix in levels[-1]:
            matrix.flags.writeable = False
        rows = -(-rows // s) - 1
        if rows < 1:
            return levels
        F = powers[s].T


def _ou_scan_block(levels, xi: np.ndarray, out: np.ndarray, k0: int, scratch: np.ndarray) -> None:
    """Rows k0 + 1 .. k0 + len(xi) of P_{k+1} = E P_k + xi_k, given out[k0].

    The steps come in blocks of s.  One matmul with the Toeplitz T scans
    every block from a zero start; the block starts c_j follow from the
    block ends by the same scan with E^s (the next level), from out[k0];
    and one matmul with S adds E^(m+1) c_j to step m of block j.  Every
    level's padded steps, scans and starts are cut from ``scratch``, a
    float array of at least ``_scan_floats(levels, len(xi))`` entries.
    """
    T, S = levels[0]
    n, d = xi.shape
    s = T.shape[0] // d
    nb = -(-n // s)
    x, y = scratch[:2 * nb * s * d].reshape(2, nb, s * d)
    c = scratch[2 * nb * s * d:(2 * nb * s + nb) * d].reshape(nb, d)
    # copied as n records of d floats: numpy copies a strided (n, d) slice
    # element by element, about 6x slower at d = 2
    record = np.dtype((np.void, 8 * d))
    x.reshape(nb * s, d)[:n].view(record)[...] = xi.view(record)
    x.reshape(-1)[n * d:] = 0.0  # padded steps follow every real one: they need only be finite
    np.matmul(x, T, out=y)
    c[0] = out[k0]
    if nb > 1:
        _ou_scan_block(levels[1:], y[:-1, -d:], c, 0, scratch[(2 * nb * s + nb) * d:])
    y += np.matmul(c, S, out=x)
    out[k0 + 1:k0 + 1 + n] = y.reshape(nb * s, d)[:n]


def _scan_floats(levels, n: int) -> int:
    """Floats _ou_scan_block cuts from its scratch for n steps: at each
    level of s-step blocks, nb = ceil(n / s) blocks of padded steps and of
    their scans, s d floats each, and nb starts; the next level scans
    nb - 1 steps."""
    total, d = 0, levels[0][1].shape[0]
    for T, _ in levels:
        s = T.shape[0] // d
        nb = -(-n // s)
        total += (2 * nb * s + nb) * d
        n = nb - 1
        if n < 1:
            break
    return total


def physical_step(drift: StableDrift, eps: float, T: float, N: int):
    """(L, levels) of sample_physical on the uniform N-step grid on [0, T]:
    the noise root of the exact transition over h = T/N (``noise_factor``)
    and the OU scan's levels (_scan_levels) on chunks of at most
    min(N, ROW_BLOCK) steps, as read-only arrays.  A mean map or noise root
    that is not finite (linstable.check_finite) raises ValueError."""
    h = T / N
    trans = ou_joint_transition(drift, eps, h)
    L = trans.noise_factor()
    check_finite(f"the mean map of the OU step over h = {h:g}", trans.meanMap)
    check_finite(f"the noise root of the OU step over h = {h:g}", L)
    L.flags.writeable = False
    return L, _scan_levels(trans.meanMap, min(N, ROW_BLOCK))


def sample_physical(drift: StableDrift, eps: float, T: float, N: int, seed: int,
                    step=None) -> tuple[GridPath, GridPath]:
    """Momentum P and its driving Brownian motion W, jointly exact in law
    at the grid points of the uniform N-step grid on [0, T].

    The normals are drawn, scanned into P and summed into W ROW_BLOCK steps
    at a time from the carried P and W, so the working memory beyond the
    returned arrays is O(ROW_BLOCK d): two arrays allocated once, which
    every block reuses.  Its normals are drawn into the first
    (standard_normal's ``out``) and multiplied by L^T into the second; the
    OU scan then cuts its scratch from the first, and W's running sum
    (running_sum_block, two columns a complex chain) overwrites the
    second's noise.  Philox draws are chunk-invariant, and each block's
    product with L^T has the rows of the whole-grid product bitwise, so
    the noise equals a one-shot draw (tests check this at every block
    length mod 16).  A block of two or more rows multiplies by a
    C-ordered copy of L^T, which takes a third of the time the F-ordered
    view L.T does, to the same bits; a one-row block multiplies by the view,
    as a one-row draw does (the copy moves its row by an ulp).  ``step`` is
    ``physical_step(drift, eps, T, N)``, built here when not given.
    """
    if eps <= 0.0 or T <= 0.0 or N < 1:
        raise ValueError("need eps > 0, T > 0, N >= 1")
    n_req = required_steps(drift, eps, T)
    if N < n_req:
        raise ValueError(
            f"step h = {T / N:g} too coarse for the relaxation scale "
            f"eps^2/|M|; need N >= {n_req}")
    d = drift.dim
    L, levels = physical_step(drift, eps, T, N) if step is None else step
    LT = np.ascontiguousarray(L.T)
    rng = _rng(seed)
    # the returned arrays first, then the block buffers: with the times
    # allocated after the loop, magnetic-coarse's peak RSS read 1.2 MB more
    times = uniform_times(N, T)
    P = np.zeros((N + 1, d))
    W = np.zeros((N + 1, d))
    rows = min(N, ROW_BLOCK)
    normals = np.empty(max(2 * d * rows, _scan_floats(levels, rows)))
    noise = np.empty((rows, 2 * d))
    for k0 in range(0, N, ROW_BLOCK):
        m = min(ROW_BLOCK, N - k0)
        z = rng.standard_normal(out=normals[:2 * d * m].reshape(m, 2 * d))
        np.matmul(z, LT if m > 1 else L.T, out=noise[:m])
        _ou_scan_block(levels, noise[:m, :d], P, k0, normals)
        running_sum_block(noise[:m, d:], W, k0)
    return GridPath(times, P), GridPath(times, W)


def derive_Z(P: GridPath, W: GridPath, out=None) -> GridPath:
    """Z = W - P pointwise; equals M X for the physical pair since both
    start at zero.  ``out``, a float64 array of P's shape, receives Z in
    place of a new array; it may be ``P.values`` itself.  Grids that are one
    array, as sample_physical returns them, are not compared."""
    if P.times is not W.times and (len(P.times) != len(W.times)
                                   or any_blockwise(np.not_equal, P.times, W.times)):
        raise ValueError("grids must be identical")
    if out is not None and (out.shape != P.values.shape or out.dtype != np.float64):
        raise ValueError(f"out must be a float64 array of shape {P.values.shape}, "
                         f"got {out.dtype} {out.shape}")
    return GridPath(P.times, np.subtract(W.values, P.values, out=out))
