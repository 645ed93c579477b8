"""Exact Gaussian path samplers on uniform grids.

* Brownian motion: iid increments.
* Fractional Brownian motion: circulant embedding of the increment
  covariance (real FFTs, exact in law, O(n log n), the embedding cached per
  (n, H)).
* The physical pair (P, W): the momentum of dP = -(M/eps^2) P dt + dW
  stepped with its exact joint Gaussian transition, so the law at grid
  points carries no discretisation error.  The mean step P -> E P is a
  blocked scan in real arithmetic, stable for any E: E = exp(-M h/eps^2)
  is a 2-norm contraction (M + M^T = 2A > 0), so its powers have norm <= 1.

Everything is deterministic given (spec, seed); Monte Carlo trials derive
per-trial substreams with a counter-based splitmix hash so parallel runs
reproduce bit-identically in any order.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
# numpy 2 loads these two subpackages on first use; importing them here keeps
# that cost (about 15 ms) at start-up instead of inside a run's first trial
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from .linstable import StableDrift, ou_joint_transition
from .tensor2 import ROW_BLOCK, running_sum_block

_MASK64 = (1 << 64) - 1

# Step rule for the physical pair: the OU relaxation time is eps^2/lam, and
# the downstream piecewise-linear area approximation must resolve it.
STEP_SAFETY = 0.1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(base_seed: int, *indices: int) -> int:
    """Counter-based substream seed: chain base ^ hash(index) per index."""
    s = int(base_seed) & _MASK64
    for ix in indices:
        s = _splitmix64(s ^ _splitmix64(int(ix) & _MASK64))
    return s


def float_index(x: float) -> int:
    """Bit pattern of a float, usable as a derive_seed index."""
    return int(np.float64(x).view(np.uint64))


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


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


@dataclass(frozen=True)
class SamplerSpec:
    """Parameters of one fBm draw."""

    seed: int
    H: float
    n: int
    d: int = 1
    T: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.H < 1.0):
            raise ValueError("H must lie in (0, 1)")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        if self.T <= 0.0:
            raise ValueError("T must be positive")


def _uniform_times(n: int, T: float) -> np.ndarray:
    # arange/n first: i/n is rounded once, so grids of different resolution
    # agree bitwise on shared rational points.  In place, so the grid costs
    # one array of n + 1 floats.
    t = np.arange(n + 1, dtype=float)
    t /= n
    t *= T
    return t


def sample_bm(T: float, N: int, d: int, seed: int) -> GridPath:
    """Brownian motion on a uniform grid: iid N(0, T/N) increments."""
    if N < 1 or d < 1 or T <= 0.0:
        raise ValueError("need N >= 1, d >= 1, T > 0")
    rng = _rng(seed)
    inc = rng.standard_normal((N, d)) * np.sqrt(T / N)
    vals = np.zeros((N + 1, d))
    np.cumsum(inc, axis=0, out=vals[1:])
    return GridPath(_uniform_times(N, T), vals)


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


# The embedding depends on (n, H) alone and a run draws every trial at one
# (n_ref, H); the test suite moves through a handful of specs at a time.  An
# entry holds n + 1 floats, 64 MiB at n = report.MAX_GRID_STEPS, so the
# cache keeps at most EMBEDDING_CACHE entries (256 MiB) whatever runs.
EMBEDDING_CACHE = 4


@functools.lru_cache(maxsize=EMBEDDING_CACHE)
def _embedding_sqrt(n: int, H: float) -> np.ndarray:
    """Read-only square roots of the embedding eigenvalues, built once per
    (n, H).  The embedding is nonnegative definite for fGn at every H
    (Dietrich & Newsam 1997; Perrin et al. 2002), so a negative eigenvalue
    is an error, raised before anything is cached."""
    g = _embedding_eigenvalues(n, H)
    if g.min() < -1e-10 * g.max():
        raise ValueError(f"negative embedding eigenvalue {g.min():g}")
    root = np.sqrt(np.clip(g, 0.0, None))
    root.flags.writeable = False
    return root


def _fgn_circulant(rng: np.random.Generator, d: int, n: int, H: float) -> np.ndarray:
    """d rows of exact unit-spacing fGn: each row of 2n iid normals mapped
    through the real symmetric square root of the circulant embedding, first
    n outputs kept.  Real input and a real symmetric spectrum make the map
    one rfft/irfft pair; the normals are dropped once transformed."""
    root = _embedding_sqrt(n, H)
    spectrum = np.fft.rfft(rng.standard_normal((d, 2 * n)))
    spectrum *= root
    return np.fft.irfft(spectrum, n=2 * n)[:, :n]


def sample_fbm(spec: SamplerSpec) -> GridPath:
    """Fractional Brownian motion at times i*T/n, exact in law.

    The 2n normals per component are drawn for all components as one
    (d, 2n) block (the stream of d successive draws).
    """
    inc = _fgn_circulant(_rng(spec.seed), spec.d, spec.n, spec.H)
    inc *= (spec.T / spec.n) ** spec.H
    vals = np.zeros((spec.n + 1, spec.d))
    np.cumsum(inc.T, axis=0, out=vals[1:])
    return GridPath(_uniform_times(spec.n, spec.T), vals)


def required_steps(drift: StableDrift, eps: float, T: float) -> int:
    """Smallest N with T/N <= STEP_SAFETY * eps^2 / ||M||."""
    normM = float(np.linalg.norm(drift.M, 2))
    return max(1, int(np.ceil(T * normM / (STEP_SAFETY * eps ** 2))))


def _ou_buffer(N: int, d: int) -> np.ndarray:
    """Zeroed (b^2 + 1, d) work array of _ou_recursion, b = ceil(sqrt(N)):
    row 0 is P_0, rows 1..N take xi_0..xi_{N-1}, the rest stay zero."""
    b = int(np.ceil(np.sqrt(N)))
    return np.zeros((b * b + 1, d))


def _ou_recursion(E: np.ndarray, buf: np.ndarray) -> None:
    """P_{k+1} = E P_k + xi_k from P_0 = 0, in place on an _ou_buffer whose
    rows 1.. hold xi and come back as P: b blocks of b steps from a zero
    start at once, the block starts c_j by the same recursion with E^b,
    then E^{m+1} c_j added."""
    b = math.isqrt(len(buf) - 1)
    q = buf[1:].reshape(b, b, buf.shape[1])
    for m in range(1, b):
        q[:, m] += q[:, m - 1] @ E.T
    Eb = np.linalg.matrix_power(E, b)
    c = np.zeros((b, buf.shape[1]))
    for j in range(1, b):
        c[j] = Eb @ c[j - 1] + q[j - 1, -1]
    for m in range(b):
        c = c @ E.T
        q[:, m] += c


def sample_physical(drift: StableDrift, eps: float, T: float, N: int,
                    seed: int) -> tuple[GridPath, GridPath]:
    """Momentum P and its driving Brownian motion W, jointly exact in law
    at the grid points of the uniform N-step grid on [0, T].

    The normals are drawn ROW_BLOCK steps at a time and written straight
    into P and W, so the working memory beyond the returned P, W and times
    is O(ROW_BLOCK d).  Philox draws are chunk-invariant, and each block's
    product with L^T has the rows of the whole-grid product bitwise, so the
    paths equal a one-shot draw (tests check this at ROW_BLOCK; OpenBLAS
    moves some rows by one ulp at odd block sizes such as 7).
    """
    if eps <= 0.0 or T <= 0.0 or N < 1:
        raise ValueError("need eps > 0, T > 0, N >= 1")
    n_req = required_steps(drift, eps, T)
    if N < n_req:
        raise ValueError(
            f"step h = {T / N:g} too coarse for the relaxation scale "
            f"eps^2/|M|; need N >= {n_req}")
    d = drift.dim
    trans = ou_joint_transition(drift, eps, T / N)
    L = trans.noise_factor()
    rng = _rng(seed)
    P = _ou_buffer(N, d)
    W = np.zeros((N + 1, d))
    for k0 in range(0, N, ROW_BLOCK):
        k1 = min(k0 + ROW_BLOCK, N)
        noise = rng.standard_normal((k1 - k0, 2 * d)) @ L.T
        P[k0 + 1:k1 + 1] = noise[:, :d]
        running_sum_block(noise[:, d:], W, k0)
    _ou_recursion(trans.meanMap, P)
    times = _uniform_times(N, T)
    return GridPath(times, P[:N + 1]), GridPath(times, W)


def derive_Z(P: GridPath, W: GridPath) -> GridPath:
    """Z = W - P pointwise; equals M X for the physical pair since both
    start at zero."""
    if len(P.times) != len(W.times) or np.any(P.times != W.times):
        raise ValueError("grids must be identical")
    return GridPath(P.times, W.values - P.values)
