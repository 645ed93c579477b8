"""Exact Gaussian path samplers on uniform grids.

* Brownian motion: iid increments.
* Fractional Brownian motion: circulant embedding of the increment
  covariance (FFT, exact in law, O(n log n)); Cholesky as a reference.
* The physical pair (P, W): the momentum of dP = -(M/eps^2) P dt + dW
  stepped with its exact joint Gaussian transition, so the law at grid
  points carries no discretisation error.

Everything is deterministic given (spec, seed); Monte Carlo trials derive
per-trial substreams with a counter-based splitmix hash so parallel runs
reproduce bit-identically in any order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .linstable import StableDrift, ou_joint_transition

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
    """Uniform-grid path started at the origin; ``method`` records how a
    sampler produced it (e.g. which fBm method actually ran)."""

    times: np.ndarray
    values: np.ndarray
    method: str | None = None

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

    @property
    def dim(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SamplerSpec:
    """Parameters of one fBm draw."""

    seed: int
    H: float
    n: int
    d: int = 1
    T: float = 1.0
    method: str = "circulant"

    def __post_init__(self):
        if not (0.0 < self.H < 1.0):
            raise ValueError("H must lie in (0, 1)")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.method not in ("circulant", "cholesky"):
            raise ValueError(f"unknown method {self.method!r}")


def _uniform_times(n: int, T: float) -> np.ndarray:
    # arange/n first: i/n is rounded once, so grids of different resolution
    # agree bitwise on shared rational points.
    return np.arange(n + 1) / n * T


def sample_bm(T: float, N: int, d: int, seed: int) -> GridPath:
    """Brownian motion on a uniform grid: iid N(0, T/N) increments."""
    if N < 1 or d < 1 or T <= 0.0:
        raise ValueError("need N >= 1, d >= 1, T > 0")
    rng = _rng(seed)
    inc = rng.standard_normal((N, d)) * np.sqrt(T / N)
    vals = np.zeros((N + 1, d))
    np.cumsum(inc, axis=0, out=vals[1:])
    return GridPath(_uniform_times(N, T), vals, method="bm")


def fgn_autocov(k, H: float, spacing: float = 1.0) -> np.ndarray:
    """Autocovariance of fBm increments over consecutive length-``spacing``
    steps: spacing^{2H}/2 (|k+1|^{2H} + |k-1|^{2H} - 2|k|^{2H})."""
    k = np.abs(np.asarray(k, dtype=float))
    rho = 0.5 * ((k + 1.0) ** (2 * H) + np.abs(k - 1.0) ** (2 * H) - 2.0 * k ** (2 * H))
    return spacing ** (2 * H) * rho


def _fgn_circulant(z: np.ndarray, n: int, H: float) -> np.ndarray:
    """Map 2n iid normals through the real symmetric square root of the
    circulant embedding; the first n outputs are exact unit-spacing fGn.
    The embedding is nonnegative definite for fGn at every H (Dietrich &
    Newsam 1997; Perrin et al. 2002), so a negative eigenvalue is an error.
    """
    lags = np.concatenate([np.arange(n), np.arange(n, 0, -1)])
    g = np.fft.fft(fgn_autocov(lags, H)).real
    if g.min() < -1e-10 * g.max():
        raise ValueError(f"negative embedding eigenvalue {g.min():g}")
    g = np.clip(g, 0.0, None)
    return np.fft.ifft(np.sqrt(g) * np.fft.fft(z)).real[:n]


def _fgn_cholesky(z: np.ndarray, n: int, H: float) -> np.ndarray:
    cov = fgn_autocov(np.abs(np.subtract.outer(np.arange(n), np.arange(n))), H)
    return np.linalg.cholesky(cov) @ z[:n]


def sample_fbm(spec: SamplerSpec) -> GridPath:
    """Fractional Brownian motion at times i*T/n, exact in law.

    Both methods consume the same 2n normals per component, so switching
    methods never desynchronises the stream; at H = 1/2 they produce
    bitwise-comparable paths.  "cholesky" is the O(n^3) reference the
    circulant route is checked against.
    """
    rng = _rng(spec.seed)
    spacing_scale = (spec.T / spec.n) ** spec.H
    vals = np.zeros((spec.n + 1, spec.d))
    fgn = _fgn_circulant if spec.method == "circulant" else _fgn_cholesky
    for c in range(spec.d):
        z = rng.standard_normal(2 * spec.n)
        np.cumsum(spacing_scale * fgn(z, spec.n, spec.H), out=vals[1:, c])
    return GridPath(_uniform_times(spec.n, spec.T), vals, method=spec.method)


def required_steps(drift: StableDrift, eps: float, T: float) -> int:
    """Smallest N with T/N <= STEP_SAFETY * eps^2 / ||M||."""
    normM = float(np.linalg.norm(drift.M, 2))
    return max(1, int(np.ceil(T * normM / (STEP_SAFETY * eps ** 2))))


def _ou_recursion(E: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """P_{k+1} = E P_k + xi_k from P_0 = 0, returned with the zero row."""
    N, d = xi.shape
    out = np.zeros((N + 1, d))
    w, V = np.linalg.eig(E)
    if np.linalg.cond(V) < 1e8:
        eta = np.linalg.solve(V, xi.T.astype(complex))
        q = np.empty_like(eta)
        for i in range(d):
            q[i] = lfilter([1.0], [1.0, -w[i]], eta[i])
        out[1:] = (V @ q).T.real
    else:
        # defective meanMap: fall back to the plain scan
        p = np.zeros(d)
        for k in range(N):
            p = E @ p + xi[k]
            out[k + 1] = p
    return out


def sample_physical(drift: StableDrift, eps: float, T: float, N: int,
                    seed: int) -> tuple[GridPath, GridPath]:
    """Momentum P and its driving Brownian motion W, jointly exact in law
    at the grid points of the uniform N-step grid on [0, T]."""
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
    noise = rng.standard_normal((N, 2 * d)) @ L.T
    xi, dW = noise[:, :d], noise[:, d:]
    W = np.zeros((N + 1, d))
    np.cumsum(dW, axis=0, out=W[1:])
    P = _ou_recursion(trans.meanMap, xi)
    times = _uniform_times(N, T)
    return GridPath(times, P, method="ou-exact"), GridPath(times, W, method="bm")


def derive_Z(P: GridPath, W: GridPath) -> GridPath:
    """Z = W - P pointwise; equals M X for the physical pair since both
    start at zero."""
    if len(P.times) != len(W.times) or np.any(P.times != W.times):
        raise ValueError("grids must be identical")
    return GridPath(P.times, W.values - P.values, method="derived")
