"""Lead-lag lift of a discretised path and its quadratic-variation
counter-term.

From samples X_0, ..., X_n on [0, 1] the lead-lag path in R^{2d} holds the
lag copy in the first d coordinates and the lead copy in the last d:

    knot 2i/(2n)     -> (X_i, X_i)
    knot (2i+1)/(2n) -> (X_i, X_{i+1})

linearly interpolated.  The lag-lead cross block of its Levy area over a
block of cells picks up minus half the quadratic variation of the samples
(the closed forms below), which for fractional Brownian motion with Hurst
index H diverges in expectation like n^{1-2H} as the mesh shrinks.  The
counter-term adds (t-s) * n^{1-2H}/2 back on the cross block, after which
the lift converges to the lift of the doubled path (X, X).

Block sign convention: the translation must put +v on the (lag, lead)
block to cancel the -QV/2 the area actually carries (verified against the
closed forms and by direct integration of the two-segment case).
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .gauss import SamplerSpec, derive_seed, sample_fbm
from .report import MAX_GRID_STEPS, MAX_TRIALS, TRIAL_BYTES, summary_rows
from .tensor2 import RenormTerm, holder_sweep, lift_piecewise_linear
# holder_distance and translate stay importable from here: perfbench/tracing.py
# wraps them under this module's name
from .tensor2 import holder_distance, translate  # noqa: F401

LEADLAG_FIELDS = ("dist_renorm", "dist_raw", "areaDev1")


@dataclass(frozen=True)
class LeadLagPath:
    """2d-dimensional lead-lag path built from (n+1) d-dimensional samples."""

    samples: np.ndarray      # (n+1, d)
    times: np.ndarray        # (2n+1,) knots j/(2n)
    values: np.ndarray       # (2n+1, 2d)

    @property
    def n(self) -> int:
        return self.samples.shape[0] - 1

    @property
    def d(self) -> int:
        return self.samples.shape[1]


def hoff_path(samples) -> LeadLagPath:
    """Lead-lag knots: lag holds then moves, lead moves then holds."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    n = x.shape[0] - 1
    j = np.arange(2 * n + 1)
    values = np.hstack([x[j // 2], x[(j + 1) // 2]])
    times = j / (2 * n)
    return LeadLagPath(samples=x, times=times, values=values)


@dataclass(frozen=True)
class LeadLagRenorm:
    """Counter-term for mesh 1/n at Hurst index H.

    v_scalar = n^{1-2H}/2 is the expected quadratic variation per unit
    time (halved); the 2d x 2d term carries +v_scalar I on the (lag, lead)
    block and -v_scalar I opposite.
    """

    H: float
    n: int
    d: int
    v_scalar: float = field(init=False)
    term: RenormTerm = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.H < 1.0):
            raise ValueError("H must lie in (0, 1)")
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be >= 1")
        vs = _v_scalar(self.H, self.n)
        object.__setattr__(self, "v_scalar", vs)
        object.__setattr__(self, "term", RenormTerm(_cross_blocks([vs], self.d)[0]))


def _v_scalar(H: float, n: int) -> float:
    return 0.5 * float(n) ** (1.0 - 2.0 * H)


def _cross_blocks(v_scalars, d: int) -> np.ndarray:
    """(k, 2d, 2d) stack of counter-terms: +v_m I on the (lag, lead) block
    and -v_m I opposite."""
    eye, zero = np.eye(d), np.zeros((d, d))
    unit = np.block([[zero, eye], [-eye, zero]])
    return np.asarray(v_scalars, dtype=float)[:, None, None] * unit


def leadlag_renorm(H: float, n: int, d: int) -> LeadLagRenorm:
    return LeadLagRenorm(H=H, n=n, d=d)


def _pathwise_levy(x: np.ndarray, m: int, k: int) -> np.ndarray:
    """Levy area of the piecewise-linear path through x[m..k], closed form:
    (1/2) sum_r (x_r - x_m) (x) dx_r - transpose."""
    seg = x[m:k + 1]
    inc = np.diff(seg, axis=0)
    s = np.einsum("nd,ne->de", seg[:-1] - seg[0], inc)
    return 0.5 * (s - s.T)


def leadlag_area_oracle(samples, m: int, k: int) -> np.ndarray:
    """Levy area of the lead-lag lift between partition points m/n and k/n,
    from the closed-form sums (no path integration).

    Diagonal blocks equal the area of the underlying interpolation; the
    (lag, lead) block subtracts half the quadratic variation sum.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0] - 1
    if not (0 <= m <= k <= n):
        raise ValueError(f"need 0 <= m <= k <= {n}")
    d = x.shape[1]
    if k == m:
        return np.zeros((2 * d, 2 * d))
    a = _pathwise_levy(x, m, k)
    inc = np.diff(x[m:k + 1], axis=0)
    qv = inc.T @ inc
    return np.block([[a, a - 0.5 * qv], [a + 0.5 * qv, a]])


def psi_closed(n: int, K: int, H: float) -> float:
    """Second moment of the off-diagonal quadratic-variation sum over K
    cells of mesh 1/n:

        n^{-4H}/4 * sum_{x=-K+1}^{K-1} (K-|x|) (|x+1|^{2H} + |x-1|^{2H} - 2|x|^{2H})^2
    """
    if not (1 <= K <= n):
        raise ValueError("need 1 <= K <= n")
    if not (0.0 < H < 1.0):
        raise ValueError("H must lie in (0, 1)")
    x = np.abs(np.arange(-K + 1, K))
    w = (x + 1.0) ** (2 * H) + np.abs(x - 1.0) ** (2 * H) - 2.0 * x ** (2 * H)
    return float(n) ** (-4.0 * H) / 4.0 * float(np.sum((K - x) * w ** 2))


def psi_profile(K_max: int, H: float) -> np.ndarray:
    """psi(n, K) * n^{4H} for K = 1..K_max in one vectorised sweep (the
    product is independent of n, which is what makes exhaustive bound
    checks over all (n, K) pairs cheap)."""
    x = np.arange(K_max, dtype=float)
    w2 = ((x + 1.0) ** (2 * H) + np.abs(x - 1.0) ** (2 * H) - 2.0 * x ** (2 * H)) ** 2
    K = np.arange(1, K_max + 1, dtype=float)
    # phi(K) = 1/4 [K w_0^2 + 2 sum_{x=1}^{K-1} (K - x) w_x^2]
    csum = np.cumsum(w2[1:])
    xsum = np.cumsum(np.arange(1, K_max) * w2[1:])
    tail_count = np.concatenate([[0.0], csum])
    tail_xw = np.concatenate([[0.0], xsum])
    return 0.25 * (K * w2[0] + 2.0 * (K * tail_count - tail_xw))


@dataclass(frozen=True)
class LeadLagConfig:
    """Lead-lag convergence run over an increasing n-schedule.

    One fBm draw at resolution n_ref per trial feeds every n in the
    schedule (exact Gaussian restriction), keeping the whole schedule
    coupled to the same noise.
    """

    H: float = 0.4
    n_schedule: tuple[int, ...] = ()
    n_ref: int = 4096
    d: int = 1
    alpha: float = 0.3
    mc_trials: int = 64
    base_seed: int = 0

    def __post_init__(self):
        if not (0.25 < self.H <= 0.5):
            raise ValueError("requires 1/4 < H <= 1/2")
        if not (0.0 <= self.alpha < self.H):
            raise ValueError(f"requires alpha < H = {self.H:g}")
        ns = tuple(int(n) for n in self.n_schedule)
        if len(ns) == 0:
            raise ValueError("n schedule must be non-empty")
        if any(n < 1 for n in ns) or any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n schedule must be positive and strictly increasing")
        if self.n_ref < 4 * max(ns):
            raise ValueError(f"requires n_ref >= 4 * max(n schedule) = {4 * max(ns)}")
        for n in ns:
            if self.n_ref % n != 0:
                raise ValueError(f"n_ref = {self.n_ref} must be divisible by n = {n}")
            if n % ns[0] != 0:
                raise ValueError(f"every n must be a multiple of the coarsest n = {ns[0]}")
        if self.d < 1 or self.mc_trials < 1:
            raise ValueError("d and mc_trials must be >= 1")
        if self.n_ref > MAX_GRID_STEPS:
            raise ValueError(f"n_ref = {self.n_ref} is above MAX_GRID_STEPS = {MAX_GRID_STEPS}")
        ref_bytes = 8 * (self.n_ref + 1) * (2 * self.d) ** 2
        if ref_bytes > TRIAL_BYTES:
            raise ValueError(f"d = {self.d}: the reference lift needs {ref_bytes} B, "
                             f"above TRIAL_BYTES = {TRIAL_BYTES}")
        if len(ns) * self.mc_trials > MAX_TRIALS:
            raise ValueError(f"{len(ns)} n x {self.mc_trials} trials exceed "
                             f"MAX_TRIALS = {MAX_TRIALS}")
        object.__setattr__(self, "n_schedule", ns)


@dataclass(frozen=True)
class TrialResult:
    """Per-trial distances at one mesh n."""

    n: int
    dist_renorm: float
    dist_raw: float
    areaDev1: float
    vNorm: float


def run_leadlag_trial(cfg: LeadLagConfig, trial_index: int) -> list[TrialResult]:
    """One coupled trial across the whole n-schedule.

    Distances are measured on the coarsest schedule grid so every compared
    lift shares times; the lead-lag and doubled-reference paths agree at
    those knots, so the distance is carried entirely by the second level.
    Every lift is built on that grid directly (a strided lift), and one
    Hoelder sweep gives the raw and renormalised distances of all n.
    areaDev1 is the mean (i, d+i) cross entry of the raw area deviation at
    (0, 1), i.e. half the mean diagonal quadratic variation.
    """
    spec = SamplerSpec(seed=derive_seed(cfg.base_seed, trial_index),
                       H=cfg.H, n=cfg.n_ref, d=cfg.d)
    ref = sample_fbm(spec)
    n_min = cfg.n_schedule[0]
    ref_common = lift_piecewise_linear(ref.times, np.hstack([ref.values, ref.values]),
                                       stride=cfg.n_ref // n_min)
    lifts = []
    for n in cfg.n_schedule:
        hp = hoff_path(ref.values[::cfg.n_ref // n])
        lifts.append(lift_piecewise_linear(hp.times, hp.values, stride=2 * n // n_min))
    shifts = _cross_blocks([_v_scalar(cfg.H, n) for n in cfg.n_schedule], cfg.d)
    dist_raw, dist_ren = holder_sweep(lifts, ref_common, cfg.alpha, shifts)
    ref_area = 0.5 * (ref_common.level2[-1] - ref_common.level2[-1].T)
    out = []
    for n, lift, raw, ren, v in zip(cfg.n_schedule, lifts, dist_raw, dist_ren, shifts):
        dev = ref_area - 0.5 * (lift.level2[-1] - lift.level2[-1].T)
        area_dev = float(np.mean(np.diagonal(dev[:cfg.d, cfg.d:])))
        out.append(TrialResult(n=n, dist_renorm=float(ren), dist_raw=float(raw),
                               areaDev1=area_dev, vNorm=float(np.linalg.norm(v))))
    return out


def leadlag_experiment(cfg: LeadLagConfig, threads: int = 1) -> list[dict]:
    """Per-n means and standard errors over mc_trials coupled trials."""
    with ThreadPoolExecutor(max_workers=threads) as pool:
        results = list(pool.map(lambda k: run_leadlag_trial(cfg, k), range(cfg.mc_trials)))
    return summary_rows("n", cfg.n_schedule, zip(*results), LEADLAG_FIELDS)
