"""Lead-lag lift of a discretised path and its quadratic-variation
counter-term.

From samples X_0, ..., X_n on [0, 1] the lead-lag path in R^{2d} holds the
lag copy in the first d coordinates and the lead copy in the last d:

    knot 2i/(2n)     -> (X_i, X_i)
    knot (2i+1)/(2n) -> (X_i, X_{i+1})

linearly interpolated.  The lag-lead cross block of its Levy area over a
block of cells picks up minus half the quadratic variation of the samples
(``leadlag_lift`` writes that lift in closed form), which for fractional
Brownian motion with Hurst index H diverges in expectation like n^{1-2H}
as the mesh shrinks.  The counter-term adds (t-s) * n^{1-2H}/2 back on
the cross block, after which the lift converges to the lift of the
doubled path (X, X).

Block sign convention: the translation must put +v on the (lag, lead)
block to cancel the -QV/2 the area actually carries (verified against
``leadlag_lift`` and by direct integration of the two-segment case).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import derive_seed, fgn_autocov, sample_fbm
from .report import check_run, run_trials
from .tensor2 import ROW_BLOCK, LiftedPath, holder_sweep, lift_piecewise_linear
# holder_distance and translate stay importable from here: perfbench/tracing.py
# wraps them under this module's name
from .tensor2 import holder_distance, translate  # noqa: F401


def hoff_path(samples) -> tuple[np.ndarray, np.ndarray]:
    """Lead-lag knots j/(2n) and their (2n+1, 2d) values: lag holds then
    moves, lead moves then holds."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    n, d = x.shape[0] - 1, x.shape[1]
    values = np.empty((2 * n + 1, 2 * d))
    values[0::2, :d] = values[0::2, d:] = x  # knot 2i: (X_i, X_i)
    values[1::2, :d] = x[:-1]                # knot 2i+1: (X_i, X_{i+1})
    values[1::2, d:] = x[1:]
    return np.arange(2 * n + 1) / (2 * n), values


def counter_terms(H: float, ns, d: int) -> np.ndarray:
    """(k, 2d, 2d) stack of counter-terms for the meshes 1/n, n in ns: with
    v = n^{1-2H}/2, +v I on the (lag, lead) block and -v I opposite."""
    eye, zero = np.eye(d), np.zeros((d, d))
    unit = np.block([[zero, eye], [-eye, zero]])
    v = np.array([0.5 * float(n) ** (1.0 - 2.0 * H) for n in ns])
    return v[:, None, None] * unit


def leadlag_lift(samples) -> LiftedPath:
    """Lead-lag lift at the even knots 2i/(2n), in closed form (no Hoff path).

    Level 1 is (X_i - X_0, X_i - X_0).  Level 2 is [[D, D - Q/2], [D + Q/2, D]]
    with D the running level 2 of the interpolated samples and Q = sum dX (x) dX
    the running quadratic variation, so every diagonal block of the Levy
    area is the interpolation's area and the (lag, lead) block is that area
    minus half the QV.  Equals the integrated lift of ``hoff_path(samples)``
    at its even knots to rounding.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    n = x.shape[0] - 1
    interp = lift_piecewise_linear(np.arange(n + 1) / n, x)
    inc = np.diff(x, axis=0, prepend=x[:1])  # a first step of 0
    half_qv = np.cumsum(0.5 * inc[:, :, None] * inc[:, None, :], axis=0)
    D = interp.level2
    return LiftedPath(interp.times, np.hstack([x - x[0]] * 2),
                      np.block([[D, D - half_qv], [D + half_qv, D]]))


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
    w = 2.0 * fgn_autocov(x, H)
    return float(n) ** (-4.0 * H) / 4.0 * float(np.sum((K - x) * w ** 2))


def psi_profile(K_max: int, H: float) -> np.ndarray:
    """psi(n, K) * n^{4H} for K = 1..K_max in one vectorised sweep (the
    product is independent of n, which is what makes exhaustive bound
    checks over all (n, K) pairs cheap)."""
    w2 = (2.0 * fgn_autocov(np.arange(K_max), H)) ** 2
    K = np.arange(1, K_max + 1, dtype=float)
    # phi(K) = 1/4 [K w_0^2 + 2 sum_{x=1}^{K-1} (K - x) w_x^2]
    csum = np.cumsum(w2[1:])
    xsum = np.cumsum(np.arange(1, K_max) * w2[1:])
    tail_count = np.concatenate([[0.0], csum])
    tail_xw = np.concatenate([[0.0], xsum])
    return 0.25 * (K * w2[0] + 2.0 * (K * tail_count - tail_xw))


def leadlag_trial_bytes(n_ref: int, d: int, k: int, n_min: int) -> int:
    """Bound on the peak bytes of one lead-lag trial: reference grid n_ref,
    dimension d, k schedule points, coarsest n_min.

    Per reference step, 8 (4d + 1) B: the fBm draw holds the cached
    embedding root, d rows of 2n normals and their half-spectra (4d + 1
    floats); the later stages hold less (the path and times, the cached
    root, the doubled path: 3d + 2 floats).  This is the measured slope of
    a trial's tracemalloc peak between 2^19 and 2^20 steps: 40.0 B at
    d = 1, 72.0 at d = 2, 136.0 at d = 4.  The strided lift of the doubled
    path works on blocks of max(ROW_BLOCK, n_ref / n_min) rows of 3 x 2d
    floats: the increments, the base rows and the temporary 0.5 * inc.
    Per member and point of the coarsest grid, the sweep holds the k lifts,
    its stacked level-1 and level-2 differences and its planes:
    8 d^2 + 6 d + 7 floats.
    Every other array is O(ROW_BLOCK + PAIR_BLOCK), a few MiB.
    """
    return (8 * (4 * d + 1) * (n_ref + 1) + 48 * d * max(ROW_BLOCK, n_ref // n_min)
            + 8 * (8 * d * d + 6 * d + 7) * k * (n_min + 1))


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
        check_run(seed=self.base_seed, trials=len(ns) * self.mc_trials, grid_steps=self.n_ref,
                  hoelder_n=ns[0],  # the coarsest grid is the grid of the Hoelder sweep
                  trial_bytes=leadlag_trial_bytes(self.n_ref, self.d, len(ns), ns[0]))
        object.__setattr__(self, "n_schedule", ns)


@dataclass(frozen=True)
class TrialResult:
    """Per-trial distances at one mesh n, in results.csv column order."""

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
    areaDev1 is minus the mean (i, d+i) area entry of the lead-lag lift at
    (0, 1), where the doubled path's area ([[S, S], [S, S]] at level 2) is
    exactly 0: half the mean diagonal quadratic variation.
    """
    ref = sample_fbm(seed=derive_seed(cfg.base_seed, trial_index), H=cfg.H, n=cfg.n_ref,
                     d=cfg.d)
    n_min = cfg.n_schedule[0]
    ref_common = lift_piecewise_linear(ref.times, np.hstack([ref.values, ref.values]),
                                       stride=cfg.n_ref // n_min)
    lifts = [lift_piecewise_linear(*hoff_path(ref.values[::cfg.n_ref // n]),
                                   stride=2 * n // n_min) for n in cfg.n_schedule]
    shifts = counter_terms(cfg.H, cfg.n_schedule, cfg.d)
    dist_raw, dist_ren = holder_sweep(lifts, ref_common, cfg.alpha, shifts)
    out = []
    for n, lift, raw, ren, v in zip(cfg.n_schedule, lifts, dist_raw, dist_ren, shifts):
        dev = 0.5 * (lift.level2[-1].T - lift.level2[-1])
        area_dev = float(np.mean(np.diagonal(dev[:cfg.d, cfg.d:])))
        out.append(TrialResult(n=n, dist_renorm=float(ren), dist_raw=float(raw),
                               areaDev1=area_dev, vNorm=float(np.linalg.norm(v))))
    return out


def leadlag_experiment(cfg: LeadLagConfig, threads: int = 1) -> list[dict]:
    """Per-n means and standard errors over mc_trials coupled trials."""
    return run_trials(lambda k: run_leadlag_trial(cfg, k), cfg.mc_trials, threads)
