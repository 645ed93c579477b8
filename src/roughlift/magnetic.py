"""Small-mass magnetic experiment.

The momentum P of a physical Brownian motion with friction A and magnetic
force B^eps = eps^{-beta} B0 is sampled exactly on a fine grid together
with its driving noise W; Z = W - P.  Piecewise-linear lifts of P, Z and W
are restricted to a coarse output grid, the counter-term v built from the
stationary covariance is applied, and the alpha-Hoelder distances of the
translated lifts to their limits (the zero path for P, the W lift for Z)
are recorded per trial.  The raw (untranslated) distances diverge with the
counter-term; the translated ones shrink as eps -> 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import derive_Z, derive_seed, float_index, required_steps, sample_physical
from .linstable import StableDrift, lyapunov_bytes, renorm_v
from .report import check_run, run_trials
from .tensor2 import holder_distance, lift_piecewise_linear, translate, zero_lift


@dataclass(frozen=True)
class MagneticConfig:
    """Run parameters; alpha must stay below 1/2 - beta/4 so that the
    Hoelder window is admissible for the growth exponent beta."""

    A: np.ndarray
    B0: np.ndarray
    beta: float = 0.0
    eps_schedule: tuple[float, ...] = ()
    T: float = 1.0
    alpha: float = 0.3
    grid_n: int = 256
    mc_trials: int = 64
    base_seed: int = 0

    def __post_init__(self):
        # StableDrift checks the shapes and (anti-)symmetries; a stable
        # A - B0 does not make A positive definite, as the theory assumes
        drift = StableDrift(self.A, self.B0)
        if np.min(np.linalg.eigvalsh(drift.A)) <= 0.0:
            raise ValueError("A must be positive definite")
        if not (0.0 <= self.beta < 1.0):
            raise ValueError("requires 0 <= beta < 1")
        if not (0.0 <= self.alpha < 0.5 - self.beta / 4.0):
            raise ValueError(
                f"requires alpha < 1/2 - beta/4 = {0.5 - self.beta / 4.0:g}; "
                f"got alpha = {self.alpha:g}")
        eps = tuple(float(e) for e in self.eps_schedule)
        if len(eps) == 0:
            raise ValueError("eps schedule must be non-empty")
        if any(e <= 0.0 for e in eps) or any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps schedule must be positive and strictly decreasing")
        if self.T <= 0.0:
            raise ValueError("T must be positive")
        if self.grid_n < 2:  # before fine_grid_n, which divides by it
            raise ValueError("grid_n must be >= 2")
        if self.mc_trials < 1:
            raise ValueError("mc_trials must be >= 1")
        object.__setattr__(self, "A", drift.A)
        object.__setattr__(self, "B0", drift.B)
        object.__setattr__(self, "eps_schedule", eps)
        try:
            n_fine = fine_grid_n(self, eps[-1])
        except (ZeroDivisionError, OverflowError) as e:  # eps^2 underflows or N overflows
            raise ValueError(f"the step rule has no finite grid at eps = {eps[-1]:g}") from e
        check_run(seed=self.base_seed, trials=len(eps) * self.mc_trials, grid_steps=n_fine,
                  hoelder_n=self.grid_n,
                  trial_bytes=max(n_fine * fine_step_bytes(self.d), lyapunov_bytes(self.d)))

    @property
    def d(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class TrialResult:
    """Per-trial distance statistics at one eps, in results.csv column order."""

    eps: float
    distP_renorm: float
    distP_raw: float
    distZ_renorm: float
    distZ_raw: float
    areaDev1: float
    vNorm: float


def drift_at(cfg: MagneticConfig, eps: float) -> StableDrift:
    """Drift A - eps^{-beta} B0 at mass eps^2."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    return StableDrift(cfg.A, eps ** (-cfg.beta) * cfg.B0)


def fine_grid_n(cfg: MagneticConfig, eps: float) -> int:
    """Fine simulation steps: the step rule rounded up to a multiple of the
    output grid so restriction is an exact subsample."""
    n_req = required_steps(drift_at(cfg, eps), eps, cfg.T)
    return cfg.grid_n * int(np.ceil(max(n_req, cfg.grid_n) / cfg.grid_n))


def fine_step_bytes(d: int) -> int:
    """Peak bytes a magnetic trial holds per fine-grid step at dimension d.

    At its peak a trial holds P (then Z, written over it), W, the times and
    the one level-2 buffer its three lifts share: (d + 1)^2 floats a step,
    since level 1 of each full lift is a view of its path.  Its sampling
    phase stays below that lift phase: P, W and the times (2d + 1 floats a
    step), with the OU scan run per chunk in O(ROW_BLOCK d).  That is the
    measured slope of the tracemalloc peak of one trial between 260,352 and
    516,608 steps: 72.0 B per step at d = 2 and 200.0 at d = 4; all else is
    O(ROW_BLOCK).
    """
    return 8 * (d + 1) ** 2


def run_magnetic_trial(cfg: MagneticConfig, eps: float, trial_index: int) -> TrialResult:
    drift = drift_at(cfg, eps)
    v = renorm_v(drift)
    n_fine = fine_grid_n(cfg, eps)
    stride = n_fine // cfg.grid_n
    seed = derive_seed(cfg.base_seed, float_index(eps), trial_index)
    P, W = sample_physical(drift, eps, cfg.T, n_fine, seed)
    out_idx = np.arange(0, n_fine + 1, stride)

    # P, Z and W are lifted in turn into one level-2 buffer, each lift
    # restricted before the next overwrites it, and Z is written over P once
    # P's lift is restricted.  Level 1 of each full lift is a view of its
    # path, so after sampling the trial makes no fine-grid array but the
    # buffer, and holds P (then Z), W, the times and the buffer at its peak.
    level2 = np.empty((n_fine + 1, cfg.d, cfg.d))
    liftP = lift_piecewise_linear(P.times, P.values, out=level2).restrict(out_idx)
    Z = derive_Z(P, W, out=P.values)
    liftZ = lift_piecewise_linear(Z.times, Z.values, out=level2).restrict(out_idx)
    liftW = lift_piecewise_linear(W.times, W.values, out=level2).restrict(out_idx)

    zero = zero_lift(liftP.times, cfg.d)
    distP_renorm = holder_distance(translate(liftP, v), zero, cfg.alpha)
    distP_raw = holder_distance(liftP, zero, cfg.alpha)
    distZ_renorm = holder_distance(translate(liftZ, v), liftW, cfg.alpha)
    distZ_raw = holder_distance(liftZ, liftW, cfg.alpha)
    area_dev = float(np.linalg.norm(liftZ.level2[-1] - liftW.level2[-1]))
    return TrialResult(eps=float(eps), distP_renorm=distP_renorm,
                       distP_raw=distP_raw, distZ_renorm=distZ_renorm,
                       distZ_raw=distZ_raw, areaDev1=area_dev,
                       vNorm=float(np.linalg.norm(v)))


def magnetic_experiment(cfg: MagneticConfig, threads: int = 1) -> list[dict]:
    """Per-eps means and standard errors over mc_trials independent trials.

    Trial k runs every eps; seeds are derived per (eps, trial), so the
    output is independent of the thread count.
    """
    return run_trials(lambda ks: [[run_magnetic_trial(cfg, eps, k) for eps in cfg.eps_schedule]
                                  for k in ks], cfg.mc_trials, threads)
