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

from . import linstable
from .gauss import (derive_Z, derive_seed, float_index, physical_step, required_steps,
                    sample_physical, uniform_times)
from .linstable import StableDrift, lyapunov_bytes, renorm_v
from .report import ConfigError, check_run, run_trials
from .tensor2 import (SweepGeometry, area_entries, full_level2, holder_distance,
                      lift_piecewise_linear, sweep_geometry, translate, zero_lift)


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
    """Peak bytes a magnetic trial holds per fine-grid step at dimension d:
    P (then Z, written over it), W, the times and the area of one lift at a
    time, freed when its restriction returns, 2d + 1 + d(d - 1)/2 floats a
    step, since level 1 of each full lift is a view of its path; sampling
    holds P, W and the times.
    It is the measured slope of one trial's tracemalloc peak between 260,352
    and 516,608 steps, 48.0 B at d = 2 and 120.0 at d = 4; all else is
    O(ROW_BLOCK).
    """
    return 8 * (2 * d + 1 + d * (d - 1) // 2)


@dataclass(frozen=True)
class EpsPlan:
    """What every trial at one eps reads, built by ``plan_run``: the drift,
    the fine step count, the output grid's stride in it, the OU step of
    sample_physical (gauss.physical_step) and the output grid's sweep
    geometry (None where the sweeps build their own), all read-only."""

    eps: float
    drift: StableDrift
    n_fine: int
    stride: int
    step: tuple
    geometry: SweepGeometry | None


def run_magnetic_trial(cfg: MagneticConfig, plan: EpsPlan, trial_index: int) -> TrialResult:
    eps, drift, n_fine = plan.eps, plan.drift, plan.n_fine
    v = renorm_v(drift)
    seed = derive_seed(cfg.base_seed, float_index(eps), trial_index)
    P, W = sample_physical(drift, eps, cfg.T, n_fine, seed, step=plan.step)
    out_idx = np.arange(0, n_fine + 1, plan.stride)

    # each fine lift is restricted and dropped before the next is made, and
    # Z is written over P: fine_step_bytes
    liftP = lift_piecewise_linear(P.times, P.values).restrict(out_idx)
    Z = derive_Z(P, W, out=P.values)
    liftZ = lift_piecewise_linear(Z.times, Z.values).restrict(out_idx)
    liftW = lift_piecewise_linear(W.times, W.values).restrict(out_idx)

    zero = zero_lift(liftP.times, cfg.d)
    geometry, shift = plan.geometry, area_entries(v)
    distP_renorm = holder_distance(translate(liftP, shift), zero, cfg.alpha, geometry=geometry)
    distP_raw = holder_distance(liftP, zero, cfg.alpha, geometry=geometry)
    distZ_renorm = holder_distance(translate(liftZ, shift), liftW, cfg.alpha, geometry=geometry)
    distZ_raw = holder_distance(liftZ, liftW, cfg.alpha, geometry=geometry)
    ends = [full_level2(lift.level1[-1], lift.area[-1]) for lift in (liftZ, liftW)]
    area_dev = float(np.linalg.norm(ends[0] - ends[1]))
    return TrialResult(eps=float(eps), distP_renorm=distP_renorm,
                       distP_raw=distP_raw, distZ_renorm=distZ_renorm,
                       distZ_raw=distZ_raw, areaDev1=area_dev,
                       vNorm=float(np.linalg.norm(v)))


def plan_run(cfg: MagneticConfig) -> list[EpsPlan]:
    """Every eps's plan, all sharing the output grid's sweep geometry, built
    before any sampling: a ConfigError (a ValueError) names the first eps
    whose C, v or OU step is not finite."""
    geometry = sweep_geometry(uniform_times(cfg.grid_n, cfg.T), cfg.alpha)
    plans = []
    for eps in cfg.eps_schedule:
        drift, n_fine = drift_at(cfg, eps), fine_grid_n(cfg, eps)
        try:  # linstable's name, so that the calls of this module's
            # renorm_v stay one per trial and eps (perfbench counts them)
            linstable.renorm_v(drift)
            plans.append(EpsPlan(eps, drift, n_fine, n_fine // cfg.grid_n,
                                 physical_step(drift, eps, cfg.T, n_fine), geometry))
        except ValueError as e:
            raise ConfigError(f"unrunnable at eps = {eps:g}: {e}") from e
    return plans


def magnetic_experiment(cfg: MagneticConfig, threads: int = 1) -> list[dict]:
    """Per-eps means and standard errors over mc_trials independent trials.

    Trial k runs every eps; seeds are derived per (eps, trial), so the
    output is independent of the thread count.  ``plan_run`` runs first.
    """
    plans = plan_run(cfg)
    return run_trials(lambda ks: [[run_magnetic_trial(cfg, plan, k) for plan in plans]
                                  for k in ks], cfg.mc_trials, threads)
