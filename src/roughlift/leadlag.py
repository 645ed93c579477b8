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

The experiment uses the identity directly.  At the points of the coarsest
schedule grid the lead-lag lift and the doubled path share level 1, so a
trial is measured by its area residual there, a function of d^2 numbers:
the n-samples' running area less the n_ref path's, and their running
quadratic variation, each from one running_outer_sum; no Hoff path or
2d-dimensional lift enters it.  Trials run in batches (``TRIAL_BATCH``),
each reading the run's plan (``plan_run``) and drawing its paths in one
sample_fbm call, and one Hoelder sweep of a batch's residuals gives every
distance.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gauss import derive_seed, embedding_root, fgn_autocov, sample_fbm
from .report import ConfigError, check_run, run_trials
from .tensor2 import (LiftedPath, area_entries, full_level2, holder_sweep, outer_sum_memory,
                      running_outer_sum, sweep_memory)
# importable from here, as perfbench/tracing.py wraps them under this module's name
from .tensor2 import holder_distance, lift_piecewise_linear, translate  # noqa: F401


def _as_samples(samples) -> np.ndarray:
    """Samples X_0, ..., X_n as an (n + 1, d) float array; a 1-D input is
    one component."""
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    return x


def hoff_path(samples) -> tuple[np.ndarray, np.ndarray]:
    """Lead-lag knots j/(2n) and their (2n+1, 2d) values: lag holds then
    moves, lead moves then holds."""
    x = _as_samples(samples)
    n, d = x.shape[0] - 1, x.shape[1]
    values = np.empty((2 * n + 1, 2 * d))
    values[0::2, :d] = values[0::2, d:] = x  # knot 2i: (X_i, X_i)
    values[1::2, :d] = x[:-1]                # knot 2i+1: (X_i, X_{i+1})
    values[1::2, d:] = x[1:]
    return np.arange(2 * n + 1) / (2 * n), values


def counter_terms(H: float, ns, d: int) -> np.ndarray:
    """(k, 2d, 2d) stack of counter-terms for the meshes 1/n, n in ns: with
    v = n^{1-2H}/2, +v I on the (lag, lead) block, cancelling the -QV/2 its
    area carries (as ``leadlag_lift`` and the integrated Hoff lift show),
    and -v I opposite."""
    eye, zero = np.eye(d), np.zeros((d, d))
    unit = np.block([[zero, eye], [-eye, zero]])
    v = np.array([0.5 * float(n) ** (1.0 - 2.0 * H) for n in ns])
    return v[:, None, None] * unit


def leadlag_lift(samples) -> LiftedPath:
    """Lead-lag lift at the even knots 2i/(2n), in closed form (no Hoff path).

    Level 1 is (X_i - X_0, X_i - X_0), and the Levy area is [[A, A - Q/2],
    [A + Q/2, A]], with A the running area of the interpolated samples and
    Q = sum dX (x) dX the running quadratic variation, both from one
    running_outer_sum: every diagonal block of the area is the
    interpolation's area and the (lag, lead) block is that area minus half
    the QV.  Equals the integrated lift of ``hoff_path(samples)`` at its
    even knots to rounding.
    """
    x = _as_samples(samples)
    n, d = x.shape[0] - 1, x.shape[1]
    area, qv = np.empty((n + 1, d * (d - 1) // 2)), np.empty((n + 1, d * (d + 1) // 2))
    running_outer_sum(x, 1, area, qv)
    a = full_level2(np.zeros((n + 1, d)), area)  # level 1 zero: the anti-symmetric array
    half_qv = np.empty_like(a)
    p, q = np.triu_indices(d)
    half_qv[:, p, q] = half_qv[:, q, p] = 0.5 * qv
    lift = np.block([[a, a - half_qv], [a + half_qv, a]])
    return LiftedPath(np.arange(n + 1) / n, np.hstack([x - x[0]] * 2), area_entries(lift))


def psi_closed(n: int, K: int, H: float) -> float:
    """Second moment of the off-diagonal quadratic-variation sum over K
    cells of mesh 1/n:

        n^{-4H}/4 * sum_{x=-K+1}^{K-1} (K-|x|) (|x+1|^{2H} + |x-1|^{2H} - 2|x|^{2H})^2

    that is, n^{-4H} times the last entry of ``psi_profile(K, H)``.
    """
    if not (1 <= K <= n):
        raise ValueError("need 1 <= K <= n")
    if not (0.0 < H < 1.0):
        raise ValueError("H must lie in (0, 1)")
    return float(n) ** (-4 * H) * float(psi_profile(K, H)[-1])


def psi_profile(K_max: int, H: float) -> np.ndarray:
    """psi(n, K) * n^{4H} for K = 1..K_max in one vectorised sweep (the
    product is independent of n, which is what makes exhaustive bound
    checks over all (n, K) pairs cheap)."""
    w2 = (2.0 * fgn_autocov(np.arange(K_max), H)) ** 2
    K = np.arange(1, K_max + 1, dtype=float)
    # phi(K) = 1/4 [K w_0^2 + 2 sum_{x=1}^{K-1} (K - x) w_x^2]
    tail_count = np.concatenate([[0.0], np.cumsum(w2[1:])])
    tail_xw = np.concatenate([[0.0], np.cumsum(np.arange(1, K_max) * w2[1:])])
    return 0.25 * (K * w2[0] + 2.0 * (K * tail_count - tail_xw))


# Trials per run_leadlag_trial call, whatever the thread count: a batch
# shares its draw, lift and sweep calls, which the interpreter's per-call cost
# dominates at the benchmark shape (n_ref = 4096, 64 trials).  A batch's
# leadlag_trial_bytes stays within BATCH_BYTES unless it is a single trial.
TRIAL_BATCH = 8
BATCH_BYTES = 1 << 23


def leadlag_trial_bytes(n_ref: int, d: int, schedule, batch: int = 1) -> int:
    """Bound on the peak bytes of one run_leadlag_trial call on ``batch``
    trials on the reference grid n_ref in dimension d over the n-schedule
    ``schedule``: the run's plan (``plan_run``), 32 KiB for the
    interpreter's objects (10-24 KB in the phases traced), and the largest
    of four phases, each the arrays it holds and the working bytes tensor2
    sizes for the kernel it calls.  In floats, with N = n_ref + 1, E = d^2
    entries a residual point, k schedule points, the coarsest n_min and
    P = batch (n_min + 1):

    * the plan, N + n_min + 1 + k E: the embedding root, the sweep grid
      and the residuals' shifts;
    * sampling, N d (4 + batch), or 4 N d for one trial: a member's normals
      and half-spectra (4d floats a step) beside the batch's draws, which
      are allocated after the first member's transform;
    * the reference area, N d batch + P d (d - 1)/2: the draws and the
      area, and its running_outer_sum;
    * the n-lifts, N d batch + P (E k + d (d - 1)/2): the draws, the
      residuals, into which each n's area and QV are summed, and the
      reference area, and the finest n's running_outer_sum;
    * sweep, batch k E (n_min + 2): the residuals and their shifts, and
      their holder_sweep.
    """
    n, n_min, k = n_ref + 1, schedule[0], len(schedule)
    entries, points, draws = d * d, batch * (n_min + 1), n * d * batch
    plan = n + n_min + 1 + k * entries
    sampling = 8 * n * d * (4 + batch if batch > 1 else 4)
    reference = 8 * (draws + points * (d * (d - 1) // 2))
    reference += outer_sum_memory(batch, n_ref, d, False)[2]
    lifting = 8 * (draws + points * (entries * k + d * (d - 1) // 2))
    lifting += outer_sum_memory(batch, schedule[-1], d, True)[2]
    sweep = 8 * batch * k * entries * (n_min + 2)
    sweep += sweep_memory(batch * k, n_min, entries, True, True)[2]
    return 8 * plan + 2 ** 15 + max(sampling, reference, lifting, sweep)


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
        object.__setattr__(self, "n_schedule", ns)
        check_run(seed=self.base_seed, trials=len(ns) * self.mc_trials, grid_steps=self.n_ref,
                  hoelder_n=ns[0],  # the coarsest grid is the grid of the Hoelder sweep
                  trial_bytes=leadlag_trial_bytes(self.n_ref, self.d, ns, self.batch))

    @property
    def batch(self) -> int:
        """Trials per run_leadlag_trial call: the most, up to TRIAL_BATCH, whose
        per-phase bound leadlag_trial_bytes stays within BATCH_BYTES, or 1."""
        return max(b for b in range(1, TRIAL_BATCH + 1) if b == 1 or leadlag_trial_bytes(
            self.n_ref, self.d, self.n_schedule, b) <= BATCH_BYTES)


@dataclass(frozen=True)
class TrialResult:
    """Per-trial distances at one mesh n, in results.csv column order."""

    n: int
    dist_renorm: float
    dist_raw: float
    areaDev1: float
    vNorm: float


@dataclass(frozen=True)
class LeadLagPlan:
    """What every batch of a lead-lag run reads, built by ``plan_run``
    before the pool starts, its arrays read-only: the fBm embedding root
    (``embedding_root(n_ref, H)``), its one array of n_ref + 1 floats, the
    sweep grid's times (the coarsest schedule grid), and per schedule point
    the residual's shifts (k, d^2), which the counter-terms put on its
    diagonal QV entries, and the counter-terms' norms."""

    root: np.ndarray
    times: np.ndarray
    shifts: np.ndarray
    vnorms: tuple[float, ...]


def plan_run(cfg: LeadLagConfig) -> LeadLagPlan:
    """The run's plan, built before any sampling: an embedding root that
    cannot be built raises a ConfigError (a ValueError)."""
    try:
        root = embedding_root(cfg.n_ref, cfg.H)
    except ValueError as e:
        raise ConfigError(f"unrunnable at n_ref = {cfg.n_ref}, H = {cfg.H:g}: {e}") from e
    d, k = cfg.d, len(cfg.n_schedule)
    times = np.arange(cfg.n_schedule[0] + 1) / cfg.n_schedule[0]
    terms = counter_terms(cfg.H, cfg.n_schedule, d)
    shifts = np.zeros((k, d * d))  # v on the QV entries (p, p), from the (lag, lead) block
    p, q = np.triu_indices(d)
    shifts[:, d * (d - 1) // 2:] = terms[:, p, d + q]
    for array in (times, shifts):
        array.flags.writeable = False
    return LeadLagPlan(root, times, shifts, tuple(float(np.linalg.norm(v)) for v in terms))


def run_leadlag_trial(cfg: LeadLagConfig, trials, plan: LeadLagPlan) -> list[list[TrialResult]]:
    """One batch of coupled trials across the whole n-schedule: one record
    list per trial index in ``trials``, each bitwise the same whatever
    batch the index is run in.  ``plan`` is the run's ``plan_run(cfg)``;
    the batch's draws are one sample_fbm call.  One Hoelder sweep of the
    batch's area residuals (``_residuals``), shifted by the counter-terms,
    gives every raw and renormalised distance."""
    res, area = _residuals(cfg, trials, plan)
    b, k, n1, entries = res.shape
    shifts = np.tile(plan.shifts, (b, 1))  # each member's shifts
    dist_raw, dist_ren = holder_sweep(res.reshape(b * k, n1, entries), plan.times, cfg.alpha,
                                      shifts)
    return [[TrialResult(n=n, dist_renorm=float(ren), dist_raw=float(raw), areaDev1=float(dev),
                         vNorm=vnorm)
             for n, raw, ren, dev, vnorm in zip(cfg.n_schedule, raws, rens, devs, plan.vnorms)]
            for raws, rens, devs in zip(dist_raw.reshape(b, k), dist_ren.reshape(b, k), area)]


def _residuals(cfg: LeadLagConfig, trials, plan: LeadLagPlan) -> tuple[np.ndarray, np.ndarray]:
    """(B, k, n_min + 1, d^2) area residuals of the lead-lag lifts against
    the doubled reference (X, X) on the coarsest grid, where the two share
    level 1, and (B, k) areaDev1, for the B trials of a batch and the k
    schedule points.  With R = A - A_ref, A the running area of the
    n-samples and A_ref the n_ref path's, and Q the n-samples' running QV,
    the lead-lag residual's d (2d - 1) area entries are R_pq twice, R_pq -
    Q_pq/2 and -R_pq - Q_pq/2 for p < q, and -Q_pp/2: their squares sum to
    those of the d^2 entries 2 R_pq, then Q_pq/sqrt(2) (p < q) and -Q_pp/2
    in the order running_outer_sum writes Q, which are the residual.  The
    batch's draws are one (B, n_ref + 1, d) array, so A_ref and each n's A
    and Q are one running_outer_sum call each.  areaDev1 is the mean Q_pp/2
    at t = 1, where the doubled path's area entries are 0."""
    d, n_ref, n_min = cfg.d, cfg.n_ref, cfg.n_schedule[0]
    x = sample_fbm([derive_seed(cfg.base_seed, k) for k in trials], cfg.H, n_ref, d,
                   root=plan.root)
    pairs = d * (d - 1) // 2
    ref = np.empty((len(x), n_min + 1, pairs))
    running_outer_sum(x, n_ref // n_min, ref)
    res = np.empty((len(x), len(cfg.n_schedule), n_min + 1, d * d))
    squares = list(itertools.combinations_with_replacement(range(d), 2))
    for m, n in enumerate(cfg.n_schedule):
        area, qv = res[:, m, :, :pairs], res[:, m, :, pairs:]
        running_outer_sum(x[:, ::n_ref // n], n // n_min, area, qv)
        area -= ref
        area *= 2.0
        for (p, q), entry in zip(squares, np.moveaxis(qv, -1, 0)):
            if p == q:  # 0 - Q_pp/2, so that Q_pp = 0 gives +0.0
                entry *= 0.5
                np.subtract(0.0, entry, out=entry)
            else:
                entry *= math.sqrt(0.5)
    diagonal = [pairs + e for e, (p, q) in enumerate(squares) if p == q]
    return res, -np.mean(res[:, :, -1, diagonal], axis=-1)


def leadlag_experiment(cfg: LeadLagConfig, threads: int = 1) -> list[dict]:
    """Per-n means and standard errors over mc_trials coupled trials, in
    batches of cfg.batch, every batch reading the one plan built first
    (``plan_run``).  run_leadlag_trial is looked up by name at each call, so
    a wrapper set on this module (the traced batch span) sees every batch."""
    plan = plan_run(cfg)
    return run_trials(lambda ks: run_leadlag_trial(cfg, ks, plan), cfg.mc_trials, threads,
                      cfg.batch)
