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
trial is measured by its residual there, built from d-dimensional lifts
and the running quadratic variation alone; no Hoff path or 2d-dimensional
lift enters it.  Trials run in batches (``TRIAL_BATCH``) with the batch
axis first, and one Hoelder sweep of all residuals of a batch against the
zero lift gives every distance.

Block sign convention: the translation must put +v on the (lag, lead)
block to cancel the -QV/2 the area actually carries (verified against
``leadlag_lift`` and by direct integration of the two-segment case).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import derive_seed, embedding_root, fgn_autocov, sample_fbm
from .report import ConfigError, check_run, run_trials
from .tensor2 import (ROW_BLOCK, LiftedPath, holder_sweep, lift_piecewise_linear,
                      running_outer_sum, sweep_blocks, zero_lift)
# holder_distance and translate stay importable from here: perfbench/tracing.py
# wraps them under this module's name
from .tensor2 import holder_distance, translate  # noqa: F401


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
    x = _as_samples(samples)
    n, d = x.shape[0] - 1, x.shape[1]
    level2 = _leadlag_level2(x, 1, np.empty((n + 1, 2 * d, 2 * d)))
    return LiftedPath(np.arange(n + 1) / n, np.hstack([x - x[0]] * 2), level2)


def _leadlag_level2(x, stride: int, out, ref=0.0) -> np.ndarray:
    """The lead-lag level 2 [[D, D - Q/2], [D + Q/2, D]] of samples x of
    shape (..., n + 1, d) at every ``stride``-th sample, written block by
    block into ``out`` (..., n / stride + 1, 2d, 2d): D, the running level 2
    of the interpolated samples less ``ref``, into the (lag, lag) block, half
    the running quadratic variation Q = sum dX (x) dX into the (lead, lead)
    block, then the two cross blocks from those, and D over the (lead, lead)
    block.  Beyond the lift's times and level 1 it makes no array."""
    m, d = x.shape[-2] - 1, x.shape[-1]
    D, half_qv = out[..., :d, :d], out[..., d:, d:]
    lift_piecewise_linear(np.arange(m + 1) / m, x, stride, out=D)
    D -= ref
    running_outer_sum(x, stride, half_qv, midpoint=False)
    half_qv *= 0.5
    np.subtract(D, half_qv, out=out[..., :d, d:])
    np.add(D, half_qv, out=out[..., d:, :d])
    half_qv[...] = D
    return out


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
    csum = np.cumsum(w2[1:])
    xsum = np.cumsum(np.arange(1, K_max) * w2[1:])
    tail_count = np.concatenate([[0.0], csum])
    tail_xw = np.concatenate([[0.0], xsum])
    return 0.25 * (K * w2[0] + 2.0 * (K * tail_count - tail_xw))


# Trials per run_leadlag_trial call, whatever the thread count: a batch
# shares its lift and sweep calls, which the interpreter's per-call cost
# dominates at the benchmark shape (n_ref = 4096, 64 trials).  A batch holds
# at most BATCH_BYTES (leadlag_trial_bytes) unless it is a single trial.
TRIAL_BATCH = 8
BATCH_BYTES = 1 << 23


def leadlag_trial_bytes(n_ref: int, d: int, k: int, n_min: int, batch: int = 1) -> int:
    """Bound on the peak bytes of one run_leadlag_trial call on ``batch``
    trials: reference grid n_ref, dimension d, k schedule points, coarsest
    n_min.  In floats of 8 B, with N = n_ref + 1, it is what the run and the
    worker thread hold throughout, the run's embedding root (N floats,
    built before the first batch) and the thread's scratch buffer, plus the
    largest of the traced peaks of three phases.  The buffer is the larger
    of the blocks of the lifts and QV sums (running_outer_sum, 2d + 1
    floats a block row, (2d + 1) min(batch n_ref, ROW_BLOCK)) and the planes
    of the sweep (tensor2.sweep_blocks, for the batch's k members a trial,
    with shifts, against the zero target, with no level 1, its geometry
    built block by block among them): a thread holds one buffer, the
    largest it has been asked for.  The phases:

    * sampling, N d max(batch + 3, 2 batch): one draw holds d rows of 2n
      normals and their half-spectra (4d floats a step) beside the earlier
      draws of the batch, and stacking the draws holds them twice;
    * lifting, N (1 + batch d) + batch (n_min + 1)(4 d^2 k + d^2 + 2 d):
      the stacked draws and the times; and on the coarsest grid the
      residuals (4 d^2 floats at each of the M = batch k (n_min + 1) member
      grid points), which the lead-lag level 2 of each n is written into,
      the reference lift and the level 1 of one n-lift;
    * sweep, 8 d^2 M: per member point its residual and the sweep's level-2
      difference (level 1 is zero, so it makes no level-1 planes); the
      zero target is broadcast zeros.

    At batch = 1 sampling is the peak, and the traced peak grows by 8 (4d +
    1) B per reference step between 2^19 and 2^20 steps: 40.0 B at d = 1,
    136.0 at d = 4.  Beyond these come numpy's iterator buffers (8192
    elements an operand, a few at a time) and arrays of O(batch k) floats.
    """
    n = n_ref + 1
    members = batch * k
    points = members * (n_min + 1)
    _, planes = sweep_blocks(members, n_min, shifted=True, zero_target=True, zero1=True)
    scratch = max((2 * d + 1) * min(batch * n_ref, ROW_BLOCK), sum(planes))
    sampling = n * d * max(batch + 3, 2 * batch)
    lifting = n * (1 + batch * d) + batch * (n_min + 1) * (4 * d * d * k + d * d + 2 * d)
    return 8 * (n + scratch + max(sampling, lifting, 8 * d * d * points))


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
                  trial_bytes=leadlag_trial_bytes(self.n_ref, self.d, len(ns), ns[0], self.batch))

    @property
    def batch(self) -> int:
        """Trials per run_leadlag_trial call: the most, up to TRIAL_BATCH,
        whose leadlag_trial_bytes stays within BATCH_BYTES, and at least 1."""
        args = (self.n_ref, self.d, len(self.n_schedule), self.n_schedule[0])
        return max(b for b in range(1, TRIAL_BATCH + 1)
                   if b == 1 or leadlag_trial_bytes(*args, b) <= BATCH_BYTES)


@dataclass(frozen=True)
class TrialResult:
    """Per-trial distances at one mesh n, in results.csv column order."""

    n: int
    dist_renorm: float
    dist_raw: float
    areaDev1: float
    vNorm: float


def run_leadlag_trial(cfg: LeadLagConfig, trials, root=None) -> list[list[TrialResult]]:
    """One batch of coupled trials across the whole n-schedule: one record
    list per trial index in ``trials``, each bitwise the same whatever
    batch the index is run in.  ``root``, the draws' embedding root, is
    passed to sample_fbm.

    Distances are measured on the coarsest schedule grid, where the
    lead-lag lift and the doubled reference (X, X) share level 1, so each
    trial reduces to its residual there (``_residuals``): level 1 zero and
    level 2 [[dD, dD - Q/2], [dD + Q/2, dD]].  One Hoelder sweep of every
    trial's residuals against the zero lift, shifted by the counter-terms,
    then gives the raw and renormalised distances of the whole batch.
    areaDev1 is minus the mean (i, d+i) area entry of the lead-lag lift at
    (0, 1), where the doubled path's area is exactly 0: half the mean
    diagonal quadratic variation.
    """
    res, area = _residuals(cfg, trials, root)
    b, k, n1, d2 = res.shape[:4]
    times = np.arange(n1) / cfg.n_schedule[0]
    members = LiftedPath(times, np.broadcast_to(0.0, (b * k, n1, d2)),
                         res.reshape(b * k, n1, d2, d2))
    shifts = counter_terms(cfg.H, cfg.n_schedule, cfg.d)
    dist_raw, dist_ren = holder_sweep(members, zero_lift(times, d2), cfg.alpha,
                                    np.tile(shifts, (b, 1, 1)))
    vnorms = [float(np.linalg.norm(v)) for v in shifts]
    return [[TrialResult(n=n, dist_renorm=float(ren), dist_raw=float(raw), areaDev1=float(dev),
                         vNorm=vnorm)
             for n, raw, ren, dev, vnorm in zip(cfg.n_schedule, raws, rens, devs, vnorms)]
            for raws, rens, devs in zip(dist_raw.reshape(b, k), dist_ren.reshape(b, k), area)]


def _residuals(cfg: LeadLagConfig, trials, root=None) -> tuple[np.ndarray, np.ndarray]:
    """(B, k, n_min + 1, 2d, 2d) level-2 residuals of the lead-lag lifts
    against the doubled reference on the coarsest grid, and (B, k)
    areaDev1, for the B trials of a batch and the k schedule points.

    Each residual is the lead-lag level 2 of the n-samples
    (``_leadlag_level2``) with the strided reference lift of the n_ref-samples
    taken off its interpolated part, written straight into its slot.  The
    batch's n_ref draws are stacked, so the reference lift, and each n's
    lift and QV, are one batched call each.  areaDev1 is read off each
    residual's last row: minus the mean (i, d + i) Levy area.
    """
    d, n_ref, n_min = cfg.d, cfg.n_ref, cfg.n_schedule[0]
    x = np.stack([sample_fbm(seed=derive_seed(cfg.base_seed, k), H=cfg.H, n=n_ref, d=d,
                             root=root).values for k in trials])
    ref = lift_piecewise_linear(np.arange(n_ref + 1) / n_ref, x, stride=n_ref // n_min).level2
    res = np.empty((len(x), len(cfg.n_schedule), n_min + 1, 2 * d, 2 * d))
    for m, n in enumerate(cfg.n_schedule):
        _leadlag_level2(x[:, ::n_ref // n], n // n_min, res[:, m], ref)
    end = res[:, :, -1]
    area = 0.5 * np.diagonal(end[..., :d, d:] - end[..., d:, :d], axis1=-2, axis2=-1)
    return res, -np.mean(area, axis=-1)


def leadlag_experiment(cfg: LeadLagConfig, threads: int = 1) -> list[dict]:
    """Per-n means and standard errors over mc_trials coupled trials, in
    batches of cfg.batch, every draw through one embedding root built first:
    a root that cannot be built raises a ConfigError (a ValueError) before
    any sampling.  run_leadlag_trial is looked up by name at each call, so a
    wrapper set on this module (the traced benchmark's batch span) sees
    every batch."""
    try:
        root = embedding_root(cfg.n_ref, cfg.H)
    except ValueError as e:
        raise ConfigError(f"unrunnable at n_ref = {cfg.n_ref}, H = {cfg.H:g}: {e}") from e
    return run_trials(lambda ks: run_leadlag_trial(cfg, ks, root), cfg.mc_trials, threads,
                      cfg.batch)
