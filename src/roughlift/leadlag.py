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

from .gauss import derive_seed, fgn_autocov, sample_fbm
from .report import check_run, run_trials
from .tensor2 import ROW_BLOCK, LiftedPath, holder_sweep, lift_piecewise_linear, zero_lift
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
    interp = lift_piecewise_linear(np.arange(n + 1) / n, x)
    level2 = _leadlag_level2(interp.level2, _half_qv(x, 1), np.empty((n + 1, 2 * d, 2 * d)))
    return LiftedPath(interp.times, np.hstack([x - x[0]] * 2), level2)


def _half_qv(x, stride: int) -> np.ndarray:
    """Half the running quadratic variation sum dX (x) dX of samples x of
    shape (..., n + 1, d), at every ``stride``-th sample: (..., n / stride
    + 1, d, d).  The products of each cell of ``stride`` steps are summed by
    one matmul and the cell sums carried."""
    inc = x[..., 1:, :] - x[..., :-1, :]
    cells = inc.reshape(inc.shape[:-2] + (-1, stride, inc.shape[-1]))
    *batch, c, _, d = cells.shape
    out = np.empty((*batch, c + 1, d, d))
    out[..., 0, :, :] = 0.0
    np.matmul(cells.swapaxes(-1, -2), cells, out=out[..., 1:, :, :])
    np.cumsum(out, axis=-3, out=out)
    out *= 0.5
    return out


def _leadlag_level2(D, half_qv, out) -> np.ndarray:
    """The lead-lag level 2 [[D, D - Q/2], [D + Q/2, D]] from the
    interpolation's level 2 D and half the QV, written into ``out``."""
    d = D.shape[-1]
    out[..., :d, :d] = D
    out[..., d:, d:] = D
    np.subtract(D, half_qv, out=out[..., :d, d:])
    np.add(D, half_qv, out=out[..., d:, :d])
    return out


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


# Trials per run_leadlag_trial call, whatever the thread count: a batch
# shares its lift and sweep calls, which the interpreter's per-call cost
# dominates at the benchmark shape (n_ref = 4096, 64 trials).  A batch holds
# at most BATCH_BYTES (leadlag_trial_bytes) unless it is a single trial.
TRIAL_BATCH = 8
BATCH_BYTES = 1 << 23


def leadlag_trial_bytes(n_ref: int, d: int, k: int, n_min: int, batch: int = 1) -> int:
    """Bound on the peak bytes of one run_leadlag_trial call on ``batch``
    trials: reference grid n_ref, dimension d, k schedule points, coarsest
    n_min.  It is the largest of the traced peaks of its three phases, in
    floats of 8 B, with N = n_ref + 1 and the cached embedding root (N
    floats) held throughout:

    * sampling, N (1 + d max(batch + 3, 2 batch)): one draw holds d rows of
      2n normals and their half-spectra (4d floats a step) beside the
      earlier draws of the batch, and stacking the draws holds them twice;
    * lifting, N (2 + batch d) + d max(3 R, batch max(6 R', 3 n_ref / 4))
      + batch (n_min + 1)(4 d^2 k + 4 d^2 + 2 d): the stacked draws and the
      times; one trial's n_ref lift, whose blocks of at most R = min(n_ref,
      max(ROW_BLOCK, n_ref / n_min)) rows hold 3 floats a row and
      dimension (the increments, the base rows and 0.5 * inc), or per
      trial the blocks of a batched n-lift (at most R' = min(R, n_ref / 4)
      rows of the strided n-samples, up to 6 floats a row and dimension
      with the copies numpy's matmul makes of them) or the n-samples'
      increments and their QV products (3 floats a row and dimension, at
      most n_ref / 4 rows); and on the coarsest grid the residuals
      (4 d^2 floats at each of the M = batch k (n_min + 1) member grid
      points), and the reference lift, one n-lift, its difference from
      the reference and half the QV;
    * sweep, N + (8 d^2 + 7) M: per member point its residual, the sweep's
      level-2 difference (level 1 is zero, so it makes no level-1 planes)
      and its seven planes; the zero target is broadcast zeros.

    At batch = 1 and n_ref / n_min <= ROW_BLOCK sampling is the peak, and
    the traced peak grows by 8 (4d + 1) B per reference step between 2^19
    and 2^20 steps: 40.0 B at d = 1, 136.0 at d = 4.  Every other array is
    O(ROW_BLOCK + PAIR_BLOCK), a few MiB.
    """
    n = n_ref + 1
    rows = min(n_ref, max(ROW_BLOCK, n_ref // n_min))
    points = batch * k * (n_min + 1)
    sampling = n * (1 + d * max(batch + 3, 2 * batch))
    blocks = max(3 * rows, batch * max(6 * min(rows, n_ref // 4), 3 * (n_ref // 4)))
    lifting = (n * (2 + batch * d) + d * blocks
               + batch * (n_min + 1) * (4 * d * d * k + 4 * d * d + 2 * d))
    sweep = n + (8 * d * d + 7) * points
    return 8 * max(sampling, lifting, sweep)


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


def run_leadlag_trial(cfg: LeadLagConfig, trials) -> list[list[TrialResult]]:
    """One batch of coupled trials across the whole n-schedule: one record
    list per trial index in ``trials``, each bitwise the same whatever
    batch the index is run in.

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
    res, area = _residuals(cfg, trials)
    b, k, n1, d2 = res.shape[:4]
    times = np.arange(n1) / cfg.n_schedule[0]
    members = LiftedPath(times, np.broadcast_to(0.0, (b * k, n1, d2)),
                         res.reshape(b * k, n1, d2, d2))
    shifts = counter_terms(cfg.H, cfg.n_schedule, cfg.d)
    dist_raw, dist_ren = holder_sweep([members], zero_lift(times, d2), cfg.alpha,
                                      np.tile(shifts, (b, 1, 1)))
    vnorms = [float(np.linalg.norm(v)) for v in shifts]
    return [[TrialResult(n=n, dist_renorm=float(ren), dist_raw=float(raw), areaDev1=float(dev),
                         vNorm=vnorm)
             for n, raw, ren, dev, vnorm in zip(cfg.n_schedule, raws, rens, devs, vnorms)]
            for raws, rens, devs in zip(dist_raw.reshape(b, k), dist_ren.reshape(b, k), area)]


def _residuals(cfg: LeadLagConfig, trials) -> tuple[np.ndarray, np.ndarray]:
    """(B, k, n_min + 1, 2d, 2d) level-2 residuals of the lead-lag lifts
    against the doubled reference on the coarsest grid, and (B, k)
    areaDev1, for the B trials of a batch and the k schedule points.

    dD is the running level 2 of the d-dimensional strided lift of the
    n-samples minus that of the n_ref-samples, and Q/2 half the running
    quadratic variation sum dX (x) dX of the n-samples, both at the
    coarsest grid.  The n_ref draws of the batch are stacked, so the lift
    of each n is one batched call; the n_ref lift, whose blocks hold the
    most, is made one trial at a time.
    """
    d, n_ref, n_min = cfg.d, cfg.n_ref, cfg.n_schedule[0]
    x = np.stack([sample_fbm(seed=derive_seed(cfg.base_seed, k), H=cfg.H, n=n_ref, d=d).values
                  for k in trials])
    b = len(x)
    t = np.arange(n_ref + 1) / n_ref
    ref = np.stack([lift_piecewise_linear(t, x_trial, stride=n_ref // n_min).level2
                    for x_trial in x])  # one trial's blocks at a time
    res = np.empty((b, len(cfg.n_schedule), n_min + 1, 2 * d, 2 * d))
    area = np.empty((b, len(cfg.n_schedule)))
    for m, n in enumerate(cfg.n_schedule):
        xn, tn, stride = x[:, ::n_ref // n], t[::n_ref // n], n // n_min
        dD = lift_piecewise_linear(tn, xn, stride=stride).level2 - ref
        half_qv = _half_qv(xn, stride)
        _leadlag_level2(dD, half_qv, res[:, m])
        area[:, m] = np.mean(np.diagonal(half_qv[:, -1], axis1=1, axis2=2), axis=1)
    return res, area


def leadlag_experiment(cfg: LeadLagConfig, threads: int = 1) -> list[dict]:
    """Per-n means and standard errors over mc_trials coupled trials, in
    batches of cfg.batch.  run_leadlag_trial is looked up by name at each
    call, so a wrapper set on this module (the traced benchmark's batch
    span) sees every batch."""
    return run_trials(lambda ks: run_leadlag_trial(cfg, ks), cfg.mc_trials, threads,
                      cfg.batch)
