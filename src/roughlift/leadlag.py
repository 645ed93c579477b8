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
trial is measured by its residual there, built from d-dimensional areas
and the running quadratic variation alone; no Hoff path or 2d-dimensional
lift enters it.  Trials run in batches (``TRIAL_BATCH``) with the batch
axis first, and one Hoelder sweep of all residuals of a batch against the
zero lift gives every distance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import derive_seed, embedding_root, fgn_autocov, sample_fbm
from .report import ConfigError, check_run, run_trials
from .tensor2 import (LiftedPath, area_entries, holder_sweep, lift_piecewise_linear,
                      outer_sum_memory, running_outer_sum, sweep_memory, zero_lift)
# importable from here, as perfbench/tracing.py wraps them under this module's name
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
    [A + Q/2, A]] (``_leadlag_area``), with A the running area of the
    interpolated samples and Q = sum dX (x) dX the running quadratic
    variation: every diagonal block of the area is the interpolation's area
    and the (lag, lead) block is that area minus half the QV.  Equals the
    integrated lift of ``hoff_path(samples)`` at its even knots to rounding.
    """
    x = _as_samples(samples)
    n, d = x.shape[0] - 1, x.shape[1]
    area = _leadlag_area(x, 1, np.empty((n + 1, d * (2 * d - 1))))
    return LiftedPath(np.arange(n + 1) / n, np.hstack([x - x[0]] * 2), area)


def _entry_index(d: int, k: int) -> np.ndarray:
    """(d, d) positions of the entries p <= q - k among the np.triu_indices(d, k)."""
    index, entries = np.full((d, d), -1), np.triu_indices(d, k)
    index[entries] = np.arange(len(entries[0]))
    return index


def _leadlag_area(x, stride: int, out, ref=0.0) -> np.ndarray:
    """The lead-lag Levy area [[A, A - Q/2], [A + Q/2, A]] of samples x of
    shape (..., n + 1, d) at every ``stride``-th sample, as the area entries
    p < q of dimension 2d, into ``out`` (..., n / stride + 1, d (2d - 1)):
    A is the running area of the interpolated samples less ``ref`` and Q
    the running quadratic variation, both from one running_outer_sum pass.
    A diagonal entry of the (lag, lead) block is 0 - Q_pp/2, and the
    entries below the diagonal there are (0 - A_qp) - Q_qp/2."""
    d = x.shape[-1]
    area = np.empty(out.shape[:-1] + (d * (d - 1) // 2,))
    half_qv = np.empty(out.shape[:-1] + (d * (d + 1) // 2,))
    running_outer_sum(x, stride, area, half_qv)
    area -= ref
    half_qv *= 0.5
    io, iq = _entry_index(2 * d, 1), _entry_index(d, 0)
    for p in range(d):  # 0 - Q_pp/2, so that Q_pp = 0 gives +0.0
        np.subtract(0.0, half_qv[..., iq[p, p]], out=out[..., io[p, d + p]])
    for e, (p, q) in enumerate(zip(*np.triu_indices(d, 1))):
        out[..., io[p, q]] = out[..., io[d + p, d + q]] = area[..., e]
        np.subtract(area[..., e], half_qv[..., iq[p, q]], out=out[..., io[p, d + q]])
        below = out[..., io[q, d + p]]  # (0 - A_pq) - Q_pq/2
        np.subtract(0.0, area[..., e], out=below)
        below -= half_qv[..., iq[p, q]]
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
    tail_count = np.concatenate([[0.0], np.cumsum(w2[1:])])
    tail_xw = np.concatenate([[0.0], np.cumsum(np.arange(1, K_max) * w2[1:])])
    return 0.25 * (K * w2[0] + 2.0 * (K * tail_count - tail_xw))


# Trials per run_leadlag_trial call, whatever the thread count: a batch
# shares its lift and sweep calls, which the interpreter's per-call cost
# dominates at the benchmark shape (n_ref = 4096, 64 trials).  A batch's
# leadlag_trial_bytes stays within BATCH_BYTES unless it is a single trial.
TRIAL_BATCH = 8
BATCH_BYTES = 1 << 23


def leadlag_trial_bytes(n_ref: int, d: int, schedule, batch: int = 1) -> int:
    """Bound on the peak bytes of one run_leadlag_trial call on ``batch``
    trials on the reference grid n_ref in dimension d over the n-schedule
    ``schedule``: the run's embedding root, N = n_ref + 1 floats, 32 KiB for
    the interpreter's objects (at most 19 KB in the phases traced), and the
    largest of three phases, each the arrays it holds and the working bytes
    tensor2 sizes for the kernel it calls.  In floats, with E = d (2d - 1)
    area entries a residual, k schedule points and the coarsest n_min:

    * sampling, N d max(batch + 3, 2 batch): a draw's normals and their
      half-spectra (4d floats a step) beside the earlier draws, then the
      draws and their stack;
    * lifting, N (1 + batch d) + batch (n_min + 1)(E k + d^2 + d (d - 1)/2):
      the draws and the times, the residuals, the reference area and one
      n's area and QV sums, and the reference lift's or the finest n's
      running_outer_sum, the larger;
    * sweep, (batch k E + 1)(n_min + 2): the residuals, their shifts and the
      times, and their holder_sweep.
    """
    n, n_min, k = n_ref + 1, schedule[0], len(schedule)
    entries, points = d * (2 * d - 1), batch * (n_min + 1)
    sampling = 8 * n * d * max(batch + 3, 2 * batch)
    lifting = 8 * (n * (1 + batch * d) + points * (entries * k + d * d + d * (d - 1) // 2))
    lifting += max(outer_sum_memory(batch, n_ref, d, False)[2],
                   outer_sum_memory(batch, schedule[-1], d, True)[2])
    sweep = 8 * (batch * k * entries + 1) * (n_min + 2)
    sweep += sweep_memory(batch * k, n_min, 2 * d, True, True)[2]
    return 8 * n + 2 ** 15 + max(sampling, lifting, sweep)


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


def run_leadlag_trial(cfg: LeadLagConfig, trials, root) -> list[list[TrialResult]]:
    """One batch of coupled trials across the whole n-schedule: one record
    list per trial index in ``trials``, each bitwise the same whatever
    batch the index is run in.  Every draw reads ``root``, the run's
    ``embedding_root(cfg.n_ref, cfg.H)``.  One Hoelder sweep of the batch's
    residuals (``_residuals``) against the zero lift, shifted by the
    counter-terms, gives every raw and renormalised distance."""
    res, area = _residuals(cfg, trials, root)
    b, k, n1, entries = res.shape
    times = np.arange(n1) / cfg.n_schedule[0]
    members = LiftedPath(times, np.broadcast_to(0.0, (b * k, n1, 2 * cfg.d)),
                         res.reshape(b * k, n1, entries))
    shifts = counter_terms(cfg.H, cfg.n_schedule, cfg.d)
    vnorms = [float(np.linalg.norm(v)) for v in shifts]
    shifts = np.tile(area_entries(shifts), (b, 1))  # each member's area entries
    dist_raw, dist_ren = holder_sweep(members, zero_lift(times, 2 * cfg.d), cfg.alpha, shifts)
    return [[TrialResult(n=n, dist_renorm=float(ren), dist_raw=float(raw), areaDev1=float(dev),
                         vNorm=vnorm)
             for n, raw, ren, dev, vnorm in zip(cfg.n_schedule, raws, rens, devs, vnorms)]
            for raws, rens, devs in zip(dist_raw.reshape(b, k), dist_ren.reshape(b, k), area)]


def _residuals(cfg: LeadLagConfig, trials, root) -> tuple[np.ndarray, np.ndarray]:
    """(B, k, n_min + 1, d (2d - 1)) area residuals of the lead-lag lifts
    against the doubled reference (X, X) on the coarsest grid, where the two
    share level 1, and (B, k) areaDev1, for the B trials of a batch and the
    k schedule points.  Each residual is the lead-lag area of the n-samples
    (``_leadlag_area``) less the strided n_ref-lift's area on its
    interpolated part; the batch's draws are stacked, so each lift is one
    batched call.  areaDev1 is minus the mean (i, d + i) area entry at
    (0, 1), where the doubled path's is 0: half the mean diagonal QV."""
    d, n_ref, n_min = cfg.d, cfg.n_ref, cfg.n_schedule[0]
    x = np.stack([sample_fbm(seed=derive_seed(cfg.base_seed, k), H=cfg.H, n=n_ref, d=d,
                             root=root).values for k in trials])
    ref = lift_piecewise_linear(np.arange(n_ref + 1) / n_ref, x, stride=n_ref // n_min).area
    res = np.empty((len(x), len(cfg.n_schedule), n_min + 1, d * (2 * d - 1)))
    for m, n in enumerate(cfg.n_schedule):
        _leadlag_area(x[:, ::n_ref // n], n // n_min, res[:, m], ref)
    cross = _entry_index(2 * d, 1)[np.arange(d), d + np.arange(d)]  # the (i, d + i) entries
    return res, -np.mean(res[:, :, -1, cross], axis=-1)


def leadlag_experiment(cfg: LeadLagConfig, threads: int = 1) -> list[dict]:
    """Per-n means and standard errors over mc_trials coupled trials, in
    batches of cfg.batch, every draw through one embedding root built first:
    a root that cannot be built raises a ConfigError (a ValueError) before
    any sampling.  run_leadlag_trial is looked up by name at each call, so
    a wrapper set on this module (the traced batch span) sees every batch."""
    try:
        root = embedding_root(cfg.n_ref, cfg.H)
    except ValueError as e:
        raise ConfigError(f"unrunnable at n_ref = {cfg.n_ref}, H = {cfg.H:g}: {e}") from e
    return run_trials(lambda ks: run_leadlag_trial(cfg, ks, root), cfg.mc_trials, threads,
                      cfg.batch)
