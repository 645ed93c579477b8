"""Exact-identity and oracle-equivalence suites.

These are the fast confidence checks: algebraic identities that hold to
roundoff (Chen relation, geometricity, group inverses, translation
round-trips), dual-route equalities (the closed-form lead-lag lift vs the
integrated Hoff lift, quadratic-variation second moments vs brute force),
and the Lyapunov/counter-term contracts.  Each suite returns named checks
with the worst observed error and its tolerance; the CLI prints one
pass/fail line per check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import fgn_autocov, sample_fbm
from .leadlag import hoff_path, leadlag_lift, psi_closed, psi_profile
from .linstable import StableDrift, lyapunov_C, renorm_v
from .tensor2 import (area_entries, chen_inv, chen_mul, full_level2, levy_area,
                      lift_piecewise_linear, translate)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


def _checks(names, worst, tol: float) -> list[CheckResult]:
    """One CheckResult a name, at its worst error (np.maximum keeps a nan)."""
    return [CheckResult(name, float(err), tol) for name, err in zip(names, worst)]


def random_lifted_paths(rng, n_paths: int, max_dim: int = 4, max_segments: int = 64):
    """Random piecewise-linear paths with their lifts."""
    for _ in range(n_paths):
        d = int(rng.integers(1, max_dim + 1))
        n = int(rng.integers(2, max_segments + 1))
        t = np.sort(rng.uniform(0.0, 1.0, n + 1))
        t[0], t[-1] = 0.0, 1.0
        while np.any(np.diff(t) <= 0):
            t = np.sort(rng.uniform(0.0, 1.0, n + 1))
            t[0], t[-1] = 0.0, 1.0
        x = rng.standard_normal((n + 1, d))
        yield lift_piecewise_linear(t, x)


def chen_relation_error(path) -> float:
    """Worst relative Chen defect over all triples i < j < k."""
    n = path.n_points
    grid = np.arange(n)
    U, F = path.intervals(grid[:, None], grid)  # S_{i,j} for every pair of points
    F = full_level2(U, F)
    scale = max(1.0, float(np.abs(F).max()))
    worst = 0.0
    for j in range(1, n - 1):
        i = np.arange(j)
        k = np.arange(j + 1, n)
        cross = np.einsum("id,ke->ikde", U[i, j], U[j, k])
        resid = F[np.ix_(i, k)] - F[i, j][:, None] - F[j, k][None, :] - cross
        worst = max(worst, float(np.abs(resid).max()))
    return worst / scale


def geometricity_error(path) -> float:
    """Worst relative defect of the interval level 2, derived as 1/2
    increment (x) increment + area, against the sums of (x_r - x_i +
    inc_r/2) (x) inc_r over its segments (x_r read off level 1), which do
    not assume Sym(level2) = 1/2 increment (x) increment."""
    x = path.level1
    inc = np.diff(x, axis=0)
    terms = np.einsum("rd,re->rde", x[:-1] + 0.5 * inc, inc)
    running = np.concatenate([np.zeros((1,) + terms.shape[1:]), np.cumsum(terms, axis=0)])
    grid = np.arange(path.n_points)
    U, F = path.intervals(grid[:, None], grid)
    segments = running[None] - running[:, None] - np.einsum("id,ije->ijde", x, U)
    scale = max(1.0, float(np.abs(segments).max()))
    return float(np.abs(full_level2(U, F) - segments).max()) / scale


def inverse_error(path) -> float:
    """Worst defect of chen_mul(a, chen_inv(a)) = identity over running lifts."""
    worst = 0.0
    for i in range(path.n_points):
        a = path.interval(0, i)
        r = chen_mul(a, chen_inv(a))
        scale = max(1.0, float(np.abs(a.level2).max()))
        worst = max(worst, max(np.abs(r.level1).max(), np.abs(r.level2).max()) / scale)
    return worst


def translate_roundtrip_error(path, rng) -> float:
    g = rng.standard_normal((path.dim, path.dim))
    v = area_entries(0.5 * (g - g.T))
    back = translate(translate(path, v), -v)
    scale = max(1.0, float(np.abs(path.level2).max()))
    return max(float(np.abs(back.level1 - path.level1).max()),
               float(np.abs(back.level2 - path.level2).max())) / scale


def square_loop_area_error() -> float:
    loop = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    lift = lift_piecewise_linear(np.arange(5.0), np.array(loop, dtype=float))
    top = lift.interval(0, 4)
    area = levy_area(top)
    return max(float(np.abs(top.level1).max()), abs(area[0, 1] - 1.0),
               abs(area[1, 0] + 1.0))


def tensor_suite(n_paths: int = 1000, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = np.zeros(4)
    for path in random_lifted_paths(rng, n_paths):
        worst = np.maximum(worst, [chen_relation_error(path), geometricity_error(path),
                                   inverse_error(path), translate_roundtrip_error(path, rng)])
    return _checks(("chen-relation", "geometricity", "group-inverse", "translate-roundtrip",
                    "square-loop-area"), [*worst, square_loop_area_error()], 1e-12)


def random_stable_drifts(rng, n_drifts: int = 100, max_dim: int = 5,
                         max_b_norm: float = 1e3):
    """A = Q^T D Q with D uniform in [0.2, 2]; B anti-symmetric with norm
    log-uniform up to max_b_norm."""
    for _ in range(n_drifts):
        d = int(rng.integers(1, max_dim + 1))
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        A = q.T @ np.diag(rng.uniform(0.2, 2.0, d)) @ q
        A = 0.5 * (A + A.T)
        g = rng.standard_normal((d, d))
        B = 0.5 * (g - g.T)
        nb = np.linalg.norm(B)
        if nb > 0:
            B *= 10.0 ** rng.uniform(0.0, np.log10(max_b_norm)) / nb
        yield StableDrift(A, B)


def lyapunov_suite(n_drifts: int = 100, seed: int = 1) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = np.zeros(3)
    for drift in random_stable_drifts(rng, n_drifts):
        M, C, eye = drift.M, lyapunov_C(drift), np.eye(drift.dim)
        v1, v2, v3 = -0.5 * (M @ C - C @ M.T), C @ M.T - 0.5 * eye, -M @ C + 0.5 * eye
        v = renorm_v(drift)
        worst = np.maximum(worst, [
            np.linalg.norm(M @ C + C @ M.T - eye),
            np.max([np.linalg.norm(v1 - v2), np.linalg.norm(v2 - v3), np.linalg.norm(v1 - v3)]),
            np.linalg.norm(v + v.T) / max(1.0, float(np.linalg.norm(v)))])
    return (_checks(("lyapunov-residual", "counterterm-three-forms"), worst[:2], 1e-10)
            + _checks(("counterterm-antisymmetry",), worst[2:], 1e-12))


def leadlag_oracle_errors(samples) -> tuple[float, float, float]:
    """(closed-form lift vs integrated Hoff lift, diagonal-block equality,
    cross-block QV identity) over every ordered pair of partition points of
    one sample set, relative to max(1, |closed-form area|) per pair."""
    x = np.asarray(samples, dtype=float)
    n, d = x.shape[0] - 1, x.shape[1]
    grid = np.arange(n + 1)
    hoff = lift_piecewise_linear(*hoff_path(x)).restrict(2 * grid)
    ref = lift_piecewise_linear(grid / n, np.hstack([x, x]))
    areas = [p.intervals(grid[:, None], grid)[1] for p in (hoff, leadlag_lift(x), ref)]
    lhs, oracle, yarea = (full_level2(np.zeros(area.shape[:-1] + (2 * d,)), area)
                          for area in areas)
    inc = np.diff(x, axis=0, prepend=x[:1])
    qv = np.cumsum(inc[:, :, None] * inc[:, None, :], axis=0)  # running QV, from 0
    gap = lhs - yarea  # against the doubled path's area
    scale = np.maximum(1.0, np.abs(oracle).max(axis=(2, 3), keepdims=True))
    return tuple(float((np.abs(r) / scale).max()) for r in (
        lhs - oracle, np.stack([gap[..., :d, :d], gap[..., d:, d:]]),
        gap[..., :d, d:] + 0.5 * (qv[None, :] - qv[:, None])))


def leadlag_suite(seed: int = 2, n_sample_sets: int = 12) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst = np.zeros(3)
    for i in range(n_sample_sets):
        n, d = int(rng.integers(1, 33)), int(rng.integers(1, 4))
        (path,) = sample_fbm([int(rng.integers(1 << 62))], (0.3, 0.4, 0.5)[i % 3], n, d)
        worst = np.maximum(worst, leadlag_oracle_errors(path))
    return _checks(("leadlag-area-oracle", "leadlag-diagonal-blocks", "leadlag-cross-qv"),
                   worst, 1e-12)


def psi_bruteforce(n: int, K: int, H: float) -> float:
    """Independent route: double sum of squared increment autocovariances."""
    lag = np.subtract.outer(np.arange(K), np.arange(K))
    return float(np.sum(fgn_autocov(lag, H, spacing=1.0 / n) ** 2))


def psi_suite(seed: int = 3, n_cases: int = 60, bound_kmax: int = 512) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_eq = 0.0
    for _ in range(n_cases):
        n = int(rng.integers(1, 257))
        K = int(rng.integers(1, n + 1))
        H = float(rng.uniform(0.05, 0.95))
        brute = psi_bruteforce(n, K, H)
        worst_eq = np.maximum(worst_eq, abs(psi_closed(n, K, H) - brute) / max(1.0, abs(brute)))
    K = np.arange(1, bound_kmax + 1, dtype=float)
    worst_bound = np.max([psi_profile(bound_kmax, H) / (2.0 * K)
                          for H in (0.30, 0.35, 0.40, 0.45, 0.50)])
    return (_checks(("psi-closed-vs-bruteforce",), [worst_eq], 1e-12)
            + _checks(("psi-bound-ratio",), [worst_bound], 1.0))


def run_all(seed: int = 0, n_paths: int = 200, n_drifts: int = 100) -> list[CheckResult]:
    return (tensor_suite(n_paths=n_paths, seed=seed)
            + lyapunov_suite(n_drifts=n_drifts, seed=seed + 1)
            + leadlag_suite(seed=seed + 2) + psi_suite(seed=seed + 3))
