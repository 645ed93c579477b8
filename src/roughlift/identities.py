"""Exact-identity and oracle-equivalence suites.

These are the fast confidence checks: algebraic identities that hold to
roundoff (Chen relation, geometricity, group inverses, translation
round-trips), dual-route equalities (closed-form lead-lag areas vs
integrated lifts, quadratic-variation second moments vs brute force), and
the Lyapunov/counter-term contracts.  Each suite returns named checks with
the worst observed error and its tolerance; the CLI prints one pass/fail
line per check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import SamplerSpec, fgn_autocov, sample_fbm
from .leadlag import hoff_path, leadlag_area_oracle, psi_closed, psi_profile
from .linstable import StableDrift, lyapunov_C, renorm_v
from .tensor2 import (RenormTerm, chen_inv, chen_mul, levy_area, lift_piecewise_linear,
                      translate)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err <= self.tol


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
    """Worst relative defect of Sym(level2) = 1/2 increment (x) increment."""
    grid = np.arange(path.n_points)
    U, F = path.intervals(grid[:, None], grid)
    sym = 0.5 * (F + F.transpose(0, 1, 3, 2))
    resid = sym - 0.5 * np.einsum("ijd,ije->ijde", U, U)
    scale = max(1.0, float(np.abs(F).max()))
    return float(np.abs(resid).max()) / scale


def inverse_error(path) -> float:
    """Worst defect of chen_mul(a, chen_inv(a)) = identity over running lifts."""
    worst = 0.0
    for i in range(path.n_points):
        a = path.lift_at(i)
        r = chen_mul(a, chen_inv(a))
        scale = max(1.0, float(np.abs(a.level2).max()))
        worst = max(worst, max(np.abs(r.level1).max(), np.abs(r.level2).max()) / scale)
    return worst


def translate_roundtrip_error(path, rng) -> float:
    g = rng.standard_normal((path.dim, path.dim))
    v = RenormTerm(0.5 * (g - g.T))
    back = translate(translate(path, v), RenormTerm(-v.v))
    scale = max(1.0, float(np.abs(path.level2).max()))
    return max(float(np.abs(back.level1 - path.level1).max()),
               float(np.abs(back.level2 - path.level2).max())) / scale


def square_loop_area_error() -> float:
    loop = [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]
    lift = lift_piecewise_linear(np.arange(5.0), np.array(loop, dtype=float))
    top = lift.lift_at(4)
    area = levy_area(top)
    return max(float(np.abs(top.level1).max()), abs(area[0, 1] - 1.0),
               abs(area[1, 0] + 1.0))


def tensor_suite(n_paths: int = 1000, seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    chen = geo = inv = tr = 0.0
    for path in random_lifted_paths(rng, n_paths):
        chen = max(chen, chen_relation_error(path))
        geo = max(geo, geometricity_error(path))
        inv = max(inv, inverse_error(path))
        tr = max(tr, translate_roundtrip_error(path, rng))
    return [
        CheckResult("chen-relation", chen, 1e-12),
        CheckResult("geometricity", geo, 1e-12),
        CheckResult("group-inverse", inv, 1e-12),
        CheckResult("translate-roundtrip", tr, 1e-12),
        CheckResult("square-loop-area", square_loop_area_error(), 1e-12),
    ]


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
    res = forms = anti = 0.0
    for drift in random_stable_drifts(rng, n_drifts):
        M = drift.M
        C = lyapunov_C(drift)
        d = drift.dim
        res = max(res, float(np.linalg.norm(M @ C + C @ M.T - np.eye(d))))
        v1 = -0.5 * (M @ C - C @ M.T)
        v2 = C @ M.T - 0.5 * np.eye(d)
        v3 = -M @ C + 0.5 * np.eye(d)
        forms = max(forms, float(np.linalg.norm(v1 - v2)),
                    float(np.linalg.norm(v2 - v3)), float(np.linalg.norm(v1 - v3)))
        v = renorm_v(drift).v
        anti = max(anti, float(np.linalg.norm(v + v.T)) / max(1.0, float(np.linalg.norm(v))))
    return [
        CheckResult("lyapunov-residual", res, 1e-10),
        CheckResult("counterterm-three-forms", forms, 1e-10),
        CheckResult("counterterm-antisymmetry", anti, 1e-12),
    ]


def leadlag_oracle_errors(samples) -> tuple[float, float, float]:
    """(oracle vs lift, diagonal-block equality, cross-block QV identity)
    over every partition pair of one sample set, relative errors."""
    x = np.asarray(samples, dtype=float)
    n, d = x.shape[0] - 1, x.shape[1]
    hoff = lift_piecewise_linear(*hoff_path(x))
    ref = lift_piecewise_linear(np.arange(n + 1) / n, np.hstack([x, x]))
    worst_or = worst_diag = worst_qv = 0.0
    for m in range(n + 1):
        for k in range(m, n + 1):
            lhs = levy_area(hoff.interval(2 * m, 2 * k))
            oracle = leadlag_area_oracle(x, m, k)
            scale = max(1.0, float(np.abs(oracle).max()))
            worst_or = max(worst_or, float(np.abs(lhs - oracle).max()) / scale)
            yarea = levy_area(ref.interval(m, k))
            worst_diag = max(
                worst_diag,
                float(np.abs(lhs[:d, :d] - yarea[:d, :d]).max()) / scale,
                float(np.abs(lhs[d:, d:] - yarea[d:, d:]).max()) / scale)
            inc = np.diff(x[m:k + 1], axis=0) if k > m else np.zeros((0, d))
            qv = inc.T @ inc
            worst_qv = max(worst_qv, float(
                np.abs((lhs[:d, d:] - yarea[:d, d:]) + 0.5 * qv).max()) / scale)
    return worst_or, worst_diag, worst_qv


def leadlag_suite(seed: int = 2, n_sample_sets: int = 12) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    worst_or = worst_diag = worst_qv = 0.0
    hs = (0.3, 0.4, 0.5)
    for i in range(n_sample_sets):
        h = hs[i % len(hs)]
        n = int(rng.integers(1, 33))
        d = int(rng.integers(1, 4))
        path = sample_fbm(SamplerSpec(seed=int(rng.integers(1 << 62)), H=h, n=n, d=d))
        a, b, c = leadlag_oracle_errors(path.values)
        worst_or, worst_diag, worst_qv = (max(worst_or, a), max(worst_diag, b),
                                          max(worst_qv, c))
    return [
        CheckResult("leadlag-area-oracle", worst_or, 1e-12),
        CheckResult("leadlag-diagonal-blocks", worst_diag, 1e-12),
        CheckResult("leadlag-cross-qv", worst_qv, 1e-12),
    ]


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
        psi = psi_closed(n, K, H)
        brute = psi_bruteforce(n, K, H)
        worst_eq = max(worst_eq, abs(psi - brute) / max(1.0, abs(brute)))
    worst_bound = 0.0
    for H in (0.30, 0.35, 0.40, 0.45, 0.50):
        K = np.arange(1, bound_kmax + 1, dtype=float)
        ratio = psi_profile(bound_kmax, H) / (2.0 * K)
        worst_bound = max(worst_bound, float(ratio.max()))
    return [
        CheckResult("psi-closed-vs-bruteforce", worst_eq, 1e-12),
        CheckResult("psi-bound-ratio", worst_bound, 1.0),
    ]


def run_all(seed: int = 0, n_paths: int = 200, n_drifts: int = 100) -> list[CheckResult]:
    out = []
    out += tensor_suite(n_paths=n_paths, seed=seed)
    out += lyapunov_suite(n_drifts=n_drifts, seed=seed + 1)
    out += leadlag_suite(seed=seed + 2)
    out += psi_suite(seed=seed + 3)
    return out
