"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Exact-identity criteria run at 1e-12/1e-10 tolerances over the prescribed
random corpora; the convergence criteria run the two experiments at their
stated configurations and check the decay/slope/consistency targets.
"""
import json
import time

import numpy as np
from scipy.stats import ks_2samp

import roughlift as rl
from roughlift.cli import main
from roughlift.identities import (leadlag_suite, lyapunov_suite, psi_bruteforce,
                                  tensor_suite)
from roughlift.report import fit_loglog

from oracles import ou_euler_maruyama, stationary_cov_quadrature

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_lyapunov_counterterm_suite():
    checks = {c.name: c for c in lyapunov_suite(n_drifts=100, seed=1)}
    res = checks["lyapunov-residual"]
    forms = checks["counterterm-three-forms"]
    anti = checks["counterterm-antisymmetry"]
    ok = res.passed and forms.passed and anti.passed
    report("criterion-1 lyapunov/counterterm suite", ok,
           f"residual={res.max_err:.2e} (<=1e-10), forms={forms.max_err:.2e} "
           f"(<=1e-10), antisym={anti.max_err:.2e} (<=1e-12)")


def test_criterion_2_magnetic_counterterm_closed_form():
    # quadrature oracle: C = I/2 for A = I, B = b J
    worst_quad = 0.0
    for b in (1.0, 32.0):
        C_quad = stationary_cov_quadrature(np.eye(2) - b * J)
        worst_quad = max(worst_quad, float(np.abs(C_quad - 0.5 * np.eye(2)).max()))
    worst = 0.0
    for beta in (0.0, 0.25, 0.5, 0.75, 0.9):
        for eps in (1.0, 0.25, 2.0 ** -6, 2.0 ** -10):
            b = eps ** -beta
            v = rl.renorm_v(rl.StableDrift(np.eye(2), b * J))
            err = np.abs(v - 0.5 * b * J).max() / max(1.0, 0.5 * b)
            worst = max(worst, float(err))
    ok = worst <= 1e-10 and worst_quad <= 1e-8
    report("criterion-2 closed-form magnetic counterterm", ok,
           f"max rel err={worst:.2e} (<=1e-10), quadrature oracle gap={worst_quad:.2e}")


def test_criterion_3_tensor_suite():
    checks = tensor_suite(n_paths=1000, seed=0)
    detail = ", ".join(f"{c.name}={c.max_err:.2e}" for c in checks)
    report("criterion-3 tensor suite (1000 paths)", all(c.passed for c in checks),
           detail + " (tol 1e-12)")


def test_criterion_4_leadlag_area_oracle_equivalence():
    checks = {c.name: c for c in leadlag_suite(seed=2, n_sample_sets=15)}
    ok = all(c.passed for c in checks.values())
    report("criterion-4 lead-lag area oracle equivalence", ok,
           ", ".join(f"{c.name}={c.max_err:.2e}" for c in checks.values())
           + " (tol 1e-12)")


def test_criterion_5_psi_suite():
    hs = (0.30, 0.35, 0.40, 0.45, 0.50)
    # closed form vs the double sum over the K x K autocovariance block,
    # all n <= 256 and all K <= n (2-d partial sums give every K at once)
    worst_eq = 0.0
    for H in hs:
        for n in range(1, 257):
            lag = np.subtract.outer(np.arange(n), np.arange(n))
            G = rl.fgn_autocov(lag, H, spacing=1.0 / n) ** 2
            brute_all = np.cumsum(np.cumsum(G, axis=0), axis=1).diagonal()
            psi_all = rl.psi_profile(n, H) * float(n) ** (-4 * H)
            scale = np.maximum(1.0, brute_all)
            worst_eq = max(worst_eq, float(np.abs((psi_all - brute_all) / scale).max()))
    # spot-check that psi_profile agrees with psi_closed itself
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 257))
        K = int(rng.integers(1, n + 1))
        H = float(rng.choice(hs))
        worst_eq = max(worst_eq, abs(rl.psi_closed(n, K, H) - psi_bruteforce(n, K, H))
                       / max(1.0, psi_bruteforce(n, K, H)))
    # bound psi <= 2 K n^{-4H}: psi * n^{4H} is n-free, so sweeping K <= 4096
    # covers every n <= 4096; verify the n-freeness numerically as well
    worst_ratio = 0.0
    for H in hs:
        prof = rl.psi_profile(4096, H)
        worst_ratio = max(worst_ratio, float((prof / (2.0 * np.arange(1, 4097))).max()))
        for n in (100, 1000, 4096):
            for K in (1, 17, 100):
                gap = abs(rl.psi_closed(n, K, H) * float(n) ** (4 * H) - prof[K - 1])
                assert gap <= 1e-12 * max(1.0, prof[K - 1])
    # exact identity at H = 1/2
    exact_half = all(rl.psi_closed(n, K, 0.5) == K / n ** 2
                     for n in (1, 7, 64, 4096) for K in {1, n // 2, n} if K >= 1)
    ok = worst_eq <= 1e-12 and worst_ratio <= 1.0 and exact_half
    report("criterion-5 psi suite", ok,
           f"closed-vs-brute={worst_eq:.2e} (<=1e-12), "
           f"max psi/(2K n^-4H)={worst_ratio:.3f} (<=1), H=1/2 exact={exact_half}")


def test_criterion_6_magnetic_convergence_experiment():
    cfg = rl.MagneticConfig(A=np.eye(2), B0=J, beta=0.5,
                            eps_schedule=tuple(2.0 ** -k for k in range(2, 8)),
                            T=1.0, alpha=0.3, grid_n=256, mc_trials=64,
                            base_seed=2024)
    t0 = time.time()
    rows = rl.magnetic_experiment(cfg, threads=2)
    elapsed = time.time() - t0
    ren = [r["distZ_renorm_mean"] for r in rows]
    violations = sum(1 for a, b in zip(ren, ren[1:]) if b >= a)
    ratio = ren[-1] / ren[0]
    last = rows[-1]
    tv = cfg.T * last["vnorm"]
    dev_rel = abs(last["areaDev1_mean"] - tv) / tv
    ok = violations <= 1 and ratio <= 0.25 and dev_rel <= 0.15 and elapsed <= 600.0
    report("criterion-6 magnetic convergence", ok,
           f"violations={violations} (<=1), final/initial={ratio:.3f} (<=0.25), "
           f"areaDev rel gap={dev_rel:.3f} (<=0.15), elapsed={elapsed:.0f}s (<=600)")


def test_criterion_7_leadlag_convergence_experiment():
    cfg = rl.LeadLagConfig(H=0.4, alpha=0.3,
                           n_schedule=(16, 32, 64, 128, 256, 512, 1024),
                           n_ref=4096, d=1, mc_trials=64, base_seed=2024)
    rows = rl.leadlag_experiment(cfg, threads=2)
    ns = [r["n"] for r in rows]
    slope_ren, _, _ = fit_loglog([(n, r["dist_renorm_mean"]) for n, r in zip(ns, rows)])
    slope_dev, _, _ = fit_loglog([(n, r["areaDev1_mean"]) for n, r in zip(ns, rows)])
    last = rows[-1]
    target = 1024.0 ** (1.0 - 2.0 * cfg.H) / 2.0
    gap = abs(last["areaDev1_mean"] - target)
    band = 3.0 * last["areaDev1_se"]
    ok = (slope_ren <= -0.1 and abs(slope_dev - (1.0 - 2.0 * cfg.H)) <= 0.15
          and gap <= band)
    report("criterion-7 lead-lag convergence", ok,
           f"renorm slope={slope_ren:.3f} (<=-0.1), dev slope={slope_dev:.3f} "
           f"(0.2+-0.15), n=1024 dev gap={gap:.4f} <= 3se={band:.4f}")


def test_criterion_8_sampler_laws():
    # fBm covariance at (1/2, 1): R = 1/2 for every H
    details = []
    ok = True
    for H in (0.3, 0.5):
        v = rl.sample_fbm([rl.derive_seed(81, i) for i in range(100_000)], H, 2)
        prods = v[:, 1, 0] * v[:, 2, 0]
        se = prods.std(ddof=1) / np.sqrt(len(prods))
        gap = abs(prods.mean() - 0.5)
        ok &= gap <= 3.0 * se
        details.append(f"H={H}: cov gap={gap:.2e} <= 3se={3 * se:.2e}")
    # H = 1/2 marginal matches the BM sampler (two-sample KS, 1% band)
    m = 20_000
    fbm_term = rl.sample_fbm([rl.derive_seed(82, i) for i in range(m)], 0.5, 2)[:, -1, 0]
    bm_term = rl.sample_bm(1.0, 2, 1, [rl.derive_seed(83, i) for i in range(m)])[:, -1, 0]
    ks = ks_2samp(fbm_term, bm_term)
    ok &= ks.pvalue >= 0.01
    details.append(f"KS p={ks.pvalue:.3f} (>=0.01)")
    # OU joint transition vs Euler-Maruyama (10^7 aggregate fine steps;
    # the EM bias at this step size is far below the Monte Carlo band)
    rng = np.random.default_rng(84)
    drift = rl.StableDrift(np.array([[1.2, 0.3], [0.3, 0.9]]), 1.5 * J)
    eps, h = 0.7, 0.25
    trans = rl.ou_joint_transition(drift, eps, h)
    n_paths, n_steps = 5000, 2000
    P, W = ou_euler_maruyama(drift.M, eps, h, n_steps, n_paths, rng)
    covPP = P.T @ P / n_paths
    covPW = P.T @ W / n_paths
    def cov_se(X, Y):
        prods = X[:, :, None] * Y[:, None, :]
        return prods.std(axis=0, ddof=1) / np.sqrt(n_paths)
    okPP = np.all(np.abs(covPP - trans.covPP) <= 3.0 * cov_se(P, P))
    okPW = np.all(np.abs(covPW - trans.covPW) <= 3.0 * cov_se(P, W))
    ok &= bool(okPP and okPW)
    details.append(f"OU moments vs EM: covPP ok={bool(okPP)}, covPW ok={bool(okPW)}")
    report("criterion-8 sampler laws", ok, "; ".join(details))


def test_criterion_9_determinism(tmp_path):
    magnetic_doc = {"experiment": "magnetic", "A": [[1.0, 0.0], [0.0, 1.0]],
                    "B0": [[0.0, -1.0], [1.0, 0.0]], "beta": 0.5,
                    "eps_schedule": [0.5, 0.25], "alpha": 0.3, "grid_n": 16,
                    "mc_trials": 3, "base_seed": 11}
    leadlag_doc = {"experiment": "leadlag", "H": 0.4, "alpha": 0.3,
                   "n_schedule": [8, 16], "n_ref": 128, "mc_trials": 3,
                   "base_seed": 12}
    psi_doc = {"n": 512, "H_list": [0.3, 0.5]}
    ok = True
    details = []
    for name, doc in (
            ("magnetic", magnetic_doc),
            ("leadlag", leadlag_doc),
            ("psi", psi_doc),
            ("identities", {"paths": 10, "drifts": 5})):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(doc))
        blobs = []
        for run, threads in (("r1", "1"), ("r2", "4")):
            out = tmp_path / f"{name}-{run}"
            rc = main([name, "--config", str(cfg_path), "--out", str(out),
                       "--threads", threads, "--seed", "99"])
            assert rc == 0
            blob = b"".join(sorted(p.read_bytes() for p in out.iterdir()
                                   if p.suffix in (".csv", ".json")))
            blobs.append(blob)
        same = blobs[0] == blobs[1]
        ok &= same
        details.append(f"{name}: identical={same}")
    report("criterion-9 determinism", ok, "; ".join(details))
