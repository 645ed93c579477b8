import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from oracles import ou_recursion_eig
from roughlift import gauss
from roughlift import (MagneticConfig, derive_Z, drift_at, fine_grid_n,
                       holder_distance, lift_piecewise_linear, magnetic_experiment,
                       renorm_v, run_magnetic_trial, sample_physical, translate)
from roughlift.gauss import derive_seed, float_index
from roughlift.report import TRIAL_BYTES, fine_step_bytes, fit_loglog

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def small_cfg(**kw):
    base = dict(A=np.eye(2), B0=J, beta=0.5, eps_schedule=(0.5, 0.25),
                T=1.0, alpha=0.3, grid_n=32, mc_trials=2, base_seed=7)
    base.update(kw)
    return MagneticConfig(**base)


# -------------------------------------------------------------------- config

def test_config_validation():
    small_cfg()  # baseline accepted
    with pytest.raises(ValueError):
        small_cfg(beta=1.0)
    with pytest.raises(ValueError):
        small_cfg(alpha=0.4)  # >= 1/2 - beta/4 = 0.375
    with pytest.raises(ValueError):
        small_cfg(eps_schedule=(0.25, 0.5))  # not decreasing
    with pytest.raises(ValueError):
        small_cfg(eps_schedule=())
    with pytest.raises(ValueError):
        small_cfg(A=np.array([[1.0, 0.2], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        small_cfg(B0=np.eye(2))
    with pytest.raises(ValueError, match="positive definite"):
        small_cfg(A=np.diag([1.0, -0.1]))  # A - B0 is stable all the same


# ------------------------------------------------------------------ drift_at

def test_drift_at_beta_zero_constant():
    cfg = small_cfg(beta=0.0)
    a = drift_at(cfg, 0.5)
    b = drift_at(cfg, 0.03125)
    assert np.all(a.M == b.M)


def test_drift_at_arithmetic():
    cfg = small_cfg(beta=0.5)
    drift = drift_at(cfg, 1.0 / 16.0)
    assert np.abs(drift.M - (np.eye(2) - 4.0 * J)).max() == 0.0


def test_drift_at_margin_constant_over_eps():
    cfg = small_cfg(beta=0.5)
    lams = [drift_at(cfg, eps).lam for eps in (0.5, 0.25, 0.125, 0.0625)]
    assert np.abs(np.asarray(lams) - 1.0).max() <= 1e-10


# ------------------------------------------------------------------- trials

def test_trial_no_field_renorm_equals_raw():
    cfg = small_cfg(B0=np.zeros((2, 2)), beta=0.0, eps_schedule=(1.0,), grid_n=16)
    r = run_magnetic_trial(cfg, 1.0, 0)
    assert r.vNorm == 0.0
    assert r.distP_renorm == r.distP_raw
    assert r.distZ_renorm == r.distZ_raw


def test_trial_counterterm_norm_closed_form():
    cfg = small_cfg()
    for eps in cfg.eps_schedule:
        r = run_magnetic_trial(cfg, eps, 0)
        assert abs(r.vNorm - eps ** -0.5 / np.sqrt(2.0)) <= 1e-10


def test_trial_raw_minus_renorm_area_is_exact_shift():
    cfg = small_cfg(eps_schedule=(0.5,), grid_n=16)
    eps = 0.5
    drift = drift_at(cfg, eps)
    v = renorm_v(drift)
    n_fine = fine_grid_n(cfg, eps)
    seed = derive_seed(cfg.base_seed, float_index(eps), 0)
    P, W = sample_physical(drift, eps, cfg.T, n_fine, seed)
    Z = derive_Z(P, W)
    liftZ = lift_piecewise_linear(Z.times, Z.values)
    liftW = lift_piecewise_linear(W.times, W.values)
    raw_dev = liftZ.level2[-1] - liftW.level2[-1]
    ren_dev = translate(liftZ, v).level2[-1] - liftW.level2[-1]
    scale = max(1.0, np.abs(raw_dev).max())
    assert np.abs((ren_dev - raw_dev) - cfg.T * v.v).max() <= 1e-12 * scale


def test_trial_invariant_under_noise_level_shift():
    # distances use increments only: shifting W by a constant changes nothing
    cfg = small_cfg(eps_schedule=(0.5,), grid_n=16)
    eps = 0.5
    drift = drift_at(cfg, eps)
    n_fine = fine_grid_n(cfg, eps)
    P, W = sample_physical(drift, eps, cfg.T, n_fine,
                           derive_seed(cfg.base_seed, float_index(eps), 0))
    lift = lift_piecewise_linear(W.times, W.values)
    shifted = lift_piecewise_linear(W.times, W.values + np.array([5.0, -3.0]))
    scale = max(1.0, np.abs(lift.level2).max())
    assert np.abs(lift.level1 - shifted.level1).max() <= 1e-12 * scale
    assert np.abs(lift.level2 - shifted.level2).max() <= 1e-12 * scale
    d = holder_distance(lift, shifted, 0.3)
    assert d <= 1e-10


def test_level2_counterterm_decay_rate():
    # Monte Carlo L2 norm of the renormalised momentum area at (0, T)
    # decays at least like eps^{1-beta}; slope fit within +-0.15
    beta, trials = 0.5, 24
    cfg = small_cfg(beta=beta, eps_schedule=(2 ** -2, 2 ** -3, 2 ** -4, 2 ** -5),
                    grid_n=16, mc_trials=trials)
    points = []
    for eps in cfg.eps_schedule:
        drift = drift_at(cfg, eps)
        v = renorm_v(drift)
        n_fine = fine_grid_n(cfg, eps)
        acc = []
        for k in range(trials):
            seed = derive_seed(cfg.base_seed, float_index(eps), k)
            P, _ = sample_physical(drift, eps, cfg.T, n_fine, seed)
            liftP = lift_piecewise_linear(P.times, P.values)
            dev = liftP.level2[-1] + cfg.T * v.v
            acc.append(np.sum(dev ** 2))
        points.append((eps, np.sqrt(np.mean(acc))))
    slope, _, _ = fit_loglog(points)
    assert slope >= (1.0 - beta) - 0.15


def test_trial_matches_eig_recursion_oracle(monkeypatch):
    # the blocked real scan against the eigendecomposition route, field by
    # field, on fine grids of 384 and 10560 steps
    cfg = small_cfg(eps_schedule=(0.25, 2.0 ** -4), grid_n=64)
    keys = [(eps, k) for eps in cfg.eps_schedule for k in range(2)]
    new = [run_magnetic_trial(cfg, eps, k) for eps, k in keys]

    def eig_in_place(E, buf):
        buf[:] = ou_recursion_eig(E, buf[1:])

    monkeypatch.setattr(gauss, "_ou_recursion", eig_in_place)
    old = [run_magnetic_trial(cfg, eps, k) for eps, k in keys]
    for a, b in zip(new, old):
        for f in fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert abs(x - y) <= 1e-12 * abs(y), f.name


def _trial_peak_bytes(cfg, eps):
    tracemalloc.start()
    try:
        run_magnetic_trial(cfg, eps, 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [2, 4])
def test_trial_memory_per_step_is_fine_step_bytes(d):
    # the bound behind TRIAL_BYTES: the slope of a trial's traced peak over
    # the fine-grid size (260,352 and 516,608 steps) is fine_step_bytes(d)
    cfg = small_cfg(A=np.eye(d), B0=np.zeros((d, d)), eps_schedule=(0.0062, 0.0044),
                    grid_n=256)
    steps = [fine_grid_n(cfg, eps) for eps in cfg.eps_schedule]
    peaks = [_trial_peak_bytes(cfg, eps) for eps in cfg.eps_schedule]
    slope = (peaks[1] - peaks[0]) / (steps[1] - steps[0])
    assert abs(slope - fine_step_bytes(d)) <= 0.01 * fine_step_bytes(d)
    assert peaks[1] <= steps[1] * fine_step_bytes(d) + 8 * 2 ** 20


def test_config_rejects_fine_grid_over_byte_budget():
    # 8,264,704 steps pass MAX_GRID_STEPS, but not at d = 10
    with pytest.raises(ValueError, match="TRIAL_BYTES"):
        small_cfg(A=np.eye(10), B0=np.zeros((10, 10)), eps_schedule=(1.1e-3,), grid_n=256)
    cfg = small_cfg(A=np.eye(2), B0=np.zeros((2, 2)), eps_schedule=(1.1e-3,), grid_n=256)
    assert fine_grid_n(cfg, 1.1e-3) * fine_step_bytes(2) <= TRIAL_BYTES


# --------------------------------------------------------------- experiment

def test_experiment_single_trial_matches():
    cfg = small_cfg(mc_trials=1, eps_schedule=(0.5,), grid_n=16)
    rows = magnetic_experiment(cfg)
    r = run_magnetic_trial(cfg, 0.5, 0)
    assert rows[0]["distZ_renorm_mean"] == r.distZ_renorm
    assert rows[0]["distZ_renorm_se"] == 0.0
    assert rows[0]["vnorm"] == r.vNorm


def test_experiment_thread_count_invariance():
    cfg = small_cfg(mc_trials=4, grid_n=16)
    rows1 = magnetic_experiment(cfg, threads=1)
    rows2 = magnetic_experiment(cfg, threads=3)
    assert rows1 == rows2


def test_experiment_se_scales_with_trials():
    cfg64 = small_cfg(eps_schedule=(0.5,), grid_n=16, mc_trials=64, beta=0.0, B0=0.5 * J)
    cfg128 = small_cfg(eps_schedule=(0.5,), grid_n=16, mc_trials=128, beta=0.0, B0=0.5 * J)
    se64 = magnetic_experiment(cfg64)[0]["distZ_renorm_se"]
    se128 = magnetic_experiment(cfg128)[0]["distZ_renorm_se"]
    ratio = se64 / se128
    assert 1.05 <= ratio <= 1.95  # ~ sqrt(2) with sampling noise


def test_renormalised_distance_improves():
    cfg = small_cfg(eps_schedule=(0.25, 0.0625), grid_n=32, mc_trials=6)
    rows = magnetic_experiment(cfg)
    assert rows[1]["distZ_renorm_mean"] < rows[0]["distZ_renorm_mean"]
    assert rows[1]["distZ_renorm_mean"] < rows[1]["distZ_raw_mean"]


def test_renormalised_distance_slope_positive_in_eps():
    cfg = small_cfg(eps_schedule=(0.5, 0.25, 0.125, 0.0625), grid_n=32, mc_trials=8)
    rows = magnetic_experiment(cfg, threads=2)
    slope, _, _ = fit_loglog([(r["eps"], r["distZ_renorm_mean"]) for r in rows])
    assert slope > 0.0  # distance shrinks together with eps
