import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from oracles import (expected_area, lift_piecewise_linear_full, lyapunov_solve_scipy,
                     magnetic_trial_full_level2, ou_integrals_scipy,
                     ou_joint_transition_lyapunov, ou_recursion_eig, sample_physical_blocked_scan)
from roughlift import gauss, linstable, magnetic, tensor2
from roughlift import (MagneticConfig, derive_Z, drift_at, fine_grid_n,
                       holder_distance, lift_piecewise_linear, magnetic_experiment,
                       renorm_v, run_magnetic_trial, sample_physical, translate)
from roughlift.gauss import derive_seed, float_index
from roughlift.linstable import _lyapunov_solve, lyapunov_bytes, ou_joint_transition
from roughlift.magnetic import fine_step_bytes, plan_run
from roughlift.report import TRIAL_BYTES, fit_loglog
from roughlift.tensor2 import area_entries

J = np.array([[0.0, -1.0], [1.0, 0.0]])


def small_cfg(**kw):
    base = dict(A=np.eye(2), B0=J, beta=0.5, eps_schedule=(0.5, 0.25),
                T=1.0, alpha=0.3, grid_n=32, mc_trials=2, base_seed=7)
    base.update(kw)
    return MagneticConfig(**base)


def trials(cfg, keys):
    """The trials of the (eps, trial index) ``keys`` from the plans of a run
    of ``cfg``."""
    plans = {plan.eps: plan for plan in plan_run(cfg)}
    return [run_magnetic_trial(cfg, plans[eps], k) for eps, k in keys]


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
    (r,) = trials(cfg, [(1.0, 0)])
    assert r.vNorm == 0.0
    assert r.distP_renorm == r.distP_raw
    assert r.distZ_renorm == r.distZ_raw


def test_trial_counterterm_norm_closed_form():
    cfg = small_cfg()
    for r in trials(cfg, [(eps, 0) for eps in cfg.eps_schedule]):
        assert abs(r.vNorm - r.eps ** -0.5 / np.sqrt(2.0)) <= 1e-10


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
    ren_dev = translate(liftZ, area_entries(v)).level2[-1] - liftW.level2[-1]
    scale = max(1.0, np.abs(raw_dev).max())
    assert np.abs((ren_dev - raw_dev) - cfg.T * v).max() <= 1e-12 * scale


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
            dev = liftP.level2[-1] + cfg.T * v
            acc.append(np.sum(dev ** 2))
        points.append((eps, np.sqrt(np.mean(acc))))
    slope, _, _ = fit_loglog(points)
    assert slope >= (1.0 - beta) - 0.15


def test_expected_area_matches_covariance_recursion():
    # the closed form against the k-loop: Cov(P_{k+1}) = E Cov(P_k) E^T +
    # covPP from P_0 = 0, the mean area summing antisym(Cov(P_k) E^T), with
    # the sampler's own transition, at 1e-12 relative
    A = np.array([[2.0, 0.3], [0.3, 1.0]])
    for cfg in (small_cfg(beta=0.0, eps_schedule=(2 ** -2,)),
                small_cfg(beta=0.5, eps_schedule=(2 ** -3,)),
                small_cfg(A=A, B0=3.0 * J, beta=0.9, alpha=0.2, eps_schedule=(2 ** -3,))):
        eps = cfg.eps_schedule[0]
        drift, N = drift_at(cfg, eps), fine_grid_n(cfg, eps)
        trans = ou_joint_transition(drift, eps, cfg.T / N)
        E, cov, acc = trans.meanMap, np.zeros((2, 2)), np.zeros((2, 2))
        for _ in range(N):
            acc += cov @ E.T
            cov = E @ cov @ E.T + trans.covPP
        want = 0.5 * (acc - acc.T)
        got = expected_area(drift, eps, cfg.T / N, N)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (cfg.beta, eps)


@pytest.mark.parametrize("beta, eps", [(0.0, 2 ** -2), (0.5, 2 ** -2), (0.0, 2 ** -3),
                                       (0.5, 2 ** -3)])
def test_momentum_area_mean_is_exact_in_law(beta, eps):
    # the (1, 2) area of the P lift over [0, T], averaged over 400 trials at
    # the trial's seeds, lies within 3 SE of its exact mean at the step
    # rule's h, which includes the several-percent bias of the lift against
    # the continuum counter-term T |v_12|; that bias is more than 3 SE here,
    # which is why criterion 6 needs a 15% band and this test does not
    trials = 400
    cfg = small_cfg(beta=beta, eps_schedule=(eps,), base_seed=0)
    drift, N = drift_at(cfg, eps), fine_grid_n(cfg, eps)
    areas = []
    for k in range(trials):
        P, _ = sample_physical(drift, eps, cfg.T, N, derive_seed(0, float_index(eps), k))
        level2 = lift_piecewise_linear(P.times, P.values, stride=N).level2[-1]
        areas.append(0.5 * (level2[0, 1] - level2[1, 0]))
    mean, se = np.mean(areas), np.std(areas, ddof=1) / np.sqrt(trials)
    exact = expected_area(drift, eps, cfg.T / N, N)[0, 1]
    assert abs(mean - exact) <= 3.0 * se, (mean, exact, se)
    assert abs(exact + cfg.T * renorm_v(drift)[0, 1]) > 3.0 * se


@pytest.fixture
def patch_oracle(monkeypatch):
    """monkeypatch.setattr for an oracle that returns how often it was
    called."""
    def patch(module, name, oracle):
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return oracle(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return patch


def test_trial_matches_eig_recursion_oracle(patch_oracle):
    # the blocked real scan against the eigendecomposition route run on the
    # same chunks from the same carried P, field by field, on fine grids of
    # 384 and 10560 steps
    cfg = small_cfg(eps_schedule=(0.25, 2.0 ** -4), grid_n=64)
    keys = [(eps, k) for eps in cfg.eps_schedule for k in range(2)]
    new = trials(cfg, keys)

    def eig_scan_block(E, xi, out, k0, scratch):  # the oracle needs no scratch
        out[k0 + 1:k0 + 1 + len(xi)] = ou_recursion_eig(E, xi, out[k0])[1:]

    levels = patch_oracle(gauss, "_scan_levels", lambda E, rows: E)
    patch_oracle(gauss, "_scan_floats", lambda E, rows: 0)
    scans = patch_oracle(gauss, "_ou_scan_block", eig_scan_block)
    old = trials(cfg, keys)
    assert len(levels) == 2 and len(scans) == len(keys)  # one plan per eps
    for a, b in zip(new, old):
        for f in fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert abs(x - y) <= 1e-12 * abs(y), f.name


def test_trial_matches_blocked_scan_oracle(patch_oracle):
    # the per-chunk scan against the earlier whole-grid sqrt(N)-block scan,
    # field by field, at eps = 2^-2 (512 fine steps) and at eps = 2^-7
    # (1,861,120 fine steps, 57 chunks)
    cfg = small_cfg(eps_schedule=(2.0 ** -2, 2.0 ** -7), grid_n=256)
    keys = [(eps, 0) for eps in cfg.eps_schedule]
    new = trials(cfg, keys)
    calls = patch_oracle(magnetic, "sample_physical", sample_physical_blocked_scan)
    old = trials(cfg, keys)
    assert len(calls) == 2
    for a, b in zip(new, old):
        for f in fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert abs(x - y) <= 1e-12 * abs(y), (a.eps, f.name)


def test_trial_matches_lyapunov_transition_oracle(patch_oracle):
    # the block-exponential transition against C - E C E^T and M^{-1}(I - E),
    # field by field, both through the symmetric noise root
    cfg = small_cfg(eps_schedule=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4), grid_n=64)
    keys = [(eps, k) for eps in cfg.eps_schedule for k in range(4)]
    new = trials(cfg, keys)
    calls = patch_oracle(gauss, "ou_joint_transition", ou_joint_transition_lyapunov)
    old = trials(cfg, keys)
    assert len(calls) == 3
    for a, b in zip(new, old):
        for f in fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert abs(x - y) <= 1e-12 * abs(y), f.name


def test_trial_matches_scipy_transition_oracle(patch_oracle):
    # the numpy Pade step and Kronecker solves against scipy's expm and LU
    # factorisation, field by field (vNorm through the Lyapunov solve)
    cfg = small_cfg(eps_schedule=tuple(2.0 ** -k for k in range(2, 6)), grid_n=64)
    keys = [(eps, k) for eps in cfg.eps_schedule for k in range(3)]
    new = trials(cfg, keys)
    steps = patch_oracle(linstable, "_ou_integrals", ou_integrals_scipy)
    solves = patch_oracle(linstable, "_lyapunov_solve", lyapunov_solve_scipy)
    old = trials(cfg, keys)
    # per eps one step, which solves for its C_r with scipy itself, and the
    # set-up check's solve for C; per trial and eps the counter-term's
    assert len(steps) == 4 and len(solves) == 4 + len(keys) == 16
    for a, b in zip(new, old):
        for f in fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert abs(x - y) <= 1e-12 * abs(y), f.name


def test_setup_is_built_once_per_eps_of_a_run(patch_oracle):
    # 17 eps, one more than a schedule the earlier per-value memos could
    # hold: one OU step per eps and one sweep geometry, which every sweep of
    # every trial reads, at either thread count
    cfg = small_cfg(eps_schedule=tuple(2.0 ** (-1 - j / 16) for j in range(17)), grid_n=256,
                    mc_trials=3)
    geometry = tensor2._geometry
    for threads in (1, 2):
        steps = patch_oracle(gauss, "ou_joint_transition", ou_joint_transition)
        built = patch_oracle(tensor2, "_geometry", geometry)
        magnetic_experiment(cfg, threads=threads)
        assert (len(steps), len(built)) == (17, 1)


def test_plan_arrays_are_read_only():
    cfg = small_cfg(eps_schedule=(0.25,), grid_n=256)
    (plan,) = plan_run(cfg)
    assert plan.stride * cfg.grid_n == plan.n_fine == fine_grid_n(cfg, 0.25)
    L, levels = plan.step
    geometry = plan.geometry
    arrays = [plan.drift.A, plan.drift.B, plan.drift.M, L,
              *(m for level in levels for m in level),
              *(a for block in geometry.blocks for a in block[2:] if a is not None)]
    assert len(arrays) > 10
    for a in arrays:
        assert isinstance(a, np.ndarray) and not a.flags.writeable


def test_experiment_rejects_unrunnable_setup_before_sampling(monkeypatch):
    # A = 1e-300 I passes every config rule, but C and v are about 5e299
    # and their norms overflow: the set-up check raises a ConfigError (a
    # ValueError) that names the eps, and no trial samples
    cfg = small_cfg(A=1e-300 * np.eye(2), beta=0.0)
    monkeypatch.setattr(magnetic, "sample_physical", lambda *a, **k: pytest.fail("sampled"))
    with pytest.raises(ValueError, match="eps = 0.5: the stationary covariance C"):
        magnetic_experiment(cfg)

def test_trial_matches_cumsum_lift_oracle(monkeypatch):
    # level 1 in closed form, lifts as level 1 and area, and Z written over P
    # against the old trial: whole-grid cumsum lifts (level 1 a running sum
    # of the increments) and a fresh Z, field by field, at eps = 2^-2 (512
    # fine steps) and eps = 2^-6 (330,240 fine steps, 11 ROW_BLOCK chunks)
    cfg = small_cfg(eps_schedule=(2.0 ** -2, 2.0 ** -6), grid_n=256)
    assert fine_grid_n(cfg, 2.0 ** -6) > 10 * tensor2.ROW_BLOCK
    keys = [(eps, k) for eps in cfg.eps_schedule for k in range(2)]
    new = trials(cfg, keys)
    monkeypatch.setattr(magnetic, "lift_piecewise_linear",
                        lambda t, x: lift_piecewise_linear_full(t, x))
    monkeypatch.setattr(magnetic, "derive_Z", lambda P, W, out=None: derive_Z(P, W))
    old = trials(cfg, keys)
    for a, b in zip(new, old):
        for f in fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert abs(x - y) <= 1e-12 * abs(y), (a.eps, f.name)


@pytest.mark.parametrize("eps", [2.0 ** -2, 2.0 ** -4, 2.0 ** -7])
def test_trial_matches_full_level2_oracle(eps):
    # lifts as level 1 and area, and sweeps squaring only the area entries,
    # against lifts holding all d^2 level-2 entries and sweeps squaring all
    # of them: every field within 1e-12 relative, on the magnetic benchmark
    # config (eps = 2^-7 is the magnetic-fine workload's 1,861,120 steps)
    for seed in (1, 2, 5):
        cfg = small_cfg(beta=0.5, eps_schedule=(eps,), grid_n=256, base_seed=seed)
        (plan,) = plan_run(cfg)
        got, want = run_magnetic_trial(cfg, plan, 0), magnetic_trial_full_level2(cfg, plan, 0)
        for f in fields(got):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert abs(a - b) <= 1e-12 * abs(b), (eps, seed, f.name)


def _trial_peak_bytes(cfg, eps):
    # the plan is built first, as in a run
    plan = {plan.eps: plan for plan in plan_run(cfg)}[eps]
    tracemalloc.start()
    try:
        run_magnetic_trial(cfg, plan, 0)
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


@pytest.mark.parametrize("d", [16, 32])
def test_lyapunov_solve_memory_is_lyapunov_bytes(d):
    M, Q = 2.0 * np.eye(d), np.eye(d)
    tracemalloc.start()
    try:
        _lyapunov_solve(M, Q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lyapunov_bytes(d) <= peak <= 1.01 * lyapunov_bytes(d)


def test_config_rejects_dimension_over_lyapunov_budget():
    # a 2-step fine grid, but a d^2 x d^2 Kronecker system: d = 74 fits, 75 not
    assert lyapunov_bytes(74) <= TRIAL_BYTES < lyapunov_bytes(75)
    small_cfg(A=np.eye(74), B0=np.zeros((74, 74)), eps_schedule=(10.0,), grid_n=2)
    with pytest.raises(ValueError, match="TRIAL_BYTES"):
        small_cfg(A=np.eye(75), B0=np.zeros((75, 75)), eps_schedule=(10.0,), grid_n=2)


def test_config_rejects_seed_outside_u64():
    small_cfg(base_seed=2 ** 64 - 1)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="base_seed"):
            small_cfg(base_seed=seed)


# --------------------------------------------------------------- experiment

def test_experiment_single_trial_matches():
    cfg = small_cfg(mc_trials=1, eps_schedule=(0.5,), grid_n=16)
    rows = magnetic_experiment(cfg)
    (r,) = trials(cfg, [(0.5, 0)])
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
