from dataclasses import replace

import numpy as np
import pytest

from roughlift import (LeadLagConfig, SamplerSpec, hoff_path, leadlag_area_oracle,
                       leadlag_experiment, leadlag_renorm, psi_closed, psi_profile,
                       run_leadlag_trial, sample_fbm)
from roughlift.identities import leadlag_oracle_errors, psi_bruteforce

from oracles import leadlag_trial_full_lifts


# ----------------------------------------------------------------- hoff_path

def test_hoff_knots_two_samples():
    hp = hoff_path(np.array([[0.0], [0.7]]))
    assert hp.values.tolist() == [[0.0, 0.0], [0.0, 0.7], [0.7, 0.7]]
    assert hp.times.tolist() == [0.0, 0.5, 1.0]


def test_hoff_knot_equations():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((9, 2))
    hp = hoff_path(x)
    n, d = 8, 2
    for i in range(n):
        assert np.all(hp.values[2 * i] == np.concatenate([x[i], x[i]]))
        assert np.all(hp.values[2 * i + 1] == np.concatenate([x[i], x[i + 1]]))
    assert np.all(hp.values[2 * n] == np.concatenate([x[n], x[n]]))


def test_hoff_constant_samples():
    hp = hoff_path(np.ones((5, 3)) * 2.5)
    assert np.all(np.diff(hp.values, axis=0) == 0.0)


def test_hoff_lead_lag_total_variation_equal():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((13, 2))
    hp = hoff_path(x)
    inc = np.diff(hp.values, axis=0)
    tv_lag = np.sum(np.abs(inc[:, :2]), axis=0)
    tv_lead = np.sum(np.abs(inc[:, 2:]), axis=0)
    assert np.abs(tv_lag - tv_lead).max() <= 1e-14 * max(1.0, tv_lag.max())


def test_hoff_rejects_single_sample():
    with pytest.raises(ValueError):
        hoff_path(np.zeros((1, 2)))


# ------------------------------------------------------------- counter-term

def test_renorm_scalar_values():
    assert leadlag_renorm(0.5, 1, 1).v_scalar == 0.5
    assert leadlag_renorm(0.5, 1024, 1).v_scalar == 0.5
    assert abs(leadlag_renorm(0.4, 16, 1).v_scalar - 0.8705505632961241) <= 1e-15
    for H in (0.26, 0.35, 0.49):
        assert leadlag_renorm(H, 1, 2).v_scalar == 0.5


def test_renorm_block_structure():
    ren = leadlag_renorm(0.4, 8, 2)
    vt = ren.term.v
    vs = ren.v_scalar
    assert np.all(vt[:2, :2] == 0.0) and np.all(vt[2:, 2:] == 0.0)
    assert np.all(vt[:2, 2:] == vs * np.eye(2))   # +v on the (lag, lead) block
    assert np.all(vt[2:, :2] == -vs * np.eye(2))
    assert np.abs(vt + vt.T).max() == 0.0


# -------------------------------------------------------------- area oracle

def test_oracle_single_cell_closed_form():
    # hand integration of the two-segment lead-lag path: cross area -a^2/2
    a = 1.3
    area = leadlag_area_oracle(np.array([[0.0], [a]]), 0, 1)
    assert abs(area[0, 1] + a * a / 2.0) <= 1e-15
    assert area[0, 0] == 0.0 and area[1, 1] == 0.0


def test_oracle_empty_interval():
    assert np.all(leadlag_area_oracle(np.zeros((4, 2)), 2, 2) == 0.0)


def test_oracle_index_validation():
    with pytest.raises(ValueError):
        leadlag_area_oracle(np.zeros((4, 1)), 1, 5)


def test_oracle_matches_lift_on_random_fbm():
    rng = np.random.default_rng(3)
    for H in (0.3, 0.4, 0.5):
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 4))
        path = sample_fbm(SamplerSpec(seed=int(rng.integers(1 << 62)), H=H, n=n, d=d))
        err_oracle, err_diag, err_qv = leadlag_oracle_errors(path.values)
        assert err_oracle <= 1e-12
        assert err_diag <= 1e-12   # diagonal blocks equal the interpolation area
        assert err_qv <= 1e-12     # cross block shifts by -QV/2 exactly


def test_oracle_antisymmetric():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((9, 2))
    area = leadlag_area_oracle(x, 1, 7)
    assert np.abs(area + area.T).max() <= 1e-14 * max(1.0, np.abs(area).max())


# ---------------------------------------------------------------- psi_closed

def test_psi_h_half():
    for n, K in ((4, 1), (64, 17), (256, 256)):
        assert psi_closed(n, K, 0.5) == K / n ** 2


def test_psi_single_cell():
    for n, H in ((3, 0.3), (17, 0.45), (128, 0.5)):
        assert abs(psi_closed(n, 1, H) - float(n) ** (-4 * H)) <= 1e-18


def test_psi_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(1, 257))
        K = int(rng.integers(1, n + 1))
        H = float(rng.uniform(0.05, 0.95))
        psi = psi_closed(n, K, H)
        brute = psi_bruteforce(n, K, H)
        assert abs(psi - brute) <= 1e-12 * max(1.0, brute)


def test_psi_profile_is_n_free_rescaling():
    for H in (0.3, 0.5):
        prof = psi_profile(64, H)
        for n in (64, 256, 1001):
            for K in (1, 7, 64):
                assert abs(psi_closed(n, K, H) - prof[K - 1] * float(n) ** (-4 * H)) \
                    <= 1e-15 * max(1.0, prof[K - 1])


def test_psi_bound():
    for H in (0.30, 0.35, 0.40, 0.45, 0.50):
        K = np.arange(1, 513, dtype=float)
        assert np.all(psi_profile(512, H) <= 2.0 * K)


def test_psi_validation():
    with pytest.raises(ValueError):
        psi_closed(4, 5, 0.3)
    with pytest.raises(ValueError):
        psi_closed(4, 0, 0.3)
    with pytest.raises(ValueError):
        psi_closed(4, 2, 1.5)


# -------------------------------------------------------------------- config

def test_config_validation():
    LeadLagConfig(H=0.4, n_schedule=(8, 16, 32), n_ref=256, mc_trials=2)
    with pytest.raises(ValueError):
        LeadLagConfig(H=0.2, n_schedule=(8, 16), n_ref=256)          # theorem window
    with pytest.raises(TypeError):                                   # no opt-out flag
        LeadLagConfig(H=0.2, n_schedule=(8, 16), n_ref=256, theorem_mode=False)
    with pytest.raises(ValueError):
        LeadLagConfig(H=0.4, n_schedule=(8, 16), n_ref=256, alpha=0.45)
    with pytest.raises(ValueError):
        LeadLagConfig(H=0.4, n_schedule=(16, 8), n_ref=256)          # not increasing
    with pytest.raises(ValueError):
        LeadLagConfig(H=0.4, n_schedule=(8, 64), n_ref=128)          # n_ref < 4*max
    with pytest.raises(ValueError):
        LeadLagConfig(H=0.4, n_schedule=(8, 12), n_ref=256)          # 12 % 8 != 0


def test_trial_rejects_out_of_window_H():
    # the window is enforced when a config is built, also by replace(), so no
    # trial can start outside it
    cfg = LeadLagConfig(H=0.4, n_schedule=(8, 16), n_ref=256)
    with pytest.raises(ValueError, match="1/4 < H <= 1/2"):
        replace(cfg, H=0.2)


# -------------------------------------------------------------------- trials

def test_trial_area_deviation_equals_half_qv():
    # dual route: the measured cross deviation must equal half the mean
    # diagonal quadratic variation of the subsampled path, per trial
    cfg = LeadLagConfig(H=0.4, n_schedule=(8, 32), n_ref=256, d=2, mc_trials=1,
                        base_seed=3)
    results = run_leadlag_trial(cfg, 0)
    from roughlift.gauss import derive_seed
    ref = sample_fbm(SamplerSpec(seed=derive_seed(3, 0), H=0.4, n=256, d=2))
    for r in results:
        x = ref.values[::256 // r.n]
        inc = np.diff(x, axis=0)
        qv_diag = np.sum(inc ** 2, axis=0)
        assert abs(r.areaDev1 - 0.5 * qv_diag.mean()) <= 1e-12 * max(1.0, qv_diag.mean())


def test_trial_h_half_counterterm_is_ito_stratonovich_shift():
    cfg = LeadLagConfig(H=0.5, n_schedule=(64,), n_ref=1024, d=1, mc_trials=1,
                        base_seed=5, alpha=0.25)
    rows = [run_leadlag_trial(cfg, k)[0] for k in range(6)]
    assert all(r.vNorm == 0.5 * np.sqrt(2.0) for r in rows)
    assert np.mean([r.dist_renorm for r in rows]) < np.mean([r.dist_raw for r in rows])


def test_trial_coupled_grid_alignment():
    # the subsampled path is the restriction of the one reference draw
    cfg = LeadLagConfig(H=0.4, n_schedule=(8,), n_ref=64, d=1, mc_trials=1, base_seed=9)
    from roughlift.gauss import derive_seed
    ref = sample_fbm(SamplerSpec(seed=derive_seed(9, 2), H=0.4, n=64, d=1))
    x8 = ref.values[::8]
    hp = hoff_path(x8)
    assert hp.values.shape == (17, 2)
    assert np.all(hp.values[::2, 0] == x8[:, 0])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("H", [0.26, 0.4, 0.5])
def test_trial_matches_full_lift_oracle(d, H):
    # strided lifts and one sweep against full lifts, restrict and one
    # holder_distance call per distance: every field within 1e-12 relative,
    # the counter-term norm bit for bit
    for alpha in (0.0, 0.3):
        if alpha >= H:
            continue
        for schedule, n_ref in (((8, 16, 64), 256), ((16,), 64)):
            cfg = LeadLagConfig(H=H, alpha=alpha, n_schedule=schedule, n_ref=n_ref, d=d,
                                mc_trials=2, base_seed=11)
            for k in range(2):
                got, want = run_leadlag_trial(cfg, k), leadlag_trial_full_lifts(cfg, k)
                assert [r.n for r in got] == [r.n for r in want] == list(schedule)
                for r, w in zip(got, want):
                    assert r.vNorm == w.vNorm
                    for name in ("dist_renorm", "dist_raw", "areaDev1"):
                        a, b = getattr(r, name), getattr(w, name)
                        assert abs(a - b) <= 1e-12 * abs(b), (name, r.n, alpha, k)


# ---------------------------------------------------------------- experiment

def test_experiment_single_trial_table():
    cfg = LeadLagConfig(H=0.4, n_schedule=(8, 16), n_ref=128, mc_trials=1, base_seed=2)
    rows = leadlag_experiment(cfg)
    single = run_leadlag_trial(cfg, 0)
    assert rows[0]["dist_renorm_mean"] == single[0].dist_renorm
    assert rows[1]["areaDev1_mean"] == single[1].areaDev1
    assert rows[0]["dist_renorm_se"] == 0.0


def test_experiment_thread_invariance_and_slopes():
    cfg = LeadLagConfig(H=0.4, n_schedule=(8, 16, 32, 64), n_ref=512, mc_trials=8,
                        base_seed=1)
    rows1 = leadlag_experiment(cfg, threads=1)
    rows2 = leadlag_experiment(cfg, threads=3)
    assert rows1 == rows2
    from roughlift.report import fit_loglog
    ns = [r["n"] for r in rows1]
    slope_ren, _, _ = fit_loglog([(n, r["dist_renorm_mean"]) for n, r in zip(ns, rows1)])
    slope_dev, _, _ = fit_loglog([(n, r["areaDev1_mean"]) for n, r in zip(ns, rows1)])
    assert slope_ren < 0.0
    assert abs(slope_dev - 0.2) <= 0.3  # 1 - 2H with generous MC band at 8 trials
