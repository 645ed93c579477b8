import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, replace

import numpy as np
import pytest

from roughlift import (LeadLagConfig, counter_terms, derive_seed, hoff_path,
                       leadlag_experiment, leadlag_lift, levy_area, psi_closed, psi_profile,
                       run_leadlag_trial, sample_fbm)
from roughlift import gauss, leadlag, tensor2
from roughlift.identities import leadlag_oracle_errors, psi_bruteforce
from roughlift.leadlag import BATCH_BYTES, TRIAL_BATCH, leadlag_trial_bytes
from roughlift.report import MAX_GRID_STEPS, TRIAL_BYTES
from roughlift.tensor2 import LiftedPath, holder_sweep, lift_piecewise_linear, zero_lift

from oracles import (leadlag_residuals_assembled, leadlag_trial_full_level2,
                     leadlag_trial_full_lifts, lift_piecewise_linear_full,
                     lift_strided_whole_grid, qv_matmul, sample_fbm_complex_fft)


# ----------------------------------------------------------------- hoff_path

def test_hoff_knots_two_samples():
    times, values = hoff_path(np.array([[0.0], [0.7]]))
    assert values.tolist() == [[0.0, 0.0], [0.0, 0.7], [0.7, 0.7]]
    assert times.tolist() == [0.0, 0.5, 1.0]


def test_hoff_knot_equations():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((9, 2))
    _, values = hoff_path(x)
    n, d = 8, 2
    for i in range(n):
        assert np.all(values[2 * i] == np.concatenate([x[i], x[i]]))
        assert np.all(values[2 * i + 1] == np.concatenate([x[i], x[i + 1]]))
    assert np.all(values[2 * n] == np.concatenate([x[n], x[n]]))


def test_hoff_constant_samples():
    _, values = hoff_path(np.ones((5, 3)) * 2.5)
    assert np.all(np.diff(values, axis=0) == 0.0)


def test_hoff_lead_lag_total_variation_equal():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((13, 2))
    _, values = hoff_path(x)
    inc = np.diff(values, axis=0)
    tv_lag = np.sum(np.abs(inc[:, :2]), axis=0)
    tv_lead = np.sum(np.abs(inc[:, 2:]), axis=0)
    assert np.abs(tv_lag - tv_lead).max() <= 1e-14 * max(1.0, tv_lag.max())


def test_hoff_rejects_single_sample():
    with pytest.raises(ValueError):
        hoff_path(np.zeros((1, 2)))


# ------------------------------------------------------------- counter-term

def test_renorm_scalar_values():
    # v = n^{1-2H}/2, read off the (lag, lead) block of each member
    assert counter_terms(0.5, (1, 1024), 1)[:, 0, 1].tolist() == [0.5, 0.5]
    assert abs(counter_terms(0.4, (16,), 1)[0, 0, 1] - 0.8705505632961241) <= 1e-15
    for H in (0.26, 0.35, 0.49):
        assert counter_terms(H, (1,), 2)[0, 0, 2] == 0.5


def test_renorm_block_structure():
    stack = counter_terms(0.4, (4, 8, 16), 2)
    assert stack.shape == (3, 4, 4)
    vt = stack[1]
    vs = 0.5 * 8.0 ** (1.0 - 2.0 * 0.4)
    assert np.array_equal(counter_terms(0.4, (8,), 2)[0], vt)
    assert np.all(vt[:2, :2] == 0.0) and np.all(vt[2:, 2:] == 0.0)
    assert np.all(vt[:2, 2:] == vs * np.eye(2))   # +v on the (lag, lead) block
    assert np.all(vt[2:, :2] == -vs * np.eye(2))
    assert np.abs(vt + vt.T).max() == 0.0


# ------------------------------------------------------------- leadlag_lift

def test_leadlag_lift_single_cell():
    # hand integration of the two-segment lead-lag path (0, 0) -> (0, a) ->
    # (a, a): cross area -a^2/2, diagonal areas 0; an empty interval has none
    a = 1.3
    lift = leadlag_lift(np.array([[0.0], [a]]))
    area = levy_area(lift.interval(0, 1))
    assert abs(area[0, 1] + a * a / 2.0) <= 1e-15
    assert area[0, 0] == 0.0 and area[1, 1] == 0.0
    assert np.all(levy_area(lift.interval(1, 1)) == 0.0)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("H", [0.3, 0.4, 0.5])
def test_leadlag_lift_matches_integrated_hoff_lift(d, H):
    # both levels against the lift of the Hoff path at its even knots
    for n in (1, 2, 7, 32):
        x = sample_fbm(seed=derive_seed(41, n, d), H=H, n=n, d=d).values
        got = leadlag_lift(x)
        want = lift_piecewise_linear(*hoff_path(x)).restrict(2 * np.arange(n + 1))
        assert np.array_equal(got.times, want.times)
        for level in ("level1", "level2"):
            g, w = getattr(got, level), getattr(want, level)
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), (level, n)


def test_leadlag_lift_rejects_single_sample():
    with pytest.raises(ValueError, match="at least 2 samples"):
        leadlag_lift(np.zeros((1, 2)))


def test_leadlag_lift_accepts_1d_samples():
    x = np.array([0.0, 0.4, -0.3, 1.1])
    got, want = leadlag_lift(x), leadlag_lift(x[:, None])
    assert got.dim == 2
    assert np.array_equal(got.level1, want.level1)
    assert np.array_equal(got.level2, want.level2)


def test_oracle_matches_lift_on_random_fbm():
    rng = np.random.default_rng(3)
    for H in (0.3, 0.4, 0.5):
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 4))
        path = sample_fbm(seed=int(rng.integers(1 << 62)), H=H, n=n, d=d)
        err_oracle, err_diag, err_qv = leadlag_oracle_errors(path.values)
        assert err_oracle <= 1e-12
        assert err_diag <= 1e-12   # diagonal blocks equal the interpolation area
        assert err_qv <= 1e-12     # cross block shifts by -QV/2 exactly


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
    # psi_closed is the profile rescaled, so the rescaling is checked against
    # the independent double sum at several n
    for H in (0.3, 0.5):
        prof = psi_profile(64, H)
        for n in (64, 256, 1001):
            for K in (1, 7, 64):
                assert abs(psi_bruteforce(n, K, H) - prof[K - 1] * float(n) ** (-4 * H)) \
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

def _root(cfg):
    """The embedding root that leadlag_experiment builds for a run and
    hands to each of its batches."""
    return gauss.embedding_root(cfg.n_ref, cfg.H)


def test_trial_area_deviation_equals_half_qv():
    # dual route: the measured cross deviation must equal half the mean
    # diagonal quadratic variation of the subsampled path, per trial
    cfg = LeadLagConfig(H=0.4, n_schedule=(8, 32), n_ref=256, d=2, mc_trials=1,
                        base_seed=3)
    results = run_leadlag_trial(cfg, [0], _root(cfg))[0]
    ref = sample_fbm(seed=derive_seed(3, 0), H=0.4, n=256, d=2)
    for r in results:
        x = ref.values[::256 // r.n]
        inc = np.diff(x, axis=0)
        qv_diag = np.sum(inc ** 2, axis=0)
        assert abs(r.areaDev1 - 0.5 * qv_diag.mean()) <= 1e-12 * max(1.0, qv_diag.mean())


def test_trial_h_half_counterterm_is_ito_stratonovich_shift():
    cfg = LeadLagConfig(H=0.5, n_schedule=(64,), n_ref=1024, d=1, mc_trials=1,
                        base_seed=5, alpha=0.25)
    rows = [records[0] for records in run_leadlag_trial(cfg, range(6), _root(cfg))]
    assert all(r.vNorm == 0.5 * np.sqrt(2.0) for r in rows)
    assert np.mean([r.dist_renorm for r in rows]) < np.mean([r.dist_raw for r in rows])


def test_trial_coupled_grid_alignment():
    # the subsampled path is the restriction of the one reference draw
    cfg = LeadLagConfig(H=0.4, n_schedule=(8,), n_ref=64, d=1, mc_trials=1, base_seed=9)
    ref = sample_fbm(seed=derive_seed(9, 2), H=0.4, n=64, d=1)
    x8 = ref.values[::8]
    _, values = hoff_path(x8)
    assert values.shape == (17, 2)
    assert np.all(values[::2, 0] == x8[:, 0])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("H", [0.26, 0.4, 0.5])
def test_trial_matches_full_lift_oracle(d, H):
    # closed-form residuals of a batch and one sweep against full 2d-dimensional
    # lifts, restrict and one holder_distance call per distance: every field
    # within 1e-12 relative, the counter-term norm bit for bit
    for alpha in (0.0, 0.3):
        if alpha >= H:
            continue
        for schedule, n_ref in (((8, 16, 64), 256), ((16,), 64)):
            cfg = LeadLagConfig(H=H, alpha=alpha, n_schedule=schedule, n_ref=n_ref, d=d,
                                mc_trials=2, base_seed=11)
            batch = run_leadlag_trial(cfg, range(2), _root(cfg))
            for k in range(2):
                got, want = batch[k], leadlag_trial_full_lifts(cfg, k)
                assert [r.n for r in got] == [r.n for r in want] == list(schedule)
                for r, w in zip(got, want):
                    assert r.vNorm == w.vNorm
                    for name in ("dist_renorm", "dist_raw", "areaDev1"):
                        a, b = getattr(r, name), getattr(w, name)
                        assert abs(a - b) <= 1e-12 * abs(b), (name, r.n, alpha, k)


def _batched(lift):
    """A per-path lift function extended to batches of paths (a leading
    axis): each member lifted alone, the results stacked into one lift."""
    def lift_batch(t, x, stride):
        lifts = [lift(t, member, stride) for member in x]
        return LiftedPath(lifts[0].times, np.stack([m.level1 for m in lifts]),
                          np.stack([m.area for m in lifts]))
    return lift_batch


def _counted(calls, f):
    def counted(*args, **kwargs):
        calls.append(1)
        return f(*args, **kwargs)
    return counted


def _cumsum_sums_into(x, stride, area, qv):
    # each n's area and QV, which leadlag asks of the running-sum kernel in
    # one call, from whole-grid cumsums: the area of the cumsum lift and the
    # running sums of the increments' products, at every stride-th sample
    t = np.arange(x.shape[-2]) / (x.shape[-2] - 1)
    area[...] = np.stack([lift_piecewise_linear_full(t, m).area[::stride] for m in x])
    inc = np.diff(x, axis=-2)
    p, q = np.triu_indices(x.shape[-1])
    qv[..., 0, :] = 0.0
    qv[..., 1:, :] = np.cumsum(inc[..., p] * inc[..., q], axis=-2)[..., stride - 1::stride, :]


@pytest.mark.parametrize("d", [1, 2])
def test_trial_matches_cumsum_lift_oracle(monkeypatch, d):
    # level 1 in closed form against the old lift: a whole-grid cumsum lift
    # (level 1 a running sum of the increments) restricted to the stride,
    # and each n's area and QV from whole-grid cumsums, every field within
    # 1e-12 relative, the counter-term norm bit for bit
    cfg = LeadLagConfig(H=0.4, alpha=0.3, n_schedule=(16, 32, 64, 128), n_ref=1024, d=d,
                        mc_trials=4, base_seed=3)
    got = run_leadlag_trial(cfg, range(cfg.mc_trials), _root(cfg))
    calls = []
    monkeypatch.setattr(leadlag, "lift_piecewise_linear", _counted(calls, _batched(
        lambda t, x, stride: lift_piecewise_linear_full(t, x).restrict(
            np.arange(0, len(t), stride)))))
    monkeypatch.setattr(leadlag, "running_outer_sum", _counted(calls, _cumsum_sums_into))
    want = run_leadlag_trial(cfg, range(cfg.mc_trials), _root(cfg))
    assert len(calls) == 1 + len(cfg.n_schedule)  # the batch's references, every n
    for k in range(cfg.mc_trials):
        for r, w in zip(got[k], want[k], strict=True):
            assert r.n == w.n and r.vNorm == w.vNorm
            for name in ("dist_renorm", "dist_raw", "areaDev1"):
                a, b = getattr(r, name), getattr(w, name)
                assert abs(a - b) <= 1e-12 * abs(b), (name, r.n, k)


def _matmul_sums_into(x, stride, area, qv):
    # leadlag asks the running-sum kernel for each n's area and QV at once
    t = np.arange(x.shape[-2]) / (x.shape[-2] - 1)
    area[...] = np.stack([lift_strided_whole_grid(t, m, stride).area for m in x])
    qv[...] = qv_matmul(x, stride)[(...,) + np.triu_indices(x.shape[-1])]


@pytest.mark.parametrize("d, schedule, n_ref", [
    (1, (16, 32, 64, 128, 256, 512, 1024), 4096),   # the leadlag benchmark shape
    (2, (16, 32, 64, 128, 256, 512, 1024), 4096),
    (1, (1, 2), 2 ** 16),                           # reference cells spanning blocks
])
def test_trial_matches_matmul_lift_and_qv_oracle(monkeypatch, d, schedule, n_ref):
    # the running sums against the old route: each cell's lift terms and QV
    # products summed by one matmul and the cell sums carried, every field
    # within 1e-12 relative, the counter-term norm bit for bit
    cfg = LeadLagConfig(H=0.4, alpha=0.3, n_schedule=schedule, n_ref=n_ref, d=d, mc_trials=8,
                        base_seed=13)
    got = run_leadlag_trial(cfg, range(cfg.mc_trials), _root(cfg))
    monkeypatch.setattr(leadlag, "lift_piecewise_linear", _batched(lift_strided_whole_grid))
    monkeypatch.setattr(leadlag, "running_outer_sum", _matmul_sums_into)
    want = run_leadlag_trial(cfg, range(cfg.mc_trials), _root(cfg))
    for k in range(cfg.mc_trials):
        for r, w in zip(got[k], want[k], strict=True):
            assert r.n == w.n and r.vNorm == w.vNorm
            for name in ("dist_renorm", "dist_raw", "areaDev1"):
                a, b = getattr(r, name), getattr(w, name)
                assert abs(a - b) <= 1e-12 * abs(b), (name, r.n, k)


@pytest.mark.parametrize("d, schedule, n_ref, trials", [
    (1, (16, 32, 64, 128, 256, 512, 1024), 4096, 64),   # the leadlag benchmark
    (2, (16, 32, 64, 128, 256, 512, 1024), 4096, 8),
    (3, (16, 64, 256), 1024, 8),
])
def test_trial_matches_full_level2_oracle(d, schedule, n_ref, trials):
    # residuals as area entries and a sweep squaring only those, against
    # residuals holding the whole 2d x 2d level 2 and a sweep squaring all
    # of it: every field within 1e-12 relative, the counter-term norm bit
    # for bit
    cfg = LeadLagConfig(H=0.4, alpha=0.3, n_schedule=schedule, n_ref=n_ref, d=d,
                        mc_trials=trials, base_seed=0)
    batches = [range(k, min(k + cfg.batch, trials)) for k in range(0, trials, cfg.batch)]
    root = _root(cfg)
    for ks in batches:
        for records, oracle in zip(run_leadlag_trial(cfg, ks, root),
                                   leadlag_trial_full_level2(cfg, ks, root), strict=True):
            for r, w in zip(records, oracle, strict=True):
                assert r.n == w.n and r.vNorm == w.vNorm
                for name in ("dist_renorm", "dist_raw", "areaDev1"):
                    a, b = getattr(r, name), getattr(w, name)
                    assert abs(a - b) <= 1e-12 * abs(b), (name, r.n, ks)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("d, schedule, n_ref", [
    (1, (16, 32, 64, 128, 256, 512, 1024), 4096),   # the leadlag benchmark shape
    (2, (16, 32, 64, 128, 256, 512, 1024), 4096),
    (3, (16, 64, 256), 1024),                       # odd d: blocks split unevenly in memory
    (4, (16, 64, 256), 1024),
    (1, (1, 2), 2 ** 16),                           # reference cells spanning blocks
])
def test_trial_matches_assembled_residual_oracle(monkeypatch, d, schedule, n_ref):
    # the lead-lag area written entry by entry into each residual against
    # the full anti-symmetric residual assembled from a fresh dA = A - ref
    # and half-QV array per n: residuals, areaDev1 and every trial record
    # bit for bit
    cfg = LeadLagConfig(H=0.4, alpha=0.3, n_schedule=schedule, n_ref=n_ref, d=d, mc_trials=8,
                        base_seed=17)
    trials = range(cfg.batch)
    for got, want in zip(leadlag._residuals(cfg, trials, _root(cfg)),
                         leadlag_residuals_assembled(cfg, trials), strict=True):
        assert got.shape == want.shape and _bits(got) == _bits(want)
    got = run_leadlag_trial(cfg, trials, _root(cfg))
    monkeypatch.setattr(leadlag, "_residuals", leadlag_residuals_assembled)
    want = run_leadlag_trial(cfg, trials, _root(cfg))
    assert len(got) == len(want) == len(trials)
    for records, oracle in zip(got, want):
        assert _bits([astuple(r) for r in records]) == _bits([astuple(r) for r in oracle])


def test_trial_matches_complex_fft_sampler(monkeypatch):
    # the leadlag benchmark config, all 64 trials: with the real-FFT fGn map
    # every field stays within 1e-12 relative of the trial drawn by
    # the per-component complex-FFT route, the counter-term norm bit for bit
    cfg = LeadLagConfig(H=0.4, alpha=0.3, n_schedule=(16, 32, 64, 128, 256, 512, 1024),
                        n_ref=4096, d=1, mc_trials=64, base_seed=0)
    batches = [range(k, k + cfg.batch) for k in range(0, cfg.mc_trials, cfg.batch)]
    root = _root(cfg)
    got = [records for ks in batches for records in run_leadlag_trial(cfg, ks, root)]
    calls = []
    monkeypatch.setattr(leadlag, "sample_fbm", _counted(calls, sample_fbm_complex_fft))
    want = [records for ks in batches for records in run_leadlag_trial(cfg, ks, root)]
    assert len(calls) == cfg.mc_trials
    for k in range(cfg.mc_trials):
        for r, w in zip(got[k], want[k], strict=True):
            assert r.n == w.n and r.vNorm == w.vNorm
            for name in ("dist_renorm", "dist_raw", "areaDev1"):
                a, b = getattr(r, name), getattr(w, name)
                assert abs(a - b) <= 1e-12 * abs(b), (name, r.n, k)


@pytest.mark.parametrize("d", [1, 2])
def test_trial_records_do_not_depend_on_batch(d):
    # trials 0 .. 2B + 2: each trial's records are bitwise the same run alone,
    # in a full batch and in the ragged last batch of an experiment
    cfg = LeadLagConfig(H=0.4, alpha=0.3, n_schedule=(8, 16, 64), n_ref=256, d=d,
                        mc_trials=2 * TRIAL_BATCH + 3, base_seed=7)
    assert cfg.batch == TRIAL_BATCH
    root = _root(cfg)
    alone = [run_leadlag_trial(cfg, [k], root)[0] for k in range(cfg.mc_trials)]
    batched = [records for k in range(0, cfg.mc_trials, cfg.batch)
               for records in run_leadlag_trial(cfg, range(k, min(k + cfg.batch, cfg.mc_trials)),
                                                root)]
    assert batched == alone
    assert run_leadlag_trial(cfg, range(3, 3 + cfg.batch), root) == alone[3:3 + cfg.batch]


def _trial_peak_bytes(cfg):
    # one whole batch, after the run has built its root
    tracemalloc.start()
    try:
        run_leadlag_trial(cfg, range(cfg.batch), _root(cfg))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bound(cfg):
    return leadlag_trial_bytes(cfg.n_ref, cfg.d, cfg.n_schedule, cfg.batch)


@pytest.mark.parametrize("d", [1, 4])
def test_trial_memory_per_reference_step(d):
    # the bound behind TRIAL_BYTES: the slope of a trial's traced peak over
    # n_ref (2^19 and 2^20, batches of one trial) is the per-step term of
    # leadlag_trial_bytes, 8 (4d + 1) B
    cfgs = [LeadLagConfig(H=0.4, n_schedule=(32, 64), n_ref=n_ref, d=d, mc_trials=1)
            for n_ref in (2 ** 19, 2 ** 20)]
    assert [cfg.batch for cfg in cfgs] == [1, 1]
    peaks = [_trial_peak_bytes(cfg) for cfg in cfgs]
    slope = (peaks[1] - peaks[0]) / (cfgs[1].n_ref - cfgs[0].n_ref)
    per_step = (_bound(cfgs[1]) - _bound(cfgs[0])) / (cfgs[1].n_ref - cfgs[0].n_ref)
    assert per_step == 8 * (4 * d + 1)
    assert abs(slope - per_step) <= 0.01 * per_step
    assert all(peak <= _bound(cfg) for peak, cfg in zip(peaks, cfgs))


# the lead-lag benchmark's trial: n_ref, d and schedule
BENCHMARK_SHAPE = (2 ** 12, 1, (16, 32, 64, 128, 256, 512, 1024))
SHAPES = [
    (2 ** 20, 1, (1, 2)),            # reference stride 2^20, cells 32 blocks long
    (2 ** 12, 4, (512, 1024)),       # a sweep-heavy trial
    (2 ** 12, 2, (16, 32, 64, 128, 256, 512, 1024)),
    BENCHMARK_SHAPE,
]


def _assert_trial_within_bound(n_ref, d, schedule):
    # tensor2 sizes each kernel's working bytes, numpy's iterator buffers
    # among them, so a batch is held to the bound with no slack; returns the
    # traced peak and the bound
    cfg = LeadLagConfig(H=0.4, n_schedule=schedule, n_ref=n_ref, d=d, mc_trials=1)
    peak, bound = _trial_peak_bytes(cfg), _bound(cfg)
    assert peak <= bound
    return peak, bound


@pytest.mark.parametrize("n_ref, d, schedule", SHAPES)
def test_trial_memory_within_bound(n_ref, d, schedule):
    # and the bound is tight: each phase is charged only what it holds
    peak, bound = _assert_trial_within_bound(n_ref, d, schedule)
    assert bound <= 1.3 * peak


def test_trial_memory_bound_holds_at_4x_pair_block(monkeypatch):
    # the sweep's planes are sized by its own largest block, and the bound
    # charges them at that size, so it holds at 4 PAIR_BLOCK too
    monkeypatch.setattr(tensor2, "PAIR_BLOCK", 4 * tensor2.PAIR_BLOCK)
    for n_ref, d, schedule in SHAPES[1:]:
        _assert_trial_within_bound(n_ref, d, schedule)


@pytest.mark.parametrize("n_ref, d, schedule", [SHAPES[1], BENCHMARK_SHAPE])
def test_warm_worker_batch_holds_what_the_first_did(n_ref, d, schedule):
    # two batches in turn on one worker thread, as a run hands them out: the
    # kernels keep no arrays between calls, so the second batch peaks where
    # the first did, and both within the bound
    cfg = LeadLagConfig(H=0.4, n_schedule=schedule, n_ref=n_ref, d=d, mc_trials=1)

    def two_batches(root):
        peaks = []
        for k0 in (0, cfg.batch):
            tracemalloc.reset_peak()
            run_leadlag_trial(cfg, range(k0, k0 + cfg.batch), root)
            peaks.append(tracemalloc.get_traced_memory()[1])
        return peaks

    tracemalloc.start()
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            cold, warm = pool.submit(two_batches, _root(cfg)).result()
    finally:
        tracemalloc.stop()
    assert max(cold, warm) <= _bound(cfg)
    assert abs(warm - cold) <= 2 ** 16


def _sweep_peak_bytes(k, n, d):
    # the sweep as a lead-lag batch runs it: k residuals of lead-lag
    # dimension d (lifts of dimension 2d) with level 1 zero, against the zero
    # lift; the input lifts are allocated before tracing starts, so the
    # sweep's own arrays (the extended area differences and the planes) are
    # what is traced
    rng = np.random.default_rng(k * n + d)
    times = np.linspace(0.0, 1.0, n + 1)
    area = rng.standard_normal((k, n + 1, d * (2 * d - 1)))
    area[:, 0] = 0.0
    x = LiftedPath(times, np.broadcast_to(0.0, (k, n + 1, 2 * d)), area)
    y = zero_lift(times, 2 * d)
    shifts = rng.standard_normal((k, d * (2 * d - 1)))
    tracemalloc.start()
    try:
        holder_sweep(x, y, 0.3, shifts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("d", [1, 2, 4])
def test_sweep_memory_per_member_point(d):
    # between (k, n) = (32, 128) and (64, 256), the sweep's traced peak grows
    # per member grid point by the bytes tensor2.sweep_memory sizes: the
    # area differences, 8 d (2d - 1) B a point extended by ceil(n/2) points
    # (level 1 is zero, so there is no level-1 path), planes of about
    # PAIR_BLOCK pairs at both shapes, and numpy's iterator buffers
    shapes = ((32, 128), (64, 256))
    points = [k * (n + 1) for k, n in shapes]
    peaks = [_sweep_peak_bytes(k, n, d) for k, n in shapes]
    sized = [tensor2.sweep_memory(k, n, 2 * d, True, True)[2] for k, n in shapes]
    slope = (peaks[1] - peaks[0]) / (points[1] - points[0])
    core = (sized[1] - sized[0]) / (points[1] - points[0])
    assert 0.98 * core <= slope <= 1.02 * core + 56


def test_config_rejects_trial_over_byte_budget():
    # n_ref = MAX_GRID_STEPS fits at d = 2 (0.60 GB) but not at d = 3 (0.87 GB)
    cfg = LeadLagConfig(H=0.4, n_schedule=(8, 16, 32), n_ref=MAX_GRID_STEPS, d=2, mc_trials=2)
    assert cfg.batch == 1 and _bound(cfg) <= TRIAL_BYTES
    with pytest.raises(ValueError, match="TRIAL_BYTES"):
        replace(cfg, d=3)
    # a coarse n_min costs nothing: the lifts' blocks hold O(ROW_BLOCK d)
    # floats whatever the stride, so sampling stays the peak
    assert _bound(replace(cfg, n_schedule=(1, 2))) == _bound(cfg)


def test_batches_shrink_to_the_byte_budget():
    # TRIAL_BATCH trials while a batch stays within BATCH_BYTES, fewer as the
    # reference grid or the sweep grows, and one trial where one trial is
    # already over it
    def batch(n_ref, d=1, schedule=(16, 32)):
        return LeadLagConfig(H=0.4, n_schedule=schedule, n_ref=n_ref, d=d, mc_trials=1).batch

    assert batch(4096) == batch(*BENCHMARK_SHAPE) == TRIAL_BATCH
    assert [batch(n_ref) for n_ref in (2 ** 15, 2 ** 16, 2 ** 17, 2 ** 18)] == [8, 7, 3, 1]
    # each phase is charged its own arrays and its kernel's working bytes,
    # and the residuals hold 28 area entries a point, not 64 level-2 ones, so
    # a full batch fits (it traces 5.85 MB against a bound of 6.10 MB, whose
    # peak phase is the lifting)
    assert batch(4096, d=4, schedule=(512, 1024)) == TRIAL_BATCH
    for n_ref, d, schedule in ((4096, 1, (16, 32)), (2 ** 16, 1, (16, 32)),
                               (4096, 4, (512, 1024))):
        cfg = LeadLagConfig(H=0.4, n_schedule=schedule, n_ref=n_ref, d=d, mc_trials=1)
        assert _bound(cfg) <= BATCH_BYTES
        if cfg.batch < TRIAL_BATCH:
            assert leadlag_trial_bytes(n_ref, d, schedule, cfg.batch + 1) > BATCH_BYTES


# ---------------------------------------------------------------- experiment

def test_experiment_builds_one_embedding_root(monkeypatch):
    # three batches, on 1 and 2 threads: the run builds its root once, and
    # every draw reads it
    cfg = LeadLagConfig(H=0.4, n_schedule=(8, 16), n_ref=128, mc_trials=2 * TRIAL_BATCH + 1)
    eigenvalues = gauss._embedding_eigenvalues
    for threads in (1, 2):
        calls = []
        monkeypatch.setattr(gauss, "_embedding_eigenvalues",
                            _counted(calls, eigenvalues))
        leadlag_experiment(cfg, threads=threads)
        assert len(calls) == 1


def test_experiment_single_trial_table():
    cfg = LeadLagConfig(H=0.4, n_schedule=(8, 16), n_ref=128, mc_trials=1, base_seed=2)
    rows = leadlag_experiment(cfg)
    single = run_leadlag_trial(cfg, [0], _root(cfg))[0]
    assert rows[0]["dist_renorm_mean"] == single[0].dist_renorm
    assert rows[1]["areaDev1_mean"] == single[1].areaDev1
    assert rows[0]["dist_renorm_se"] == 0.0


def test_experiment_rows_identical_at_1_2_3_threads():
    # 2B + 3 trials: two full batches and a ragged one, spread over 1, 2 and
    # 3 workers
    cfg = LeadLagConfig(H=0.4, n_schedule=(8, 16, 32), n_ref=128, mc_trials=2 * TRIAL_BATCH + 3,
                        base_seed=4)
    rows = [leadlag_experiment(cfg, threads=threads) for threads in (1, 2, 3)]
    assert rows[0] == rows[1] == rows[2]


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
