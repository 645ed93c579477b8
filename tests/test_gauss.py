import sys
import threading
import tracemalloc

import numpy as np
import pytest

from oracles import (finite_cov_quadrature, ou_recursion_eig, ou_recursion_loop, ou_scan_chunks,
                     physical_whole_draw, sample_fbm_cholesky, sample_fbm_complex_fft)
from roughlift import (StableDrift, derive_seed, derive_Z, fgn_autocov, lyapunov_C,
                       ou_joint_transition, required_steps, sample_bm, sample_fbm,
                       sample_physical)
from roughlift import gauss
from roughlift.gauss import SCAN_WIDTH, GridPath, _scan_levels, float_index
from roughlift.identities import random_stable_drifts
from roughlift.tensor2 import ROW_BLOCK

J = np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------- seed split

def test_derive_seed_deterministic_and_distinct():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)
    assert derive_seed(42, float_index(0.5), 3) != derive_seed(42, float_index(0.25), 3)


def test_derive_seed_accepts_both_ends_of_u64():
    # the values the masking route gave, so in-range seeds did not move
    top = 2 ** 64 - 1
    assert derive_seed(0, 0) == 12035550249420947055
    assert derive_seed(top, top) == 7136257342804621622
    assert derive_seed(0, top) == 6755974106381971767
    assert derive_seed(top, 0) == 3303439293501059696
    assert derive_seed(42, 7, 3) == 8871903242033848482


@pytest.mark.parametrize("value", [-1, 2 ** 64])
def test_derive_seed_rejects_outside_u64(value):
    # not wrapped mod 2^64: -1 would give the substream of 2^64 - 1, and
    # 2^64 that of 0
    for args in ((value, 3), (0, value), (5, 1, value)):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            derive_seed(*args)


# ------------------------------------------------------------------ sample_bm

def test_bm_shape_and_start():
    path = sample_bm(2.0, 8, 3, seed=1)
    assert path.values.shape == (9, 3)
    assert np.all(path.values[0] == 0.0)
    assert path.times[0] == 0.0 and path.times[-1] == 2.0


def test_bm_single_step_variance():
    draws = np.array([sample_bm(3.0, 1, 1, seed=derive_seed(9, i)).values[1, 0]
                      for i in range(4000)])
    se = draws.std(ddof=1) ** 2 * np.sqrt(2.0 / (len(draws) - 1))
    assert abs(np.var(draws, ddof=1) - 3.0) <= 3.0 * se


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 + 3])
def test_seed_outside_u64_is_rejected(seed):
    # a seed is not wrapped mod 2^64: -1 would draw the stream of 2^64 - 1,
    # and 2^64 that of 0
    drift = StableDrift(np.eye(2), J)
    for draw in (lambda: sample_bm(1.0, 4, 1, seed=seed),
                 lambda: sample_fbm(seed=seed, H=0.4, n=4),
                 lambda: sample_physical(drift, 1.0, 1.0, 64, seed)):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            draw()


def test_seed_range_ends_are_distinct_streams():
    assert np.any(sample_bm(1.0, 4, 1, seed=0).values
                  != sample_bm(1.0, 4, 1, seed=2 ** 64 - 1).values)


def test_bm_determinism():
    a = sample_bm(1.0, 16, 2, seed=123)
    b = sample_bm(1.0, 16, 2, seed=123)
    assert np.all(a.values == b.values)
    c = sample_bm(1.0, 16, 2, seed=124)
    assert np.any(c.values != a.values)


# ----------------------------------------------------------------- sample_fbm

def test_fbm_spec_validation():
    for H in (1.2, 1.0, 0.0, -0.3):
        with pytest.raises(ValueError, match=r"H must lie in \(0, 1\)"):
            sample_fbm(seed=0, H=H, n=4)
    for n, d in ((0, 1), (-1, 1), (4, 0)):
        with pytest.raises(ValueError, match="n and d must be >= 1"):
            sample_fbm(seed=0, H=0.4, n=n, d=d)
    for T in (0.0, -1.0):
        with pytest.raises(ValueError, match="T must be positive"):
            sample_fbm(seed=0, H=0.4, n=4, T=T)


def test_fbm_h_half_methods_agree_pathwise():
    # both methods consume the same normals; at H = 1/2 the covariance is
    # diagonal and they reduce to the same map
    for seed in (0, 1, 2):
        spec = dict(seed=seed, H=0.5, n=64, d=2)
        a, b = sample_fbm(**spec), sample_fbm_cholesky(**spec)
        assert np.abs(a.values - b.values).max() <= 1e-10


def test_fbm_determinism():
    spec = dict(seed=77, H=0.3, n=32, d=2)
    assert np.all(sample_fbm(**spec).values == sample_fbm(**spec).values)


def test_fbm_increment_autocov_lag1():
    # gamma(1) = (1/2) n^{-2H} (2^{2H} - 2) at H = 0.25, n = 64
    H, n = 0.25, 64
    expected = 0.5 * n ** (-0.5) * (2.0 ** 0.5 - 2.0)
    assert abs(fgn_autocov(1, H, 1.0 / n) - expected) <= 1e-15
    prods = []
    for i in range(20000):
        v = sample_fbm(seed=derive_seed(3, i), H=H, n=n).values[:, 0]
        inc = np.diff(v)
        prods.append(np.mean(inc[:-1] * inc[1:]))
    prods = np.asarray(prods)
    se = prods.std(ddof=1) / np.sqrt(len(prods))
    assert abs(prods.mean() - expected) <= 3.0 * se


def test_fbm_terminal_variance_unit():
    # R(1,1) = 1 for every H
    draws = np.array([sample_fbm(seed=derive_seed(5, i), H=0.4, n=8).values[-1, 0]
                      for i in range(20000)])
    sq = draws ** 2
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - 1.0) <= 3.0 * se


def test_fbm_increment_stationarity():
    # sample autocovariance at fixed lag must not depend on position
    H, n, trials = 0.35, 16, 30000
    acc = np.zeros((trials, 3))
    for i in range(trials):
        v = sample_fbm(seed=derive_seed(8, i), H=H, n=n).values[:, 0]
        inc = np.diff(v)
        acc[i] = [inc[1] * inc[3], inc[6] * inc[8], inc[12] * inc[14]]
    means = acc.mean(axis=0)
    ses = acc.std(axis=0, ddof=1) / np.sqrt(trials)
    expected = fgn_autocov(2, H, 1.0 / n)
    assert np.all(np.abs(means - expected) <= 3.0 * ses)


def test_fbm_negative_embedding_raises(monkeypatch):
    # lags 0 and +-1 only: circulant eigenvalues 1 + 2 cos(pi j / n), down to -1
    monkeypatch.setattr(gauss, "fgn_autocov", lambda k, H: (np.abs(k) <= 1).astype(float))
    with pytest.raises(ValueError, match="negative embedding eigenvalue"):
        sample_fbm(seed=5, H=0.4, n=16)


@pytest.mark.parametrize("H", [0.26, 0.3, 0.35, 0.4, 0.45, 0.5])
def test_fgn_embedding_eigenvalues_nonnegative(H):
    # the minimal circulant embedding sample_fbm uses, at every n = 2^k <= 2^16:
    # its real half-spectrum has no negative eigenvalue, so nothing is clipped
    # and the roots are the exact square roots
    for k in range(17):
        n = 2 ** k
        g = gauss._embedding_eigenvalues(n, H)
        assert g.shape == (n + 1,) and g.min() >= 0.0, (H, n)
        assert np.array_equal(gauss.embedding_root(n, H), np.sqrt(g)), (H, n)


@pytest.mark.parametrize("H", [0.26, 0.3, 0.4, 0.45, 0.5])
@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 2 ** 12, 2 ** 16])
@pytest.mark.parametrize("d", [1, 3])
def test_fbm_matches_complex_fft_oracle(H, n, d):
    spec = dict(seed=derive_seed(61, n, d), H=H, n=n, d=d)
    path, want = sample_fbm(**spec), sample_fbm_complex_fft(**spec)
    assert np.array_equal(path.times, want.times)
    assert np.all(path.values[0] == 0.0)
    assert np.abs(path.values - want.values).max() <= 1e-12 * np.abs(want.values).max()


def test_embedding_root_is_read_only():
    root = gauss.embedding_root(8, 0.4)
    with pytest.raises(ValueError, match="read-only"):
        root[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        root *= 2.0


def test_fbm_given_root_draws_the_same_bits():
    # a root built once and passed in gives each (n, H) the draw that builds
    # its own root, bit for bit; a root of another n is rejected
    for n, H in [(16, 0.4), (17, 0.4), (16, 0.3), (16, 0.4 + 2 ** -40)]:
        spec = dict(seed=7, H=H, n=n, d=2)
        got = sample_fbm(**spec, root=gauss.embedding_root(n, H)).values
        assert got.tobytes() == sample_fbm(**spec).values.tobytes()
        want = sample_fbm_complex_fft(**spec).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    with pytest.raises(ValueError, match="root must have shape"):
        sample_fbm(seed=7, H=0.4, n=16, root=gauss.embedding_root(17, 0.4))


def test_fbm_threads_sharing_a_root_agree():
    # more threads than cores draw through one root, with frequent switches
    spec = dict(seed=19, H=0.35, n=2 ** 14, d=2)
    root = gauss.embedding_root(spec["n"], spec["H"])
    workers = 4
    barrier = threading.Barrier(workers, timeout=30)
    out = [None] * workers

    def draw(i):
        barrier.wait()
        out[i] = sample_fbm(**spec, root=root).values.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert out[0] is not None and all(o == out[0] for o in out)
    assert out[0] == sample_fbm(**spec).values.tobytes()


def test_fbm_general_horizon_scaling():
    # Var(X_T) = T^{2H} via self-similar increment scaling
    H, T = 0.35, 2.0
    draws = np.array([sample_fbm(seed=derive_seed(37, i), H=H, n=1, T=T).values[-1, 0]
                      for i in range(20000)])
    sq = draws ** 2
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - T ** (2 * H)) <= 3.0 * se


def test_fbm_cholesky_same_law_moments():
    H, n, trials = 0.3, 16, 20000
    term = np.empty((trials, 2))
    for i in range(trials):
        s = derive_seed(13, i)
        spec = dict(seed=s, H=H, n=n)
        term[i, 0] = sample_fbm(**spec).values[-1, 0]
        term[i, 1] = sample_fbm_cholesky(**spec).values[-1, 0]
    sq = term ** 2
    ses = sq.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(sq.mean(axis=0) - 1.0) <= 3.0 * ses)


# ------------------------------------------------------------- sample_physical

def test_physical_step_rule_rejection():
    drift = StableDrift(np.eye(2), 10.0 * J)
    n_req = required_steps(drift, 0.1, 1.0)
    with pytest.raises(ValueError) as err:
        sample_physical(drift, 0.1, 1.0, n_req - 1, seed=0)
    assert str(n_req) in str(err.value)
    sample_physical(drift, 0.1, 1.0, n_req, seed=0)  # boundary accepted


def test_physical_determinism():
    drift = StableDrift(np.eye(2), 2.0 * J)
    a = sample_physical(drift, 0.5, 1.0, 256, seed=31)
    b = sample_physical(drift, 0.5, 1.0, 256, seed=31)
    assert np.all(a[0].values == b[0].values) and np.all(a[1].values == b[1].values)


def test_physical_zero_start_and_mean():
    drift = StableDrift(np.eye(1), np.zeros((1, 1)))
    terminal = []
    for i in range(3000):
        P, W = sample_physical(drift, 0.4, 1.0, 64, seed=derive_seed(17, i))
        assert P.values[0, 0] == 0.0 and W.values[0, 0] == 0.0
        terminal.append(P.values[-1, 0])
    terminal = np.asarray(terminal)
    se = terminal.std(ddof=1) / np.sqrt(len(terminal))
    assert abs(terminal.mean()) <= 3.0 * se


def test_physical_stationary_variance():
    # Var(P_T) -> eps^2 C_ii for T >> eps^2
    eps = 0.3
    drift = StableDrift(np.eye(2), 4.0 * J)
    C = lyapunov_C(drift)
    vals = np.empty((4000, 2))
    for i in range(4000):
        P, _ = sample_physical(drift, eps, 1.0, 512, seed=derive_seed(23, i))
        vals[i] = P.values[-1]
    sq = vals ** 2
    ses = sq.std(axis=0, ddof=1) / np.sqrt(len(sq))
    assert np.all(np.abs(sq.mean(axis=0) - eps ** 2 * np.diag(C)) <= 3.0 * ses)


def test_physical_cross_covariance_scalar():
    # d=1, M=1: Cov(P_h, W_h) = eps^2 (1 - e^{-h/eps^2})
    eps, T, N = 1.0, 0.5, 64
    drift = StableDrift(np.eye(1), np.zeros((1, 1)))
    prods = []
    for i in range(8000):
        P, W = sample_physical(drift, eps, T, N, seed=derive_seed(29, i))
        prods.append(P.values[-1, 0] * W.values[-1, 0])
    prods = np.asarray(prods)
    expected = eps ** 2 * (1.0 - np.exp(-T / eps ** 2))
    se = prods.std(ddof=1) / np.sqrt(len(prods))
    assert abs(prods.mean() - expected) <= 3.0 * se


def test_physical_halving_h_consistency():
    # transitions are exact in law, so on the grids of h and h/2 alike the
    # terminal variances are the closed form: eps^2 C_{T/eps^2} for P and T
    # for W (the exact two-half-steps identity is in test_linstable)
    eps, T = 0.5, 1.0
    drift = StableDrift(np.eye(2), 1.0 * J)
    exact = np.concatenate([eps ** 2 * np.diag(finite_cov_quadrature(drift.M, T / eps ** 2)),
                            [T, T]])
    trials = 4000
    for N in (128, 256):
        vals = np.empty((trials, 4))
        for i in range(trials):
            P, W = sample_physical(drift, eps, T, N, seed=derive_seed(200 + N, i))
            vals[i] = np.concatenate([P.values[-1], W.values[-1]])
        se = (vals ** 2).std(axis=0, ddof=1) / np.sqrt(trials)
        assert np.all(np.abs(vals.var(axis=0, ddof=1) - exact) <= 3.0 * se), N


# N = one block minus/plus one and a ragged third block
@pytest.mark.parametrize("N", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 5])
def test_physical_blocks_match_whole_draw(N):
    drift = StableDrift(np.eye(2), 2.0 * J)
    P, W = sample_physical(drift, 8.0, 1.0, N, seed=N)
    times, P_want, W_want = physical_whole_draw(drift, 8.0, 1.0, N, seed=N)
    assert np.array_equal(P.times, times) and np.array_equal(W.times, times)
    assert np.array_equal(P.values, P_want) and np.array_equal(W.values, W_want)


def test_physical_memory_bounded_by_block():
    # beyond P, W and the times the sampler keeps O(ROW_BLOCK) rows (1 MiB
    # measured); a whole-grid draw keeps 40 MiB more here
    N, d = 2 ** 20, 2
    drift = StableDrift(np.eye(d), J)
    out_bytes = (N + 1) * (2 * d + 1) * 8
    tracemalloc.start()
    try:
        sample_physical(drift, 0.5, 1.0, N, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < out_bytes + 4 * 2 ** 20


# ---------------------------------------------------------------- OU recursion

def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def ou_lengths(d):
    """N = 1, 2, 3 and 97; one scan block s at s - 1, s, s + 1 and s^2 (two
    levels); a chunk at ROW_BLOCK - 1, ROW_BLOCK and ROW_BLOCK + 1 (the
    first carry); and a ragged third chunk."""
    s = max(2, SCAN_WIDTH // d)
    return (1, 2, 3, 97, s - 1, s, s + 1, s * s,
            ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 5)


def ou_maps():
    """Mean maps E = exp(-M r) of random stable drifts (d <= 5) at step
    ratios r from 1e-3 to 3, a Jordan block, and E = 0 (fully relaxed)."""
    rng = np.random.default_rng(41)
    for k, drift in enumerate(random_stable_drifts(rng, n_drifts=20, max_dim=5)):
        r = 10.0 ** rng.uniform(-3.0, 0.5)
        yield f"drift{k}-d{drift.dim}", ou_joint_transition(drift, 1.0, r).meanMap
    yield "jordan", np.array([[0.9, 1.0], [0.0, 0.9]])
    yield "relaxed", ou_joint_transition(StableDrift(np.eye(2), J), 1e-3, 1.0).meanMap


def test_ou_recursion_matches_oracles():
    # from a zero start on short grids and a nonzero carried P_0 on all; the
    # eigendecomposition falls back to the loop for the Jordan block, so a
    # non-normal E meets the loop at every length
    rng = np.random.default_rng(43)
    for name, E in ou_maps():
        assert name != "relaxed" or not np.any(E)
        d = E.shape[0]
        for N in ou_lengths(d):
            xi = rng.standard_normal((N, d))
            p0 = np.zeros(d) if N <= 3 else rng.standard_normal(d)
            P = ou_scan_chunks(E, xi, p0)
            assert P.shape == (N + 1, d) and np.array_equal(P[0], p0)
            assert rel_err(P, ou_recursion_eig(E, xi, p0)) <= 1e-12, (name, N)
            if N < ROW_BLOCK - 1:  # at chunk lengths the loop takes seconds
                assert rel_err(P, ou_recursion_loop(E, xi, p0)) <= 1e-12, (name, N)


def test_ou_scan_at_largest_dimension():
    # d = 74, the largest a config accepts, scans in blocks of s = 2: 15
    # levels on a whole chunk, and a carry into a second chunk
    from scipy.linalg import expm

    d = 74
    rng = np.random.default_rng(47)
    B = rng.standard_normal((d, d))
    E = expm(-0.05 * (np.eye(d) + B - B.T))
    assert len(_scan_levels(E, ROW_BLOCK)) == 15
    xi = rng.standard_normal((ROW_BLOCK + 3, d))
    p0 = rng.standard_normal(d)
    assert rel_err(ou_scan_chunks(E, xi, p0), ou_recursion_loop(E, xi, p0)) <= 1e-12


# -------------------------------------------------------------------- derive_Z

def test_derive_Z_identities():
    drift = StableDrift(np.eye(2), 2.0 * J)
    P, W = sample_physical(drift, 0.5, 1.0, 128, seed=3)
    Z = derive_Z(P, W)
    # identity Z + P = W up to one rounding of the subtraction
    scale = np.abs(W.values).max()
    assert np.abs(Z.values + P.values - W.values).max() <= 4 * np.finfo(float).eps * scale
    assert np.all(Z.values[0] == 0.0)
    zeroP = GridPath(W.times, np.zeros_like(W.values))
    assert np.all(derive_Z(zeroP, W).values == W.values)
    with pytest.raises(ValueError):
        derive_Z(P, GridPath(W.times[:64], W.values[:64] - W.values[0]))


def test_derive_Z_into_out():
    drift = StableDrift(np.eye(2), 2.0 * J)
    P, W = sample_physical(drift, 0.5, 1.0, 128, seed=4)
    fresh = derive_Z(P, W)
    out = np.full_like(P.values, np.nan)
    assert derive_Z(P, W, out=out).values is out
    assert out.tobytes() == fresh.values.tobytes()
    for bad in (np.empty((128, 2)), np.empty((129, 3)), np.empty((129, 2), dtype=np.float32)):
        with pytest.raises(ValueError, match="out"):
            derive_Z(P, W, out=bad)
    # over P itself, as the magnetic trial writes it
    Z = derive_Z(P, W, out=P.values)
    assert Z.values is P.values
    assert Z.values.tobytes() == fresh.values.tobytes()
