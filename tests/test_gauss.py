import numpy as np
import pytest

from roughlift import (SamplerSpec, StableDrift, derive_seed, derive_Z, fgn_autocov,
                       lyapunov_C, required_steps, sample_bm, sample_fbm,
                       sample_physical)
from roughlift.gauss import GridPath, float_index

J = np.array([[0.0, -1.0], [1.0, 0.0]])


# ---------------------------------------------------------------- seed split

def test_derive_seed_deterministic_and_distinct():
    seeds = {derive_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert derive_seed(42, 7) == derive_seed(42, 7)
    assert derive_seed(42, 7) != derive_seed(43, 7)
    assert derive_seed(42, float_index(0.5), 3) != derive_seed(42, float_index(0.25), 3)


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


def test_bm_determinism():
    a = sample_bm(1.0, 16, 2, seed=123)
    b = sample_bm(1.0, 16, 2, seed=123)
    assert np.all(a.values == b.values)
    c = sample_bm(1.0, 16, 2, seed=124)
    assert np.any(c.values != a.values)


# ----------------------------------------------------------------- sample_fbm

def test_fbm_spec_validation():
    with pytest.raises(ValueError):
        SamplerSpec(seed=0, H=1.2, n=4)
    with pytest.raises(ValueError):
        SamplerSpec(seed=0, H=0.4, n=0)
    with pytest.raises(ValueError):
        SamplerSpec(seed=0, H=0.4, n=4, method="exact")


def test_fbm_h_half_methods_agree_pathwise():
    # both methods consume the same normals; at H = 1/2 the covariance is
    # diagonal and they reduce to the same map
    for seed in (0, 1, 2):
        a = sample_fbm(SamplerSpec(seed=seed, H=0.5, n=64, d=2, method="circulant"))
        b = sample_fbm(SamplerSpec(seed=seed, H=0.5, n=64, d=2, method="cholesky"))
        assert np.abs(a.values - b.values).max() <= 1e-10
    assert a.method == "circulant" and b.method == "cholesky"


def test_fbm_determinism():
    spec = SamplerSpec(seed=77, H=0.3, n=32, d=2)
    assert np.all(sample_fbm(spec).values == sample_fbm(spec).values)


def test_fbm_increment_autocov_lag1():
    # gamma(1) = (1/2) n^{-2H} (2^{2H} - 2) at H = 0.25, n = 64
    H, n = 0.25, 64
    expected = 0.5 * n ** (-0.5) * (2.0 ** 0.5 - 2.0)
    assert abs(fgn_autocov(1, H, 1.0 / n) - expected) <= 1e-15
    prods = []
    for i in range(20000):
        v = sample_fbm(SamplerSpec(seed=derive_seed(3, i), H=H, n=n)).values[:, 0]
        inc = np.diff(v)
        prods.append(np.mean(inc[:-1] * inc[1:]))
    prods = np.asarray(prods)
    se = prods.std(ddof=1) / np.sqrt(len(prods))
    assert abs(prods.mean() - expected) <= 3.0 * se


def test_fbm_terminal_variance_unit():
    # R(1,1) = 1 for every H
    draws = np.array([sample_fbm(SamplerSpec(seed=derive_seed(5, i), H=0.4, n=8)).values[-1, 0]
                      for i in range(20000)])
    sq = draws ** 2
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - 1.0) <= 3.0 * se


def test_fbm_increment_stationarity():
    # sample autocovariance at fixed lag must not depend on position
    H, n, trials = 0.35, 16, 30000
    acc = np.zeros((trials, 3))
    for i in range(trials):
        v = sample_fbm(SamplerSpec(seed=derive_seed(8, i), H=H, n=n)).values[:, 0]
        inc = np.diff(v)
        acc[i] = [inc[1] * inc[3], inc[6] * inc[8], inc[12] * inc[14]]
    means = acc.mean(axis=0)
    ses = acc.std(axis=0, ddof=1) / np.sqrt(trials)
    expected = fgn_autocov(2, H, 1.0 / n)
    assert np.all(np.abs(means - expected) <= 3.0 * ses)


def test_fbm_negative_embedding_raises(monkeypatch):
    import roughlift.gauss as gauss

    # lags 0 and +-1 only: circulant eigenvalues 1 + 2 cos(pi j / n), down to -1
    monkeypatch.setattr(gauss, "fgn_autocov", lambda k, H: (np.abs(k) <= 1).astype(float))
    with pytest.raises(ValueError, match="negative embedding eigenvalue"):
        sample_fbm(SamplerSpec(seed=5, H=0.4, n=16, method="circulant"))


@pytest.mark.parametrize("H", [0.26, 0.3, 0.35, 0.4, 0.45, 0.5])
def test_fgn_embedding_eigenvalues_nonnegative(H):
    # the minimal circulant embedding sample_fbm uses, at every n = 2^k <= 2^16
    for k in range(17):
        n = 2 ** k
        lags = np.concatenate([np.arange(n), np.arange(n, 0, -1)])
        assert np.fft.fft(fgn_autocov(lags, H)).real.min() >= 0.0, (H, n)


def test_fbm_general_horizon_scaling():
    # Var(X_T) = T^{2H} via self-similar increment scaling
    H, T = 0.35, 2.0
    draws = np.array([sample_fbm(SamplerSpec(seed=derive_seed(37, i), H=H, n=1, T=T)).values[-1, 0]
                      for i in range(20000)])
    sq = draws ** 2
    se = sq.std(ddof=1) / np.sqrt(len(sq))
    assert abs(sq.mean() - T ** (2 * H)) <= 3.0 * se


def test_fbm_cholesky_same_law_moments():
    H, n, trials = 0.3, 16, 20000
    term = np.empty((trials, 2))
    for i in range(trials):
        s = derive_seed(13, i)
        term[i, 0] = sample_fbm(SamplerSpec(seed=s, H=H, n=n, method="circulant")).values[-1, 0]
        term[i, 1] = sample_fbm(SamplerSpec(seed=s, H=H, n=n, method="cholesky")).values[-1, 0]
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
    # transitions are exact in law, so refining the grid moves terminal
    # statistics by Monte Carlo noise only
    eps = 0.5
    drift = StableDrift(np.eye(2), 1.0 * J)
    trials = 4000
    stats = {}
    for N, tag in ((128, "h"), (256, "h/2")):
        vals = np.empty((trials, 4))
        for i in range(trials):
            P, W = sample_physical(drift, eps, 1.0, N, seed=derive_seed(200 + N, i))
            vals[i] = np.concatenate([P.values[-1], W.values[-1]])
        stats[tag] = (vals.var(axis=0, ddof=1),
                      (vals ** 2).std(axis=0, ddof=1) / np.sqrt(trials))
    diff = np.abs(stats["h"][0] - stats["h/2"][0])
    se = np.sqrt(stats["h"][1] ** 2 + stats["h/2"][1] ** 2)
    assert np.all(diff <= se)


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
