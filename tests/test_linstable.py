from dataclasses import replace

import numpy as np
import pytest

from roughlift import (MagneticConfig, StableDrift, lyapunov_C, mat_exp, ou_joint_transition,
                       partial_C, renorm_v)
from roughlift.identities import lyapunov_suite, random_stable_drifts
from roughlift.magnetic import drift_at, fine_grid_n

from oracles import (finite_cov_quadrature, ou_euler_maruyama, ou_joint_transition_lyapunov,
                     stationary_cov_quadrature)

J = np.array([[0.0, -1.0], [1.0, 0.0]])


# --------------------------------------------------------------- StableDrift

def test_drift_validation():
    with pytest.raises(ValueError):
        StableDrift(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 2)))  # not sym
    with pytest.raises(ValueError):
        StableDrift(np.eye(2), np.eye(2))  # not antisym
    with pytest.raises(ValueError):
        StableDrift(-np.eye(2), np.zeros((2, 2)))  # unstable


def test_drift_margin_bounded_by_friction_spectrum():
    rng = np.random.default_rng(0)
    for drift in random_stable_drifts(rng, 40):
        assert drift.lam >= np.min(np.linalg.eigvalsh(drift.A)) - 1e-10
    # equality when A is a multiple of the identity
    drift = StableDrift(2.5 * np.eye(2), 800.0 * J)
    assert abs(drift.lam - 2.5) <= 1e-10


# ------------------------------------------------------------------- mat_exp

def test_mat_exp_zero():
    assert np.abs(mat_exp(np.zeros((3, 3))) - np.eye(3)).max() == 0.0


def test_mat_exp_diagonal():
    got = mat_exp(np.diag([1.0, 2.0]))
    assert np.abs(got - np.diag([np.e, np.e ** 2])).max() <= 1e-13 * np.e ** 2


def test_mat_exp_rotation_closed_form():
    # normal matrix: e^{-(I - bJ)} = e^{-1} R(b) with R a rotation by b
    b = 3.0
    expected = np.exp(-1.0) * np.array([[np.cos(b), -np.sin(b)],
                                        [np.sin(b), np.cos(b)]])
    got = mat_exp(-(np.eye(2) - b * J))
    assert np.abs(got - expected).max() <= 1e-13


def test_mat_exp_rejects_nonfinite():
    with pytest.raises(ValueError):
        mat_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))


# ---------------------------------------------------------------- lyapunov_C

def test_lyapunov_identity_drift():
    C = lyapunov_C(StableDrift(np.eye(2), np.zeros((2, 2))))
    assert np.abs(C - 0.5 * np.eye(2)).max() <= 1e-13


def test_lyapunov_magnetic_drift_quadrature_oracle():
    for b in (0.5, 4.0, 64.0):
        drift = StableDrift(np.eye(2), b * J)
        oracle = stationary_cov_quadrature(drift.M)
        assert np.abs(oracle - 0.5 * np.eye(2)).max() <= 1e-9
        assert np.abs(lyapunov_C(drift) - 0.5 * np.eye(2)).max() <= 1e-12


def test_lyapunov_diagonal_drift():
    drift = StableDrift(np.diag([0.5, 3.0]), np.zeros((2, 2)))
    C = lyapunov_C(drift)
    assert np.abs(C - np.diag([1.0, 1.0 / 6.0])).max() <= 1e-13


def test_lyapunov_random_drift_vs_quadrature():
    rng = np.random.default_rng(21)
    for drift in random_stable_drifts(rng, 5, max_dim=4, max_b_norm=10.0):
        oracle = stationary_cov_quadrature(drift.M)
        assert np.abs(lyapunov_C(drift) - oracle).max() <= 1e-8


def test_lyapunov_residual_contract():
    for check in lyapunov_suite(n_drifts=100, seed=1):
        assert check.passed, f"{check.name}: {check.max_err:g} > {check.tol:g}"


# ------------------------------------------------------------------ renorm_v

def test_renorm_v_symmetric_drift_vanishes():
    v = renorm_v(StableDrift(np.diag([1.0, 2.0, 0.4]), np.zeros((3, 3))))
    assert np.abs(v.v).max() <= 1e-12


def test_renorm_v_magnetic_closed_form():
    for b in (1.0, 2.0, 4.0, 8.0, 16.0):
        v = renorm_v(StableDrift(np.eye(2), b * J))
        assert np.abs(v.v - 0.5 * b * J).max() <= 1e-10


def test_renorm_v_grows_linearly_with_field():
    norms = [renorm_v(StableDrift(np.eye(2), 2.0 ** k * J)).norm for k in range(8)]
    ratios = np.array(norms[1:]) / np.array(norms[:-1])
    assert np.abs(ratios - 2.0).max() <= 1e-9


# ----------------------------------------------------------------- partial_C

def test_partial_C_zero():
    drift = StableDrift(np.eye(2), 3.0 * J)
    assert np.abs(partial_C(drift, 0.0)).max() == 0.0
    with pytest.raises(ValueError):
        partial_C(drift, -1.0)


def test_partial_C_scalar():
    drift = StableDrift(np.eye(1), np.zeros((1, 1)))
    for r in (0.1, 1.0, 5.0):
        assert abs(partial_C(drift, r)[0, 0] - 0.5 * (1 - np.exp(-2 * r))) <= 1e-14


def test_partial_C_random_vs_quadrature():
    rng = np.random.default_rng(31)
    for drift in random_stable_drifts(rng, 4, max_dim=3, max_b_norm=5.0):
        oracle = finite_cov_quadrature(drift.M, 1.0)
        assert np.abs(partial_C(drift, 1.0) - oracle).max() <= 1e-8


def test_partial_C_monotone_to_limit():
    rng = np.random.default_rng(41)
    drift = next(random_stable_drifts(rng, 1, max_dim=3, max_b_norm=20.0))
    C = lyapunov_C(drift)
    traces = [np.trace(partial_C(drift, r)) for r in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
    assert np.all(np.diff(traces) > -1e-12)
    for r in (2.0, 5.0):
        gap = np.linalg.norm(partial_C(drift, r) - C)
        assert gap <= 20.0 * np.linalg.norm(C) * np.exp(-2 * drift.lam * r)
    assert np.abs(partial_C(drift, 1e6) - C).max() <= 1e-12


# --------------------------------------------------------- ou_joint_transition

def test_ou_transition_stationary_limit():
    drift = StableDrift(np.eye(1), np.zeros((1, 1)))
    trans = ou_joint_transition(drift, 1.0, 1e4)
    assert abs(trans.covPP[0, 0] - 0.5) <= 1e-12
    assert np.abs(trans.meanMap).max() <= 1e-12


def test_ou_transition_small_h_taylor():
    # oracle: second-order Taylor of the scalar formulas at h = 0.01
    h = 0.01
    covPP_taylor = h - h ** 2 + 2.0 * h ** 3 / 3.0
    covPW_taylor = h - h ** 2 / 2.0 + h ** 3 / 6.0
    drift = StableDrift(np.eye(1), np.zeros((1, 1)))
    trans = ou_joint_transition(drift, 1.0, h)
    # third-order truncation: remainder is h^4/3 resp. h^4/24
    assert abs(trans.covPP[0, 0] - covPP_taylor) <= h ** 4 / 2.0
    assert abs(trans.covPW[0, 0] - covPW_taylor) <= h ** 4 / 10.0
    assert abs(trans.covWW[0, 0] - h) == 0.0


def test_ou_transition_psd_and_shapes():
    drift = StableDrift(np.eye(2), 30.0 * J)
    trans = ou_joint_transition(drift, 0.1, 0.02)
    L = trans.noise_factor()
    assert np.abs(L @ L.T - trans.joint_cov()).max() <= 1e-12
    with pytest.raises(ValueError):
        ou_joint_transition(drift, 0.0, 0.1)
    with pytest.raises(ValueError):
        ou_joint_transition(drift, 0.1, 0.0)


def test_ou_transition_vs_euler_maruyama():
    # oracle: fine Euler-Maruyama, 10^6 aggregate fine steps
    rng = np.random.default_rng(51)
    drift = StableDrift(np.array([[1.0, 0.2], [0.2, 0.8]]), 0.7 * J)
    eps, h = 0.8, 0.3
    trans = ou_joint_transition(drift, eps, h)
    n_paths, n_steps = 5000, 200
    p0 = np.array([0.5, -0.25])
    P, W = ou_euler_maruyama(drift.M, eps, h, n_steps, n_paths, rng, p0=p0)
    mean_exact = trans.meanMap @ p0
    se_mean = P.std(axis=0, ddof=1) / np.sqrt(n_paths)
    assert np.all(np.abs(P.mean(axis=0) - mean_exact) <= 3.0 * se_mean + 1e-3)
    Pc = P - P.mean(axis=0)
    Wc = W - W.mean(axis=0)
    covPP = Pc.T @ Pc / (n_paths - 1)
    covPW = Pc.T @ Wc / (n_paths - 1)
    # s.e. of a covariance estimate ~ sqrt(var1*var2 + cov^2)/sqrt(n)
    def cov_se(X, Y):
        prods = X[:, :, None] * Y[:, None, :]
        return prods.std(axis=0, ddof=1) / np.sqrt(n_paths)
    assert np.all(np.abs(covPP - trans.covPP) <= 3.0 * cov_se(Pc, Pc) + 2e-3)
    assert np.all(np.abs(covPW - trans.covPW) <= 3.0 * cov_se(Pc, Wc) + 2e-3)


def rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def transition_drifts():
    """A = I, B = bJ over four decades of b, and 100 random drifts with
    |B| <= 30 (with |B| up to 1e3 the old route and this one both reach
    2e-12 on the two-half-steps identity at r = 0.03)."""
    yield from (StableDrift(np.eye(2), b * J) for b in (0.0, 1.0, 11.3, 100.0, 1000.0))
    yield from random_stable_drifts(np.random.default_rng(61), 100, max_b_norm=30.0)


@pytest.mark.parametrize("r", [1e-10, 1e-8, 1e-6, 1e-3, 0.03, 1.0, 10.0])
def test_ou_transition_two_half_steps(r):
    # Chapman-Kolmogorov: one step of r is two steps of r / 2, exactly
    for drift in transition_drifts():
        full = ou_joint_transition(drift, 1.0, r)
        half = ou_joint_transition(drift, 1.0, r / 2)
        E = half.meanMap
        # E also carries the rounding of the exponential itself, which
        # grows with |Mr| (5.5e-13 relative on e^{-4} at d = 1)
        assert rel_err(full.meanMap, E @ E) <= 1e-12 * max(1.0, np.linalg.norm(drift.M, 1) * r)
        assert rel_err(full.covPP, E @ half.covPP @ E.T + half.covPP) <= 1e-12
        assert rel_err(full.covPW, E @ half.covPW + half.covPW) <= 1e-12


def test_ou_transition_matches_lyapunov_route():
    # where C - E C E^T and M^{-1} (I - E) do not cancel: 1e-3 <= r, lam r <= 350
    # (up to 349 / lam: at 350 / lam the oracle's relaxed branch may fire by rounding)
    for drift in transition_drifts():
        for r in (1e-3, 0.03, 1.0, 10.0, 349.0 / drift.lam):
            new = ou_joint_transition(drift, 1.0, r)
            old = ou_joint_transition_lyapunov(drift, 1.0, r)
            for field in ("meanMap", "covPP", "covPW"):
                assert rel_err(getattr(new, field), getattr(old, field)) <= 1e-12, (field, r)


@pytest.mark.parametrize("r", [1e6, 1e100, 1e300])
def test_ou_transition_fully_relaxed(r):
    eps = 0.5
    for drift in transition_drifts():
        trans = ou_joint_transition(drift, eps, eps ** 2 * r)
        assert np.all(trans.meanMap == 0.0)
        assert np.all(np.isfinite(trans.covPP)) and np.all(np.isfinite(trans.covPW))
        assert rel_err(trans.covPP, eps ** 2 * lyapunov_C(drift)) <= 1e-12


@pytest.mark.parametrize("k", [2, 7])
def test_noise_factor_continuous_in_covariance_bits(k):
    # the shipped joint covariances have eigenvalues in equal pairs; one ulp
    # on covPP at a magnetic fine step moves the symmetric root by rounding
    eps = 2.0 ** -k
    cfg = MagneticConfig(A=np.eye(2), B0=J, beta=0.5, eps_schedule=(eps,))
    trans = ou_joint_transition(drift_at(cfg, eps), eps, cfg.T / fine_grid_n(cfg, eps))
    L = trans.noise_factor()
    nudged = replace(trans, covPP=np.nextafter(trans.covPP, np.inf)).noise_factor()
    assert np.abs(nudged - L).max() <= 1e-13 * np.abs(L).max()
