from dataclasses import replace

import numpy as np
import pytest

from roughlift import MagneticConfig, StableDrift, lyapunov_C, ou_joint_transition, renorm_v
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
    assert np.abs(v).max() <= 1e-12


def test_renorm_v_is_the_antisymmetric_part_array():
    # the plain (d, d) array 0.5 (v - v^T) of v = -1/2 (M C - C M^T), bit for bit
    rng = np.random.default_rng(3)
    for drift in random_stable_drifts(rng, 20):
        got = renorm_v(drift)
        C = lyapunov_C(drift)
        v = -0.5 * (drift.M @ C - C @ drift.M.T)
        want = 0.5 * (v - v.T)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_renorm_v_magnetic_closed_form():
    for b in (1.0, 2.0, 4.0, 8.0, 16.0):
        v = renorm_v(StableDrift(np.eye(2), b * J))
        assert np.abs(v - 0.5 * b * J).max() <= 1e-10


def test_renorm_v_grows_linearly_with_field():
    norms = [np.linalg.norm(renorm_v(StableDrift(np.eye(2), 2.0 ** k * J))) for k in range(8)]
    ratios = np.array(norms[1:]) / np.array(norms[:-1])
    assert np.abs(ratios - 2.0).max() <= 1e-9


# ------------------------------------------ finite-horizon covariance C_r

def partial_C(drift, r):
    # at eps = 1 the transition's covPP is C_r bit for bit
    return ou_joint_transition(drift, 1.0, r).covPP


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


# E = e^{-r} R(br), K = int_0^r e^{(-1 + ib) u} du (as re, im) and C_r =
# (1 - e^{-2r}) / 2 for A = I, B = bJ, from 50-digit mpmath
CLOSED_FORM_EK = {
    (0.0, 1e-10): (0.9999999999, 0.0, 9.999999999500001e-11, 0.0),
    (0.0, 1e-08): (0.9999999900000001, 0.0, 9.999999950000001e-09, 0.0),
    (0.0, 1e-06): (0.9999990000005, 0.0, 9.999995000001667e-07, 0.0),
    (0.0, 0.0001): (0.9999000049998333, 0.0, 9.999500016666251e-05, 0.0),
    (0.0, 0.01): (0.9900498337491681, 0.0, 0.009950166250831947, 0.0),
    (0.0, 0.1): (0.9048374180359595, 0.0, 0.09516258196404043, 0.0),
    (0.0, 1.0): (0.36787944117144233, 0.0, 0.6321205588285577, 0.0),
    (0.0, 10.0): (4.5399929762484854e-05, 0.0, 0.9999546000702375, 0.0),
    (0.0, 100.0): (3.720075976020836e-44, 0.0, 1.0, 0.0),
    (0.0, 349.0): (2.6991425138208544e-152, 0.0, 1.0, 0.0),
    (1.0, 1e-10): (0.9999999999, 9.999999999e-11, 9.999999999500001e-11, 4.999999999666667e-21),
    (1.0, 1e-08): (0.99999999, 9.9999999e-09, 9.999999950000001e-09, 4.999999966666667e-17),
    (1.0, 1e-06): (0.999999, 9.999990000003332e-07, 9.999995e-07, 4.9999966666675e-13),
    (1.0, 0.0001): (0.9999000000003333, 9.999000033333333e-05,
                    9.999500000000834e-05, 4.999666675e-09),
    (1.0, 0.01): (0.99000033167, 0.009900333330011096, 0.009950000830005556, 4.96674999944603e-05),
    (1.0, 0.1): (0.900316999845194, 0.09033301095242417, 0.09500800555361509, 0.00467499460119091),
    (1.0, 1.0): (0.19876611034641295, 0.3095598756531122, 0.5553968826533496, 0.24583700700023742),
    (1.0, 10.0): (-3.8093788485771706e-05, -2.4698520223686374e-05,
                  0.5000066976341311, 0.5000313961543548),
    (1.0, 100.0): (3.2078917204667926e-44, -1.8837186565748022e-44, 0.5, 0.5),
    (1.0, 349.0): (-2.5916137056918247e-152, -7.542603730711623e-153, 0.5, 0.5),
    (10.0, 1e-10): (0.9999999999, 9.999999999000001e-10,
                    9.999999999500001e-11, 4.999999999666667e-20),
    (10.0, 1e-08): (0.9999999899999951, 9.999999899999985e-08,
                    9.999999949999984e-09, 4.999999966666663e-16),
    (10.0, 1e-06): (0.9999989999505, 9.999989999838334e-06,
                    9.999994999835e-07, 4.99999666662625e-12),
    (10.0, 0.0001): (0.9998995050498725, 0.0009998998383498408,
                     9.999498350124662e-05, 4.999666262533013e-08),
    (10.0, 0.01): (0.9851037084132391, 0.09884005755380364,
                   0.00993363234777027, 0.0004962659238990588),
    (10.0, 0.1): (0.4888857434006028, 0.7613944332457533,
                  0.08044612464412802, 0.043066813195526917),
    (10.0, 1.0): (-0.30867716521951294, -0.20013418225944862,
                  -0.006858065914603696, 0.13155352311341167),
    (10.0, 10.0): (3.9149216234725994e-05, -2.298896454051866e-05,
                   0.009898326347904555, 0.09900625244358607),
    (10.0, 100.0): (2.092092891125833e-44, 3.0760547137962497e-44,
                    0.009900990099009901, 0.09900990099009901),
    (10.0, 349.0): (-2.570946255178618e-152, 8.219523483135758e-153,
                    0.009900990099009901, 0.09900990099009901),
    (100.0, 1e-10): (0.9999999999, 9.999999999e-09, 9.999999999500001e-11, 4.999999999666667e-19),
    (100.0, 1e-08): (0.9999999899995, 9.999999899998335e-07,
                     9.999999949998333e-09, 4.99999996666625e-15),
    (100.0, 1e-06): (0.999998995000505, 9.99998998333835e-05,
                     9.999994983335013e-07, 4.999996662501253e-11),
    (100.0, 0.0001): (0.9998500104162069, 0.00999883340083075,
                      9.999333363332346e-05, 4.999625015971738e-07),
    (100.0, 0.01): (0.5349262080990439, 0.8330982086138067,
                    0.008376651800148148, 0.00456697140100808),
    (100.0, 0.1): (-0.7592233159170215, -0.49225065733419227,
                   -0.004746109630787141, 0.017639694255478088),
    (100.0, 1.0): (0.3172293848487815, -0.18628150907987717,
                   -0.0017943585934243075, 0.006845649737446428),
    (100.0, 10.0): (2.5531970563489024e-05, 3.754027306218866e-05,
                    0.00010036281325224032, 0.009998741052161843),
    (100.0, 100.0): (-3.542090310899633e-44, -1.136908746029476e-44,
                     9.999000099990002e-05, 0.009999000099990002),
    (100.0, 349.0): (-2.6961350075845298e-152, -1.2738261573828755e-153,
                     9.999000099990002e-05, 0.009999000099990002),
    (1000.0, 1e-10): (0.999999999899995, 9.999999998999983e-08,
                      9.999999999499984e-11, 4.999999999666663e-18),
    (1000.0, 1e-08): (0.9999999899500001, 9.999999899833334e-06,
                      9.999999949833334e-09, 4.9999999666250005e-14),
    (1000.0, 1e-06): (0.9999985000010416, 0.0009999988333340083,
                      9.999993333336333e-07, 4.999996250001597e-10),
    (1000.0, 0.0001): (0.994904669836353, 0.09982343380431392,
                       9.982842930604826e-05, 4.995501734340992e-06),
    (1000.0, 0.01): (-0.8307226278658019, -0.5386080103920585,
                     -0.0005367767509874417, 0.0018312594046167893),
    (1000.0, 0.1): (0.7802583819244708, -0.4581785792838732,
                    -0.0004579583797074179, 0.00022019957645523657),
    (1000.0, 1.0): (0.20688770031233575, 0.3041919832870121,
                    0.00030498479060190914, 0.0007928073148970624),
    (1000.0, 10.0): (-4.322778684193217e-05, -1.3874871789931379e-05,
                     9.861673698295407e-07, 0.001000042241619472),
    (1000.0, 100.0): (-3.7176981311276787e-44, 1.3298824450732099e-45,
                      9.99999000001e-07, 0.000999999000001),
    (1000.0, 349.0): (2.4038819155557713e-152, 1.227486067529516e-152,
                      9.99999000001e-07, 0.000999999000001),
    (10000.0, 1e-10): (0.9999999998995, 9.999999998998334e-07,
                       9.999999999498333e-11, 4.99999999966625e-17),
    (10000.0, 1e-08): (0.9999999850000001, 9.999999883333335e-05,
                       9.999999933333334e-09, 4.9999999625e-13),
    (10000.0, 1e-06): (0.9999490004671648, 0.00999982333433833,
                       9.99982833429333e-07, 4.999955000173471e-09),
    (10000.0, 0.0001): (0.5402482783389744, 0.8413868419166304,
                        8.414328086744684e-05, 4.596675783801582e-05),
    (10000.0, 0.01): (0.8537386561471926, -0.5013272187970058,
                      -5.013125876494947e-05, 1.4631147511157234e-05),
    (10000.0, 0.1): (0.5088616313482861, 0.7481915484817661,
                     7.482406548362246e-05, 4.910635445862303e-05),
    (10000.0, 1.0): (-0.35027838478351525, -0.11242925059816206,
                     -1.1229422163674148e-05, 0.0001350289614205679),
    (10000.0, 10.0): (-4.5370910465075e-05, 1.6229929170228104e-06,
                      1.0162752899179402e-08, 0.00010000453607477122),
    (10000.0, 100.0): (3.4847890851224583e-44, -1.3020024191908233e-44,
                       9.9999999e-09, 9.999999900000001e-05),
    (10000.0, 349.0): (2.358512647048724e-154, -2.6990394683524975e-152,
                       9.9999999e-09, 9.999999900000001e-05),
}
CLOSED_FORM_C = {
    1e-10: 9.999999999e-11,
    1e-08: 9.9999999e-09,
    1e-06: 9.999990000006665e-07,
    0.0001: 9.999000066663334e-05,
    0.01: 0.00990066334662235,
    0.1: 0.09063462346100908,
    1.0: 0.43233235838169365,
    10.0: 0.4999999989694232,
    100.0: 0.5,
    349.0: 0.5,
}


def _as_rotation(re, im):
    return np.array([[re, -im], [im, re]])


def test_ou_transition_matches_closed_form():
    # tighter than scipy's expm route, which is off by 7.7e-9 on E at
    # b = 1e4, r = 100 and by 8.8e-11 on covPP at b = 1e4, r = 0.1
    for (b, r), (e_re, e_im, k_re, k_im) in CLOSED_FORM_EK.items():
        trans = ou_joint_transition(StableDrift(np.eye(2), b * J), 1.0, r)
        assert rel_err(trans.meanMap, _as_rotation(e_re, e_im)) <= 1e-10, (b, r)
        assert rel_err(trans.covPW, _as_rotation(k_re, k_im)) <= 1e-12, (b, r)
        assert rel_err(trans.covPP, CLOSED_FORM_C[r] * np.eye(2)) <= 2e-12, (b, r)


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
