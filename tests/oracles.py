"""Independent oracles used to derive expected test values.

Each one takes a route that does not share code with the implementation it
checks: direct segment integration instead of Chen products, quadrature
instead of Lyapunov solves, Euler-Maruyama instead of exact transitions,
the stationary covariance and a solve with M instead of the block
exponential of the OU transition, scipy's expm and LU factorisation instead
of the numpy Pade step and solves,
a per-row pair loop instead of the blocked Hoelder kernel, an
eigendecomposition, a plain loop and the earlier whole-grid sqrt(N)-block
scan instead of the per-chunk block-Toeplitz OU scan, and
whole-grid arrays instead of the row-blocked lift and noise draw; the
per-cell matmul lift and QV instead of the per-entry running sums; the
old lift, with level 1 a running sum of the increments, instead of its
closed form x_i - x_0 in the magnetic and lead-lag trials; full
lifts, one distance call each and a counter-term written out instead of
the lead-lag trial's strided lifts, single sweep and counter_terms; the
lead-lag residual assembled from fresh difference and half-QV arrays
instead of written block by block in place; a
complex FFT per component, with the embedding rebuilt on every call,
instead of the real-spectrum fGn map; and the Cholesky factor of
the fGn covariance instead of its circulant embedding.
"""
import math

import numpy as np
from scipy.integrate import quad_vec


def pl_iterated_integral(times, values):
    """int (x_r - x_0) (x) dx over the piecewise-linear path, by per-segment
    midpoint rule (exact: the integrand is linear on each segment)."""
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    inc = np.diff(x, axis=0)
    mid = 0.5 * (x[:-1] + x[1:]) - x[0]
    return np.einsum("nd,ne->de", mid, inc)


def stationary_cov_quadrature(M, tol=1e-12):
    """int_0^inf e^{-Ms} e^{-M^T s} ds by adaptive quadrature."""
    from scipy.linalg import expm

    def f(s):
        E = expm(-M * s)
        return E @ E.T

    lam = np.min(np.linalg.eigvals(M).real)
    upper = 60.0 / lam
    out, _ = quad_vec(f, 0.0, upper, epsabs=tol, epsrel=tol)
    return out


def finite_cov_quadrature(M, r, tol=1e-12):
    """int_0^r e^{-Mu} e^{-M^T u} du by adaptive quadrature."""
    from scipy.linalg import expm

    def f(u):
        E = expm(-M * u)
        return E @ E.T

    out, _ = quad_vec(f, 0.0, r, epsabs=tol, epsrel=tol)
    return out


def ou_euler_maruyama(M, eps, h, n_steps, n_paths, rng, p0=None):
    """Euler-Maruyama for dP = -(M/eps^2) P dt + dW over [0, h]; returns
    (P_h, W_h) samples for moment comparison against the exact transition."""
    d = M.shape[0]
    dt = h / n_steps
    P = np.zeros((n_paths, d)) if p0 is None else np.tile(p0, (n_paths, 1))
    W = np.zeros((n_paths, d))
    G = M / eps ** 2
    for _ in range(n_steps):
        dW = rng.standard_normal((n_paths, d)) * np.sqrt(dt)
        P = P - P @ G.T * dt + dW
        W = W + dW
    return P, W


def expected_area(drift, eps, h, N: int):
    """Exact mean (d, d) Levy area E[A_{0,N}] of the piecewise-linear lift
    of the OU chain P_{k+1} = E P_k + xi_k from P_0 = 0, sampled exactly at
    step h (E = e^{-M h / eps^2}, Cov(xi) = Sigma - E Sigma E^T, Sigma =
    eps^2 C the stationary covariance), by scipy's expm and Lyapunov solver.

    inc (x) inc is symmetric, so A_{0,N} = antisym(sum_k P_k (x) P_{k+1}) and
    E[A_{0,N}] = antisym((N Sigma - Y) E^T) with Y = sum_{k<N} E^k Sigma
    (E^k)^T, since Cov(P_k) = Sigma - E^k Sigma (E^k)^T.  Y solves Y - E Y
    E^T = Sigma - E^N Sigma (E^N)^T: one Kronecker solve of size d^2."""
    from scipy.linalg import expm, solve_continuous_lyapunov

    d = drift.dim
    E = expm(-drift.M * (h / eps ** 2))
    Sigma = eps ** 2 * solve_continuous_lyapunov(drift.M, np.eye(d))
    EN = np.linalg.matrix_power(E, N)
    rhs = (Sigma - EN @ Sigma @ EN.T).reshape(-1)
    Y = np.linalg.solve(np.eye(d * d) - np.kron(E, E), rhs).reshape(d, d)
    X = (N * Sigma - Y) @ E.T
    return 0.5 * (X - X.T)


def ou_joint_transition_lyapunov(drift, eps, h):
    """linstable.ou_joint_transition through the stationary covariance:
    covPP = eps^2 (C - E C E^T) and covPW = eps^2 M^{-1} (I - E), with E = 0
    and covPP = eps^2 C beyond lam r = 350 (r = h / eps^2).  Both formulas
    cancel at small r: about 1e-16 / r relative."""
    from roughlift.linstable import OUTransition, _pade_exp, lyapunov_C

    d = drift.dim
    r = h / eps ** 2
    C = lyapunov_C(drift)
    if drift.lam * r > 350.0:
        E, Cr = np.zeros((d, d)), C
    else:
        E, s = _pade_exp(-drift.M * r)
        for _ in range(s):
            E = E @ E
        Cr = C - E @ C @ E.T
        Cr = 0.5 * (Cr + Cr.T)
    covPW = eps ** 2 * np.linalg.solve(drift.M, np.eye(d) - E)
    return OUTransition(h=h, meanMap=E, covPP=eps ** 2 * Cr, covPW=covPW,
                        covWW=h * np.eye(d))


def lyapunov_solve_scipy(M, Q):
    """linstable._lyapunov_solve through one scipy LU factorisation of the
    Kronecker matrix, which also serves the refinement pass."""
    import scipy.linalg

    d = M.shape[0]
    K = np.kron(np.eye(d), M) + np.kron(M, np.eye(d))
    lu = scipy.linalg.lu_factor(K)
    X = scipy.linalg.lu_solve(lu, Q.reshape(-1)).reshape(d, d)
    X = 0.5 * (X + X.T)
    R = Q - (M @ X + X @ M.T)
    X = X + scipy.linalg.lu_solve(lu, R.reshape(-1)).reshape(d, d)
    return 0.5 * (X + X.T)


def ou_integrals_scipy(drift, r):
    """linstable._ou_integrals through scipy: ``scipy.linalg.expm`` of the
    whole block [[-M r, I], [0, 0]], and lyapunov_solve_scipy."""
    import scipy.linalg

    from roughlift.linstable import _RELAXED

    d = drift.dim
    r = min(r, _RELAXED / drift.lam)
    F = scipy.linalg.expm(np.block([[-drift.M * r, np.eye(d)], [np.zeros((d, 2 * d))]]))
    E, K = F[:d, :d], r * F[:d, d:]
    MK = drift.M @ K
    return E, K, lyapunov_solve_scipy(drift.M, MK + MK.T - MK @ MK.T)


def ou_recursion_eig(E, xi, p0=None):
    """P_{k+1} = E P_k + xi_k from P_0 = p0 (default 0), returned with the
    P_0 row: one complex first-order filter per eigenvector of E, started
    from the eigen-coordinates of p0, or a plain loop when E is
    (near-)defective."""
    from scipy.signal import lfilter

    N, d = xi.shape
    p0 = np.zeros(d) if p0 is None else np.asarray(p0, dtype=float)
    w, V = np.linalg.eig(E)
    if np.linalg.cond(V) >= 1e8:
        # defective meanMap: fall back to the plain scan
        return ou_recursion_loop(E, xi, p0)
    out = np.empty((N + 1, d))
    out[0] = p0
    eta = np.linalg.solve(V, xi.T.astype(complex))
    eta0 = np.linalg.solve(V, p0.astype(complex))
    q = np.empty_like(eta)
    for i in range(d):
        q[i] = lfilter([1.0], [1.0, -w[i]], eta[i], zi=[w[i] * eta0[i]])[0]
    out[1:] = (V @ q).T.real
    return out


def ou_recursion_loop(E, xi, p0=None):
    """P_{k+1} = E P_k + xi_k from P_0 = p0 (default 0), one step at a time."""
    N, d = xi.shape
    out = np.zeros((N + 1, d))
    if p0 is not None:
        out[0] = p0
    for k in range(N):
        out[k + 1] = E @ out[k] + xi[k]
    return out


def ou_buffer(N: int, d: int) -> np.ndarray:
    """Zeroed (b^2 + 1, d) work array of ou_recursion_blocked,
    b = ceil(sqrt(N)): row 0 is P_0, rows 1..N take xi_0..xi_{N-1}, the
    rest stay zero."""
    b = int(np.ceil(np.sqrt(N)))
    return np.zeros((b * b + 1, d))


def ou_recursion_blocked(E, buf):
    """P_{k+1} = E P_k + xi_k from P_0 = 0, in place on an ou_buffer whose
    rows 1.. hold xi and come back as P: b blocks of b steps from a zero
    start at once, the block starts c_j by the same recursion with E^b,
    then E^{m+1} c_j added.  The library's scan before it ran per chunk."""
    b = math.isqrt(len(buf) - 1)
    q = buf[1:].reshape(b, b, buf.shape[1])
    for m in range(1, b):
        q[:, m] += q[:, m - 1] @ E.T
    Eb = np.linalg.matrix_power(E, b)
    c = np.zeros((b, buf.shape[1]))
    for j in range(1, b):
        c[j] = Eb @ c[j - 1] + q[j - 1, -1]
    for m in range(b):
        c = c @ E.T
        q[:, m] += c


def sample_physical_blocked_scan(drift, eps, T, N, seed, step=None):
    """gauss.sample_physical with every chunk's noise written to an
    ou_buffer and one ou_recursion_blocked over the whole grid after the
    draws.  It builds its own transition and ignores ``step``."""
    from roughlift.gauss import GridPath, _rng, uniform_times
    from roughlift.linstable import ou_joint_transition
    from roughlift.tensor2 import ROW_BLOCK, running_sum_block

    d = drift.dim
    trans = ou_joint_transition(drift, eps, T / N)
    L = trans.noise_factor()
    rng = _rng(seed)
    P = ou_buffer(N, d)
    W = np.zeros((N + 1, d))
    for k0 in range(0, N, ROW_BLOCK):
        k1 = min(k0 + ROW_BLOCK, N)
        noise = rng.standard_normal((k1 - k0, 2 * d)) @ L.T
        P[k0 + 1:k1 + 1] = noise[:, :d]
        running_sum_block(noise[:, d:], W, k0)
    ou_recursion_blocked(trans.meanMap, P)
    times = uniform_times(N, T)
    return GridPath(times, P[:N + 1]), GridPath(times, W)


def holder_distance_rowloop(x, y, alpha: float) -> float:
    """Reference alpha-Hoelder distance: one vectorised sweep per grid row.

    The same pairs, norms and sup as ``tensor2.holder_distance``, one row
    i against all j > i at a time, with the norms taken by
    ``np.linalg.norm``.
    """
    if not (0.0 <= alpha < 0.5):
        raise ValueError("alpha must lie in [0, 1/2)")
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if len(x.times) != len(y.times) or np.any(x.times != y.times):
        raise ValueError("grids must be identical")
    n = len(x.times) - 1
    if n < 1:
        return 0.0
    t = x.times
    w = x.level1 - y.level1
    dl2 = x.level2 - y.level2
    sup1 = 0.0
    sup2 = 0.0

    def sweep(i, j):
        nonlocal sup1, sup2
        dt = t[j] - t[i]
        dev1 = np.linalg.norm(w[j] - w[i], axis=-1)
        cross = (np.einsum("nd,ne->nde", x.level1[i], x.level1[j] - x.level1[i])
                 - np.einsum("nd,ne->nde", y.level1[i], y.level1[j] - y.level1[i]))
        resid = dl2[j] - dl2[i] - cross
        dev2 = np.linalg.norm(resid.reshape(len(resid), -1), axis=-1)
        sup1 = max(sup1, float(np.max(dev1 / dt ** alpha)))
        sup2 = max(sup2, float(np.max(dev2 / dt ** (2.0 * alpha))))

    for i in range(n):
        j = np.arange(i + 1, n + 1)
        sweep(np.full(len(j), i), j)
    return sup1 + sup2


def lift_piecewise_linear_full(times, values):
    """Materialising lift: whole-grid increments, offsets and level-2 terms,
    then one cumsum per level."""
    from roughlift.tensor2 import LiftedPath

    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("need at least 2 grid points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    if x.shape[0] != len(t):
        raise ValueError("values length must match times")
    n, d = x.shape[0] - 1, x.shape[1]
    inc = np.diff(x, axis=0)
    l1 = np.zeros((n + 1, d))
    l1[1:] = np.cumsum(inc, axis=0)
    terms = np.einsum("nd,ne->nde", (x[:-1] - x[0]) + 0.5 * inc, inc)
    l2 = np.zeros((n + 1, d, d))
    np.cumsum(terms, axis=0, out=l2[1:])
    return LiftedPath(t, l1, l2)


def lift_strided_whole_grid(times, values, stride: int):
    """tensor2.lift_piecewise_linear at a stride on whole-grid arrays: the
    terms of every cell of ``stride`` segments summed by one batched matmul
    over the whole grid, the cell sums by one cumsum, and level 1 as
    x_i - x_0 at the cell ends."""
    from roughlift.tensor2 import LiftedPath

    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    n, d = x.shape[0] - 1, x.shape[1]
    inc = np.diff(x, axis=0)
    base = (x[:-1] - x[0]) + 0.5 * inc
    cells = np.matmul(base.reshape(n // stride, stride, d).transpose(0, 2, 1),
                      inc.reshape(n // stride, stride, d))
    l2 = np.zeros((n // stride + 1, d, d))
    np.cumsum(cells, axis=0, out=l2[1:])
    return LiftedPath(t[::stride], x[::stride] - x[0], l2)


def qv_matmul(x, stride: int):
    """The running quadratic variation sum dX (x) dX of samples x (..., n +
    1, d) at every stride-th sample, by one matmul per cell of ``stride``
    steps over the whole grid, the cell sums carried by one cumsum, in
    place of tensor2.running_outer_sum(x, stride, out, midpoint=False)."""
    inc = x[..., 1:, :] - x[..., :-1, :]
    cells = inc.reshape(inc.shape[:-2] + (-1, stride, inc.shape[-1]))
    *batch, c, _, d = cells.shape
    out = np.empty((*batch, c + 1, d, d))
    out[..., 0, :, :] = 0.0
    np.matmul(cells.swapaxes(-1, -2), cells, out=out[..., 1:, :, :])
    np.cumsum(out, axis=-3, out=out)
    return out


def leadlag_residuals_assembled(cfg, trials, root=None):
    """leadlag._residuals with the residual assembled from fresh arrays: for
    each n the difference dD of its strided lift from the reference lift,
    then half the QV, then the four blocks [[dD, dD - Q/2], [dD + Q/2, dD]]
    copied into the residual, and areaDev1 the mean diagonal of half the QV
    at the last grid point.  It shares the lift and running-sum kernels with
    the library, so it checks the in-place block assembly, bit for bit."""
    from roughlift.gauss import derive_seed, sample_fbm
    from roughlift.tensor2 import lift_piecewise_linear, running_outer_sum

    d, n_ref, n_min = cfg.d, cfg.n_ref, cfg.n_schedule[0]
    x = np.stack([sample_fbm(seed=derive_seed(cfg.base_seed, k), H=cfg.H, n=n_ref, d=d,
                             root=root).values for k in trials])
    t = np.arange(n_ref + 1) / n_ref
    ref = lift_piecewise_linear(t, x, stride=n_ref // n_min).level2
    res = np.empty((len(x), len(cfg.n_schedule), n_min + 1, 2 * d, 2 * d))
    area = np.empty((len(x), len(cfg.n_schedule)))
    for m, n in enumerate(cfg.n_schedule):
        xn, tn, stride = x[:, ::n_ref // n], t[::n_ref // n], n // n_min
        dD = lift_piecewise_linear(tn, xn, stride=stride).level2 - ref
        half_qv = np.empty(dD.shape)
        running_outer_sum(xn, stride, half_qv, midpoint=False)
        half_qv *= 0.5
        r = res[:, m]
        r[..., :d, :d] = dD
        r[..., d:, d:] = dD
        np.subtract(dD, half_qv, out=r[..., :d, d:])
        np.add(dD, half_qv, out=r[..., d:, :d])
        area[:, m] = np.mean(np.diagonal(half_qv[:, -1], axis1=1, axis2=2), axis=1)
    return res, area


def ou_scan_chunks(E, xi, p0):
    """P_{k+1} = E P_k + xi_k from P_0 = p0 by the library's OU scan, over
    ROW_BLOCK chunks as gauss.sample_physical runs it; the oracles above
    check it."""
    from roughlift.gauss import _ou_scan_block, _scan_levels
    from roughlift.tensor2 import ROW_BLOCK

    N, d = xi.shape
    P = np.empty((N + 1, d))
    P[0] = p0
    levels = _scan_levels(E, min(N, ROW_BLOCK))
    for k0 in range(0, N, ROW_BLOCK):
        _ou_scan_block(levels, xi[k0:k0 + ROW_BLOCK], P, k0)
    return P


def physical_whole_draw(drift, eps, T, N, seed):
    """(times, P, W) of gauss.sample_physical with all (N, 2d) normals drawn
    in one call, W as one cumsum and the grid as arange(N + 1) / N * T.  The
    OU scan is the library's (ou_scan_chunks)."""
    from roughlift.gauss import _rng
    from roughlift.linstable import ou_joint_transition

    d = drift.dim
    trans = ou_joint_transition(drift, eps, T / N)
    noise = _rng(seed).standard_normal((N, 2 * d)) @ trans.noise_factor().T
    W = np.zeros((N + 1, d))
    np.cumsum(noise[:, d:], axis=0, out=W[1:])
    P = ou_scan_chunks(trans.meanMap, noise[:, :d], np.zeros(d))
    return np.arange(N + 1) / N * T, P, W


def _fgn_circulant_complex(z, n, H):
    from roughlift.gauss import fgn_autocov

    lags = np.concatenate([np.arange(n), np.arange(n, 0, -1)])
    g = np.fft.fft(fgn_autocov(lags, H)).real
    if g.min() < -1e-10 * g.max():
        raise ValueError(f"negative embedding eigenvalue {g.min():g}")
    g = np.clip(g, 0.0, None)
    return np.fft.ifft(np.sqrt(g) * np.fft.fft(z)).real[:n]


def sample_fbm_complex_fft(seed, H, n, d=1, T=1.0, root=None):
    """gauss.sample_fbm's circulant route one component at a time: 2n
    normals per component, the embedding's eigenvalues from a complex FFT of
    the autocovariance row and the map from a complex FFT pair.  It builds
    its own embedding and ignores ``root``."""
    from roughlift.gauss import GridPath, _rng, uniform_times

    rng = _rng(seed)
    spacing_scale = (T / n) ** H
    vals = np.zeros((n + 1, d))
    for c in range(d):
        z = rng.standard_normal(2 * n)
        np.cumsum(spacing_scale * _fgn_circulant_complex(z, n, H), out=vals[1:, c])
    return GridPath(uniform_times(n, T), vals)


def _fgn_cholesky(rng: np.random.Generator, d: int, n: int, H: float) -> np.ndarray:
    from roughlift.gauss import fgn_autocov

    cov = fgn_autocov(np.abs(np.subtract.outer(np.arange(n), np.arange(n))), H)
    return rng.standard_normal((d, 2 * n))[:, :n] @ np.linalg.cholesky(cov).T


def sample_fbm_cholesky(seed, H, n, d=1, T=1.0):
    """gauss.sample_fbm with the O(n^3) Cholesky factor of the fGn
    covariance in place of the circulant embedding.  It draws the same
    (d, 2n) block of normals and keeps the first n of each row, so at
    H = 1/2, where both maps are the identity, the paths agree pathwise."""
    from roughlift.gauss import GridPath, _rng, uniform_times

    inc = _fgn_cholesky(_rng(seed), d, n, H)
    inc *= (T / n) ** H
    vals = np.zeros((n + 1, d))
    np.cumsum(inc.T, axis=0, out=vals[1:])
    return GridPath(uniform_times(n, T), vals)


def leadlag_trial_full_lifts(cfg, trial_index: int):
    """leadlag.run_leadlag_trial by full lifts: every path lifted on its own
    grid, restricted to the coarsest schedule grid, and two holder_distance
    calls per n, the renormalised one on a translated lift.  The counter-term
    is written out here: n^{1-2H}/2 on [[0, I], [-I, 0]]."""
    from roughlift.gauss import derive_seed, sample_fbm
    from roughlift.leadlag import TrialResult, hoff_path
    from roughlift.tensor2 import holder_distance, lift_piecewise_linear, translate

    ref = sample_fbm(seed=derive_seed(cfg.base_seed, trial_index), H=cfg.H, n=cfg.n_ref,
                     d=cfg.d)
    doubled = np.hstack([ref.values, ref.values])
    ref_lift = lift_piecewise_linear(ref.times, doubled)
    n_min = cfg.n_schedule[0]
    ref_common = ref_lift.restrict(np.arange(0, cfg.n_ref + 1, cfg.n_ref // n_min))
    ref_area = 0.5 * (ref_lift.level2[-1] - ref_lift.level2[-1].T)

    eye, zero = np.eye(cfg.d), np.zeros((cfg.d, cfg.d))
    out = []
    for n in cfg.n_schedule:
        lift = lift_piecewise_linear(*hoff_path(ref.values[::cfg.n_ref // n]))
        common = lift.restrict(np.arange(0, 2 * n + 1, 2 * n // n_min))
        v = 0.5 * n ** (1 - 2 * cfg.H)
        term = np.block([[zero, v * eye], [-v * eye, zero]])
        dist_ren = holder_distance(translate(common, term), ref_common, cfg.alpha)
        dist_raw = holder_distance(common, ref_common, cfg.alpha)
        area = 0.5 * (lift.level2[-1] - lift.level2[-1].T)
        dev = ref_area - area
        area_dev = float(np.mean(np.diagonal(dev[:cfg.d, cfg.d:])))
        out.append(TrialResult(n=n, dist_renorm=dist_ren, dist_raw=dist_raw,
                               areaDev1=area_dev, vNorm=float(np.linalg.norm(term))))
    return out
