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
lead-lag residual assembled as a full anti-symmetric array from fresh
difference and half-QV arrays instead of written entry by entry; lifts
holding their whole d x d level 2 and sweeps squaring all of its residual
entries (the full-level-2 route) instead of level 1 and Levy area; a
complex FFT per component, with the embedding rebuilt on every call,
instead of the real-spectrum fGn map; the real root cast to complex and
multiplied into the half-spectra, and the increments scaled as one view,
instead of the root's products with the real and imaginary parts and a
scale a row; real running sums a column and a term at a time instead of
two lanes a complex chain; and the Cholesky factor of
the fGn covariance instead of its circulant embedding.
"""
import math
from dataclasses import dataclass

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


def holder_distance_rowloop(x, y, alpha: float, shift=None) -> float:
    """Reference alpha-Hoelder distance: one vectorised sweep per grid row.

    The same pairs, residuals, norms and sup as ``tensor2.holder_distance``,
    one row i against all j > i at a time: the level-1 residual delta = dX -
    dY, the level-2 residual as its symmetric part, from delta and sigma =
    dX + dY, (|delta|^2 |sigma|^2 + (delta . sigma)^2) / 8, halved, plus the
    squares of the area residuals, then doubled; every sum in index order.
    Given ``shift`` (area entries), (t_j - t_i) shift is added to every area
    residual: the distance ``holder_sweep`` reports for a shifted member.
    """
    if not (0.0 <= alpha < 0.5):
        raise ValueError("alpha must lie in [0, 1/2)")
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if len(x.times) != len(y.times) or np.any(x.times != y.times):
        raise ValueError("grids must be identical")
    n, d = len(x.times) - 1, x.dim
    if n < 1:
        return 0.0
    t = x.times
    x1, y1 = x.level1, y.level1
    w, s, da = x1 - y1, x1 + y1, x.area - y.area
    sup1 = sup2 = 0.0
    for i in range(n):
        j = np.arange(i + 1, n + 1)
        dt = t[j] - t[i]
        delta, sigma = w[j] - w[i], s[j] - s[i]
        dd, ss, ds = delta[:, 0] ** 2, sigma[:, 0] ** 2, delta[:, 0] * sigma[:, 0]
        for p in range(1, d):
            dd, ss = dd + delta[:, p] ** 2, ss + sigma[:, p] ** 2
            ds = ds + delta[:, p] * sigma[:, p]
        sq = (dd * ss + ds * ds) * 0.0625
        for e, (p, q) in enumerate(zip(*np.triu_indices(d, 1))):
            cross = x1[i, p] * (x1[j, q] - x1[i, q]) - x1[i, q] * (x1[j, p] - x1[i, p])
            cross -= y1[i, p] * (y1[j, q] - y1[i, q]) - y1[i, q] * (y1[j, p] - y1[i, p])
            r = (da[j, e] - da[i, e]) - cross * 0.5
            if shift is not None:
                r = r + dt * shift[e]
            sq = sq + r * r
        sup1 = max(sup1, float(np.max(np.sqrt(dd) / dt ** alpha)))
        sup2 = max(sup2, float(np.max(np.sqrt(sq * 2.0) / dt ** (2.0 * alpha))))
    return sup1 + sup2


def _antisym_entries(level2):
    """Half the difference of the (p, q) and (q, p) entries, p < q, of
    stacked (..., d, d) arrays: their area entries."""
    p, q = np.triu_indices(level2.shape[-1], 1)
    return (level2[..., p, q] - level2[..., q, p]) * 0.5


def lift_piecewise_linear_full(times, values):
    """Materialising lift: whole-grid increments, offsets and level-2 terms,
    then one cumsum per level, the area taken from level 2."""
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
    return LiftedPath(t, l1, _antisym_entries(l2))


def lift_strided_whole_grid(times, values, stride: int):
    """tensor2.lift_piecewise_linear at a stride on whole-grid arrays: the
    terms of every cell of ``stride`` segments summed by one batched matmul
    over the whole grid, the cell sums by one cumsum, level 1 as x_i - x_0
    at the cell ends and the area from level 2."""
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
    return LiftedPath(t[::stride], x[::stride] - x[0], _antisym_entries(l2))


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


def leadlag_residuals_assembled(cfg, trials, plan=None):
    """The lead-lag trial's residuals as all d (2d - 1) area entries of the
    2d-dimensional lead-lag lift, assembled from fresh arrays: for each n
    the difference dA of its strided lift's area from the reference lift's,
    then half the QV, then the full anti-symmetric 2d x 2d array [[dA, dA -
    Q/2], [dA + Q/2, dA]] built block by block and its entries p < q taken,
    and areaDev1 the mean diagonal of half the QV at the last grid point.
    It shares the lift and running-sum kernels with the library; it draws
    each trial alone (_draws) and reads only the root of ``plan``."""
    from roughlift.tensor2 import full_level2, lift_piecewise_linear, running_outer_sum

    d, n_ref, n_min = cfg.d, cfg.n_ref, cfg.n_schedule[0]
    x = _draws(cfg, trials, plan)
    t = np.arange(n_ref + 1) / n_ref
    ref = lift_piecewise_linear(t, x, stride=n_ref // n_min).area
    res = np.empty((len(x), len(cfg.n_schedule), n_min + 1, d * (2 * d - 1)))
    area = np.empty((len(x), len(cfg.n_schedule)))
    p, q = np.triu_indices(d)
    for m, n in enumerate(cfg.n_schedule):
        xn, tn, stride = x[:, ::n_ref // n], t[::n_ref // n], n // n_min
        dA = lift_piecewise_linear(tn, xn, stride=stride).area - ref
        qv = np.empty(dA.shape[:-1] + (len(p),))
        running_outer_sum(xn, stride, np.empty(dA.shape), qv)
        half_qv = np.empty(dA.shape[:-1] + (d, d))
        half_qv[..., p, q] = half_qv[..., q, p] = 0.5 * qv
        A = full_level2(np.zeros(dA.shape[:-1] + (d,)), dA)
        full = np.block([[A, A - half_qv], [A + half_qv, A]])
        res[:, m] = full[(...,) + np.triu_indices(2 * d, 1)]
        area[:, m] = np.mean(np.diagonal(half_qv[:, -1], axis1=1, axis2=2), axis=1)
    return res, area


def leadlag_trial_entries(cfg, trials, plan=None):
    """leadlag.run_leadlag_trial on the d (2d - 1)-entry route: the
    residuals of leadlag_residuals_assembled as lifts of dimension 2d with
    level 1 zero, one sweep of them against the zero lift, shifted by the
    counter-terms' area entries."""
    from roughlift.leadlag import TrialResult, counter_terms
    from roughlift.tensor2 import LiftedPath, area_entries, holder_sweep, zero_lift

    res, area = leadlag_residuals_assembled(cfg, trials, plan)
    b, k, n1, entries = res.shape
    times = np.arange(n1) / cfg.n_schedule[0]
    members = LiftedPath(times, np.broadcast_to(0.0, (b * k, n1, 2 * cfg.d)),
                         res.reshape(b * k, n1, entries))
    terms = counter_terms(cfg.H, cfg.n_schedule, cfg.d)
    dist_raw, dist_ren = holder_sweep(members, zero_lift(times, 2 * cfg.d), cfg.alpha,
                                      np.tile(area_entries(terms), (b, 1)))
    vnorms = [float(np.linalg.norm(v)) for v in terms]
    return [[TrialResult(n=n, dist_renorm=float(ren), dist_raw=float(raw), areaDev1=float(dev),
                         vNorm=vnorm)
             for n, raw, ren, dev, vnorm in zip(cfg.n_schedule, raws, rens, devs, vnorms)]
            for raws, rens, devs in zip(dist_raw.reshape(b, k), dist_ren.reshape(b, k), area)]


def ou_scan_chunks(E, xi, p0):
    """P_{k+1} = E P_k + xi_k from P_0 = p0 by the library's OU scan, over
    ROW_BLOCK chunks as gauss.sample_physical runs it; the oracles above
    check it."""
    from roughlift.gauss import _ou_scan_block, _scan_floats, _scan_levels
    from roughlift.tensor2 import ROW_BLOCK

    N, d = xi.shape
    P = np.empty((N + 1, d))
    P[0] = p0
    levels = _scan_levels(E, min(N, ROW_BLOCK))
    scratch = np.empty(_scan_floats(levels, ROW_BLOCK))
    for k0 in range(0, N, ROW_BLOCK):
        _ou_scan_block(levels, xi[k0:k0 + ROW_BLOCK], P, k0, scratch)
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


def sample_bm_single(T, N, d, seed):
    """gauss.sample_bm's draw of one seed as a GridPath, as it was before
    the batched form: the (N, d) normals scaled into a new array and summed
    into a zero array by running_sum_block, with the grid's times."""
    from roughlift.gauss import GridPath, _rng, uniform_times
    from roughlift.tensor2 import running_sum_block

    inc = _rng(seed).standard_normal((N, d)) * np.sqrt(T / N)
    vals = np.zeros((N + 1, d))
    running_sum_block(inc, vals, 0)
    return GridPath(uniform_times(N, T), vals)


def sample_fbm_single(seed, H, n, d=1, T=1.0, root=None):
    """gauss.sample_fbm's draw of one seed as a GridPath, as it was before
    the batched form: the library's fGn map (_fgn_circulant), each row
    scaled, summed into a zero array by running_sum_block, with the grid's
    times.  The batched sampler must give each member these bits."""
    from roughlift.gauss import GridPath, _fgn_circulant, _rng, embedding_root, uniform_times
    from roughlift.tensor2 import running_sum_block

    if root is None:
        root = embedding_root(n, H)
    inc = _fgn_circulant(_rng(seed), d, n, root)
    for row in inc:
        row *= (T / n) ** H
    vals = np.zeros((n + 1, d))
    running_sum_block(inc.T, vals, 0)
    return GridPath(uniform_times(n, T), vals)


def batch_of(sample_single):
    """A sampler of one seed, sample_single(seed, H, n, d, T, root) -> a
    GridPath, as the batched gauss.sample_fbm: seeds in, their stacked
    (B, n + 1, d) values out."""
    def sample(seeds, H, n, d=1, T=1.0, root=None):
        return np.stack([sample_single(seed, H, n, d, T, root).values for seed in seeds])
    return sample


def _draws(cfg, trials, plan=None):
    """The (B, n_ref + 1, d) reference draws of a lead-lag batch, one
    sample_fbm_single call a trial, stacked."""
    from roughlift.gauss import derive_seed

    root = None if plan is None else plan.root
    return np.stack([sample_fbm_single(derive_seed(cfg.base_seed, k), cfg.H, cfg.n_ref, cfg.d,
                                       root=root).values for k in trials])


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


def sample_fbm_cast_root(seed, H, n, d=1, T=1.0, root=None):
    """gauss.sample_fbm with the embedding root multiplied into the complex
    half-spectra, which casts it to complex, and the (d, n) view of the
    increments scaled in one call, around the same FFTs and running sums:
    sample_fbm must draw its bits."""
    from roughlift.gauss import GridPath, _rng, embedding_root, uniform_times
    from roughlift.tensor2 import running_sum_block

    if root is None:
        root = embedding_root(n, H)
    spectrum = np.fft.rfft(_rng(seed).standard_normal((d, 2 * n)))
    spectrum *= root
    inc = np.fft.irfft(spectrum, n=2 * n)[:, :n]
    inc *= (T / n) ** H
    vals = np.zeros((n + 1, d))
    running_sum_block(inc.T, vals, 0)
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
    from roughlift.gauss import derive_seed
    from roughlift.leadlag import TrialResult, hoff_path
    from roughlift.tensor2 import area_entries, holder_distance, lift_piecewise_linear, translate

    ref = sample_fbm_single(derive_seed(cfg.base_seed, trial_index), cfg.H, cfg.n_ref, cfg.d)
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
        dist_ren = holder_distance(translate(common, area_entries(term)), ref_common, cfg.alpha)
        dist_raw = holder_distance(common, ref_common, cfg.alpha)
        area = 0.5 * (lift.level2[-1] - lift.level2[-1].T)
        dev = ref_area - area
        area_dev = float(np.mean(np.diagonal(dev[:cfg.d, cfg.d:])))
        out.append(TrialResult(n=n, dist_renorm=dist_ren, dist_raw=dist_raw,
                               areaDev1=area_dev, vNorm=float(np.linalg.norm(term))))
    return out


# --- the full-level-2 route ---------------------------------------------------
#
# Lifts that hold their whole d x d level 2, summed entry by entry, and
# sweeps that square all d^2 level-2 residual entries of every pair: the
# library's route before lifts were stored as level 1 and Levy area, kept
# verbatim, its names prefixed full_, as the oracle of every TrialResult
# field.  Its sweeps keep the row-block layout (grid rows i against the
# columns j > i, j <= i masked) with their own geometry, built per block,
# and share tensor2's scratch helpers.

@dataclass(frozen=True)
class FullLiftedPath:
    """Running signatures S_{0,i} of a path over a strictly increasing grid.

    ``level1[i]``/``level2[i]`` are the two levels of S_{0,i}; S_{0,0} is the
    identity.  Interval lifts S_{i,j} come out of ``intervals`` via group
    inversion and therefore satisfy Chen exactly.  A batch of B paths on
    one grid puts one leading axis of B members on both levels.
    """

    times: np.ndarray
    level1: np.ndarray  # ([B,] N+1, d)
    level2: np.ndarray  # ([B,] N+1, d, d)

    def __post_init__(self):
        from roughlift.tensor2 import any_blockwise

        t = np.asarray(self.times, dtype=float)
        l1 = np.asarray(self.level1, dtype=float)
        l2 = np.asarray(self.level2, dtype=float)
        if t.ndim != 1 or len(t) < 1:
            raise ValueError("times must be a non-empty 1-d array")
        if any_blockwise(np.less_equal, t[1:], t[:-1]):
            raise ValueError("times must be strictly increasing")
        if l1.ndim not in (2, 3) or l2.ndim != l1.ndim + 1:
            raise ValueError("running signature arrays must be ([B,] N+1, d) and "
                             "([B,] N+1, d, d)")
        if l1.shape[-2] != len(t) or l2.shape != l1.shape + l1.shape[-1:]:
            raise ValueError("running signature arrays inconsistent with grid")
        if np.any(l1[..., 0, :] != 0.0) or np.any(l2[..., 0, :, :] != 0.0):
            raise ValueError("running signature must start at the identity")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "level1", l1)
        object.__setattr__(self, "level2", l2)

    @property
    def dim(self) -> int:
        return self.level1.shape[-1]

    def intervals(self, i, j) -> tuple[np.ndarray, np.ndarray]:
        i, j = np.broadcast_arrays(i, j)
        x1 = self.level1[..., i, :]
        inc = self.level1[..., j, :] - x1
        return inc, (self.level2[..., j, :, :] - self.level2[..., i, :, :]
                     - x1[..., :, None] * inc[..., None, :])

    def restrict(self, indices) -> "FullLiftedPath":
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 1 or len(idx) < 1 or np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        return FullLiftedPath(self.times[idx], *self.intervals(idx[0], idx))


def full_lift_piecewise_linear(times, values, stride: int = 1, out=None) -> FullLiftedPath:
    t = np.asarray(times, dtype=float)
    x = np.asarray(values, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if t.ndim != 1 or len(t) < 2:
        raise ValueError("need at least 2 grid points")
    if x.ndim > 3 or x.shape[-2] != len(t):
        raise ValueError("values must be ([B,] len(times), d)")
    batch, n, d = x.shape[:-2], x.shape[-2] - 1, x.shape[-1]
    if stride < 1 or n % stride:
        raise ValueError(f"stride = {stride} must be a positive divisor of n = {n}")
    shape = batch + (n // stride + 1, d, d)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    elif np.may_share_memory(out, x):
        raise ValueError("out must not overlap values")
    full_running_outer_sum(x, stride, out)
    x0 = x[..., :1, :]
    if stride == 1 and not np.any(x0) and not np.any(np.signbit(x0)):
        l1 = x.view()  # x - x_0 is x, bit for bit, when x_0 = +0.0
        l1.flags.writeable = False
    else:
        l1 = x[..., ::stride, :] - x0
    return FullLiftedPath(np.ascontiguousarray(t[::stride]), l1, out)


def full_running_outer_sum(x, stride: int, out, midpoint: bool = True) -> None:
    from roughlift import tensor2

    if not out.size:  # an empty batch
        return
    batch, n, d = x.shape[:-2], x.shape[-2] - 1, x.shape[-1]
    rows = min(n, max(1, tensor2.ROW_BLOCK // math.prod(batch)))
    xt, inc, term = tensor2._scratch(batch + (d, rows + 1), batch + (d, rows), batch + (rows,))
    carry = np.zeros(batch + (d, d))  # each entry's sum up to the block
    x0 = x[..., :1, :].swapaxes(-1, -2)
    out[..., 0, :, :] = 0.0
    for k0 in range(0, n, rows):
        m = min(rows, n - k0)
        xb, ib, steps = xt[..., :m + 1], inc[..., :m], term[..., :m]
        np.copyto(xb, x[..., k0:k0 + m + 1, :].swapaxes(-1, -2))
        np.subtract(xb[..., 1:], xb[..., :-1], out=ib)
        ab = ib
        if midpoint:  # (x_r - x_0) + inc_r/2, written over x_r
            ab = xb[..., :-1]
            ab -= x0
            for p in range(d):
                ab[..., p, :] += np.multiply(ib[..., p, :], 0.5, out=steps)
        c0, c1 = k0 // stride + 1, (k0 + m) // stride + 1  # the block's output rows
        for p in range(d):
            for q in range(d):
                np.multiply(ab[..., p, :], ib[..., q, :], out=steps)
                if stride == 1:
                    tensor2.running_sum_block(steps.reshape(-1, m).T,  # rows first
                                              out[..., p, q].reshape(-1, n + 1).T, k0)
                else:  # summed in place from the carry, as running_sum_block adds it
                    steps[..., 0] += carry[..., p, q]
                    np.cumsum(steps, axis=-1, out=steps)
                    carry[..., p, q] = steps[..., -1]
                    out[..., c0:c1, p, q] = steps[..., c0 * stride - k0 - 1::stride]


def running_sum_columns(steps, out, k0: int) -> None:
    """tensor2.running_sum_block with every column a real np.cumsum of its
    own, in place of two adjacent columns a complex chain."""
    steps[0] += out[k0]
    block = out[k0 + 1:k0 + 1 + len(steps)]
    for c in range(steps.shape[1]):
        np.cumsum(steps[:, c], out=block[:, c])


def running_outer_sum_terms(x, stride: int, area, qv=None) -> None:
    """tensor2.running_outer_sum with every term of every entry a real
    running sum of its own (an area entry's two terms apart, each QV entry
    alone), from a carry of each term, in place of the complex chains."""
    import itertools

    from roughlift import tensor2

    members, n, d = math.prod(x.shape[:-2]), x.shape[-2] - 1, x.shape[-1]
    areas, squares = d * (d - 1) // 2, d * (d + 1) // 2 * (qv is not None)
    if not members or not areas + squares:
        return
    rows = min(n, max(1, tensor2.ROW_BLOCK // members))
    size = members * (rows + 1)
    x = x.reshape((members,) + x.shape[-2:])
    outs = [(out.reshape((members,) + out.shape[-2:]), list(pairs(range(d), 2)), terms)
            for out, pairs, terms in ((area, itertools.combinations, 2),
                                      (qv, itertools.combinations_with_replacement, 1))
            if out is not None]
    xt, inc, term, sums = (np.empty(k) for k in (d * size, d * size, size, rows))
    carry = [np.zeros((members, len(entries), terms)) for _, entries, terms in outs]
    for out, _, _ in outs:
        out[:, 0, :] = 0.0
    for k0 in range(0, n, rows):
        m = min(rows, n - k0)
        cut = members * (m + 1)
        xb = xt[:d * cut].reshape(d, members, m + 1)
        ib = inc[:d * cut].reshape(d, members, m + 1)
        steps = term[:cut].reshape(members, m + 1)
        np.copyto(xb, x[:, k0:k0 + m + 1, :].transpose(2, 0, 1))
        np.subtract(xt[1:d * cut], xt[:d * cut - 1], out=inc[:d * cut - 1])
        inc[d * cut - 1] = 0.0
        if areas:  # (x_r - x_0) + inc_r/2, written over x_r
            for p in range(d):
                for row, start in zip(xb[p], x[:, 0, p]):
                    np.subtract(row, start, out=row)
                np.add(xb[p], np.multiply(ib[p], 0.5, out=steps), out=xb[p])
        c0, c1 = k0 // stride + 1, (k0 + m) // stride + 1
        cells = slice(c0 * stride - k0 - 1, m, stride)
        for (out, entries, terms), carried in zip(outs, carry):
            for e, (p, q) in enumerate(entries):
                cell_ends = out[:, c0:c1, e]
                for j, (u, v) in enumerate(((p, q), (q, p))[:terms]):
                    np.multiply(xb[u] if terms == 2 else ib[u], ib[v], out=steps)
                    steps[:, 0] += carried[:, e, j]
                    for b, (row, ends) in enumerate(zip(steps, cell_ends)):
                        np.cumsum(row[:m], out=sums[:m])
                        carried[b, e, j] = sums[m - 1]
                        if j == 0:
                            np.copyto(ends, sums[cells])
                        else:
                            ends -= sums[cells]
                            ends *= 0.5


def full_zero_lift(times, dim: int) -> FullLiftedPath:
    t = np.asarray(times, dtype=float)
    return FullLiftedPath(t, np.broadcast_to(0.0, (len(t), dim)),
                          np.broadcast_to(0.0, (len(t), dim, dim)))


def full_translate(path: FullLiftedPath, v) -> FullLiftedPath:
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1]:
        raise ValueError(f"v must be square, got shape {v.shape}")
    if np.linalg.norm(v + v.T) > 1e-12 * max(1.0, float(np.linalg.norm(v))):
        raise ValueError("area shift must be anti-symmetric")
    if v.shape[0] != path.dim:
        raise ValueError(f"dimension mismatch: {v.shape[0]} vs {path.dim}")
    shift = (path.times - path.times[0])[:, None, None] * v
    return FullLiftedPath(path.times, path.level1.copy(), path.level2 + shift)


def _full_sweep_blocks(k: int, n: int, shifted: bool, zero_target: bool,
                       zero1: bool = False) -> tuple[int, list[int]]:
    from roughlift import tensor2

    rows = min(n, max(1, tensor2.PAIR_BLOCK // (k * n)))
    pairs = rows * n
    sizes = [k * pairs] * (3 + shifted) + [pairs] * (1 - zero_target)
    return rows, sizes + [pairs] * (1 + shifted + (not zero1))


def _full_geometry(t, alpha: float, rows: int, shifted: bool, level1: bool, planes):
    n = len(t) - 1
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        shape = (i1 - i0, n - i0)
        g = [p[:shape[0] * shape[1]].reshape(shape) for p in planes]
        pair = np.arange(i0, i1)[:, None] < np.arange(i0 + 1, n + 1)
        dt = g[-1]
        np.subtract(t[i0 + 1:], t[i0:i1, None], out=dt)
        np.copyto(dt, 1.0, where=np.logical_not(pair))
        power = np.power(dt, alpha, out=g[0]) if level1 else None
        power2 = np.power(dt, 2.0 * alpha, out=g[int(level1)])  # over dt without shifts
        yield i0, i1, pair, power, power2, dt if shifted else None


def _full_fold_sup(sq, power, pair, sup):
    np.sqrt(sq, out=sq)
    np.divide(sq, power, out=sq)
    np.maximum(sup, np.max(sq, axis=tuple(range(1, sq.ndim)), where=pair, initial=0.0), out=sup)


def full_holder_sweep(x: FullLiftedPath, y: FullLiftedPath, alpha: float, shifts=None):
    from roughlift.tensor2 import _accumulate_square, _scratch

    if not (0.0 <= alpha < 0.5):
        raise ValueError("alpha must lie in [0, 1/2)")
    if y.level1.ndim != 2:
        raise ValueError("the target must be one lift")
    if x.dim != y.dim:
        raise ValueError("dimension mismatch")
    if len(x.times) != len(y.times) or np.any(x.times != y.times):
        raise ValueError("grids must be identical")
    k = len(x.level1) if x.level1.ndim == 3 else 1
    d, n = y.dim, len(y.times) - 1
    if shifts is not None:
        shifts = np.asarray(shifts, dtype=float)
        if shifts.shape != (k, d, d):
            raise ValueError(f"shifts must have shape {(k, d, d)}, got {shifts.shape}")
    if n < 1 or k < 1:
        return np.zeros(k), None if shifts is None else np.zeros(k)
    t = y.times
    y_zero = not np.any(y.level1)
    zero1 = y_zero and not np.any(x.level1)  # no level-1 planes
    # grid axis last and contiguous, so block planes are read by slices
    dl2 = np.empty((k, d, d, n + 1))
    if np.any(y.level2):
        np.subtract(x.level2, y.level2, out=np.moveaxis(dl2, -1, -3))
    else:  # a copy, unlike the subtraction, takes no numpy iterator buffer
        np.copyto(np.moveaxis(dl2, -1, -3), x.level2)
    if not zero1:
        x1 = np.ascontiguousarray(x.level1.reshape(k, n + 1, d).swapaxes(1, 2))
        y1 = np.ascontiguousarray(y.level1.T)
        w = x1 - y1
    shifted = shifts is not None
    rows, sizes = _full_sweep_blocks(k, n, shifted, y_zero, zero1)
    planes = _scratch(*[(size,) for size in sizes])
    blocks = _full_geometry(t, alpha, rows, shifted, not zero1,
                            planes[3 + shifted + (not y_zero):])
    sup = np.zeros((3, k))  # level 1, level 2, shifted level 2
    for i0, i1, pair, power, power2, dt in blocks:
        shape = (i1 - i0, n - i0)
        m = shape[0] * shape[1]
        a, r, acc, *acc_shifted = (p[:k * m].reshape((k,) + shape) for p in planes[:3 + shifted])
        c = None if y_zero else planes[3 + shifted][:m].reshape(shape)
        if not zero1:
            for p in range(d):
                np.subtract(w[:, p, None, i0 + 1:], w[:, p, i0:i1, None], out=a)
                _accumulate_square(a, acc, p == 0)
            _full_fold_sup(acc, power, pair, sup[0])
        for p in range(d):
            for q in range(d):
                np.subtract(dl2[:, p, q, None, i0 + 1:], dl2[:, p, q, i0:i1, None], out=r)
                if not zero1:
                    np.subtract(x1[:, q, None, i0 + 1:], x1[:, q, i0:i1, None], out=a)
                    np.multiply(x1[:, p, i0:i1, None], a, out=a)
                    if not y_zero:
                        np.subtract(y1[q, i0 + 1:], y1[q, i0:i1, None], out=c)
                        np.multiply(y1[p, i0:i1, None], c, out=c)
                        np.subtract(a, c, out=a)  # the Chen cross term of X - Y
                    np.subtract(r, a, out=r)  # the level-2 residual
                if shifted:
                    np.multiply(shifts[:, p, q, None, None], dt, out=a)
                    np.add(r, a, out=a)
                    _accumulate_square(a, acc_shifted[0], p == q == 0)
                _accumulate_square(r, acc, p == q == 0)
        _full_fold_sup(acc, power2, pair, sup[1])
        if shifted:
            _full_fold_sup(acc_shifted[0], power2, pair, sup[2])
    return sup[0] + sup[1], sup[0] + sup[2] if shifted else None


def full_holder_distance(x: FullLiftedPath, y: FullLiftedPath, alpha: float) -> float:
    if x.level1.ndim != 2:
        raise ValueError("x must be one lift; use holder_sweep for a batch")
    return float(full_holder_sweep(x, y, alpha)[0][0])


def magnetic_trial_full_level2(cfg, plan, trial_index: int):
    """magnetic.run_magnetic_trial on the full-level-2 route."""
    from roughlift.gauss import derive_Z, derive_seed, float_index, sample_physical
    from roughlift.linstable import renorm_v
    from roughlift.magnetic import TrialResult

    eps, drift, n_fine = plan.eps, plan.drift, plan.n_fine
    v = renorm_v(drift)
    seed = derive_seed(cfg.base_seed, float_index(eps), trial_index)
    P, W = sample_physical(drift, eps, cfg.T, n_fine, seed, step=plan.step)
    out_idx = np.arange(0, n_fine + 1, plan.stride)

    level2 = np.empty((n_fine + 1, cfg.d, cfg.d))
    liftP = full_lift_piecewise_linear(P.times, P.values, out=level2).restrict(out_idx)
    Z = derive_Z(P, W, out=P.values)
    liftZ = full_lift_piecewise_linear(Z.times, Z.values, out=level2).restrict(out_idx)
    liftW = full_lift_piecewise_linear(W.times, W.values, out=level2).restrict(out_idx)

    zero = full_zero_lift(liftP.times, cfg.d)
    distP_renorm = full_holder_distance(full_translate(liftP, v), zero, cfg.alpha)
    distP_raw = full_holder_distance(liftP, zero, cfg.alpha)
    distZ_renorm = full_holder_distance(full_translate(liftZ, v), liftW, cfg.alpha)
    distZ_raw = full_holder_distance(liftZ, liftW, cfg.alpha)
    area_dev = float(np.linalg.norm(liftZ.level2[-1] - liftW.level2[-1]))
    return TrialResult(eps=float(eps), distP_renorm=distP_renorm,
                       distP_raw=distP_raw, distZ_renorm=distZ_renorm,
                       distZ_raw=distZ_raw, areaDev1=area_dev,
                       vNorm=float(np.linalg.norm(v)))


def _full_leadlag_level2(x, stride: int, out, ref=0.0) -> np.ndarray:
    m, d = x.shape[-2] - 1, x.shape[-1]
    D, half_qv = out[..., :d, :d], out[..., d:, d:]
    full_lift_piecewise_linear(np.arange(m + 1) / m, x, stride, out=D)
    D -= ref
    full_running_outer_sum(x, stride, half_qv, midpoint=False)
    half_qv *= 0.5
    np.subtract(D, half_qv, out=out[..., :d, d:])
    np.add(D, half_qv, out=out[..., d:, :d])
    half_qv[...] = D
    return out


def _full_leadlag_residuals(cfg, trials, plan=None):
    d, n_ref, n_min = cfg.d, cfg.n_ref, cfg.n_schedule[0]
    x = _draws(cfg, trials, plan)
    ref = full_lift_piecewise_linear(np.arange(n_ref + 1) / n_ref, x,
                                     stride=n_ref // n_min).level2
    res = np.empty((len(x), len(cfg.n_schedule), n_min + 1, 2 * d, 2 * d))
    for m, n in enumerate(cfg.n_schedule):
        _full_leadlag_level2(x[:, ::n_ref // n], n // n_min, res[:, m], ref)
    end = res[:, :, -1]
    area = 0.5 * np.diagonal(end[..., :d, d:] - end[..., d:, :d], axis1=-2, axis2=-1)
    return res, -np.mean(area, axis=-1)


def leadlag_trial_full_level2(cfg, trials, plan=None):
    """leadlag.run_leadlag_trial on the full-level-2 route: residuals of
    2d x 2d level 2 and a sweep squaring all their entries, shifted by the
    counter-terms' full arrays."""
    from roughlift.leadlag import TrialResult, counter_terms

    res, area = _full_leadlag_residuals(cfg, trials, plan)
    b, k, n1, d2 = res.shape[:4]
    times = np.arange(n1) / cfg.n_schedule[0]
    members = FullLiftedPath(times, np.broadcast_to(0.0, (b * k, n1, d2)),
                             res.reshape(b * k, n1, d2, d2))
    shifts = counter_terms(cfg.H, cfg.n_schedule, cfg.d)
    dist_raw, dist_ren = full_holder_sweep(members, full_zero_lift(times, d2), cfg.alpha,
                                           np.tile(shifts, (b, 1, 1)))
    vnorms = [float(np.linalg.norm(v)) for v in shifts]
    return [[TrialResult(n=n, dist_renorm=float(ren), dist_raw=float(raw), areaDev1=float(dev),
                         vNorm=vnorm)
             for n, raw, ren, dev, vnorm in zip(cfg.n_schedule, raws, rens, devs, vnorms)]
            for raws, rens, devs in zip(dist_raw.reshape(b, k), dist_ren.reshape(b, k), area)]
