"""Independent oracles used to derive expected test values.

Each one takes a route that does not share code with the implementation it
checks: direct segment integration instead of Chen products, quadrature
instead of Lyapunov solves, Euler-Maruyama instead of exact transitions,
a per-row pair loop instead of the blocked Hoelder kernel, an
eigendecomposition and a plain loop instead of the blocked OU scan, and
whole-grid arrays instead of the row-blocked lift and noise draw; full
lifts and one distance call each instead of the lead-lag trial's strided
lifts and single sweep.
"""
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


def ou_recursion_eig(E, xi):
    """P_{k+1} = E P_k + xi_k from P_0 = 0, returned with the zero row:
    one complex first-order filter per eigenvector of E, or a plain loop
    when E is (near-)defective."""
    from scipy.signal import lfilter

    N, d = xi.shape
    out = np.zeros((N + 1, d))
    w, V = np.linalg.eig(E)
    if np.linalg.cond(V) < 1e8:
        eta = np.linalg.solve(V, xi.T.astype(complex))
        q = np.empty_like(eta)
        for i in range(d):
            q[i] = lfilter([1.0], [1.0, -w[i]], eta[i])
        out[1:] = (V @ q).T.real
    else:
        # defective meanMap: fall back to the plain scan
        p = np.zeros(d)
        for k in range(N):
            p = E @ p + xi[k]
            out[k + 1] = p
    return out


def ou_recursion_loop(E, xi):
    """P_{k+1} = E P_k + xi_k from P_0 = 0, one step at a time."""
    N, d = xi.shape
    out = np.zeros((N + 1, d))
    for k in range(N):
        out[k + 1] = E @ out[k] + xi[k]
    return out


def _dyadic_pairs(n: int):
    """Index pairs (i, i + 2^k) covering all scales of an n-interval grid."""
    k = 1
    while k <= n:
        i = np.arange(0, n - k + 1)
        yield i, i + k
        k *= 2


def holder_distance_rowloop(x, y, alpha: float, full_pairs_limit: int = 2048) -> float:
    """Reference alpha-Hoelder distance: one vectorised sweep per grid row.

    The same pairs, norms and sup as ``tensor2.holder_distance``, one row
    i against all j > i at a time (or one dyadic scale at a time), with the
    norms taken by ``np.linalg.norm``.
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

    if n <= full_pairs_limit:
        for i in range(n):
            j = np.arange(i + 1, n + 1)
            sweep(np.full(len(j), i), j)
    else:
        for i, j in _dyadic_pairs(n):
            sweep(i, j)
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


def physical_whole_draw(drift, eps, T, N, seed):
    """(times, P, W) of gauss.sample_physical with all (N, 2d) normals drawn
    in one call, W as one cumsum and the grid as arange(N + 1) / N * T.  The
    OU scan is the library's; the oracles above check it."""
    from roughlift.gauss import _ou_buffer, _ou_recursion, _rng
    from roughlift.linstable import ou_joint_transition

    d = drift.dim
    trans = ou_joint_transition(drift, eps, T / N)
    noise = _rng(seed).standard_normal((N, 2 * d)) @ trans.noise_factor().T
    W = np.zeros((N + 1, d))
    np.cumsum(noise[:, d:], axis=0, out=W[1:])
    P = _ou_buffer(N, d)
    P[1:N + 1] = noise[:, :d]
    _ou_recursion(trans.meanMap, P)
    return np.arange(N + 1) / N * T, P[:N + 1], W


def leadlag_trial_full_lifts(cfg, trial_index: int):
    """leadlag.run_leadlag_trial by full lifts: every path lifted on its own
    grid, restricted to the coarsest schedule grid, and two holder_distance
    calls per n, the renormalised one on a translated lift."""
    from roughlift.gauss import SamplerSpec, derive_seed, sample_fbm
    from roughlift.leadlag import TrialResult, hoff_path, leadlag_renorm
    from roughlift.tensor2 import holder_distance, lift_piecewise_linear, translate

    spec = SamplerSpec(seed=derive_seed(cfg.base_seed, trial_index),
                       H=cfg.H, n=cfg.n_ref, d=cfg.d)
    ref = sample_fbm(spec)
    doubled = np.hstack([ref.values, ref.values])
    ref_lift = lift_piecewise_linear(ref.times, doubled)
    n_min = cfg.n_schedule[0]
    ref_common = ref_lift.restrict(np.arange(0, cfg.n_ref + 1, cfg.n_ref // n_min))
    ref_area = 0.5 * (ref_lift.level2[-1] - ref_lift.level2[-1].T)

    out = []
    for n in cfg.n_schedule:
        x = ref.values[::cfg.n_ref // n]
        hp = hoff_path(x)
        lift = lift_piecewise_linear(hp.times, hp.values)
        common = lift.restrict(np.arange(0, 2 * n + 1, 2 * n // n_min))
        ren = leadlag_renorm(cfg.H, n, cfg.d)
        dist_ren = holder_distance(translate(common, ren.term), ref_common, cfg.alpha)
        dist_raw = holder_distance(common, ref_common, cfg.alpha)
        area = 0.5 * (lift.level2[-1] - lift.level2[-1].T)
        dev = ref_area - area
        area_dev = float(np.mean(np.diagonal(dev[:cfg.d, cfg.d:])))
        out.append(TrialResult(n=n, dist_renorm=dist_ren, dist_raw=dist_raw,
                               areaDev1=area_dev, vNorm=ren.term.norm))
    return out
