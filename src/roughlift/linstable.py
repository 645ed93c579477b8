"""Dense small-matrix machinery for stable drifts M = A - B.

A is symmetric with strictly positive spectrum (friction), B anti-symmetric
(magnetic force).  Everything downstream needs three objects built from M:

* the stationary covariance C solving M C + C M^T = I (equivalently
  C = int_0^inf e^{-Ms} e^{-M^T s} ds),
* the area counter-term v = -1/2 (M C - C M^T), anti-symmetric, which
  diverges with ||B||,
* the exact Gaussian transition of dP = -(M/eps^2) P dt + dW jointly with
  the driving increment, used by the samplers.

One Lyapunov solve serves C and the transition's finite-horizon C_r.  It
vectorises the equation by Kronecker products rather than Bartels-Stewart,
so it holds three d^2 x d^2 matrices (lyapunov_bytes); a magnetic
config is rejected where that exceeds report.TRIAL_BYTES, i.e. beyond d = 74.

The module needs numpy alone: the transition's one matrix exponential is
Higham's (2005) scaling and squaring of [m/m] Pade approximants, and linear
systems go through np.linalg.solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tensor2 import IDENTITY_TOL

# e^{-lam r} underflows to exactly 0 well before lam r = 1000, so a step
# with lam r beyond it is fully relaxed and taken at that r instead.
_RELAXED = 1000.0

# Numerator coefficients b_0..b_m of the [m/m] Pade approximant of e^X, and
# the 1-norm theta_m up to which it is accurate to double precision without
# scaling (Higham 2005, Table 2.3); see _pade_exp for why m < 9 is left out.
_PADE = (
    (9, 2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                              30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    (13, 5.371920351148152e0, (64764752532480000.0, 32382376266240000.0,
                               7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                               10559470521600.0, 670442572800.0, 33522128640.0,
                               1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
)



@dataclass(frozen=True)
class StableDrift:
    """Drift matrix M = A - B with spectral margin lam = min Re sigma(M) > 0.

    Re sigma(M) is bounded below by the smallest eigenvalue of A, so lam > 0
    whenever A is positive definite; lam equals min sigma(A) exactly when A
    is a multiple of the identity.  A, B and M are read-only copies.
    """

    A: np.ndarray
    B: np.ndarray
    M: np.ndarray = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        B = np.array(self.B, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape != B.shape:
            raise ValueError("A and B must be square matrices of equal size")
        with np.errstate(over="ignore"):
            normA, normB = float(np.linalg.norm(A)), float(np.linalg.norm(B))
        if not (np.isfinite(normA) and np.isfinite(normB)):
            raise ValueError("the Frobenius norms of A and B must be finite")
        tolA = IDENTITY_TOL * max(1.0, normA)
        tolB = IDENTITY_TOL * max(1.0, normB)
        if np.linalg.norm(A - A.T) > tolA:
            raise ValueError("A must be symmetric")
        if np.linalg.norm(B + B.T) > tolB:
            raise ValueError("B must be anti-symmetric")
        M = A - B
        lam = float(np.min(np.linalg.eigvals(M).real))
        if lam <= 0.0:
            raise ValueError(f"drift is not stable: min Re eigenvalue = {lam:g}")
        for matrix in (A, B, M):
            matrix.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "lam", lam)

    @property
    def dim(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class OUTransition:
    """Exact one-step law of (P_{t+h}, W increment) given P_t.

    P_{t+h} = meanMap @ P_t + xi with (xi, dW) jointly centred Gaussian:
    Cov(xi) = covPP, Cov(xi, dW) = covPW, Cov(dW) = h I.
    """

    h: float
    meanMap: np.ndarray
    covPP: np.ndarray
    covPW: np.ndarray
    covWW: np.ndarray

    def joint_cov(self) -> np.ndarray:
        return np.block([[self.covPP, self.covPW], [self.covPW.T, self.covWW]])

    def noise_factor(self) -> np.ndarray:
        """The symmetric root L = V sqrt(Lambda) V^T of joint_cov() = L L^T.

        As the unique PSD root it does not depend on the basis eigh picks
        inside repeated eigenvalues, so it moves with the covariance's bits
        by about their rounding.  Eigenvalues down to -1e-12 relative
        (roundoff) are clipped to 0; anything below that is an error.
        """
        cov = self.joint_cov()
        vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
        tol = 1e-12 * max(1.0, float(vals.max(initial=0.0)))
        if vals.min() < -tol:
            raise ValueError(f"joint covariance not PSD: min eigenvalue {vals.min():g}")
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _pade_exp(X) -> tuple[np.ndarray, int]:
    """(F, s) with F^(2^s) = e^X: the [m/m] Pade approximant of e^{X / 2^s}
    for the least m (and then s) that Higham's (2005) theta_m allows.  The
    approximant is (V - U)^{-1} (V + U), where V + U is its numerator with
    U the odd and V the even powers.  The one X here, _ou_integrals's block
    [[-M r, I], [0, 0]], has identity columns of 1-norm 1, so ||X||_1 >= 1 >
    theta_7: Higham's m = 3, 5 and 7 could never be picked and are left out."""
    norm = float(np.linalg.norm(X, 1))
    s = 0
    for m, theta, b in _PADE:
        if norm <= theta:
            break
    else:
        s = math.ceil(math.log2(norm / theta))
        X = X / 2.0 ** s
    X2 = X @ X
    powers = [np.eye(X.shape[0]), X2]
    while len(powers) <= m // 2:
        powers.append(powers[-1] @ X2)
    U = X @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
    V = sum(b[2 * k] * P for k, P in enumerate(powers))
    return np.linalg.solve(V - U, V + U), s


def lyapunov_bytes(d: int) -> int:
    """Traced peak of a Lyapunov solve at dimension d: 3 d^2 x d^2 floats,
    the two Kronecker products _lyapunov_solve sums into K and K itself
    (np.linalg.solve's LU work is not traced)."""
    return 24 * d ** 4


def _lyapunov_solve(M, Q) -> np.ndarray:
    """The X with M X + X M^T = Q (stable M, symmetric Q): a Kronecker solve,
    then one refinement pass, which keeps the residual near roundoff when the
    anti-symmetric part makes the system ill-conditioned."""
    d = M.shape[0]
    K = np.kron(np.eye(d), M) + np.kron(M, np.eye(d))
    X = np.linalg.solve(K, Q.reshape(-1)).reshape(d, d)
    X = 0.5 * (X + X.T)
    R = Q - (M @ X + X @ M.T)
    X = X + np.linalg.solve(K, R.reshape(-1)).reshape(d, d)
    return 0.5 * (X + X.T)


def lyapunov_C(drift: StableDrift) -> np.ndarray:
    """Stationary covariance: the unique solution of M C + C M^T = I."""
    return _lyapunov_solve(drift.M, np.eye(drift.dim))


def renorm_v(drift: StableDrift) -> np.ndarray:
    """Area counter-term v = -1/2 (M C - C M^T), as the (d, d) array of its
    anti-symmetric part.

    Equivalent forms C M^T - I/2 and -M C + I/2 follow from the Lyapunov
    identity; their pairwise gaps equal half the Lyapunov residual.

    A C or v whose Frobenius norm is not finite (np.linalg.norm, which
    squares the entries) raises ValueError: a run would report that norm as
    inf and its distances as inf or nan.
    """
    C = lyapunov_C(drift)
    v = -0.5 * (drift.M @ C - C @ drift.M.T)
    v = 0.5 * (v - v.T)
    check_finite("the stationary covariance C", C)
    check_finite("the counter-term v", v)
    return v


def check_finite(name: str, x: np.ndarray) -> None:
    """ValueError unless ``x`` has a finite Frobenius norm as np.linalg.norm
    computes it, by squaring the entries."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(np.linalg.norm(x)):
            raise ValueError(f"{name} has no finite Frobenius norm")


def _ou_integrals(drift: StableDrift, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E = e^{-Mr}, K = int_0^r e^{-Mu} du and C_r = int_0^r e^{-Mu} e^{-M^T u} du.

    E and K / r are the top blocks of the exponential of [[-M r, I], [0, 0]]
    (Van Loan 1978; a coupling block r I would leak 1e-16 absolute into E at
    large r).  Its scaled Pade approximant is squared by blocks, E <- E E
    and K <- K + E K: squaring the whole block matrix compounds the rounding
    of its trailing identity block (1.2e-10 relative on K at A = I,
    B = 10^4 J, r = 349).  C_r solves M C_r + C_r M^T = I - E E^T, written
    through M K = I - E so that no step cancels at small r.  r is clamped at
    lam r = _RELAXED, where E underflows to exactly 0."""
    d = drift.dim
    r = min(r, _RELAXED / drift.lam)
    F, s = _pade_exp(np.block([[-drift.M * r, np.eye(d)], [np.zeros((d, 2 * d))]]))
    E, K = F[:d, :d], F[:d, d:]
    for _ in range(s):
        K = K + E @ K
        E = E @ E
    K = r * K
    MK = drift.M @ K
    return E, K, _lyapunov_solve(drift.M, MK + MK.T - MK @ MK.T)


def ou_joint_transition(drift: StableDrift, eps: float, h: float) -> OUTransition:
    """Exact transition of dP = -(M/eps^2) P dt + dW over a step h,
    jointly with the Brownian increment over the same step."""
    if h <= 0.0 or eps <= 0.0:
        raise ValueError("h and eps must be positive")
    E, K, Cr = _ou_integrals(drift, h / eps ** 2)
    return OUTransition(h=h, meanMap=E, covPP=eps ** 2 * Cr, covPW=eps ** 2 * K,
                        covWW=h * np.eye(drift.dim))
