"""Dense small-matrix machinery for stable drifts M = A - B.

A is symmetric with strictly positive spectrum (friction), B anti-symmetric
(magnetic force).  Everything downstream needs three objects built from M:

* the stationary covariance C solving M C + C M^T = I (equivalently
  C = int_0^inf e^{-Ms} e^{-M^T s} ds),
* the area counter-term v = -1/2 (M C - C M^T), anti-symmetric, which
  diverges with ||B||,
* the exact Gaussian transition of dP = -(M/eps^2) P dt + dW jointly with
  the driving increment, used by the samplers.

Sizes are tiny (d <= 16), so the Lyapunov equation is solved by Kronecker
vectorisation rather than Bartels-Stewart.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .tensor2 import IDENTITY_TOL, RenormTerm

# e^{-lam*r} underflows double precision far before this; treat the
# transient as fully relaxed beyond it.
_RELAXED = 350.0


@dataclass(frozen=True)
class StableDrift:
    """Drift matrix M = A - B with spectral margin lam = min Re sigma(M) > 0.

    Re sigma(M) is bounded below by the smallest eigenvalue of A, so lam > 0
    whenever A is positive definite; lam equals min sigma(A) exactly when A
    is a multiple of the identity.
    """

    A: np.ndarray
    B: np.ndarray
    M: np.ndarray = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
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

    @property
    def dim(self) -> int:
        return self.meanMap.shape[0]

    def joint_cov(self) -> np.ndarray:
        return np.block([[self.covPP, self.covPW], [self.covPW.T, self.covWW]])

    def noise_factor(self) -> np.ndarray:
        """Square root L of the joint covariance, L @ L.T = joint_cov().

        Tiny negative eigenvalues (roundoff from the M^{-1} cross term) are
        clipped at -1e-12 relative; anything below that is an error.

        L is not continuous in the bits of the covariance: where eigenvalues
        repeat (in equal pairs for A = I, B0 = J) eigh may return any basis
        of each pair, so a last-bit change to covPP can move L by 2 max|L|
        while L @ L.T moves by 1e-15, and every sample drawn through L with it.
        """
        cov = self.joint_cov()
        vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
        tol = 1e-12 * max(1.0, float(vals.max(initial=0.0)))
        if vals.min() < -tol:
            raise ValueError(f"joint covariance not PSD: min eigenvalue {vals.min():g}")
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def mat_exp(M) -> np.ndarray:
    """Matrix exponential (scaling-and-squaring with Pade approximant)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return scipy.linalg.expm(M)


def _lyapunov_residual(M, C):
    d = M.shape[0]
    return np.eye(d) - (M @ C + C @ M.T)


def lyapunov_C(drift: StableDrift) -> np.ndarray:
    """Stationary covariance: the unique solution of M C + C M^T = I.

    Kronecker vectorised solve (O(d^6), fine for d <= 16) followed by one
    refinement pass; refinement keeps the residual near roundoff when the
    anti-symmetric part makes the system ill-conditioned.
    """
    M = drift.M
    d = M.shape[0]
    K = np.kron(np.eye(d), M) + np.kron(M, np.eye(d))
    lu = scipy.linalg.lu_factor(K)
    C = scipy.linalg.lu_solve(lu, np.eye(d).reshape(-1)).reshape(d, d)
    C = 0.5 * (C + C.T)
    R = _lyapunov_residual(M, C)
    C = C + scipy.linalg.lu_solve(lu, R.reshape(-1)).reshape(d, d)
    return 0.5 * (C + C.T)


def renorm_v(drift: StableDrift) -> RenormTerm:
    """Area counter-term v = -1/2 (M C - C M^T).

    Equivalent forms C M^T - I/2 and -M C + I/2 follow from the Lyapunov
    identity; their pairwise gaps equal half the Lyapunov residual.
    """
    C = lyapunov_C(drift)
    v = -0.5 * (drift.M @ C - C @ drift.M.T)
    return RenormTerm(0.5 * (v - v.T))


def partial_C(drift: StableDrift, r: float) -> np.ndarray:
    """Finite-horizon covariance C_r = int_0^r e^{-Mu} e^{-M^T u} du.

    Evaluated as C - e^{-Mr} C e^{-M^T r}; increases monotonically to C.
    """
    if r < 0.0:
        raise ValueError("r must be non-negative")
    C = lyapunov_C(drift)
    if r == 0.0:
        return np.zeros_like(C)
    if drift.lam * r > _RELAXED:
        return C
    E = mat_exp(-drift.M * r)
    Cr = C - E @ C @ E.T
    return 0.5 * (Cr + Cr.T)


def ou_joint_transition(drift: StableDrift, eps: float, h: float) -> OUTransition:
    """Exact transition of dP = -(M/eps^2) P dt + dW over a step h,
    jointly with the Brownian increment over the same step."""
    if h <= 0.0 or eps <= 0.0:
        raise ValueError("h and eps must be positive")
    d = drift.dim
    r = h / eps ** 2
    if drift.lam * r > _RELAXED:
        E = np.zeros((d, d))
    else:
        E = mat_exp(-drift.M * r)
    covPP = eps ** 2 * partial_C(drift, r)
    covPW = eps ** 2 * np.linalg.solve(drift.M, np.eye(d) - E)
    return OUTransition(h=h, meanMap=E, covPP=covPP, covPW=covPW,
                        covWW=h * np.eye(d))
