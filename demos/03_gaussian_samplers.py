"""Exact Gaussian samplers: fBm by circulant embedding and the OU pair.

Verifies sampled moments against the closed-form covariances: the fBm
covariance R(s,t) = (t^{2H} + s^{2H} - |t-s|^{2H})/2, the negative lag-1
increment correlation for H < 1/2, and the stationary momentum variance
eps^2 C of the physical pair.
"""
import numpy as np

from roughlift import (StableDrift, derive_seed, fgn_autocov, lyapunov_C, sample_bm,
                       sample_fbm, sample_physical)

rng_trials = 20000

print("== fBm increment autocovariance (H = 0.25, n = 64, lag 1) ==")
H, n = 0.25, 64
target = fgn_autocov(1, H, 1.0 / n)
# one batched call: a (trials, n + 1, 1) array, member i drawn from seed i
inc = np.diff(sample_fbm([derive_seed(0, i) for i in range(rng_trials)], H, n)[:, :, 0])
acc = np.mean(inc[:, :-1] * inc[:, 1:], axis=1)
print(f"sampled {acc.mean():+.6f}  target {target:+.6f}  "
      f"se {acc.std(ddof=1) / np.sqrt(len(acc)):.6f}")
print("(negative: rough paths anti-correlate consecutive increments)")

print("\n== Cholesky cross-check at H = 1/2 ==")
n = 128
(a,) = sample_fbm([7], H=0.5, n=n)
# sample_fbm's normals: a Philox stream keyed by the seed, 2n per component;
# the Cholesky route maps the first n through the factor of the fGn covariance
z = np.random.Generator(np.random.Philox(key=7)).standard_normal(2 * n)[:n]
cov = fgn_autocov(np.subtract.outer(np.arange(n), np.arange(n)), 0.5, 1.0 / n)
b = np.concatenate([[0.0], np.cumsum(np.linalg.cholesky(cov) @ z)])
print("max |circulant - cholesky| from identical normals:",
      np.abs(a[:, 0] - b).max())

print("\n== Brownian motion covariance ==")
prods = sample_bm(1.0, 2, 1, [derive_seed(1, i) for i in range(rng_trials)])[:, 1:, 0].prod(axis=1)
print(f"E[W_1/2 W_1] sampled {prods.mean():.5f}  target 0.5")

print("\n== physical pair: stationary momentum variance ==")
J = np.array([[0.0, -1.0], [1.0, 0.0]])
drift = StableDrift(np.eye(2), 4.0 * J)
eps = 0.3
C = lyapunov_C(drift)
term = np.empty((4000, 2))
for i in range(4000):
    P, _ = sample_physical(drift, eps, 1.0, 512, seed=derive_seed(2, i))
    term[i] = P.values[-1]
print("sampled Var(P_T) =", np.var(term, axis=0).round(5),
      " target eps^2 diag(C) =", (eps ** 2 * np.diag(C)).round(5))
print("(T = 1 >> eps^2: the momentum has relaxed to stationarity)")
