"""The magnetic counter-term and its blow-up.

For drift M = A - B the stationary covariance C solves M C + C M^T = I and
the counter-term is the anti-symmetric part v = -1/2 (M C - C M^T).  With
A = I and B = b J the closed form is C = I/2, v = (b/2) J: the counter-term
grows linearly with the magnetic field while C stays bounded.
"""
import numpy as np

from roughlift import StableDrift, lyapunov_C, renorm_v

J = np.array([[0.0, -1.0], [1.0, 0.0]])

print("A = I, B = b J: counter-term norm vs field strength")
print(f"{'b':>10} {'||C||_F':>12} {'||v||_F':>12} {'||v||/b':>10}")
for k in range(0, 11, 2):
    b = 2.0 ** k
    drift = StableDrift(np.eye(2), b * J)
    C = lyapunov_C(drift)
    vnorm = np.linalg.norm(renorm_v(drift))
    print(f"{b:10.1f} {np.linalg.norm(C):12.6f} {vnorm:12.4f} {vnorm / b:10.6f}")

print("\nthe three equivalent forms agree to roundoff:")
drift = StableDrift(np.eye(2), 1024.0 * J)
C = lyapunov_C(drift)
M = drift.M
forms = {
    "-1/2 (M C - C M^T)": -0.5 * (M @ C - C @ M.T),
    "C M^T - I/2       ": C @ M.T - 0.5 * np.eye(2),
    "-M C + I/2        ": -M @ C + 0.5 * np.eye(2),
}
ref = renorm_v(drift)
for name, val in forms.items():
    print(f"  {name} max gap = {np.abs(val - ref).max():.3e}")

print("\na generic drift (A not a multiple of I) still gives an exactly")
print("anti-symmetric counter-term:")
rng = np.random.default_rng(1)
q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
A = q.T @ np.diag([0.4, 1.0, 1.7]) @ q
g = rng.standard_normal((3, 3))
drift = StableDrift(0.5 * (A + A.T), 50.0 * (g - g.T) / np.linalg.norm(g - g.T))
v = renorm_v(drift)
print("v =\n", v.round(6))
print("||v + v^T|| =", np.linalg.norm(v + v.T))
