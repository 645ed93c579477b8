"""Lead-lag lift of discretised fBm: quadratic variation in the area.

Per sample path, the (lag, lead) cross area over [0,1] sits exactly half a
quadratic variation below the doubled-path area (an algebraic identity,
which ``leadlag_lift`` writes in closed form); in expectation that gap is
n^{1-2H}/2, which diverges for H < 1/2.  Adding it back as (t-s) * v
restores convergence.
"""
import numpy as np

from roughlift import (LeadLagConfig, hoff_path, leadlag_experiment, leadlag_lift,
                       levy_area, lift_piecewise_linear)
from roughlift.report import fit_loglog

print("== the identity, on one draw ==")
rng = np.random.default_rng(3)
x = rng.standard_normal((9, 1)).cumsum(axis=0)
x -= x[0]
lift = lift_piecewise_linear(*hoff_path(x))
area = levy_area(lift.interval(0, len(lift.times) - 1))
qv = float(np.sum(np.diff(x[:, 0]) ** 2))
print("cross area from the lift:   ", area[0, 1])
print("leadlag_lift closed form:   ", levy_area(leadlag_lift(x).interval(0, 8))[0, 1])
print("interpolation area - QV/2:  ", 0.0 - 0.5 * qv, " (d = 1: area term is 0)")

print("\n== convergence experiment (H = 0.4) ==")
cfg = LeadLagConfig(H=0.4, alpha=0.3, n_schedule=(16, 32, 64, 128, 256),
                    n_ref=2048, d=1, mc_trials=32, base_seed=7)
rows = leadlag_experiment(cfg, threads=2)
print(f"{'n':>6} {'v = n^(1-2H)/2':>15} {'raw area dev':>13} {'dist renorm':>12} {'dist raw':>10}")
for r in rows:
    v_scalar = 0.5 * r["n"] ** (1 - 2 * cfg.H)
    print(f"{r['n']:6d} {v_scalar:15.4f} {r['areaDev1_mean']:13.4f} "
          f"{r['dist_renorm_mean']:12.4f} {r['dist_raw_mean']:10.4f}")

ns = [r["n"] for r in rows]
s_ren = fit_loglog([(n, r["dist_renorm_mean"]) for n, r in zip(ns, rows)])[0]
s_dev = fit_loglog([(n, r["areaDev1_mean"]) for n, r in zip(ns, rows)])[0]
print(f"\nrenormalised distance slope {s_ren:+.3f} (negative: converges)")
print(f"raw area deviation slope    {s_dev:+.3f} (target 1 - 2H = {1 - 2 * cfg.H:+.2f})")
