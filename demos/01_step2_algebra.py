"""Step-2 lifts from scratch: segments, Chen products, areas, translation.

Walks through the group structure on a toy path you can integrate by hand,
then shows that the area shift of ``translate`` is exactly interval-linear.
"""
import numpy as np

from roughlift import (area_entries, chen_inv, chen_mul, exp_step2, holder_distance, levy_area,
                       lift_piecewise_linear, translate)

print("== segment lifts ==")
a = exp_step2([1.0, 0.0])
b = exp_step2([0.0, 1.0])
print("segment (1,0): level2 =\n", a.level2)

ab = chen_mul(a, b)
print("\nL-shaped path (0,0)->(1,0)->(1,1): level2 =\n", ab.level2)
print("its Levy area A^{12} =", levy_area(ab)[0, 1], " (the two segments enclose")
print("a triangle of area 1/2 against the chord)")

print("\n== group structure ==")
inv = chen_inv(ab)
round_trip = chen_mul(ab, inv)
print("x * x^{-1}: level1 =", round_trip.level1, " level2 =\n", round_trip.level2)

print("\n== a closed loop has pure area ==")
loop = np.array([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)], dtype=float)
lift = lift_piecewise_linear(np.linspace(0, 1, 5), loop)
top = lift.interval(0, 4)
print("unit square, counter-clockwise: increment =", top.level1)
print("Levy area A^{12} =", levy_area(top)[0, 1], "(the enclosed area)")

print("\n== translation = adding (t-s) * v to every interval ==")
rng = np.random.default_rng(0)
path = lift_piecewise_linear(np.linspace(0, 1, 9), rng.standard_normal((9, 2)))
v = np.array([[0.0, -2.0], [2.0, 0.0]])
print("a lift stores level 1 and the area entries p < q of level 2:",
      path.area.shape, "; v's entries:", area_entries(v))
shifted = translate(path, area_entries(v))
for (i, j) in [(0, 8), (2, 5)]:
    gap = shifted.interval(i, j).level2 - path.interval(i, j).level2
    dt = path.times[j] - path.times[i]
    print(f"interval ({i},{j}): level2 shift / (t-s) =\n", gap / dt)

print("\nHoelder distance to the original equals T^{1-2a} ||v||_F, attained at")
print("the full interval:")
for alpha in (0.0, 0.25, 0.45):
    d = holder_distance(shifted, path, alpha)
    print(f"  alpha={alpha}: distance = {d:.6f}  (||v||_F = {np.linalg.norm(v):.6f})")
