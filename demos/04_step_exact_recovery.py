"""Exact recovery: when the top derivative is itself a step function.

The 2-D tensor target w(x, y) = v(x) v(y) has D^(3,3) w piecewise constant
on a 4 x 4 grid.  Averaging that derivative over the cells of a grid that
resolves it loses nothing, so the order-(3,3) step reconstruction with
K >= 4 cells per axis reproduces w to machine precision, while lower
projection orders keep a fixed Sobolev error no matter how fine the grid.
"""

from sobrecon import get_example, run_sweep

w = get_example("example2-2d")
cells = [2, 4, 8, 16]

for gamma, r in run_sweep(w, "step", [(0, 0), (3, 3)], cells).items():
    print(f"gamma = {gamma}")
    print(f"  {'K':>4} {'L2 error':>12} {'S error':>12}")
    for k, l2, s in zip(r.params, r.l2, r.s):
        print(f"  {k:>4} {l2:>12.3e} {s:>12.3e}")
    print()

print("At gamma=(3,3) the K=2 grid cannot resolve the +-1/2 jumps of the")
print("top derivative, but every K >= 4 recovers w exactly.")
