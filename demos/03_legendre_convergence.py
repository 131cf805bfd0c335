"""Why projecting traces beats projecting the function, in one sweep.

The quintic-smoothness 1-D target has a fifth derivative with an integrable
singularity.  A plain Legendre projection converges fast in L2 but its
fifth derivative blows up, so the order-5 Sobolev error grows with degree.
Projecting the fifth derivative instead and reconstructing through the
boundary-trace expansion keeps the same L2 rate while the Sobolev error now
decreases (slowly, like d^-1/4: the best L2 rate for that singular trace).
"""

from sobrecon import fit_slope, get_example, run_sweep

u = get_example("example1-1d")
degrees = [2, 4, 8, 16, 32, 64, 128, 256]

for gamma, r in run_sweep(u, "legendre", [(0,), (5,)], degrees).items():
    label = "plain projection" if gamma == (0,) else "order-5 trace projection"
    print(f"{label} (gamma={gamma[0]})")
    print(f"  {'degree':>6} {'L2 error':>12} {'S error':>12}")
    for d, l2, s in zip(r.params, r.l2, r.s):
        print(f"  {d:>6} {l2:>12.3e} {s:>12.3e}")
    print(f"  L2 slope over [16, 256]: {fit_slope(r, 'l2', (16, 256)):+.3f}")
    print(f"  S  slope over [16, 256]: {fit_slope(r, 's', (16, 256)):+.3f}\n")
