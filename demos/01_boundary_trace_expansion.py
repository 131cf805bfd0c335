"""A function is its boundary traces: the expansion table, term by term.

For u(x, y) = x^2 y with smoothness order (2, 1) on [0, 1]^2 the expansion
has six terms, one per derivative order alpha <= (2, 1).  Each derivative is
evaluated on a lower boundary face (a corner, an edge, or the full square)
and lifted back by a polynomial multiplier or a Volterra integral.  The six
lifted terms sum to u exactly.
"""

from sobrecon import HyperRect, PiecewisePoly, face_spec, multiindex_range
from sobrecon.expansion import term_at_point

dom = HyperRect((0.0, 0.0), (1.0, 1.0))
u = (2.0 * PiecewisePoly.kernel(dom, 0, 2)).multiply_kernel(1, 1)
delta = (2, 1)
point = (0.8, 0.6)

print(f"u(x, y) = x^2 y at {point}, expanded at order {delta}\n")
print(f"{'alpha':>8} {'face':>10} {'term':>22}")
total = 0.0
for alpha in multiindex_range(delta):
    trace = u.boundary_trace(alpha, delta)
    term = term_at_point(alpha, delta, trace, point, dom)
    total += term
    print(f"{str(alpha):>8} {str(face_spec(alpha, delta)):>10} {term:>22.15f}")

direct = u(*point)
print(f"\nsum    = {total:.15f}")
print(f"direct = {direct:.15f}")
print(f"difference: {abs(total - direct):.2e}")

# Only the top term is nonzero here: every lower-order derivative of x^2 y
# vanishes on the faces x=0 / y=0, so u is carried entirely by D^(2,1)u = 2.
