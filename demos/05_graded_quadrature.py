"""Geometric panel grading against an inverse-fourth-root singularity.

The squared fifth derivative of the 1-D target integrates to exactly 1
(closed form: the integrand is 1/(4 sqrt|s|)).  Uniform composite Gauss
stalls near the singular point; panels shrinking geometrically toward it
restore fast convergence.  This integral is the tuning oracle for the
default rule used by every error norm involving this target.
"""

from sobrecon import AxisGrading, QuadratureRule, get_example, integrate, rule_for

u = get_example("example1-1d")
f = lambda s: u.derivatives[(5,)](s) ** 2

print("uniform panels only (split at 0, no grading):")
for panels in [32, 128, 512]:
    rule = QuadratureRule(nodes=16, panels=panels, splits=((0.0,),))
    err = abs(integrate(f, u.domain, rule) - 1.0)
    print(f"  {panels:>4} panels/side -> error {err:.3e}")

print("\ngeometric grading toward 0 (ratio 1/4):")
for levels in [5, 10, 20, 40]:
    rule = QuadratureRule(nodes=16, panels=8, splits=((0.0,),),
                          grading=(AxisGrading(0.0, panels=levels),))
    err = abs(integrate(f, u.domain, rule) - 1.0)
    print(f"  {levels:>4} graded panels/side -> error {err:.3e}")

default = abs(integrate(f, u.domain, rule_for(u)) - 1.0)
print(f"\ndefault rule for this target -> error {default:.3e}")
