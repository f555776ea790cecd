"""
Analytic time paths and exact jets
==================================

Motions are driven by scalar functions built from a closed basis (monomials,
cosh, sinh, exp).  Because each term differentiates in closed form, a path
reports its exact value and first three derivatives at any instant, which
the finite-difference oracle then corroborates.
"""

from hypkin import HypPath, ScalarPath, eval_hyp_jet, eval_jet, fd_jet
from hypkin.paths import cosh_term, poly_term, sinh_term

# h(t) = 2 + t: a drifting homothetic scale.
h = ScalarPath.polynomial(2, 1)
print("h jets at t=0      :", eval_jet(h, 0.0))

# 3 cosh(2t): jets scale with powers of the frequency.
wave = ScalarPath((cosh_term(3, 2),))
print("3cosh(2t) at t=0.5 :", eval_jet(wave, 0.5))

# The finite-difference oracle approaches the exact jet as O(eps^2); the
# suites use it at eps = 1e-5 / 1e-4 / 1e-3 to validate every closed form
# (each derivative order has its own best step).
exact = eval_jet(wave, 0.5)
for eps in (1e-2, 1e-3, 1e-4):
    approx = fd_jet(wave, 0.5, eps)
    print(f"eps={eps:7.0e}  d1 error {abs(approx.d1 - exact.d1):.3e}"
          f"  d2 error {abs(approx.d2 - exact.d2):.3e}"
          f"  d3 error {abs(approx.d3 - exact.d3):.3e}")

# Hyperbolic-number paths differentiate componentwise.  This one is the
# origin path of the reference motion used across the demos: at t=0 its jets
# are (0, 1, j, 1).
u = HypPath(
    ScalarPath((sinh_term(1, 1),)),
    ScalarPath((cosh_term(1, 1), poly_term(-1, 0))),
)
value, velocity, acceleration, jerk = eval_hyp_jet(u, 0.0)
print("u(0), u'(0), u''(0), u'''(0):", value, velocity, acceleration, jerk)
