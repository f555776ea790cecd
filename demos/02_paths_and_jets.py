"""
Analytic time paths and exact jets
==================================

Motions are driven by scalar functions built from a closed basis (monomials,
cosh, sinh, exp).  Because each term differentiates in closed form, a path
reports its exact value and first three derivatives at any instant, which
central differences of its value corroborate.
"""

from hypkin import HypPath, ScalarPath, eval_hyp_jet, eval_jet
from hypkin.paths import cosh_term, poly_term, sinh_term

# h(t) = 2 + t: a drifting homothetic scale.
h = ScalarPath.polynomial(2, 1)
print("h jets at t=0      :", eval_jet(h, 0.0))

# 3 cosh(2t): jets scale with powers of the frequency.
wave = ScalarPath((cosh_term(3, 2),))
print("3cosh(2t) at t=0.5 :", eval_jet(wave, 0.5))

# Central differences of the value approach the exact jet as O(eps^2), until
# roundoff, which grows like 1/eps^k in the k-th derivative, takes over.
exact = eval_jet(wave, 0.5)
for eps in (1e-2, 1e-3, 1e-4):
    f0, fp, fm = (eval_jet(wave, 0.5 + k * eps).v for k in (0, 1, -1))
    d1 = (fp - fm) / (2.0 * eps)
    d2 = (fp - 2.0 * f0 + fm) / (eps * eps)
    print(f"eps={eps:7.0e}  d1 error {abs(d1 - exact.d1):.3e}  d2 error {abs(d2 - exact.d2):.3e}")

# Hyperbolic-number paths differentiate componentwise.  This one is the
# origin path of the reference motion used across the demos: at t=0 its jets
# are (0, 1, j, 1).
u = HypPath(
    ScalarPath((sinh_term(1, 1),)),
    ScalarPath((cosh_term(1, 1), poly_term(-1, 0))),
)
value, velocity, acceleration, jerk = eval_hyp_jet(u, 0.0)
print("u(0), u'(0), u''(0), u'''(0):", value, velocity, acceleration, jerk)
