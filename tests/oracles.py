"""The finite-difference oracle for the closed-form jets of hypkin.paths.

It lives with the tests because no library formula uses it: every
derivative hypkin reports is exact, and this is the independent side it is
checked against.
"""

from hypkin.paths import Jet3, ScalarPath, eval_jet


def fd_jet(path: ScalarPath, t: float, eps: float) -> Jet3:
    """Central-difference 3-jet, the test oracle for eval_jet.

    d1 = (f(t+e) - f(t-e)) / 2e, d2 = (f(t+e) - 2 f(t) + f(t-e)) / e^2 and
    d3 = (f(t+2e) - 2 f(t+e) + 2 f(t-e) - f(t-2e)) / 2e^3, all with O(e^2)
    truncation error.  Roundoff grows like 1/e^k in the k-th derivative, so
    each order wants its own step (about 1e-5, 1e-4 and 1e-3).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    f0, fp, fm, fpp, fmm = (eval_jet(path, t + k * eps).v for k in (0, 1, -1, 2, -2))
    return Jet3(
        f0,
        (fp - fm) / (2.0 * eps),
        (fp - 2.0 * f0 + fm) / (eps * eps),
        (fpp - 2.0 * fp + 2.0 * fm - fmm) / (2.0 * eps**3),
    )
