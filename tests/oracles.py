"""Test-side references for hypkin.paths and the load-time motion checks.

The finite-difference oracle lives with the tests because no library
formula uses it: every derivative hypkin reports is exact, and this is the
independent side it is checked against.  The two load checks below are the
full-jet versions of HomotheticMotion.validate() and is_homothetic(), which
read phi' and h' from a lean first-derivative kernel instead.
"""

from hypkin.kinematics import PHID_FLOOR, SAMPLES, DegenerateError, _uniform_grid
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


def validate_reference(motion) -> None:
    """HomotheticMotion.validate() from eval_jet's full 3-jet at each sample."""
    for t in _uniform_grid(*motion.interval, SAMPLES):
        if abs(eval_jet(motion.phi, t).d1) < PHID_FLOOR:
            raise DegenerateError(f"angular velocity vanishes at t={t:g}")


def is_homothetic_reference(motion) -> bool:
    """HomotheticMotion.is_homothetic() from eval_jet's full 3-jet at each sample."""
    return any(abs(eval_jet(motion.h, t).d1) > 1e-15 for t in _uniform_grid(*motion.interval, SAMPLES))
