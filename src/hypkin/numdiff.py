"""Richardson-extrapolated central differences: a test oracle only.

No formula of the library calls this module; every derivative hypkin
reports is an exact closed form.  The test suites use these helpers as the
independent side of those closed forms (pole tangents, turning rates).  One
level of Richardson extrapolation drops the truncation error to O(step^4)
while keeping the step large enough that cancellation noise stays near 1e-11
for order-one values.

The helpers are generic over the value type: anything supporting +, - and
scalar multiplication works (floats and HypNumber both do).
"""

from __future__ import annotations

DEFAULT_STEP = 5e-4


def step_at(t: float) -> float:
    """Default step: scales with |t|."""
    return DEFAULT_STEP * (1.0 + abs(t))


def d1(f, t: float, step: float | None = None):
    """First derivative of f at t, Richardson-extrapolated central difference."""
    h = step_at(t) if step is None else step
    coarse = (f(t + h) - f(t - h)) * (0.5 / h)
    fine = (f(t + 0.5 * h) - f(t - 0.5 * h)) * (1.0 / h)
    return fine * (4.0 / 3.0) - coarse * (1.0 / 3.0)


def d2(f, t: float, step: float | None = None):
    """Second derivative of f at t, Richardson-extrapolated central difference."""
    h = 5.0 * step_at(t) if step is None else step
    f0 = f(t)
    coarse = (f(t + h) - f0 * 2.0 + f(t - h)) * (1.0 / (h * h))
    fine = (f(t + 0.5 * h) - f0 * 2.0 + f(t - 0.5 * h)) * (4.0 / (h * h))
    return fine * (4.0 / 3.0) - coarse * (1.0 / 3.0)
