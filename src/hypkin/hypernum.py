"""Arithmetic and geometry of hyperbolic (split-complex) numbers.

The plane is coordinatized by numbers z = x + jy where the unipotent unit j
satisfies j*j = +1.  The bilinear form <z, w> = Re(z * conj(w)) = xu - yv has
signature (1, 1), so the induced geometry is Lorentzian rather than Euclidean:
the lines y = +/-x consist of isotropic (lightlike) zero divisors, and the set
of points at "distance" r > 0 from the origin is a four-branched hyperbola.

HypNumber is an immutable __slots__ value that rejects a non-finite component
on every construction, arithmetic results included.  Every operation here is
a pure function of immutable values and is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from math import isfinite


class LightlikeError(ArithmeticError):
    """Raised when an operation needs to invert an isotropic (zero-divisor) value."""


def _fmt(v: float) -> str:
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return f"{v:.17g}"


class HypNumber:
    """A hyperbolic number x + jy, the coordinate object of the Lorentzian plane."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        x, y = float(x), float(y)
        if not (isfinite(x) and isfinite(y)):
            raise ValueError(f"non-finite hyperbolic number ({x}, {y})")
        _set_x(self, x)
        _set_y(self, y)

    def __setattr__(self, name, *value):
        raise AttributeError(f"HypNumber is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.x, self.y) == (other.x, other.y)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return f"HypNumber(x={self.x!r}, y={self.y!r})"

    def __reduce__(self):
        return HypNumber, (self.x, self.y)

    def __add__(self, other: "HypNumber") -> "HypNumber":
        return HypNumber(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "HypNumber") -> "HypNumber":
        return HypNumber(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "HypNumber":
        return HypNumber(-self.x, -self.y)

    def __mul__(self, other):
        if isinstance(other, HypNumber):
            return HypNumber(self.x * other.x + self.y * other.y, self.x * other.y + self.y * other.x)
        return HypNumber(self.x * other, self.y * other)

    __rmul__ = __mul__  # only reached with a scalar on the left

    def __truediv__(self, other):
        if isinstance(other, HypNumber):
            u, v = other.x, other.y
            den = u * u - v * v
            if den == 0.0:
                raise LightlikeError(f"division by isotropic number {other}")
            return HypNumber((self.x * u - self.y * v) / den, (self.y * u - self.x * v) / den)
        return HypNumber(self.x / other, self.y / other)

    def __str__(self) -> str:
        # "a+bj" / "a-bj" with 17 significant digits, as used in CSV export.
        if self.y >= 0:
            return f"{_fmt(self.x)}+{_fmt(self.y)}j"
        return f"{_fmt(self.x)}-{_fmt(-self.y)}j"


# the slots' own setters, which bypass the refusing __setattr__
_set_x, _set_y = HypNumber.x.__set__, HypNumber.y.__set__

ZERO = HypNumber(0.0, 0.0)
ONE = HypNumber(1.0, 0.0)
J = HypNumber(0.0, 1.0)


class Branch(Enum):
    """Sector of the plane cut out by the isotropic lines y = +/-x."""

    HI = "H-I"  # x > |y|, right sector
    HII = "H-II"  # y > |x|, upper sector
    HIII = "H-III"  # x < -|y|, left sector
    HIV = "H-IV"  # y < -|x|, lower sector
    LIGHTLIKE = "lightlike"  # |x| = |y|, on an isotropic line


@dataclass(frozen=True)
class PolarForm:
    """Polar decomposition z = +/- r e^{j phi} (or +/- r j e^{j phi}).

    r is always positive; the sign and the j factor are carried by the branch:
    HI -> r e^{j phi}, HII -> r j e^{j phi}, HIII and HIV carry a leading minus.
    """

    r: float
    phi: float
    branch: Branch


def mul(z: HypNumber, w: HypNumber) -> HypNumber:
    """Ring product (x+jy)(u+jv) = (xu+yv) + j(xv+yu)."""
    return z * w


def jmul(z: HypNumber) -> HypNumber:
    """Multiply by j: swaps the two components."""
    return HypNumber(z.y, z.x)


def conj(z: HypNumber) -> HypNumber:
    """Hyperbolic conjugate x - jy."""
    return HypNumber(z.x, -z.y)


def inner(z: HypNumber, w: HypNumber) -> float:
    """Lorentzian inner product <z, w> = Re(z conj(w)) = xu - yv."""
    return z.x * w.x - z.y * w.y


def modulus_h(z: HypNumber) -> float:
    """Hyperbolic modulus sqrt(|x^2 - y^2|); vanishes exactly on y = +/-x."""
    return math.sqrt(abs(z.x * z.x - z.y * z.y))


def classify(z: HypNumber) -> Branch:
    """Branch of z, by exact comparison of |x| and |y| (no epsilon band)."""
    ax, ay = abs(z.x), abs(z.y)
    if ax == ay:
        return Branch.LIGHTLIKE
    if ax > ay:
        return Branch.HI if z.x > 0 else Branch.HIII
    return Branch.HII if z.y > 0 else Branch.HIV


def polar(z: HypNumber) -> PolarForm:
    """Polar form of a non-lightlike number.

    For HI/HIII the hyperbolic angle is atanh(y/x); for HII/HIV it is
    atanh(x/y).  Raises LightlikeError on the isotropic lines, where no polar
    form exists.
    """
    branch = classify(z)
    if branch is Branch.LIGHTLIKE:
        raise LightlikeError(f"no polar form on isotropic line: {z}")
    r = modulus_h(z)
    if branch in (Branch.HI, Branch.HIII):
        phi = math.atanh(z.y / z.x)
    else:
        phi = math.atanh(z.x / z.y)
    return PolarForm(r, phi, branch)


def reconstruct(pf: PolarForm) -> HypNumber:
    """Inverse of polar(): rebuild the number from (r, phi, branch)."""
    c = pf.r * math.cosh(pf.phi)
    s = pf.r * math.sinh(pf.phi)
    if pf.branch is Branch.HI:
        return HypNumber(c, s)
    if pf.branch is Branch.HII:
        return HypNumber(s, c)
    if pf.branch is Branch.HIII:
        return HypNumber(-c, -s)
    if pf.branch is Branch.HIV:
        return HypNumber(-s, -c)
    raise ValueError(f"cannot reconstruct branch {pf.branch}")


def exp_j(phi: float) -> HypNumber:
    """Unit rotation e^{j phi} = cosh(phi) + j sinh(phi), modulus 1 on H-I."""
    return HypNumber(math.cosh(phi), math.sinh(phi))


def div(z: HypNumber, w: HypNumber) -> HypNumber:
    """Quotient z/w = z conj(w) / (u^2 - v^2).

    Raises LightlikeError when w is isotropic (a zero divisor), including
    w = 0; silent infinities are never produced.
    """
    return z / w
