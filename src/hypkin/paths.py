"""Time-dependent scalars with exact 3-jets.

Motions are driven by functions of time drawn from a small closed analytic
basis: monomials c*t^k, c*cosh(w t), c*sinh(w t) and c*exp(w t).  The basis
is closed under differentiation, so a path reports the exact 3-jet (value
and first three derivatives) at any instant with no truncation error and no
differentiation framework.  Order 3 is what the pole curves need: the pole
is built from first derivatives of the motion, and its tangent and turning
rate add two more.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .hypernum import HypNumber


class TermKind(Enum):
    POLY = "poly"
    COSH = "cosh"
    SINH = "sinh"
    EXP = "exp"


@dataclass(frozen=True)
class BasisTerm:
    """One basis term.

    For POLY, param is the (nonnegative integer) power k and the term is
    coeff * t^k.  For COSH/SINH/EXP, param is the frequency w and the term is
    coeff * cosh(w t), coeff * sinh(w t) or coeff * exp(w t).
    """

    kind: TermKind
    coeff: float
    param: float

    def __post_init__(self):
        object.__setattr__(self, "coeff", float(self.coeff))
        object.__setattr__(self, "param", float(self.param))
        if not (math.isfinite(self.coeff) and math.isfinite(self.param)):
            raise ValueError("non-finite basis term")
        if self.kind is TermKind.POLY:
            if self.param != int(self.param) or self.param < 0:
                raise ValueError(f"POLY power must be a nonnegative integer, got {self.param}")


@dataclass(frozen=True)
class Jet3:
    """Value and first three derivatives of a scalar path at one instant."""

    v: float
    d1: float
    d2: float
    d3: float


@dataclass(frozen=True)
class ScalarPath:
    """Sum of basis terms, as a function of time."""

    terms: tuple[BasisTerm, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    @classmethod
    def constant(cls, c: float) -> "ScalarPath":
        return cls((BasisTerm(TermKind.POLY, c, 0),))

    @classmethod
    def polynomial(cls, *coeffs: float) -> "ScalarPath":
        """Path c0 + c1 t + c2 t^2 + ..."""
        return cls(tuple(BasisTerm(TermKind.POLY, c, k) for k, c in enumerate(coeffs)))

    def __call__(self, t: float) -> float:
        return eval_jet(self, t).v


@dataclass(frozen=True)
class HypPath:
    """Hyperbolic-number-valued path, componentwise."""

    xpath: ScalarPath
    ypath: ScalarPath

    @classmethod
    def constant(cls, z: HypNumber) -> "HypPath":
        return cls(ScalarPath.constant(z.x), ScalarPath.constant(z.y))


def poly_term(coeff: float, power: int) -> BasisTerm:
    return BasisTerm(TermKind.POLY, coeff, power)


def cosh_term(coeff: float, freq: float) -> BasisTerm:
    return BasisTerm(TermKind.COSH, coeff, freq)


def sinh_term(coeff: float, freq: float) -> BasisTerm:
    return BasisTerm(TermKind.SINH, coeff, freq)


def exp_term(coeff: float, freq: float) -> BasisTerm:
    return BasisTerm(TermKind.EXP, coeff, freq)


def _term_jet(term: BasisTerm, t: float) -> tuple[float, float, float, float]:
    c, p = term.coeff, term.param
    if term.kind is TermKind.POLY:
        k = int(p)
        v = c * t**k
        d1 = c * k * t ** (k - 1) if k >= 1 else 0.0
        d2 = c * k * (k - 1) * t ** (k - 2) if k >= 2 else 0.0
        d3 = c * k * (k - 1) * (k - 2) * t ** (k - 3) if k >= 3 else 0.0
        return v, d1, d2, d3
    if term.kind is TermKind.COSH:
        ch, sh = math.cosh(p * t), math.sinh(p * t)
        return c * ch, c * p * sh, c * p * p * ch, c * p * p * p * sh
    if term.kind is TermKind.SINH:
        ch, sh = math.cosh(p * t), math.sinh(p * t)
        return c * sh, c * p * ch, c * p * p * sh, c * p * p * p * ch
    e = math.exp(p * t)
    return c * e, c * p * e, c * p * p * e, c * p * p * p * e


def eval_jet(path: ScalarPath, t: float) -> Jet3:
    """Exact 3-jet of the path at t, summed term by term."""
    v = d1 = d2 = d3 = 0.0
    for term in path.terms:
        tv, t1, t2, t3 = _term_jet(term, t)
        v += tv
        d1 += t1
        d2 += t2
        d3 += t3
    return Jet3(v, d1, d2, d3)


def _rates(path: ScalarPath, times):
    """path'(t) at each of the times in turn, lazily, for the load-time checks.

    Each value is eval_jet(path, t).d1 bit for bit (the same per-term
    expressions summed in the same order) and the same OverflowError comes
    at the same instant, since t**k, cosh and sinh are still evaluated; the
    value and the higher derivatives are not.  Power-0 terms add exactly 0.
    """
    terms = [(tm.kind, tm.coeff * tm.param, tm.param, int(tm.param)) for tm in path.terms
             if tm.kind is not TermKind.POLY or tm.param != 0.0]
    for t in times:
        d1 = 0.0
        for kind, cp, p, k in terms:
            if kind is TermKind.POLY:
                t**k  # noqa: B018 -- eval_jet's value term, which may overflow
                d1 += cp * t ** (k - 1)
            elif kind is TermKind.EXP:
                d1 += cp * math.exp(p * t)
            else:
                ch, sh = math.cosh(p * t), math.sinh(p * t)
                d1 += cp * (sh if kind is TermKind.COSH else ch)
        yield d1


def eval_hyp_jet(path: HypPath, t: float) -> tuple[HypNumber, HypNumber, HypNumber, HypNumber]:
    """Componentwise jets of a hyperbolic path: (u, u', u'', u''')."""
    jx = eval_jet(path.xpath, t)
    jy = eval_jet(path.ypath, t)
    return (
        HypNumber(jx.v, jy.v),
        HypNumber(jx.d1, jy.d1),
        HypNumber(jx.d2, jy.d2),
        HypNumber(jx.d3, jy.d3),
    )
