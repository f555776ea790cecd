"""Exact jets of the analytic basis against the central-difference oracle."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypkin import (
    BasisTerm,
    HypNumber,
    HypPath,
    ScalarPath,
    TermKind,
    cosh_term,
    eval_hyp_jet,
    eval_jet,
    exp_term,
    poly_term,
    sinh_term,
)
from hypkin.paths import _rates
from oracles import fd_jet


def test_linear_poly_jet():
    path = ScalarPath.polynomial(2, 1)  # 2 + t
    jet = eval_jet(path, 0.0)
    assert (jet.v, jet.d1, jet.d2) == (2.0, 1.0, 0.0)


def test_sinh_jet_at_zero():
    jet = eval_jet(ScalarPath((sinh_term(1, 1),)), 0.0)
    assert (jet.v, jet.d1, jet.d2) == (0.0, 1.0, 0.0)


def test_cosh_jet_closed_form():
    jet = eval_jet(ScalarPath((cosh_term(3, 2),)), 0.5)
    assert abs(jet.v - 3 * math.cosh(1)) < 1e-14
    assert abs(jet.d1 - 6 * math.sinh(1)) < 1e-14
    assert abs(jet.d2 - 12 * math.cosh(1)) < 1e-14


def test_exp_jet():
    jet = eval_jet(ScalarPath((exp_term(2, -1),)), 0.25)
    e = 2 * math.exp(-0.25)
    assert abs(jet.v - e) < 1e-14
    assert abs(jet.d1 + e) < 1e-14
    assert abs(jet.d2 - e) < 1e-14


def test_poly_jet_avoids_zero_power_singularity():
    jet = eval_jet(ScalarPath.polynomial(5), 0.0)
    assert (jet.v, jet.d1, jet.d2) == (5.0, 0.0, 0.0)
    jet = eval_jet(ScalarPath.polynomial(0, 0, 4), 0.0)  # 4 t^2
    assert (jet.v, jet.d1, jet.d2) == (0.0, 0.0, 8.0)


def test_hyp_jet_componentwise():
    u = HypPath(
        ScalarPath((sinh_term(1, 1),)),
        ScalarPath((cosh_term(1, 1), poly_term(-1, 0))),
    )
    v, d1, d2, d3 = eval_hyp_jet(u, 0.0)
    assert v == HypNumber(0, 0)
    assert d1 == HypNumber(1, 0)
    assert d2 == HypNumber(0, 1)
    assert d3 == HypNumber(1, 0)


def test_hyp_jet_constant_and_linear():
    const = HypPath.constant(HypNumber(2.5, -1.0))
    v, d1, d2, d3 = eval_hyp_jet(const, 17.0)
    assert v == HypNumber(2.5, -1.0)
    assert d1 == HypNumber(0, 0) and d2 == HypNumber(0, 0) and d3 == HypNumber(0, 0)
    lin = HypPath(ScalarPath.polynomial(0, 1), ScalarPath.constant(0))
    v, d1, d2, d3 = eval_hyp_jet(lin, 3.0)
    assert v == HypNumber(3, 0)
    assert d1 == HypNumber(1, 0) and d2 == HypNumber(0, 0) and d3 == HypNumber(0, 0)


def test_fd_jet_examples():
    lin = ScalarPath.polynomial(2, 1)
    assert abs(fd_jet(lin, 0.0, 1e-5).d1 - 1.0) <= 1e-9
    sh = ScalarPath((sinh_term(1, 1),))
    assert abs(fd_jet(sh, 0.0, 1e-5).d1 - 1.0) <= 1e-9
    ch = ScalarPath((cosh_term(1, 1),))
    assert abs(fd_jet(ch, 0.0, 1e-4).d2 - 1.0) <= 1e-6
    assert abs(fd_jet(sh, 0.0, 1e-3).d3 - 1.0) <= 1e-6


def test_fd_jet_requires_positive_eps():
    with pytest.raises(ValueError):
        fd_jet(ScalarPath.constant(1), 0.0, 0.0)


def test_jets_match_finite_differences_on_grid():
    paths = [
        ScalarPath.polynomial(1, -2, 0.5, 0.25),
        ScalarPath((cosh_term(0.7, 1.3),)),
        ScalarPath((sinh_term(-1.2, 0.8),)),
        ScalarPath((exp_term(0.4, -0.9),)),
        ScalarPath((poly_term(1, 3), cosh_term(0.5, 2), sinh_term(1, 1), exp_term(-0.3, 0.5))),
    ]
    for path in paths:
        for i in range(41):
            t = -2.0 + 4.0 * i / 40
            jet = eval_jet(path, t)
            fd1 = fd_jet(path, t, 1e-5)
            fd2 = fd_jet(path, t, 1e-4)
            fd3 = fd_jet(path, t, 1e-3)
            assert abs(jet.d1 - fd1.d1) <= 1e-6 * (1 + abs(jet.d1))
            assert abs(jet.d2 - fd2.d2) <= 1e-4 * (1 + abs(jet.d2))
            assert abs(jet.d3 - fd3.d3) <= 1e-4 * (1 + abs(jet.d3))


def test_linearity_exact_on_dyadic_terms():
    # dyadic coefficients at dyadic times: every operation is exact in binary
    a = (poly_term(0.5, 0), poly_term(2, 1))
    b = (poly_term(0.25, 2), poly_term(-4, 3))
    for t in (-1.5, -0.5, 0.0, 0.25, 2.0):
        whole = eval_jet(ScalarPath(a + b), t)
        ja = eval_jet(ScalarPath(a), t)
        jb = eval_jet(ScalarPath(b), t)
        assert whole.v == ja.v + jb.v
        assert whole.d1 == ja.d1 + jb.d1
        assert whole.d2 == ja.d2 + jb.d2
        assert whole.d3 == ja.d3 + jb.d3


def test_linearity_generic_terms():
    a = (cosh_term(0.7, 1.1), sinh_term(-0.2, 0.9))
    b = (exp_term(0.3, -1.4), poly_term(1.7, 2))
    for t in (-1.2, 0.3, 0.9):
        whole = eval_jet(ScalarPath(a + b), t)
        ja = eval_jet(ScalarPath(a), t)
        jb = eval_jet(ScalarPath(b), t)
        assert abs(whole.v - (ja.v + jb.v)) <= 1e-15 * (1 + abs(whole.v))
        assert abs(whole.d1 - (ja.d1 + jb.d1)) <= 1e-15 * (1 + abs(whole.d1))
        assert abs(whole.d2 - (ja.d2 + jb.d2)) <= 1e-15 * (1 + abs(whole.d2))
        assert abs(whole.d3 - (ja.d3 + jb.d3)) <= 1e-15 * (1 + abs(whole.d3))


def test_basis_term_validation():
    with pytest.raises(ValueError):
        BasisTerm(TermKind.POLY, 1.0, 1.5)
    with pytest.raises(ValueError):
        BasisTerm(TermKind.POLY, 1.0, -1)
    with pytest.raises(ValueError):
        BasisTerm(TermKind.COSH, math.inf, 1.0)
    BasisTerm(TermKind.COSH, 1.0, 1.5)  # non-integer frequency is fine


# ---------------------------------------------------------------------------
# _rates: the first-derivative kernel of the load-time checks

# instants near the edges of the float range: exp(w t) overflows past
# w t = 709.78, cosh and sinh past 710.48, and t**300 past |t| = 10.6
instants = st.one_of(
    st.floats(-3, 3),
    st.floats(1, 12) | st.floats(-12, -1),
    st.floats(709, 711.5) | st.floats(-711.5, -709),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 709.78, 710.48, 10.6]),
)
coeffs = st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e300, -1e300, 1.7e308])
freqs = st.sampled_from([1.0, -1.0, 2.0, 0.5]) | st.floats(-3, 3)
terms = st.one_of(
    st.builds(poly_term, coeffs, st.integers(0, 4) | st.integers(0, 300)),
    st.builds(cosh_term, coeffs, freqs),
    st.builds(sinh_term, coeffs, freqs),
    st.builds(exp_term, coeffs, freqs),
)


def reference_rates(path, times):
    """eval_jet's d1 at each instant up to the first OverflowError, and the
    index of that instant (None when none overflows)."""
    out = []
    for i, t in enumerate(times):
        try:
            out.append(eval_jet(path, t).d1)
        except OverflowError:
            return out, i
    return out, None


def kernel_rates(path, times):
    out = []
    rates = _rates(path, times)
    try:
        for rate in rates:
            out.append(rate)
    except OverflowError:
        return out, len(out)
    return out, None


@settings(max_examples=400, deadline=None)
@given(st.lists(terms, min_size=1, max_size=5), st.lists(instants, min_size=1, max_size=8))
@example([poly_term(2.0, 0), poly_term(-3.0, 1)], [0.0, 1.0])  # phi' from power-1 alone
@example([exp_term(1.0, 1.0)], [709.0, 709.78, 709.79, 0.0])
@example([cosh_term(1.0, 1.0), sinh_term(-1.0, 1.0)], [710.4, 710.48, 710.5])
@example([poly_term(1.0, 300)], [10.5, 10.6, 10.7])
@example([poly_term(1e300, 2), poly_term(-1e300, 2), poly_term(1.7e308, 3)], [5.0])  # inf - inf
def test_rates_are_eval_jet_d1_bit_for_bit(terms, times):
    path = ScalarPath(tuple(terms))
    expected, stop = reference_rates(path, times)
    got, got_stop = kernel_rates(path, times)
    assert got_stop == stop  # the same first overflowing instant, or none
    # repr tells nan, inf and the sign of zero apart
    assert [repr(r) for r in got] == [repr(r) for r in expected]


def test_rates_are_lazy():
    # exp(800 t) overflows at t = 1 only; the instants before it are yielded first
    rates = _rates(ScalarPath((exp_term(1.0, 800.0),)), [0.0, 0.5, 1.0])
    assert next(rates) == 800.0
    assert next(rates) == 800.0 * math.exp(400.0)
    with pytest.raises(OverflowError):
        next(rates)
