"""Generated-input properties of the regime classifier.

K_GN enters the classifier only through the closed-form thresholds, so a
fixed SharpConstants stands in for the shooting solve: each property checks
that the tag flips exactly at the threshold, one float below it and at it.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from planarsp import Params, regime_classify
from planarsp.constants import (SharpConstants, a_thresholds, c0,
                                mass_critical_threshold)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)

positive = st.floats(min_value=0.05, max_value=20.0)
kgn = st.floats(min_value=0.01, max_value=1.0)


def _label(gamma, a, p, c, k):
    return regime_classify(Params(gamma=gamma, a=a, p=p, c=c),
                           SharpConstants(p=p, kgn=k))


def _tag(gamma, a, p, c, k):
    return _label(gamma, a, p, c, k).tag


def _below(x):
    return math.nextafter(x, 0.0)


def _above(x):
    return math.nextafter(x, math.inf)


@SETTINGS
@given(gamma=positive, a=positive, p=st.floats(min_value=4.05, max_value=10.0), k=kgn)
def test_c0_is_the_exact_mass_threshold(gamma, a, p, k):
    czero = c0(p, a, gamma, k)
    assert _tag(gamma, a, p, _below(czero), k) == "LocalMinPlusMountainPass"
    assert _tag(gamma, a, p, czero, k) == "OpenUnknown"
    assert _tag(gamma, a, p, _above(czero), k) == "OpenUnknown"


@SETTINGS
@given(gamma=positive, a=positive, k=kgn)
def test_mass_critical_threshold_is_exact(gamma, a, k):
    c_mc = mass_critical_threshold(a, k)
    assert _tag(gamma, a, 4.0, _below(c_mc), k) == "GlobalMinMassCritical"
    assert _tag(gamma, a, 4.0, c_mc, k) == "OpenUnknown"
    assert _tag(gamma, a, 4.0, _above(c_mc), k) == "OpenUnknown"


@SETTINGS
@given(gamma=positive, p=st.floats(min_value=2.05, max_value=3.95), c=positive, k=kgn)
def test_t1_and_t2_are_the_exact_coupling_thresholds(gamma, p, c, k):
    t1, t2 = a_thresholds(p, -gamma, c, k)
    assert t1 < t2
    assert _tag(-gamma, _below(t1), p, c, k) == "LambdaEmpty"
    assert _tag(-gamma, t1, p, c, k) == "TwoCriticalPointsOnLambda"
    assert _tag(-gamma, _above(t1), p, c, k) == "TwoCriticalPointsOnLambda"
    assert _tag(-gamma, _below(t2), p, c, k) == "TwoCriticalPointsOnLambda"
    assert _tag(-gamma, t2, p, c, k) == "OpenUnknown"
    assert _tag(-gamma, _above(t2), p, c, k) == "OpenUnknown"
    # The window's certificate bounds t*^2 A below k0: k0/2 at T1.
    at_t1 = _label(-gamma, t1, p, c, k).certificate
    top = _label(-gamma, _below(t2), p, c, k).certificate
    assert at_t1["t_star_sq_A_bound"] == pytest.approx(0.5 * at_t1["k0"], rel=1e-12)
    assert at_t1["t_star_sq_A_bound"] < at_t1["k0"]
    assert top["t_star_sq_A_bound"] < top["k0"]
