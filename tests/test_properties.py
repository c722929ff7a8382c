"""Property-based checks on randomly drawn inputs."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wchernoff import (
    Categorical,
    ConstWeight,
    Poisson,
    bernoulli_kl,
    chernoff,
    log_mean,
    rho_w,
)

positive = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
prob_interior = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


@settings(max_examples=50, deadline=None)
@given(positive, positive)
def test_log_mean_between_geometric_and_arithmetic(a, b):
    val = log_mean(a, b)
    lo, hi = math.sqrt(a * b), 0.5 * (a + b)
    assert lo - 1e-12 * hi <= val <= hi + 1e-12 * hi


@settings(max_examples=50, deadline=None)
@given(prob_interior, prob_interior)
@example(1e-6, 1.0000000000000002e-06)  # the two terms cancel to -2.2e-22 before clamping
def test_bernoulli_kl_nonnegative_and_zero_iff_equal(a, b):
    assert bernoulli_kl(a, b) >= 0.0
    assert bernoulli_kl(a, a) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=5),
       st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=5),
       st.floats(min_value=0.05, max_value=0.95))
def test_categorical_affinity_symmetry(raw_p, raw_q, alpha):
    k = min(len(raw_p), len(raw_q))
    p = Categorical(np.asarray(raw_p[:k]) / np.sum(raw_p[:k]))
    q = Categorical(np.asarray(raw_q[:k]) / np.sum(raw_q[:k]))
    w = ConstWeight()
    # rho_alpha(p, q) = rho_{1-alpha}(q, p), and rho <= 1 by Hoelder
    a = rho_w(p, q, w, alpha)
    b = rho_w(q, p, w, 1.0 - alpha)
    assert abs(a - b) <= 1e-12
    assert a <= 1.0 + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0), st.floats(min_value=0.2, max_value=5.0))
def test_poisson_chernoff_information_nonnegative(lam1, lam2):
    res = chernoff(Poisson(lam1), Poisson(lam2), ConstWeight())
    assert res.d_c_w >= -1e-12
    if abs(lam1 - lam2) > 1e-6:
        assert res.d_c_w > 0.0
