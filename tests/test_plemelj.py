import cmath
import math

import numpy as np
import pytest

from specdet import (
    CMatrix,
    TracePowerSource,
    lu_determinant,
    mat_power_trace,
    plemelj_det,
    radius_estimate,
)
from specdet.errors import EvaluationError, ParameterError

from support import rand_cmatrix


def eigen_source(mus):
    return TracePowerSource(lambda m: sum(mu ** m for mu in mus),
                            label="eigenvalues")


def test_zero_source_gives_one():
    for lam in (0.0, 0.7 + 0.2j, -3.0, 100j):
        result = plemelj_det(TracePowerSource(lambda m: 0.0), lam, order=30)
        assert result.value == 1
        assert all(t == 0 for t in result.terms)
        assert result.converged
        assert result.tail_estimate == 0


def test_single_eigenvalue_log_series():
    result = plemelj_det(eigen_source([1.0]), 0.5, order=40)
    assert abs(result.value - 1.5) < 1e-10


def test_two_eigenvalues_product():
    result = plemelj_det(eigen_source([0.3, -0.2]), 1.0, order=40)
    assert abs(result.value - 1.04) < 1e-10


def test_value_is_exp_of_term_sum():
    result = plemelj_det(eigen_source([0.4, 0.1j]), 0.8, order=35)
    assert result.value == cmath.exp(sum(result.terms))


def test_order_used_tracks_early_stop():
    result = plemelj_det(eigen_source([0.01]), 0.5, order=60, tol=1e-10)
    assert result.converged
    assert result.order_used < 60
    assert abs(result.terms[result.order_used - 1]) <= 1e-10 * max(1.0, abs(result.value))


def test_diagonal_consistency_against_product():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        mus = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        top = max(abs(mu) for mu in mus)
        lam = 0.5 / max(top, 1e-6) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        result = plemelj_det(eigen_source(mus), lam, order=60, tol=1e-14)
        expected = 1 + 0j
        bound = 1.0
        for mu in mus:
            expected *= 1 + lam * mu
            bound *= 1 + abs(lam * mu)
        assert abs(result.value - expected) <= 1e-8 * bound


def test_conjugation_symmetry():
    rng = np.random.default_rng(12)
    mus = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
    lam = 0.3 + 0.1j
    plain = plemelj_det(eigen_source(mus), lam, order=50)
    conj = plemelj_det(eigen_source([mu.conjugate() for mu in mus]),
                       lam.conjugate(), order=50)
    assert abs(conj.value - plain.value.conjugate()) <= 1e-12 * max(1.0, abs(plain.value))


def test_series_matches_lu_on_a_circle():
    # finite-rank source: series value must agree with the direct determinant
    # at sample points on a circle well inside the series disc
    rng = np.random.default_rng(13)
    m = rand_cmatrix(rng, 3, scale=0.8)
    norm = sum(abs(z) for z in m.entries)
    src = TracePowerSource(lambda p: mat_power_trace(m, p))
    radius = 0.4 / norm
    for s in range(8):
        lam = radius * cmath.exp(2j * math.pi * s / 8)
        series = plemelj_det(src, lam, order=60, tol=1e-14)
        n = m.rows
        shifted = CMatrix(n, n, tuple(
            lam * m.entries[i * n + j] + (1.0 if i == j else 0.0)
            for i in range(n) for j in range(n)
        ))
        direct = lu_determinant(shifted)
        assert abs(series.value - direct) <= 1e-8 * max(1.0, abs(direct))


def test_geometric_tail_extrapolation():
    # single eigenvalue: term ratio settles to |lam*mu|*(m/(m+1)) and the
    # tail estimate follows |t_M| * rho / (1 - rho); disable the early stop
    # with an unreachable tolerance so the full order is used
    mu, lam, order = 0.8, 0.5, 25
    result = plemelj_det(eigen_source([mu]), lam, order=order, tol=1e-300)
    assert result.order_used == order
    t_last, t_prev = abs(result.terms[-1]), abs(result.terms[-2])
    rho = t_last / t_prev
    assert result.tail_estimate == t_last * rho / (1.0 - rho)
    # the estimate tracks the magnitude sum of the unsummed terms
    abs_tail = sum((lam * mu) ** m / m for m in range(order + 1, 400))
    assert result.tail_estimate == pytest.approx(abs_tail, rel=0.05)
    assert not result.converged  # last term far above the absurd tolerance


def test_converged_flag_respects_its_invariant():
    rng = np.random.default_rng(14)
    for _ in range(30):
        n = int(rng.integers(1, 6))
        mus = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)]
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        tol = 10.0 ** rng.integers(-13, -6)
        result = plemelj_det(eigen_source(mus), lam,
                             order=int(rng.integers(5, 60)), tol=tol)
        if result.converged:
            partial = sum(result.terms)
            assert abs(result.terms[result.order_used - 1]) <= \
                tol * max(1.0, abs(partial))


def test_norm_hint_violation_is_reported_not_fatal():
    src = TracePowerSource(lambda m: 5.0 ** m, norm_hint=2.0)
    result = plemelj_det(src, 0.01, order=10)
    assert result.diagnostics["norm_hint_violations"]
    assert cmath.isfinite(result.value)


def test_a_zero_norm_hint_is_exceeded_by_any_nonzero_trace():
    src = TracePowerSource(lambda m: 0.5 if m == 1 else 0.0, norm_hint=0.0)
    result = plemelj_det(src, 0.1, order=3)
    assert result.diagnostics["norm_hint_violations"] == [1]


def test_divergent_series_reports_overflow_instead_of_crashing():
    # |lam*mu| = 1.5: terms stay finite but the partial log-sum passes the
    # exp range at odd orders; must flag divergence, not raise OverflowError
    result = plemelj_det(eigen_source([1.5]), 1.0, order=29, tol=1e-300)
    assert not result.converged
    assert result.value == complex(math.inf, 0.0)
    assert any("diverg" in w for w in result.diagnostics.get("warnings", []))


def test_reason_says_why_the_series_gives_no_answer():
    # none inside the disc, converged or not; a failed ratio test is
    # outside_disc, an exp past the float range overflow
    assert plemelj_det(eigen_source([0.5]), 0.5, order=40).reason is None
    slow = plemelj_det(eigen_source([0.8]), 0.5, order=25, tol=1e-300)
    assert not slow.converged and math.isfinite(slow.tail_estimate) and slow.reason is None
    outside = plemelj_det(eigen_source([1.0]), 3.0, order=30)
    assert math.isinf(outside.tail_estimate) and outside.reason == "outside_disc"
    assert plemelj_det(eigen_source([1.5]), 1.0, order=29, tol=1e-300).reason == "overflow"


@pytest.mark.parametrize("lam", [1e160, 1e300, complex(1e300, 1e300)])
def test_zero_trace_powers_give_zero_terms_at_any_lambda(lam):
    # lambda^m leaves the float range, and inf * 0 would be nan
    result = plemelj_det(TracePowerSource(lambda m: 0.0), lam, order=4)
    assert result.value == 1 and result.converged and result.reason is None
    assert result.terms == (0j, 0j, 0j)


def test_the_first_term_that_overflows_stops_the_series():
    # a finite first term, then lambda^2 * Tr(T^2) past the float range
    result = plemelj_det(eigen_source([0.7]), 1e160, order=4)
    assert result.terms == (7e159 + 0j,) and result.order_used == 1
    assert result.reason == "overflow" and not result.converged
    assert math.isinf(result.tail_estimate)
    # the very first term overflows: no term is kept
    result = plemelj_det(TracePowerSource(lambda m: 1e308), 1e10, order=4)
    assert result.terms == () and result.order_used == 0
    assert result.reason == "overflow" and not result.converged
    assert any("order 1" in w for w in result.diagnostics["warnings"])
    # finite terms whose partial sum overflows stop the series as well
    result = plemelj_det(TracePowerSource(lambda m: 1.5e308 * (-1) ** (m + 1)), 1.0, order=4)
    assert result.terms == (1.5e308 + 0j,) and result.reason == "overflow"


def test_a_term_whose_modulus_overflows_stops_the_series():
    # finite parts, but abs() of the term raises OverflowError
    result = plemelj_det(TracePowerSource(lambda m: 1.0), 1.5e308 + 1.5e308j)
    assert result.terms == () and result.reason == "overflow" and not result.converged
    assert math.isinf(result.tail_estimate)
    # a finite first term, then a partial sum whose modulus overflows
    result = plemelj_det(TracePowerSource(lambda m: 0.75e308 if m == 1 else -0.75e308j), -2.0)
    assert result.terms == (-1.5e308 + 0j,) and result.reason == "overflow"


def test_non_finite_trace_power_names_the_order():
    src = TracePowerSource(lambda m: float("inf") if m == 3 else 0.0)
    with pytest.raises(EvaluationError, match="order 3"):
        plemelj_det(src, 0.1, order=10)


def test_order_below_one_rejected():
    with pytest.raises(ParameterError):
        plemelj_det(TracePowerSource(lambda m: 0.0), 0.1, order=0)


def test_radius_estimate_scalar():
    estimate = radius_estimate(TracePowerSource(lambda m: 2.0 ** m), order=20)
    assert abs(estimate - 0.5) < 1e-12


def test_radius_estimate_zero_source_is_infinite():
    assert radius_estimate(TracePowerSource(lambda m: 0.0), order=10) == math.inf


def test_radius_estimate_dominant_eigenvalue():
    estimate = radius_estimate(eigen_source([0.9, 0.1]), order=60)
    assert abs(estimate - 1 / 0.9) <= 0.05 * (1 / 0.9)


def test_radius_estimate_needs_three_orders():
    with pytest.raises(ParameterError):
        radius_estimate(TracePowerSource(lambda m: 1.0), order=2)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-10])
def test_tolerance_must_be_positive_and_finite(tol):
    # an infinite tolerance would stop the series after EARLY_STOP_RUN terms
    # and call it converged
    with pytest.raises(ParameterError, match="tolerance must be positive and finite"):
        plemelj_det(eigen_source([0.5, 0.25]), 0.3, tol=tol)
