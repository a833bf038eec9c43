"""Representation-agnostic determinant series evaluator.

Given the trace powers m -> Tr(T^m) of an operator, the determinant of
I + lambda*T is evaluated as

    Det(I + lambda*T) = exp( sum_{m>=1} ((-1)^(m+1)/m) * Tr(T^m) * lambda^m ),

valid for |lambda| inside the series disc.  The engine consumes trace powers
rather than operators, so every concrete representation (lattice kernels,
toroidal symbols, block symbols, spectral models, bundle symbols) adapts
itself to a :class:`TracePowerSource` and shares one tested implementation.

The exponential of the partial log-series is used directly; no complex
logarithm of a product is ever taken, so there is no branch ambiguity.
Terms are assembled one at a time in ascending order; every source
memoises its powers per order and serves one query at a time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvaluationError, ParameterError

__all__ = ["TracePowerSource", "DetResult", "plemelj_det", "radius_estimate"]

#: consecutive below-tolerance terms required before the series stops early;
#: a single small term can be an alternating-series zero crossing.
EARLY_STOP_RUN = 3

#: largest real part exp() can take without overflowing a double
_EXP_OVERFLOW = 709.0


@dataclass
class TracePowerSource:
    """Trace powers m -> Tr(T^m) of some operator, plus optional metadata.

    ``trace_power`` must be deterministic.  ``norm_hint`` is an optional
    upper bound h on a trace norm of T; queried values are sanity-checked
    against h^m and violations are reported as diagnostics, never errors,
    since the hint is advisory.
    """

    trace_power: Callable[[int], complex]
    norm_hint: float | None = None
    label: str = ""


@dataclass
class DetResult:
    """Determinant value with per-order series terms and diagnostics.

    ``terms[i]`` is the order-(i+1) contribution
    ((-1)^(m+1)/m) * lambda^m * Tr(T^m) and ``value`` equals
    exp(sum(terms)).  ``converged`` is the ratio-test verdict described in
    :func:`plemelj_det`; ``tail_estimate`` is the geometric extrapolation of
    the unsummed tail (infinite when the ratio test fails).  ``reason`` says
    why ``value`` is no answer: ``outside_disc`` for an infinite tail,
    ``overflow`` when a term, the partial sum or exp of the partial sum
    leaves the float range; the series then stops before the term that
    overflows, which is not kept.
    """

    value: complex
    terms: tuple
    order_used: int
    cutoff_used: int | None
    tail_estimate: float
    converged: bool
    diagnostics: dict = field(default_factory=dict)
    reason: str | None = None


def _exceeds_hint(magnitude: float, hint: float, m: int) -> bool:
    """|Tr(T^m)| > hint^m within slack, compared in the log domain so large
    orders cannot overflow."""
    if magnitude == 0.0:
        return False
    if hint <= 0.0:
        return True
    return math.log(magnitude) > m * math.log(hint) + 1e-9


def _check_series(order: int, tol: float) -> None:
    if order < 1:
        raise ParameterError(f"series order must be >= 1, got {order}")
    if not 0 < tol < math.inf:
        raise ParameterError(f"tolerance must be positive and finite, got {tol}")


def _check_radius(order: int) -> None:
    if order < 3:
        raise ParameterError(f"radius estimate needs order >= 3, got {order}")


def _non_finite(m: int, tp: complex, src: TracePowerSource) -> EvaluationError:
    return EvaluationError(f"trace power of order {m} is non-finite ({tp!r})"
                           + (f" for source {src.label!r}" if src.label else ""))


def plemelj_det(src: TracePowerSource, lam: complex, order: int = 30,
                tol: float = 1e-10) -> DetResult:
    """Evaluate the determinant series from a trace-power source.

    Terms are accumulated in ascending order m = 1..order.  The loop stops
    early once ``EARLY_STOP_RUN`` consecutive terms fall below
    tol*max(1, |partial sum|).  Afterwards, with t the last two terms and
    rho = |t_M / t_{M-1}|, the tail estimate is |t_M|*rho/(1-rho) when
    rho < 1 (infinite otherwise) and ``converged`` requires either the
    early stop or rho < 1 together with a below-tolerance last term.  A
    zero trace power gives the term 0 whatever lambda^m is; the first term
    that is not finite, or that makes the partial sum so, stops the series
    with reason ``overflow``, as does one whose modulus, or that of the
    partial sum with it, passes the float range.
    """
    _check_series(order, tol)
    lam = complex(lam)
    diagnostics: dict = {}
    hint_violations: list[int] = []

    terms: list[complex] = []
    total = 0.0j
    lam_pow = 1.0 + 0.0j
    small_run = 0
    early_stopped = overflowed = False
    # a source's products may leave the float range: the non-finite trace is
    # refused below, so numpy's warning on stderr would only repeat that.
    # One errstate per series: one per order, in the sources, cost 4-5 % of
    # the CLI's request rate
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, order + 1):
            tp = complex(src.trace_power(m))
            if not cmath.isfinite(tp):
                raise _non_finite(m, tp, src)
            if src.norm_hint is not None and _exceeds_hint(abs(tp), src.norm_hint, m):
                hint_violations.append(m)
            lam_pow *= lam
            sign = 1.0 if m % 2 == 1 else -1.0
            # lambda^m may be inf or nan where Tr(T^m) = 0, and inf * 0 is nan
            t = (sign / m) * lam_pow * tp if tp else 0.0j
            try:
                mag, mag_total = abs(t), abs(total + t)
            except OverflowError:  # a finite complex whose modulus passes the float range
                mag = mag_total = math.inf
            if not (mag < math.inf and mag_total < math.inf):  # inf or nan
                overflowed = True
                break
            terms.append(t)
            total += t
            if mag < tol * max(1.0, mag_total):
                small_run += 1
                if small_run >= EARLY_STOP_RUN:
                    early_stopped = True
                    break
            else:
                small_run = 0

    order_used = len(terms)
    last = abs(terms[-1]) if terms else 0.0
    prev = abs(terms[-2]) if order_used >= 2 else 0.0
    if prev > 0.0:
        rho = last / prev
    else:
        rho = 0.0 if last == 0.0 else math.inf

    if last == 0.0:
        tail = 0.0
    elif rho < 1.0:
        tail = last * rho / (1.0 - rho)
    elif early_stopped:
        tail = last
    else:
        tail = math.inf

    last_small = last <= tol * max(1.0, abs(total))
    converged = early_stopped or (rho < 1.0 and last_small)

    if hint_violations:
        diagnostics["norm_hint_violations"] = hint_violations
        diagnostics.setdefault("warnings", []).append(
            f"trace powers exceeded norm_hint^m at orders {hint_violations[:5]}"
        )

    reason = "outside_disc" if math.isinf(tail) else None
    if overflowed:
        value, tail = complex(math.inf, 0.0), math.inf
        converged, reason = False, "overflow"
        diagnostics.setdefault("warnings", []).append(
            f"the series term of order {order_used + 1}, or the partial sum with "
            f"it, leaves the float range; the series is divergent at this lambda"
        )
    elif total.real > _EXP_OVERFLOW:
        # far outside the series disc: exp of the partial log-sum exceeds
        # the float range, so report the divergence instead of crashing
        value = complex(math.inf, 0.0)
        converged, reason = False, "overflow"
        diagnostics.setdefault("warnings", []).append(
            f"partial log-series sum {total.real:.3g} overflows exp; the "
            f"series is divergent at this lambda"
        )
    else:
        value = cmath.exp(total)

    return DetResult(
        value=value,
        terms=tuple(terms),
        order_used=order_used,
        cutoff_used=None,
        tail_estimate=tail,
        converged=converged,
        diagnostics=diagnostics,
        reason=reason,
    )


def radius_estimate(src: TracePowerSource, order: int) -> float:
    """Root-test estimate of the series convergence radius.

    Samples |Tr(T^m)|^(1/m) for m in {ceil(order/2)..order} and returns the
    reciprocal of the largest sample (a limsup estimate).  Returns infinity
    when every sampled trace is zero.  This is a numerical diagnostic: the
    true disc radius is whatever the operator's spectrum dictates.
    """
    _check_radius(order)
    start = (order + 1) // 2
    worst = 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # as in plemelj_det
        for m in range(start, order + 1):
            tp = complex(src.trace_power(m))
            if not cmath.isfinite(tp):
                raise _non_finite(m, tp, src)
            mag = abs(tp)
            if mag > 0.0:
                worst = max(worst, mag ** (1.0 / m))
    if worst == 0.0:
        return math.inf
    return 1.0 / worst
