"""Reference values for benchmark requests, independent of ``src/``.

Every reference is built from the numbers the generator wrote into a spec
file, with numpy and closed forms only:

- tridiagonal Toeplitz truncations: the eigenvalues
  ``c0 + 2*sqrt(c1*c_-1)*cos(k*pi/(N+1))``;
- rank-one kernels: the single nonzero eigenvalue ``<h, g>``, so the
  determinant is ``1 + lambda*<h, g>``;
- diagonal kernels and spectral models: ``prod (1 + lambda*d_j)^(w_j)``;
- trig-polynomial toroidal symbols, block symbols and flattened bundle
  blocks: numpy ``det`` of the exactly known matrix of each block.

A request fails when it exits with a code the CLI contract does not allow
for it, or when it exits 0 while reporting a finite value farther than
``BOUND`` (relative to ``max(1, |reference|)``) from its reference.  The
``converged`` flag does not change this.  An explicit null value with a
reason is a refusal, not a failure.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: largest allowed |reported - reference| / max(1, |reference|); the same
#: bound tests/test_acceptance.py asserts between series and oracle
BOUND = 1e-6


class Spectrum:
    """Weighted eigenvalues of an operator, optionally with its blocks.

    ``blocks`` is a list of ``(matrix, weight)``; when present the
    determinant goes through numpy ``det`` of each ``I + lambda*B``.
    ``norm_at(r)`` gives the summed-entry norm of the box truncation at
    cutoff ``r`` for lattice and toroidal operators.
    """

    def __init__(self, values, weights=None, blocks=None, norm_at=None):
        self.values = np.asarray(values, dtype=np.complex128)
        self.weights = (np.ones(self.values.size) if weights is None
                        else np.asarray(weights, dtype=np.float64))
        self.blocks = blocks
        self.norm_at = norm_at

    @classmethod
    def of_blocks(cls, blocks, norm_at=None):
        values, weights = [], []
        for b, w in blocks:
            eig = np.linalg.eigvals(b)
            values.append(eig)
            weights.append(np.full(eig.size, float(w)))
        return cls(np.concatenate(values), np.concatenate(weights),
                   blocks=blocks, norm_at=norm_at)

    @classmethod
    def of_matrix(cls, a, norm_at=None):
        return cls.of_blocks([(a, 1)], norm_at=norm_at)

    def det(self, lam: complex) -> complex:
        if self.blocks is not None:
            out = 1.0 + 0.0j
            for b, w in self.blocks:
                out *= complex(np.linalg.det(np.eye(b.shape[0]) + lam * b)) ** w
            return out
        factors = 1.0 + lam * self.values
        if not factors.all():
            return 0.0j
        with np.errstate(over="ignore"):  # far outside the disc: inf
            return complex(np.exp(np.dot(self.weights, np.log(factors))))

    def trace(self) -> complex:
        if self.blocks is not None:
            return complex(sum(w * np.trace(b) for b, w in self.blocks))
        return complex(np.dot(self.weights, self.values))

    def trace_power(self, m: int) -> complex:
        return complex(np.dot(self.weights, self.values ** m))

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.values)))

    def radius(self, order: int) -> float:
        """Root-test radius as the ``radius`` command defines it:
        1 / max |Tr(T^m)|^(1/m) over m = ceil(order/2)..order."""
        worst = 0.0
        for m in range((order + 1) // 2, order + 1):
            mag = abs(self.trace_power(m))
            if mag > 0.0:
                worst = max(worst, mag ** (1.0 / m))
        return math.inf if worst == 0.0 else 1.0 / worst


def profile_cutoffs(cutoff: int) -> list:
    """Cutoffs of a ``norm-profile`` report at ``--cutoff cutoff``."""
    return sorted({max(1, cutoff >> s) for s in range(5)})


def expected(command: str, mode: str, ref: Spectrum, lam: complex,
             order: int, cutoff: int) -> dict:
    """Reference values for the fields a report of this request carries."""
    if command == "det":
        out = {}
        if mode in ("series", "both"):
            out["series"] = ref.det(lam)
        if mode in ("oracle", "both"):
            out["oracle"] = ref.det(lam)
        return out
    if command == "compare":
        d = ref.det(lam)
        return {"series_value": d, "oracle_value": d}
    if command == "trace":
        t = ref.trace()
        out = {}
        if mode in ("series", "both"):
            out["trace"] = t
        if mode in ("oracle", "both"):
            out["oracle_trace"] = t
        return out
    if command == "radius":
        return {"radius": ref.radius(order)}
    return {"points": [ref.norm_at(r) for r in profile_cutoffs(cutoff)]}


def allowed_exits(command: str, mode: str, lam: complex, ref: Spectrum) -> tuple:
    """Exit codes the CLI contract allows for a request.  Exit 4 (series
    not converged) is allowed only for a series-only determinant with
    lambda outside the series disc, |lambda| * spectral radius >= 1;
    inside it the series converges and a value is owed."""
    if command == "det" and mode == "series" and abs(lam) * ref.spectral_radius() >= 1.0:
        return (0, 4)
    return (0,)


def _reported(report: dict, key: str):
    if key == "series":
        return (report.get("series") or {}).get("value")
    if key == "oracle":
        return (report.get("oracle") or {}).get("value")
    if key == "points":
        return [v for _, v in report.get("points", [])]
    return report.get(key)


def _has_reason(report: dict, key: str) -> bool:
    """Whether the object holding a null ``key`` value (the ``series`` or
    ``oracle`` object when there is one, else the report) gives a reason."""
    holder = report.get(key) if key in ("series", "oracle") else None
    reason = (holder if isinstance(holder, dict) else report).get("reason")
    return isinstance(reason, str) and reason.strip() != ""


def _as_number(value):
    """Reported JSON value as a complex number; None when it is not finite
    (the CLI writes infinities as strings)."""
    if isinstance(value, list) and len(value) == 2:
        if all(isinstance(v, (int, float)) for v in value):
            z = complex(value[0], value[1])
            return z if math.isfinite(z.real) and math.isfinite(z.imag) else None
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(value) if math.isfinite(value) else None
    return None


def _off(got: complex, want: complex) -> float:
    if math.isinf(abs(want)):
        return math.inf
    return abs(got - want) / max(1.0, abs(want))


def check(code: int, stdout: str, allowed: tuple, expect: dict):
    """Apply the failure rule to one request; returns None or a reason."""
    if code not in allowed:
        return f"exit {code}, allowed {list(allowed)}"
    if code != 0:
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "exit 0 without a JSON report"
    for key, want in expect.items():
        got = _reported(report, key)
        if got is None:
            if _has_reason(report, key):
                continue
            return f"report lacks {key}"
        pairs = list(zip(got, want)) if key == "points" else [(got, want)]
        if key == "points" and len(got) != len(want):
            return f"{len(got)} profile points, expected {len(want)}"
        for g, w in pairs:
            z = _as_number(g)
            if z is not None and _off(z, complex(w)) > BOUND:
                return f"{key} = {g}, reference {complex(w):.12g}"
    return None


def self_check():
    """The checker must flag a perturbed value, the finite 0.0 that a
    divergent series reports and an in-disc series that gives up, and must
    pass an exact value and a null value with a reason."""
    want = {"series": 1.5 - 0.25j}
    unit = Spectrum([1.0])

    def det_report(value, **extra):
        return json.dumps({"series": {"value": value, **extra}})

    problems = []
    if check(0, det_report([1.5, -0.25]), (0,), want) is not None:
        problems.append("exact value flagged")
    if check(0, det_report([1.5 * (1 + 10 * BOUND), -0.25]), (0,), want) is None:
        problems.append("perturbed value passed")
    if check(0, det_report([0.0, 0.0]), (0,), want) is None:
        problems.append("finite 0.0 outside the disc passed")
    if check(0, det_report(["inf", 0.0]), (0,), want) is not None:
        problems.append("non-finite value flagged")
    if check(0, det_report(None, reason="coefficient bound not met"), (0,), want) \
            is not None:
        problems.append("null value with a reason flagged")
    if check(0, det_report(None), (0,), want) is None:
        problems.append("null value without a reason passed")
    if check(4, "", allowed_exits("det", "series", 0.5, unit), want) is None:
        problems.append("exit 4 inside the series disc passed")
    if check(4, "", allowed_exits("det", "series", 2.0, unit), want) is not None:
        problems.append("exit 4 outside the series disc flagged")
    if check(None, "", (3,), {}) is None:
        problems.append("overrun passed as a refusal")
    return problems
