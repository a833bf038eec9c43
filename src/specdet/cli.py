"""Command-line front end for specdet.

Subcommands: ``det`` (determinant of I + lambda*T), ``trace``,
``norm-profile``, ``radius`` and ``compare``.  Every subcommand reads one
JSON operator spec (see :mod:`specdet.specfile`), computes along the series
path, the brute-force oracle path, or both, and emits a text or JSON report
on stdout.  A ``--mode``, ``--order`` or ``--tol`` the command cannot take
is refused before anything is computed.  Exit codes: 0 success, 2
parse/validation error or refused option, 3 feasibility refusal or failed
allocation, 4 non-converged series under ``--mode series``.  Errors go to
stderr; in JSON mode each is one JSON object on one line, command-line
usage errors included (``{"error": "usage", "message": ...}``).

A command line made of a command and exact options is read from the option
table ``_OPTIONS`` (see :func:`_plain_args`); anything else is read by the
argparse parser built from the same table, with the same result.  Help and
usage errors are argparse's, and so are abbreviated options.

Each spec kind is computed through its entry in the kind table ``_KINDS``:
series and oracle determinant, series and oracle trace, trace-power source
and, for lattice kernels and toroidal symbols, the norm profile.

Floats in JSON reports are rounded to 12 significant digits, which makes
reports byte-stable across runs of the same build.  They stay so across
BLAS thread counts for spectral sums, which are summed in single-thread
chunks, but not for dense trace powers: at side 129 their last bits move.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys

from .bundles import bundle_trace, bundle_trace_source, bundle_determinant, flatten_symbol
from .errors import (
    FeasibilityError,
    ParameterError,
    SpecParseError,
    SpecValidationError,
    SpecdetError,
)
from .invariant import (
    block_trace,
    block_trace_source,
    invariant_determinant,
    manifold_determinant,
    spectral_trace_source,
)
from .lattice import lattice_determinant, lattice_trace, truncation_trace_source
from .linalg import CMatrix, mat_trace
from .oracle import (
    assemble_truncation,
    block_determinant_product,
    bundle_determinant_product,
    check_truncation_determinant,
    direct_determinant,
    spectral_determinant_product,
)
from .plemelj import DetResult, _check_radius, _check_series, radius_estimate
from .specfile import build_operator, parse_spec
from .toroidal import growth_verdict, norm_growth_profile, poincare_norm, toroidal_determinant, toroidal_matrix

__all__ = ["run_command", "main"]


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------

def _num(x):
    """Round to 12 significant digits; inf, -inf and nan become strings."""
    x = float(x)
    if not math.isfinite(x):
        return str(x)
    if x == 0.0:
        return 0.0
    return float(f"{x:.12g}")


def _cpx(z) -> list:
    z = complex(z)
    return [_num(z.real), _num(z.imag)]


def _round_tree(value):
    if isinstance(value, dict):
        return {k: _round_tree(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_tree(v) for v in value]
    return _num(value) if isinstance(value, float) else value


def _det_json(r: DetResult) -> dict:
    return {
        "value": None if r.reason else _cpx(r.value),
        "terms": [_cpx(t) for t in r.terms],
        "order_used": r.order_used,
        "cutoff_used": r.cutoff_used,
        "tail_estimate": _num(r.tail_estimate),
        "converged": r.converged,
        "diagnostics": _round_tree(r.diagnostics),
        **({"reason": r.reason} if r.reason else {}),
    }


def _half_modulus(z: complex) -> float:
    return abs(complex(z.real / 2, z.imag / 2))


def _deviation(series: complex | None, oracle: complex | None) -> dict | None:
    """Absolute and relative deviation; None unless both values are finite."""
    if None in (series, oracle) or not (cmath.isfinite(series) and cmath.isfinite(oracle)):
        return None
    diff = series - oracle
    try:
        abs_dev = abs(diff)
        rel = abs_dev / max(1.0, abs(oracle))
    except OverflowError:
        # a modulus past the float range: halved moduli are finite, and the
        # absolute deviation, twice the halved one, becomes inf
        abs_dev = 2.0 * _half_modulus(diff)
        rel = _half_modulus(diff) / max(0.5, _half_modulus(oracle))
    return {"abs": _num(abs_dev), "rel": _num(rel)}


def _emit_json(report: dict, stream):
    stream.write(json.dumps(report, sort_keys=True) + "\n")


def _fmt_complex(pair, reason=None) -> str:
    if pair is None:
        return f"null ({reason})"
    re, im = pair
    sign = "+" if (isinstance(im, str) or im >= 0) else "-"
    mag = im if isinstance(im, str) else abs(im)
    return f"{re} {sign} {mag}i"


def _emit_text(report: dict, stream):
    cmd = report.get("command", "?")
    stream.write(f"specdet {cmd}: {report.get('label') or report.get('input')}"
                 f" ({report.get('kind')})\n")
    for key in ("lambda", "order", "cutoff", "tol", "mode"):
        if report.get(key) is not None:
            val = _fmt_complex(report[key]) if key == "lambda" else report[key]
            stream.write(f"  {key:<12} = {val}\n")
    series = report.get("series")
    if series:
        stream.write(f"  value        = {_fmt_complex(series['value'], series.get('reason'))}\n")
        stream.write(f"  converged    = {series['converged']}"
                     f"   order_used = {series['order_used']}"
                     f"   tail ~ {series['tail_estimate']}\n")
        for w in series.get("diagnostics", {}).get("warnings", []):
            stream.write(f"  warning: {w}\n")
        stream.write("  terms:\n")
        for i, t in enumerate(series["terms"], start=1):
            stream.write(f"    m={i:<3d} {_fmt_complex(t)}\n")
    for key in ("oracle_value", "series_value", "trace", "oracle_trace", "radius",
                "verdict"):
        val = report.get(key)
        reason = report.get("oracle_reason" if key == "oracle_value" else "reason")
        if val is not None or key in ("oracle_value", "series_value") and reason:
            if not isinstance(val, (int, float, str)):  # a complex pair, or null
                val = _fmt_complex(val, reason)
            stream.write(f"  {key:<12} = {val}\n")
    oracle = report.get("oracle")
    if oracle is not None:
        stream.write(f"  oracle_value = {_fmt_complex(oracle['value'], oracle.get('reason'))}\n")
    if report.get("deviation") is not None:
        stream.write(f"  deviation    = abs {report['deviation']['abs']}, "
                     f"rel {report['deviation']['rel']}\n")
    for key in ("abs_deviation", "rel_deviation"):
        if key in report:
            stream.write(f"  {key:<13}= {'null' if report[key] is None else report[key]}\n")
    if "points" in report:
        stream.write("  cutoff, norm:\n")
        for r, v in report["points"]:
            stream.write(f"    {r:>6d}  {v}\n")


# ---------------------------------------------------------------------------
# computation dispatch
# ---------------------------------------------------------------------------

def _lattice_kind(kernel, series_det, norm_profile) -> tuple:
    """Entry of a kind whose truncation at a cutoff is that of the lattice
    kernel ``kernel(op, cutoff)``."""
    return (
        series_det,
        lambda p, op, a: check_truncation_determinant(op.dim, a.cutoff),
        lambda p, op, a: direct_determinant(
            assemble_truncation(kernel(op, a.cutoff), a.cutoff), a.lam),
        lambda p, op, a: lattice_trace(kernel(op, a.cutoff), a.cutoff),
        lambda p, op, a: mat_trace(assemble_truncation(kernel(op, a.cutoff), a.cutoff)),
        lambda p, op, a: truncation_trace_source(kernel(op, a.cutoff), a.cutoff),
        norm_profile,
    )


def _weighted_oracle_trace(pairs) -> complex:
    """Sum of w * Tr(B) over (weight, block) pairs, block by block, not in the
    series' one flat pass; the real w scales each part, as w * (inf + 0j) would not."""
    acc = 0.0j
    for w, b in pairs:
        t = mat_trace(CMatrix.from_array(b))
        acc += complex(w * t.real, w * t.imag)
    return acc


def _spectral_oracle_trace(op, alpha: float) -> complex:
    acc, exponent = 0.0, -alpha / op.nu
    for eig, mult in zip(op.eigenvalues.tolist(), op.multiplicities.tolist()):
        acc += mult * (1.0 + eig) ** exponent
    return complex(acc)


#: spec kind (as in specfile._KINDS) -> (series det, oracle size check,
#: oracle det, series trace, oracle trace, trace source, norm profile).  The
#: first six take (params, op, args); the size check refuses, before
#: anything is built, what the oracle det would refuse for its size, and is
#: None where there is nothing to check.  The norm profile takes (op,
#: cutoffs) and is None for kinds without a summed-entry norm.  Each calls
#: the library through the names imported into this module, looked up on
#: each call, so rebinding one of them here (as span tracing does) reaches
#: every kind.
_KINDS = {
    "lattice_kernel": _lattice_kind(
        lambda op, cutoff: op,
        lambda p, op, a: lattice_determinant(op, a.lam, order=a.order,
                                             cutoff=a.cutoff, tol=a.tol),
        lambda op, cutoffs: growth_verdict([(r, poincare_norm(op, r)) for r in cutoffs])),
    "toroidal_symbol": _lattice_kind(
        lambda op, cutoff: toroidal_matrix(op, cutoff),
        lambda p, op, a: toroidal_determinant(op, a.lam, order=a.order,
                                              cutoff=a.cutoff, tol=a.tol),
        lambda op, cutoffs: norm_growth_profile(op, cutoffs)),
    "block_symbol": (
        lambda p, op, a: invariant_determinant(op, a.lam, order=a.order, tol=a.tol),
        None,
        lambda p, op, a: block_determinant_product(op, a.lam),
        lambda p, op, a: block_trace(op),
        lambda p, op, a: _weighted_oracle_trace((1, b) for b in op.blocks),
        lambda p, op, a: block_trace_source(op),
        None),
    "spectral_model": (
        lambda p, op, a: manifold_determinant(op, p["alpha"], a.lam, order=a.order,
                                              tol=a.tol,
                                              manifold_dim=p.get("manifold_dim")),
        None,
        lambda p, op, a: spectral_determinant_product(op, p["alpha"], a.lam),
        lambda p, op, a: spectral_trace_source(op, p["alpha"]).trace_power(1),
        lambda p, op, a: _spectral_oracle_trace(op, p["alpha"]),
        lambda p, op, a: spectral_trace_source(op, p["alpha"]),
        None),
    "bundle_symbol": (
        lambda p, op, a: bundle_determinant(op, a.lam, order=a.order, tol=a.tol),
        None,
        lambda p, op, a: bundle_determinant_product(op, a.lam),
        lambda p, op, a: bundle_trace(op),
        lambda p, op, a: _weighted_oracle_trace((d, flatten_symbol(op, xi))
                                                for xi, d in op.dual.blocks),
        lambda p, op, a: bundle_trace_source(op),
        None),
}


def _profile_cutoffs(cutoff: int) -> list:
    return sorted({max(1, cutoff >> s) for s in range(5)})


def _finite(oracle_det):
    """The oracle determinant route ``oracle_det``, answering None where
    its value leaves the float range: a power that raises OverflowError,
    or an LU or a product that ends non-finite."""
    def route(*call):
        try:
            value = complex(oracle_det(*call))
        except OverflowError:
            return None
        return value if cmath.isfinite(value) else None
    return route


def _routes(mode: str, series, oracle, *call, check=None) -> tuple:
    """(series, oracle) results of the routes ``--mode`` selects, series
    first; a route not taken gives None.  ``check``, the oracle's size
    check, runs before either when the oracle is taken, so that an oracle
    refused for its size does not wait for the series first."""
    if check is not None and mode != "series":
        check(*call)
    first = series(*call) if mode != "oracle" else None
    return first, (oracle(*call) if mode != "series" else None)


def _dispatch(args, spec, op):
    (series_det, oracle_size, oracle_det, series_trace, oracle_trace, trace_source,
     norm_profile) = _KINDS[spec.kind]
    if args.cutoff < 1:  # also where the series does not truncate, before any route
        raise ParameterError(f"cutoff must be >= 1, got {args.cutoff}")
    if args.mode not in _COMMANDS[args.command][1]:
        raise ParameterError(f"{args.command} does not take --mode {args.mode}")
    if args.command in ("det", "compare"):  # before the symbol is sampled
        _check_series(args.order, args.tol)
    elif args.command == "radius":
        _check_radius(args.order)
    p = spec.params
    base = {
        "command": args.command,
        "input": args.input,
        "kind": spec.kind,
        "label": spec.label,
    }
    if args.command in ("det", "compare"):
        series, oracle = _routes(args.mode, series_det, _finite(oracle_det), p, op, args,
                                 check=oracle_size)
        dev = _deviation(None if series is None or series.reason else series.value, oracle)
        base.update({"lambda": _cpx(args.lam), "order": args.order, "cutoff": args.cutoff,
                     "tol": _num(args.tol)})
        if args.command == "det":
            report = dict(base, mode=args.mode, deviation=dev,
                          series=None if series is None else _det_json(series),
                          oracle=None if args.mode == "series" else
                          {"value": None, "reason": "overflow"} if oracle is None
                          else {"value": _cpx(oracle)})
            return report, 4 if args.mode == "series" and not series.converged else 0
        report = dict(base, **{
            "series_value": None if series.reason else _cpx(series.value),
            "oracle_value": None if oracle is None else _cpx(oracle),
            **({"oracle_reason": "overflow"} if oracle is None else {}),
            "abs_deviation": None if dev is None else dev["abs"],
            "rel_deviation": None if dev is None else dev["rel"],
            "converged": series.converged,
            "order_used": series.order_used,
            **({"reason": series.reason} if series.reason else {}),
        })
        return report, 0

    if args.command == "trace":
        series, oracle = _routes(args.mode, series_trace, oracle_trace, p, op, args)
        report = dict(base, cutoff=args.cutoff, mode=args.mode,
                      trace=None if series is None else _cpx(series),
                      oracle_trace=None if oracle is None else _cpx(oracle),
                      deviation=_deviation(series, oracle))
        return report, 0

    if args.command == "radius":
        src = trace_source(p, op, args)
        estimate = radius_estimate(src, args.order)
        report = dict(base, order=args.order, cutoff=args.cutoff,
                      radius=_num(estimate))
        return report, 0

    # norm-profile
    if norm_profile is None:
        have = " or ".join(k for k, entry in _KINDS.items() if entry[-1])
        raise SpecValidationError(f"norm-profile applies to {have} specs, not {spec.kind}",
                                  field="kind")
    profile = norm_profile(op, _profile_cutoffs(args.cutoff))
    report = dict(base, cutoff=args.cutoff,
                  cutoffs=[r for r, _ in profile.points],
                  points=[[r, _num(v)] for r, v in profile.points],
                  increments=[_num(v) for v in profile.increments],
                  verdict=profile.verdict)
    return report, 0


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

def _parse_lambda(text: str) -> complex:
    try:
        lam = complex(*map(float, text.split(",")))
    except (TypeError, ValueError):
        lam = None
    if lam is None or not cmath.isfinite(lam):
        raise argparse.ArgumentTypeError(
            f"expected finite RE or RE,IM for --lambda, got {text!r}")
    return lam


class _ParserExit(Exception):
    """Where argparse would print and exit: ``text`` is what it would print,
    the help (status 0, on stdout) or the usage line and ``prog: error:
    message`` (status 2, on stderr)."""

    def __init__(self, status: int, text: str, message: str = ""):
        super().__init__(message)
        self.status = status
        self.text = text


class _Parser(argparse.ArgumentParser):
    """Raises _ParserExit instead of printing on ``sys.stdout`` or
    ``sys.stderr`` and exiting, so that run_command writes on its own
    streams."""

    def print_help(self, file=None):
        raise _ParserExit(0, self.format_help())

    def error(self, message):
        raise _ParserExit(2, f"{self.format_usage()}{self.prog}: error: {message}\n", message)


#: the computation routes, as --mode names them
_ROUTES = ("series", "oracle", "both")
#: subcommand -> (help line, the --mode values it takes)
_COMMANDS = {
    "det": ("determinant of I + lambda*T", _ROUTES),
    "trace": ("trace of T", _ROUTES),
    "norm-profile": ("summed-entry norm growth across cutoffs", ("both",)),
    "radius": ("root-test estimate of the series radius", ("series", "both")),
    "compare": ("series vs oracle determinant deviation", ("both",)),
}

#: option -> its argparse.add_argument keywords; every subcommand takes
#: every option.  _plain_args reads the same table and takes a default as
#: it stands, which matches argparse only because no option has a string
#: default together with a type (argparse would convert such a default).
_OPTIONS = {
    "--input": dict(required=True, help="operator spec file (JSON)"),
    "--lambda": dict(dest="lam", type=_parse_lambda, default=complex(0.1, 0.0),
                     metavar="RE,IM", help="evaluation point (default 0.1,0)"),
    "--order": dict(type=int, default=30, help="series truncation order (default 30)"),
    "--cutoff": dict(type=int, default=8, help="truncation box radius (default 8)"),
    "--tol": dict(type=float, default=1e-10, help="series tolerance (default 1e-10)"),
    "--mode": dict(choices=_ROUTES, default="both",
                   help="computation route (default both)"),
    "--output": dict(choices=("json", "text"), default="text",
                     help="report format (default text)"),
}

#: option -> (namespace attribute, type, choices), as argparse derives them
_PLAIN = {flag: (kw.get("dest", flag[2:]), kw.get("type"), kw.get("choices"))
          for flag, kw in _OPTIONS.items()}
_DEFAULTS = {_PLAIN[flag][0]: kw.get("default") for flag, kw in _OPTIONS.items()}
_REQUIRED = frozenset(_PLAIN[flag][0] for flag, kw in _OPTIONS.items() if kw.get("required"))


def _plain_args(argv: list):
    """The namespace argparse returns for a command line made of a command
    and exact options, each ``--opt=value`` or ``--opt value`` with a value
    that does not start with ``-``; None for any other command line, which
    argparse then reads (abbreviations, other values, help, errors).  Like
    argparse, it checks every occurrence of an option and keeps the last."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values = {"command": argv[0]}
    rest = iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if flag not in _PLAIN:
            return None
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("-"):
                return None
        elif value == "--":  # argparse drops a '--' value
            return None
        dest, convert, choices = _PLAIN[flag]
        if convert is not None:
            try:
                value = convert(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if not _REQUIRED <= values.keys():
        return None
    return argparse.Namespace(**{**_DEFAULTS, **values})


def _is_output_flag(flag: str) -> bool:
    """Whether argparse reads ``flag`` as ``--output``: written in full, or
    as a prefix of ``--output`` that no other option has."""
    return "--output".startswith(flag) and not any(
        other.startswith(flag) for other in _OPTIONS if other != "--output")


def _asks_for_json(argv: list) -> bool:
    """Whether a command line the parser rejected asks for ``--output json``
    (the last ``--output`` option, in full or abbreviated, wins)."""
    output = None
    for arg, following in zip(argv, argv[1:] + [None]):
        flag, eq, value = arg.partition("=")
        if _is_output_flag(flag):
            output = value if eq else following
    return output == "json"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from _COMMANDS and _OPTIONS on first use
    and then reused: building it costs several times what parsing one
    command line does."""
    common = _Parser(add_help=False)
    for flag, kw in _OPTIONS.items():
        common.add_argument(flag, **kw)
    parser = _Parser(
        prog="specdet",
        description="Determinants and traces of operators given by symbols "
                    "and kernels, with brute-force oracle cross-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, _) in _COMMANDS.items():
        sub.add_parser(command, parents=[common], help=text)
    return parser


def _emit_error(kind: str, exc: Exception, args, stderr):
    payload = {"error": kind, "message": str(exc)}
    fld = getattr(exc, "field", None)
    if fld is not None:
        payload["field"] = fld
    if args is not None and getattr(args, "output", "text") == "json":
        stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        loc = f" [{fld}]" if fld else ""
        stderr.write(f"specdet: {kind} error{loc}: {exc}\n")


def run_command(argv=None, stdout=None, stderr=None) -> int:
    """Run one CLI invocation; returns the process exit code."""
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _plain_args(argv) or _build_parser().parse_args(argv)
    except _ParserExit as exc:
        if exc.status == 0:
            stdout.write(exc.text)
        elif _asks_for_json(argv):
            _emit_json({"error": "usage", "message": str(exc)}, stderr)
        else:
            stderr.write(exc.text)
        return exc.status
    try:
        spec = parse_spec(args.input)
        op = build_operator(spec)
        report, code = _dispatch(args, spec, op)
    except SpecParseError as exc:
        _emit_error("parse", exc, args, stderr)
        return 2
    except SpecValidationError as exc:
        _emit_error("validation", exc, args, stderr)
        return 2
    except (FeasibilityError, MemoryError) as exc:
        _emit_error("feasibility", exc, args, stderr)
        return 3
    except OSError as exc:
        _emit_error("io", exc, args, stderr)
        return 2
    except (SpecdetError, OverflowError) as exc:
        _emit_error("computation", exc, args, stderr)
        return 2
    if args.output == "json":
        _emit_json(report, stdout)
    else:
        _emit_text(report, stdout)
    return code


def main() -> None:
    sys.exit(run_command())
