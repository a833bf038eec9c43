import io
import json
import math
import pathlib
import time

import pytest

from specdet import CMatrix
from specdet.cli import run_command
from specdet.errors import FeasibilityError

FIXTURES = pathlib.Path("fixtures")
GOLDEN = pathlib.Path("tests/golden")

GOOD_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json"))
GOLDEN_FIXTURES = ["zero", "rank_one", "toroidal_modulated", "spectral_table",
                   "bundle_small"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv + ["--output", "json"])
    report = json.loads(out) if out else None
    return code, report, err


def test_det_zero_fixture():
    code, report, _ = run_json(["det", "--input", "fixtures/zero.json"])
    assert code == 0
    assert report["series"]["value"] == [1.0, 0.0]
    assert report["series"]["converged"] is True


def test_compare_rank_one_against_oracle():
    code, report, _ = run_json(["compare", "--input", "fixtures/rank_one.json",
                                "--lambda", "0.5,0"])
    assert code == 0
    assert report["rel_deviation"] < 1e-9
    assert report["series_value"] == report["oracle_value"] == [1.35, 0.0]


def test_norm_profile_sharpness_diverges():
    code, report, _ = run_json(["norm-profile", "--input", "fixtures/sharpness.json",
                                "--cutoff", "64"])
    assert code == 0
    assert report["verdict"] == "diverging/inconclusive"
    norms = [v for _, v in report["points"]]
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_norm_profile_on_lattice_kernel():
    code, report, _ = run_json(["norm-profile", "--input",
                                "fixtures/diag_inverse_square.json",
                                "--cutoff", "32"])
    assert code == 0
    assert report["verdict"] == "converging"


@pytest.mark.parametrize("fixture, cutoff, increments, verdict", [
    ("sharpness", 1, [], "diverging/inconclusive"),  # no increment: nothing shows it flat
    ("zero", 2, [0.0], "converging"),  # one zero increment is flat
])
def test_a_profile_is_flat_only_by_its_increments(fixture, cutoff, increments, verdict):
    argv = ["norm-profile", "--input", f"fixtures/{fixture}.json", "--cutoff", str(cutoff)]
    code, report, _ = run_json(argv)
    assert (code, report["increments"], report["verdict"]) == (0, increments, verdict)
    code, out, _ = run(argv)
    assert code == 0 and f"  verdict      = {verdict}\n" in out


def test_norm_profile_rejects_other_kinds():
    code, _, err = run_json(["norm-profile", "--input", "fixtures/block_symbol.json"])
    assert code == 2
    assert "norm-profile" in err


@pytest.mark.parametrize("cutoff", ["0", "-3"])
@pytest.mark.parametrize("spec", ["rank_one", "toroidal_modulated"])
def test_norm_profile_refuses_a_cutoff_below_one(monkeypatch, spec, cutoff):
    # as det, trace, radius and compare do, before any norm is computed
    import specdet.cli as cli

    def no_norm(*args):
        raise AssertionError("a norm was computed")

    monkeypatch.setattr(cli, "poincare_norm", no_norm)
    monkeypatch.setattr(cli, "norm_growth_profile", no_norm)
    argv = ["norm-profile", "--input", f"fixtures/{spec}.json", f"--cutoff={cutoff}"]
    message = f"cutoff must be >= 1, got {cutoff}"
    code, out, err = run(argv + ["--output", "json"])
    assert (code, out) == (2, "")
    assert err.splitlines() == [json.dumps({"error": "computation", "message": message})]
    assert run(argv) == (2, "", f"specdet: computation error: {message}\n")


@pytest.mark.parametrize("cutoff", ["0", "-3"])
@pytest.mark.parametrize("command", ["det", "trace", "radius", "compare"])
@pytest.mark.parametrize("spec", ["rank_one", "toroidal_modulated", "block_symbol",
                                  "spectral_table", "bundle_small"])
def test_every_kind_refuses_a_cutoff_below_one(spec, command, cutoff):
    # also the kinds whose series does not truncate
    argv = [command, "--input", f"fixtures/{spec}.json", f"--cutoff={cutoff}"]
    message = f"cutoff must be >= 1, got {cutoff}"
    code, out, err = run(argv + ["--output", "json"])
    assert (code, out) == (2, "")
    assert err.splitlines() == [json.dumps({"error": "computation", "message": message})]
    assert run(argv) == (2, "", f"specdet: computation error: {message}\n")


def _refused(argv, message):
    """Whether argv is refused with the one computation error line
    ``message``, in json and in text."""
    code, out, err = run(argv + ["--output", "json"])
    return ((code, out, err.splitlines()) ==
            (2, "", [json.dumps({"error": "computation", "message": message})])
            and run(argv) == (2, "", f"specdet: computation error: {message}\n"))


#: command -> the --mode values it cannot honour
REFUSED_MODES = {"compare": ["series", "oracle"], "radius": ["oracle"],
                 "norm-profile": ["series", "oracle"]}


@pytest.mark.parametrize("command, mode", [(command, mode)
                                           for command, modes in REFUSED_MODES.items()
                                           for mode in modes])
def test_a_command_refuses_a_mode_it_cannot_honour(command, mode):
    argv = [command, "--input", "fixtures/rank_one.json"]
    assert _refused(argv + ["--mode", mode], f"{command} does not take --mode {mode}")
    # the default both, and the series for radius (sparse-radius in the bench)
    honoured = [[], ["--mode", "both"]] + ([["--mode", "series"]] if command == "radius" else [])
    for extra in honoured:
        code, report, err = run_json(argv + extra)
        assert (code, err) == (0, ""), extra
        assert report["command"] == command


KIND_SPECS = ["rank_one", "toroidal_modulated", "block_symbol", "spectral_table",
              "bundle_small"]
#: case -> (options, plemelj_det's message for them)
SERIES_OPTION_CASES = {
    "order 0": (["--order", "0"], "series order must be >= 1, got 0"),
    "order -4": (["--order=-4"], "series order must be >= 1, got -4"),
    "tol 0": (["--tol", "0"], "tolerance must be positive and finite, got 0.0"),
    "tol -1e-3": (["--tol=-1e-3"], "tolerance must be positive and finite, got -0.001"),
    "tol nan": (["--tol", "nan"], "tolerance must be positive and finite, got nan"),
}


def _count_samples(monkeypatch) -> list:
    """The runs of k that toroidal sampling takes from here on."""
    import specdet.toroidal as toroidal

    calls, sample = [], toroidal._sample_stack
    monkeypatch.setattr(toroidal, "_sample_stack",
                        lambda s, n_x, ks: calls.append(len(ks)) or sample(s, n_x, ks))
    return calls


@pytest.mark.parametrize("case", SERIES_OPTION_CASES)
@pytest.mark.parametrize("spec", KIND_SPECS)
def test_det_and_compare_check_order_and_tol_before_any_route(monkeypatch, spec, case):
    # one message per option, whatever the kind and the route; the oracle
    # route took neither option and answered, a lattice series said "order
    # and cutoff must be >= 1", and a toroidal one sampled its symbol first
    sampled = _count_samples(monkeypatch)
    options, message = SERIES_OPTION_CASES[case]
    for command in (["det"], ["det", "--mode", "series"], ["det", "--mode", "oracle"],
                    ["compare"]):
        assert _refused([*command, "--input", f"fixtures/{spec}.json", *options], message), \
            command
    assert sampled == []
    if spec == "toroidal_modulated":  # the count sees sampling where there is some
        assert run(["det", "--input", f"fixtures/{spec}.json", "--mode", "series"])[0] == 0
        assert sampled


@pytest.mark.parametrize("spec", KIND_SPECS)
def test_radius_checks_its_order_before_building_a_source(monkeypatch, spec):
    import specdet.cli as cli

    argv = ["radius", "--input", f"fixtures/{spec}.json"]
    assert run(argv + ["--order", "3"])[0] == 0
    for name in ("toroidal_matrix", "truncation_trace_source", "block_trace_source",
                 "spectral_trace_source", "bundle_trace_source"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name: pytest.fail(f"{_name} called"))
    assert _refused(argv + ["--order", "2"], "radius estimate needs order >= 3, got 2")


def test_radius_names_the_source_of_a_non_finite_trace(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "block_symbol", "label": "huge",
                                "blocks": [[[[1e300, 0.0]]]]}))
    assert _refused(["radius", "--input", str(path)],
                    "trace power of order 15 is non-finite ((inf+0j)) for source 'huge'")


@pytest.mark.parametrize("name, argv", [
    ("build_operator", ["det", "--input", "fixtures/block_symbol.json"]),
    ("lattice_determinant", ["det", "--input", "fixtures/table_mixed.json", "--mode", "series"]),
    ("toroidal_matrix", ["trace", "--input", "fixtures/toroidal_table_2d.json"]),
])
def test_a_failed_allocation_is_a_feasibility_refusal(monkeypatch, name, argv):
    import specdet.cli as cli

    message = ("Unable to allocate 149. GiB for an array with shape (20000000002,) "
               "and data type int64")

    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, name, fail)
    code, out, err = run(argv + ["--output", "json"])
    assert (code, out) == (3, "")
    assert err.splitlines() == [json.dumps({"error": "feasibility", "message": message})]
    assert run(argv) == (3, "", f"specdet: feasibility error: {message}\n")


@pytest.mark.parametrize("spec", ["rank_one", "toroidal_modulated"])
def test_norm_profile_of_a_small_cutoff_starts_at_one(spec):
    code, report, _ = run_json(["norm-profile", "--input", f"fixtures/{spec}.json",
                                "--cutoff", "3"])
    assert (code, report["cutoff"], report["cutoffs"]) == (0, 3, [1, 3])


def test_every_fixture_passes_mode_both():
    for name in GOOD_FIXTURES:
        code, report, err = run_json(["det", "--input", f"fixtures/{name}"])
        assert code == 0, (name, err)
        assert report["deviation"]["rel"] < 1e-6, name
        assert report["series"]["converged"] is True, name


def test_trace_matches_oracle_on_fixtures():
    for name in GOOD_FIXTURES:
        code, report, err = run_json(["trace", "--input", f"fixtures/{name}"])
        assert code == 0, (name, err)
        assert report["deviation"]["rel"] < 1e-9, name


def test_radius_is_positive():
    code, report, _ = run_json(["radius", "--input", "fixtures/block_symbol.json"])
    assert code == 0
    assert report["radius"] == "inf" or report["radius"] > 0


def test_wide_banded_fixture_takes_the_band_path():
    from specdet.specfile import build_operator, parse_spec
    from support import trace_powers, truncation_mode

    # banded_gapped_complex.json: complex offsets -2, 0 and 1
    for fixture, dtype in (("banded_wide.json", "float64"),
                           ("banded_gapped_complex.json", "complex128")):
        op = build_operator(parse_spec(FIXTURES / fixture))
        assert truncation_mode(op, 8) == "dense"
        band = trace_powers(op, 64)._parts[0][1]  # side 129
        assert truncation_mode(op, 64) == "band" and band.rows.dtype == dtype
        code, report, err = run_json(["det", "--input", f"fixtures/{fixture}",
                                      "--cutoff", "64"])
        assert code == 0, err
        assert report["series"]["converged"] is True
        assert report["deviation"]["rel"] < 1e-12


def test_mode_series_flags_non_convergence_with_exit_4():
    code, report, _ = run_json(["det", "--input", "fixtures/rank_one.json",
                                "--lambda", "10,0", "--mode", "series"])
    assert code == 4
    assert report["series"]["converged"] is False


def test_validation_error_exits_2_with_field():
    code, _, err = run_json(["det", "--input",
                             "fixtures/bad/block_dim_mismatch.json"])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert payload["field"] == "block[2]"


def test_every_malformed_fixture_exits_2():
    for path in sorted(FIXTURES.glob("bad/*.json")):
        code, _, err = run_json(["det", "--input", str(path)])
        assert code == 2, path.name
        payload = json.loads(err)
        assert payload["error"] in ("parse", "validation")
        assert payload["message"]


def test_feasibility_guard_exits_3():
    code, _, err = run_json(["det", "--input", "fixtures/zero.json",
                             "--cutoff", "20000"])
    assert code == 3
    assert json.loads(err)["error"] == "feasibility"
    # an x-dependent symbol is refused before any coefficient table is built
    start = time.perf_counter()
    code, _, err = run_json(["det", "--input", "fixtures/toroidal_modulated.json",
                             "--cutoff", "5000"])
    assert code == 3
    assert json.loads(err)["error"] == "feasibility"
    assert time.perf_counter() - start < 5.0


def test_an_unsizable_x_independent_quantization_exits_3(monkeypatch):
    # refused before any value or box point: the box alone could not be
    # allocated, and the built-in symbol is counted in box sites
    import specdet.toroidal as toroidal

    def no_sample(*args):
        raise AssertionError("the symbol was sampled")

    monkeypatch.setattr(toroidal, "_constant_value", no_sample)
    monkeypatch.setattr(toroidal, "_box_points", no_sample)
    code, out, err = run(["det", "--input", "fixtures/toroidal_power_decay_2d.json",
                          "--cutoff", "10000000000", "--mode", "series", "--output", "json"])
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "feasibility"
    assert payload["message"] == (
        "quantizing symbol 'power-decay-2d' at cutoff 10000000000 needs "
        "400000000040000000001 box sites, above the guard of 8388608")


def _refused_unallocated(argv, message):
    """``argv`` exits 3 with one feasibility line in JSON and in text, and
    traces under 1 MB of allocations on the way."""
    import tracemalloc

    tracemalloc.start()
    try:
        code, out, err = run(argv + ["--output", "json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (3, "")
    assert err.splitlines() == [json.dumps({"error": "feasibility", "message": message})]
    assert peak < 1 << 20
    assert run(argv) == (3, "", f"specdet: feasibility error: {message}\n")


@pytest.mark.parametrize("fixture, cutoff, command, message", [
    # a 1-D box of side 2^62 + 1 fits int64 positions, not a CSR row index
    ("rank_one", 2 ** 61, ["det", "--mode", "series"],
     "a CSR matrix of side 4611686018427387905 is too large to index"),
    ("toroidal_table", 2 ** 62 - 1, ["radius"],
     "a CSR matrix of side 9223372036854775807 is too large to index"),
    # a 2-D box of side (2^62 + 1)^2 does not fit int64 positions
    ("toroidal_table_2d", 2 ** 61, ["trace", "--mode", "series"],
     "the box of cutoff 2305843009213693952 has side "
     "21267647932558653975684285001340289025, whose positions do not fit int64"),
    ("banded_wide", 10 ** 21, ["norm-profile"],
     "the box of cutoff 62500000000000000000 has side 125000000000000000001, "
     "whose positions do not fit int64"),
])
def test_a_box_numpy_cannot_size_is_refused(fixture, cutoff, command, message):
    _refused_unallocated([command[0], "--input", f"fixtures/{fixture}.json", "--cutoff",
                          str(cutoff), *command[1:]], message)


@pytest.mark.parametrize("model", ["circle", "sphere2", "torus2"])
def test_a_spectrum_numpy_cannot_size_is_refused(tmp_path, model):
    path = tmp_path / "vast.json"
    path.write_text(json.dumps({"kind": "spectral_model", "model": model, "J": 10 ** 20,
                                "alpha": 2.0}))
    _refused_unallocated(["det", "--input", str(path)], "J = 100000000000000000000 keeps "
                         "100000000000000000001 levels, too many to size")


def test_an_empty_kernel_at_a_box_of_side_2_to_the_62_still_answers():
    code, report, _ = run_json(["trace", "--input", "fixtures/zero.json", "--cutoff",
                                str(2 ** 61), "--mode", "series"])
    assert (code, report["trace"]) == (0, [0.0, 0.0])


def test_a_built_in_model_without_manifold_dim_warns_at_its_dimension(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"kind": "spectral_model", "model": "circle", "J": 512,
                                "alpha": 1.0}))
    code, report, err = run_json(["det", "--mode", "series", "--input", str(path)])
    assert (code, err) == (0, "")
    assert [w.split(";")[0] for w in report["series"]["diagnostics"]["warnings"]] == [
        "alpha = 1 does not exceed the manifold dimension 1"]


def test_full_truncation_above_the_dense_limit_exits_3(tmp_path):
    # a rank-one kernel with 2049-site factors fills its box of side 2049:
    # neither diagonal, banded nor sparse, so its trace powers are refused
    # rather than run as CSR products of a full matrix
    sites = range(-1024, 1025)
    spec = {"kind": "lattice_kernel", "family": "rank_one", "dim": 1,
            "g": [[j, 0.5 / (1 + abs(j)), 0.0] for j in sites],
            "h": [[j, 0.3 / (1 + j * j), -0.2 / (1 + j * j)] for j in sites]}
    path = tmp_path / "rank_one_full.json"
    path.write_text(json.dumps(spec))
    start = time.perf_counter()
    code, _, err = run_json(["det", "--input", str(path), "--cutoff", "1024"])
    assert code == 3
    assert json.loads(err)["error"] == "feasibility"
    assert time.perf_counter() - start < 10.0


def test_missing_file_exits_2():
    code, _, err = run_json(["det", "--input", "fixtures/no_such_file.json"])
    assert code == 2


def test_bad_lambda_exits_2():
    code, _, _ = run(["det", "--input", "fixtures/zero.json", "--lambda", "x"])
    assert code == 2


def test_reported_deviation_matches_recomputation():
    code, report, _ = run_json(["det", "--input", "fixtures/table_mixed.json"])
    assert code == 0
    series = complex(*report["series"]["value"])
    oracle = complex(*report["oracle"]["value"])
    recomputed = abs(series - oracle)
    assert report["deviation"]["abs"] == pytest.approx(recomputed, rel=1e-6, abs=1e-15)


def test_text_output_mentions_value_and_terms():
    code, out, _ = run(["det", "--input", "fixtures/rank_one.json"])
    assert code == 0
    assert "value" in out and "terms:" in out and "m=1" in out


def test_text_mode_error_names_field_on_stderr():
    code, out, err = run(["det", "--input", "fixtures/bad/block_dim_mismatch.json"])
    assert code == 2
    assert out == ""
    assert "block[2]" in err and "validation" in err


def test_json_reports_are_byte_stable_across_runs():
    for name in GOLDEN_FIXTURES:
        first = run(["det", "--input", f"fixtures/{name}.json", "--output", "json"])
        second = run(["det", "--input", f"fixtures/{name}.json", "--output", "json"])
        assert first == second


def test_json_reports_match_committed_goldens():
    for name in GOLDEN_FIXTURES:
        _, out, _ = run(["det", "--input", f"fixtures/{name}.json",
                         "--output", "json"])
        golden = (GOLDEN / f"{name}.json").read_text()
        assert out == golden, name


def test_det_report_has_exactly_the_result_fields():
    _, report, _ = run_json(["det", "--input", "fixtures/zero.json"])
    assert sorted(report["series"]) == ["converged", "cutoff_used", "diagnostics",
                                        "order_used", "tail_estimate", "terms",
                                        "value"]


def test_series_walks_a_banded_truncation_once(monkeypatch):
    import specdet.cli as cli

    calls = []
    build = cli.build_operator

    def counting_build(spec):
        op = build(spec)
        support_arrays = op.support_arrays
        op.support_arrays = lambda r: calls.append(r) or support_arrays(r)
        return op

    monkeypatch.setattr(cli, "build_operator", counting_build)
    code, report, _ = run_json(["det", "--input", str(FIXTURES / "banded_shift.json"),
                                "--mode", "series", "--cutoff", "6"])
    assert code == 0 and report["series"]["cutoff_used"] == 6
    assert calls == [6]


def test_series_never_evaluates_a_quantization_entry_by_entry(monkeypatch):
    import specdet.toroidal as toroidal

    calls = []
    quantize = toroidal.toroidal_matrix

    def counting_quantize(s, cutoff):
        k = quantize(s, cutoff)  # the support spot check runs before wrapping
        evaluate = k.eval
        k.eval = lambda j, m: calls.append((j, m)) or evaluate(j, m)
        return k

    monkeypatch.setattr(toroidal, "toroidal_matrix", counting_quantize)
    code, report, _ = run_json(["det", "--input", str(FIXTURES / "toroidal_modulated.json"),
                                "--mode", "series", "--cutoff", "6"])
    assert code == 0 and report["series"]["cutoff_used"] == 6
    assert calls == []


@pytest.mark.parametrize("lam", ["nan", "inf,0", "0,-inf", "1e400", "nan,nan"])
@pytest.mark.parametrize("fixture", GOOD_FIXTURES)
def test_non_finite_lambda_exits_2(fixture, lam):
    code, out, err = run(["det", "--input", f"fixtures/{fixture}", "--lambda", lam,
                          "--output", "json"])
    assert (code, out) == (2, "")
    assert f"expected finite RE or RE,IM for --lambda, got {lam!r}" in err


@pytest.mark.parametrize("argv, prog, message", [
    (["det", "--input", "fixtures/zero.json", "--lambda", "x"], "specdet det",
     "argument --lambda: expected finite RE or RE,IM for --lambda, got 'x'"),
    (["det", "--input", "fixtures/zero.json", "--bandwidth", "3"], "specdet",
     "unrecognized arguments: --bandwidth 3"),
    (["det"], "specdet det", "the following arguments are required: --input"),
    (["det", "--input", "fixtures/zero.json", "--output", "yaml"], "specdet det",
     "argument --output: invalid choice: 'yaml' (choose from 'json', 'text')"),
])
def test_usage_errors_go_to_the_given_stderr(capsys, argv, prog, message):
    code, out, err = run(argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: {prog} ") and err.endswith(f"{prog}: error: {message}\n")
    # argparse reads a unique prefix of --output as --output
    for output in (["--output", "json"], ["--output=json"], ["--outp", "json"], ["--ou=json"]):
        assert run(argv + output) == (2, "", json.dumps(
            {"error": "usage", "message": message}, sort_keys=True) + "\n")
    assert capsys.readouterr() == ("", "")


def test_an_ambiguous_output_prefix_is_argparse_error_text():
    # --o matches --order and --output: argparse's error, not a JSON one
    code, out, err = run(["det", "--input", "fixtures/zero.json", "--o", "json"])
    assert (code, out) == (2, "")
    assert err.endswith("specdet det: error: ambiguous option: --o could match --order, "
                        "--output\n")


def test_help_goes_to_the_given_stdout(capsys):
    code, out, err = run(["det", "-h"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: specdet det ") and "--lambda RE,IM" in out
    assert capsys.readouterr() == ("", "")


def test_python_m_specdet_runs_the_cli():
    import os
    import subprocess
    import sys

    argv = ["det", "--input", "fixtures/zero.json", "--output", "json"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))
    via_m = subprocess.run([sys.executable, "-m", "specdet", *argv], env=env,
                           capture_output=True, text=True, timeout=60)
    via_main = subprocess.run(
        [sys.executable, "-c", "from specdet.cli import main; main()", *argv], env=env,
        capture_output=True, text=True, timeout=60)
    assert (via_m.returncode, via_m.stdout, via_m.stderr) == (
        via_main.returncode, via_main.stdout, via_main.stderr)
    assert (via_m.returncode, via_m.stdout) == (0, (GOLDEN / "zero.json").read_text())


@pytest.mark.parametrize("command", ["det", "compare"])
@pytest.mark.parametrize("fixture,lam", [("diag_inverse_square.json", "1e308,1e308")])
def test_modulus_overflow_reports_null(command, fixture, lam):
    # the first term has finite parts but a modulus past the float range,
    # where abs() raises OverflowError: the series stops with reason
    # overflow, as where a part overflows
    argv = [command, "--input", f"fixtures/{fixture}", "--lambda", lam]
    code, report, _ = run_json(argv)
    assert code == 0
    if command == "det":
        assert report["series"]["value"] is None and report["deviation"] is None
        assert report["series"]["reason"] == "overflow" and report["series"]["terms"] == []
    else:
        assert report["series_value"] is None and report["reason"] == "overflow"
        assert report["abs_deviation"] is report["rel_deviation"] is None
    code, out, _ = run(argv)
    assert code == 0 and "null (overflow)\n" in out


def test_a_deviation_whose_modulus_overflows_stays_finite_where_it_can(tmp_path):
    import specdet.cli as cli

    # a trace with finite parts whose modulus passes the float range: abs()
    # of the oracle trace raised OverflowError, and trace exited 2
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "block_symbol", "dims": [1],
                                "blocks": [[[[1.5e308, 1.5e308]]]]}))
    code, report, _ = run_json(["trace", "--input", str(path)])
    assert code == 0 and report["deviation"] == {"abs": 0.0, "rel": 0.0}
    assert cli._deviation(0j, complex(1.5e308, 1.5e308)) == {"abs": "inf", "rel": 1.0}
    near = cli._deviation(complex(1.5e308, 1.5e308), complex(1.5e308, 1.4e308))
    assert near["abs"] == 1e307 and near["rel"] == pytest.approx(0.1 / math.hypot(1.5, 1.4))
    assert cli._deviation(1.0 + 0j, 3.0 + 0j) == {"abs": 2.0, "rel": 0.666666666667}


@pytest.mark.parametrize("spec, argv, trace", [
    ({"kind": "block_symbol", "dims": [1], "blocks": [[[[1.5e308, 1.5e308]]]]}, [], "nan+nanj"),
    ({"kind": "block_symbol", "dims": [1], "blocks": [[[[1e300, 0.0]]]]}, [], "inf+0j"),
    ({"kind": "lattice_kernel", "family": "diagonal", "dim": 1, "entries": [[1, 1e300, 0.0]]},
     [], "inf+0j"),
    ({"kind": "lattice_kernel", "family": "rank_one", "dim": 1, "g": [[0, 1e300, 0.0]],
      "h": [[0, 1.0, 0.0], [1, 1.0, 0.0]]}, ["--cutoff", "8"], "inf+0j"),
    ({"kind": "lattice_kernel", "family": "banded", "dim": 1, "support": 4,
      "offsets": [[-1, 1e300, 0.0], [1, 1e300, 0.0]]}, ["--cutoff", "8"], "inf+0j"),
], ids=["block-complex", "block-real", "diagonal", "rank-one", "banded"])
@pytest.mark.parametrize("command", ["det", "compare", "radius"])
def test_trace_powers_past_the_float_range_leave_one_error_line(tmp_path, spec, argv, trace,
                                                                command):
    import warnings

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run([command, "--input", str(path), "--output", "json", *argv])
    assert caught == [] and (code, out) == (2, "")
    assert err.count("\n") == 1 and err.endswith("\n")
    payload = json.loads(err)
    assert payload["error"] == "computation" and "is non-finite" in payload["message"]
    if command != "radius":  # the root test starts at order 15
        assert f"trace power of order 2 is non-finite (({trace}))" in payload["message"]


@pytest.mark.parametrize("fixture", GOOD_FIXTURES)
def test_order_zero_exits_2_and_names_the_order(fixture):
    code, report, err = run_json(["det", "--input", f"fixtures/{fixture}", "--order", "0"])
    assert (code, report) == (2, None)
    payload = json.loads(err)
    assert payload["error"] == "computation"
    assert "order" in payload["message"] and "0" in payload["message"]


def test_unknown_kind_error_is_unchanged():
    expected = ("kind: expected one of ['lattice_kernel', 'toroidal_symbol', "
                "'block_symbol', 'spectral_model', 'bundle_symbol'], got None")
    argv = ["det", "--input", "fixtures/bad/missing_kind.json"]
    assert run(argv + ["--output", "json"]) == (2, "", json.dumps(
        {"error": "validation", "field": "kind", "message": expected}, sort_keys=True) + "\n")
    assert run(argv) == (2, "", f"specdet: validation error [kind]: {expected}\n")


LOWEST, HIGHEST = -(1 << 63), (1 << 63) - 1  # the int64 range, which specs may use

#: lattice specs without far sites, and the far sites or offsets to add to
#: one of their lists: sites at the ends of the int64 range lie outside every
#: box, and offsets that long move every site out of it
FAR_SITES = {
    "diagonal": ({"kind": "lattice_kernel", "family": "diagonal", "dim": 1,
                  "entries": [[0, 0.25, 0.0], [3, -0.125, 0.0]]},
                 "entries", [[LOWEST, 0.5, 0.0], [HIGHEST, 0.5, 0.0]]),
    "rank_one": ({"kind": "lattice_kernel", "family": "rank_one", "dim": 1,
                  "g": [[0, 0.7, 0.0], [1, 0.2, 0.1]], "h": [[0, 1.0, 0.0], [1, -0.3, 0.0]]},
                 "g", [[LOWEST, 0.5, 0.0], [HIGHEST, 0.25, 0.0]]),
    "table": ({"kind": "lattice_kernel", "family": "table", "dim": 1,
               "entries": [[0, 0, 0.3, 0.0], [1, -1, 0.2, 0.1]]},
              "entries", [[LOWEST, 0, 0.5, 0.0], [0, LOWEST, 0.5, 0.0],
                          [LOWEST, LOWEST, 0.5, 0.0], [HIGHEST, 2, 0.5, 0.0]]),
    "banded": ({"kind": "lattice_kernel", "family": "banded", "dim": 1, "support": 80,
                "offsets": [[-1, 0.1, 0.0], [0, 0.2, 0.0], [1, 0.15, 0.0]]},
               "offsets", [[LOWEST, 0.5, 0.0], [HIGHEST, 0.5, 0.0]]),
}


@pytest.mark.parametrize("family", sorted(FAR_SITES))
@pytest.mark.parametrize("argv", [
    ["det", "--lambda", "0.5"],
    ["det", "--mode", "series", "--lambda", "0.5", "--cutoff", "70"],  # band, diag, sparse
    ["trace"],
    ["norm-profile"],
], ids=["det", "det-wide", "trace", "norm-profile"])
def test_far_lattice_sites_leave_the_reports_unchanged(tmp_path, family, argv):
    spec, field, far = FAR_SITES[family]
    path = tmp_path / "spec.json"
    reports = []
    for entries in (spec[field], far[:1] + spec[field] + far[1:]):
        path.write_text(json.dumps({**spec, field: entries}))
        reports.append(run(argv + ["--input", str(path), "--output", "json"]))
    assert reports[0][0] == 0
    assert reports[1] == reports[0]


#: coefficients that reach no point of the boxes below, to add to
#: fixtures/toroidal_table.json: sigma_hat(256, 0), which a sampled 256-point
#: grid folds onto sigma_hat(0, 0), modes past 2R, k past R, l + k past R,
#: and int64 ends, whose sum l + k = -1 would land in every box
FAR_COEFFICIENTS = [[256, 0, 0.5, 0.0], [300, -20, 0.25, 0.0], [0, 71, 0.5, 0.0],
                    [100, 20, 0.25, 0.0], [1 << 62, 0, 0.5, 0.0], [LOWEST, 0, 0.5, 0.0],
                    [0, LOWEST, 0.5, 0.0], [HIGHEST, LOWEST, 0.5, 0.0],
                    [LOWEST, HIGHEST, 0.25, 0.0]]


@pytest.mark.parametrize("argv", [
    ["det", "--lambda", "0.5"],
    ["det", "--mode", "series", "--lambda", "0.5", "--cutoff", "70"],  # band
    ["trace"],
    ["norm-profile"],
], ids=["det", "det-wide", "trace", "norm-profile"])
def test_far_table_coefficients_leave_the_reports_unchanged(tmp_path, argv):
    spec = json.loads((FIXTURES / "toroidal_table.json").read_text())
    path = tmp_path / "spec.json"
    reports = []
    for entries in (spec["entries"], FAR_COEFFICIENTS[:1] + spec["entries"] + FAR_COEFFICIENTS[1:]):
        path.write_text(json.dumps({**spec, "entries": entries}))
        reports.append(run(argv + ["--input", str(path), "--output", "json"]))
    assert reports[0][0] == 0
    assert reports[1] == reports[0]


def test_table_mode_beyond_the_grid_is_not_folded(tmp_path):
    spec = json.loads((FIXTURES / "toroidal_table.json").read_text())
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**spec, "entries": spec["entries"] + [[256, 0, 0.5, 0.0]]}))
    code, report, _ = run_json(["trace", "--input", str(path)])
    assert code == 0 and report["trace"] == report["oracle_trace"] == [0.5, 0.0]
    code, report, _ = run_json(["det", "--input", str(path), "--lambda", "0.5"])
    assert code == 0
    assert report["series"]["value"] == report["oracle"]["value"] == [1.25, 0.0]


@pytest.mark.parametrize("fixture", ["banded_wide.json", "toroidal_table.json"])
def test_oracle_refuses_a_wide_assembly_before_starting(fixture):
    # the series takes the band path at side 10001; the oracle's pure-Python
    # assembly of 10^8 entries is refused
    start = time.perf_counter()
    code, _, err = run_json(["det", "--input", str(FIXTURES / fixture), "--cutoff", "5000"])
    assert code == 3
    assert json.loads(err) == {"error": "feasibility", "message":
                               "truncation side 10001 exceeds the assembly guard 2048"}
    assert time.perf_counter() - start < 5.0


def test_oracle_refuses_a_long_lu_after_the_series():
    # side 467 assembles (below 2048) but its LU needs (467^3 - 467) / 3
    # updates, above LU_UPDATE_GUARD: the oracle's size check refuses before
    # the series runs, and the series alone still answers
    argv = ["det", "--input", str(FIXTURES / "banded_wide.json"), "--cutoff", "233"]
    start = time.perf_counter()
    code, _, err = run_json(argv)
    assert code == 3
    assert json.loads(err) == {"error": "feasibility", "message":
                               "LU determinant of side 467 needs 33949032 updates, "
                               "above the guard of 33554432"}
    assert time.perf_counter() - start < 5.0
    code, report, _ = run_json([*argv, "--mode", "series"])
    assert code == 0 and report["series"]["converged"] is True


@pytest.mark.parametrize("fixture, cutoff", [("toroidal_modulated.json", 1000),
                                             ("banded_wide.json", 233)])
def test_oracle_refuses_before_building_the_truncation(monkeypatch, fixture, cutoff):
    # the LU guard is sized from the box side alone: neither the kernel nor
    # its entry-by-entry assembly is built, and the refusal is the one
    # direct_determinant gives, with the same count
    import specdet.cli as cli
    import specdet.oracle as oracle

    def unreachable(*args):
        raise AssertionError("built before the guard")

    monkeypatch.setattr(cli, "toroidal_matrix", unreachable)
    monkeypatch.setattr(cli, "assemble_truncation", unreachable)
    side = 2 * cutoff + 1
    with pytest.raises(FeasibilityError) as want:
        oracle.check_truncation_determinant(1, cutoff)
    assert want.value.count == (side ** 3 - side) // 3
    start = time.perf_counter()
    code, _, err = run_json(["det", "--input", str(FIXTURES / fixture), "--cutoff",
                             str(cutoff), "--mode", "oracle"])
    assert time.perf_counter() - start < 0.5
    assert code == 3 and json.loads(err) == {"error": "feasibility", "message": str(want.value)}
    # the same message and count as direct_determinant's own check
    monkeypatch.setattr(oracle, "LU_UPDATE_GUARD", 100)
    with pytest.raises(FeasibilityError) as direct:
        oracle.direct_determinant(CMatrix.zeros(9, 9), 0.5)
    with pytest.raises(FeasibilityError) as early:
        oracle.check_truncation_determinant(1, 4)
    assert (str(early.value), early.value.count) == (str(direct.value), direct.value.count)


@pytest.mark.parametrize("command", ["det", "compare"])
def test_an_oversized_oracle_is_refused_before_the_series(monkeypatch, command):
    # under det's default --mode both and under compare the oracle's LU guard
    # refuses side 2001 before the series samples the symbol, with the
    # message the oracle route gives after it
    import specdet.cli as cli

    def unreachable(*args, **kwargs):
        raise AssertionError("the series ran before the oracle's size check")

    monkeypatch.setattr(cli, "toroidal_determinant", unreachable)
    start = time.perf_counter()
    code, _, err = run_json([command, "--input", str(FIXTURES / "toroidal_modulated.json"),
                             "--cutoff", "1000"])
    assert time.perf_counter() - start < 0.5
    assert code == 3 and json.loads(err) == {
        "error": "feasibility",
        "message": "LU determinant of side 2001 needs 2670668000 updates, "
                   "above the guard of 33554432"}


M1 = [[[0.5, 0.0]]]  # a 1x1 matrix
LATTICE = dict(family="diagonal", entries=[[0, 0.5, 0.0]])
SPECTRAL = dict(model="circle", J=2, alpha=2.0)
BUNDLE = dict(fiber_dim=1, dual=[["a", 1]], sigma=[[1, 1, "a", M1]])


#: case -> (spec, field, message of its validation error); each reaches a
#: field check of specfile that no fixture or refusal record reaches
FIELD_REFUSALS = {
    "not-an-object": ([1, 2], "kind", "spec file must hold a JSON object"),
    "label": (dict(kind="spectral_model", label=3, **SPECTRAL), "label",
              "expected a string, got 3"),
    "missing-field": (dict(kind="lattice_kernel"), "family", "required field is missing"),
    "lattice-family": (dict(kind="lattice_kernel", family="nope"), "family",
                       "unknown family 'nope' (have ['banded', 'diagonal', 'rank_one', "
                       "'table'])"),
    "lattice-dim": (dict(kind="lattice_kernel", dim=2, **LATTICE), "dim",
                    "built-in lattice families are one-dimensional"),
    "lattice-support": (dict(kind="lattice_kernel", family="banded", offsets=[[1, 0.5, 0.0]],
                             support=-1), "support", "support must be >= 0"),
    "lattice-entries": (dict(kind="lattice_kernel", family="diagonal", entries=3), "entries",
                        "expected a list, got 3"),
    "toroidal-family": (dict(kind="toroidal_symbol", family="nope"), "family",
                        "unknown family 'nope' (have ['custom_table', 'modulated', "
                        "'power_decay', 'sharpness'])"),
    "toroidal-dim": (dict(kind="toroidal_symbol", family="sharpness", dim=0), "dim",
                     "dim must be >= 1"),
    "toroidal-x-grid": (dict(kind="toroidal_symbol", family="sharpness", x_grid=1), "x_grid",
                        "x_grid must be >= 2"),
    "blocks-empty": (dict(kind="block_symbol", blocks=[]), "blocks",
                     "expected a nonempty list of matrices"),
    "blocks-non-square": (dict(kind="block_symbol", blocks=[[[[1.0, 0.0], [0.0, 0.0]]]]),
                          "block[0]", "matrix is 1x2, must be square"),
    "blocks-matrix": (dict(kind="block_symbol", blocks=[3]), "block[0]",
                      "expected a nonempty list of rows, got 3"),
    "blocks-dims-type": (dict(kind="block_symbol", blocks=[M1], dims=3), "dims",
                         "expected a list of sizes, got 3"),
    "blocks-dims-count": (dict(kind="block_symbol", blocks=[M1], dims=[1, 1]), "dims",
                          "2 sizes for 1 blocks"),
    "spectral-model": (dict(kind="spectral_model", model="nope"), "model",
                       "unknown model 'nope' (have ['circle', 'sphere2', 'table', "
                       "'torus2'])"),
    "spectral-alpha": (dict(SPECTRAL, kind="spectral_model", alpha=0), "alpha",
                       "alpha must be positive"),
    "spectral-nu": (dict(kind="spectral_model", nu=-2.0, **SPECTRAL), "nu",
                    "nu must be positive"),
    "spectral-manifold-dim": (dict(kind="spectral_model", manifold_dim=0, **SPECTRAL),
                              "manifold_dim", "manifold_dim must be >= 1"),
    "spectral-eigenvalues": (dict(kind="spectral_model", model="table", alpha=2.0,
                                  eigenvalues=[], multiplicities=[]),
                             "eigenvalues", "expected a nonempty list"),
    "spectral-multiplicities": (dict(kind="spectral_model", model="table", alpha=2.0,
                                     eigenvalues=[0.0, 1.0], multiplicities=[1]),
                                "multiplicities", "expected 2 multiplicities"),
    "spectral-J": (dict(SPECTRAL, kind="spectral_model", J=-1), "J",
                   "J must be >= 0"),
    "bundle-fiber-dim": (dict(BUNDLE, kind="bundle_symbol", fiber_dim=0), "fiber_dim",
                         "fiber_dim must be >= 1"),
    "bundle-dual": (dict(BUNDLE, kind="bundle_symbol", dual={}), "dual",
                    "expected a nonempty list of [id, dim] pairs"),
    "bundle-dual-record": (dict(BUNDLE, kind="bundle_symbol", dual=[["a"]]), "dual[0]",
                           "expected [id, dim], got ['a']"),
    "bundle-dual-dim": (dict(BUNDLE, kind="bundle_symbol", dual=[["a", 0]]),
                        "dual[0][1]", "block dimension must be >= 1"),
    "bundle-sigma": (dict(BUNDLE, kind="bundle_symbol", sigma={}), "sigma",
                     "expected a list of [i, r, xi, matrix] records, got {}"),
    "bundle-dual-id": (dict(BUNDLE, kind="bundle_symbol", sigma=[[1, 1, "b", M1]]),
                       "sigma[0]", "unknown dual id 'b'"),
    "bundle-fiber-index": (dict(BUNDLE, kind="bundle_symbol", sigma=[[2, 1, "a", M1]]),
                           "sigma[0]", "fiber indices (2, 1) outside 1..1"),
    "bundle-duplicate": (dict(BUNDLE, kind="bundle_symbol", sigma=[[1, 1, "a", M1]] * 2),
                         "sigma[1]", "duplicate sigma entry for (1, 1, 'a')"),
}


@pytest.mark.parametrize("case", FIELD_REFUSALS)
def test_field_refusals_name_the_field(tmp_path, case):
    spec, field, message = FIELD_REFUSALS[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_json(["det", "--input", str(path)])
    assert (code, out) == (2, None)
    assert json.loads(err) == {"error": "validation", "field": field,
                               "message": f"{field}: {message}"}


def test_x_grid_reaches_the_quantization(tmp_path, monkeypatch):
    # a valid x_grid is the grid the symbol is sampled on; one that cannot
    # hold the modes of the box is refused as aliasing
    import specdet.toroidal as toroidal

    grids = []
    sampled = toroidal._sampled_matrix
    monkeypatch.setattr(toroidal, "_sampled_matrix",
                        lambda s, n_x, cutoff: grids.append(n_x) or sampled(s, n_x, cutoff))
    spec = json.loads((FIXTURES / "toroidal_modulated.json").read_text())
    reports = []
    for x_grid in (None, 40):
        path = tmp_path / f"grid_{x_grid}.json"
        path.write_text(json.dumps(spec if x_grid is None else {**spec, "x_grid": x_grid}))
        code, report, _ = run_json(["det", "--input", str(path), "--cutoff", "2",
                                    "--mode", "series"])
        assert code == 0
        reports.append(report["series"]["value"])
    assert grids == [toroidal._auto_grid(max(4, 2)), 40] and grids[0] != 40
    # the symbol is a trigonometric polynomial: both grids give its coefficients
    assert abs(complex(*reports[1]) - complex(*reports[0])) <= 1e-15
    path = tmp_path / "grid_8.json"
    path.write_text(json.dumps({**spec, "x_grid": 8}))
    code, _, err = run_json(["det", "--input", str(path), "--cutoff", "2"])
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "computation" and "aliases on a 8-point grid" in payload["message"]


@pytest.mark.parametrize("fixture, lam, order, reason", [
    ("rank_one.json", "3", "30", "outside_disc"),
    ("rank_one.json", "3e10", "29", "overflow"),
])
def test_a_series_with_no_answer_reports_null_with_a_reason(fixture, lam, order, reason):
    argv = ["--input", str(FIXTURES / fixture), "--lambda", lam, "--order", order]
    code, report, _ = run_json(["det", *argv])
    assert code == 0 and report["deviation"] is None
    assert report["series"]["value"] is None and report["series"]["reason"] == reason
    assert report["series"]["converged"] is False and report["oracle"]["value"] is not None
    code, report, _ = run_json(["det", *argv, "--mode", "series"])
    assert code == 4 and report["series"]["reason"] == reason
    code, report, _ = run_json(["compare", *argv])
    assert code == 0 and report["reason"] == reason
    assert report["series_value"] is report["abs_deviation"] is report["rel_deviation"] is None
    code, out, _ = run(["det", *argv])
    assert code == 0 and f"  value        = null ({reason})\n" in out
    assert "deviation" not in out
    code, out, _ = run(["compare", *argv])
    assert code == 0 and f"  series_value = null ({reason})\n" in out
    assert "  abs_deviation= null\n  rel_deviation= null\n" in out


def test_block_oracle_trace_sees_a_wrong_series_trace(monkeypatch):
    import specdet.cli as cli

    series = cli.block_trace
    monkeypatch.setattr(cli, "block_trace", lambda op: series(op) * (1 + 1e-9))
    code, report, _ = run_json(["trace", "--input", "fixtures/block_symbol.json", "--mode", "both"])
    assert code == 0 and report["deviation"]["abs"] > 0


def test_block_oracle_trace_sums_block_traces(tmp_path):
    # the flat pass adds each 0.9 to 1e16 and loses it; the block traces
    # 1e16 + 0.9 and 0.9 + 0.9 keep the second block's 1.8
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps({"kind": "block_symbol", "dims": [2, 2], "blocks": [
        [[[1e16, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]],
        [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.9, 0.0]]]]}))
    code, report, _ = run_json(["trace", "--input", str(path), "--mode", "both"])
    assert code == 0
    assert report["deviation"]["abs"] == 2.0  # the traces print rounded to 12 digits


def test_block_oracle_trace_keeps_an_overflowing_trace_real(tmp_path):
    # the block oracle adds each trace unweighted: 1 * (inf + 0j) is inf + nanj
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps({"kind": "block_symbol", "blocks": [
        [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]], [[[0.5, 0.0]]]]}))
    code, report, _ = run_json(["trace", "--input", str(path), "--mode", "oracle"])
    assert (code, report["oracle_trace"]) == (0, ["inf", 0.0])


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_non_finite_tolerance_is_refused(tol):
    code, out, err = run(["det", "--input", "fixtures/rank_one.json", "--tol", tol,
                          "--output", "json"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "computation",
                               "message": f"tolerance must be positive and finite, got {tol}"}


def _no_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


@pytest.mark.parametrize("lam", ["1e160", "1e300", "1e300,1e300", "1.5e308,1.5e308"])
@pytest.mark.parametrize("fixture", GOOD_FIXTURES)
def test_reports_stay_strict_json_at_extreme_lambda(fixture, lam):
    # far outside every series disc: terms, sums and oracle products leave
    # the float range, and each report says so with a null, never NaN
    argv = ["--input", str(FIXTURES / fixture), "--lambda", lam]
    for command in (["det", "--mode", "both"], ["det", "--mode", "series"],
                    ["det", "--mode", "oracle"], ["compare"]):
        code, out, err = run([*command, *argv, "--output", "json"])
        assert code in (0, 4), err
        report = json.loads(out, parse_constant=_no_constant)
        if fixture == "zero.json" and report.get("series"):
            assert report["series"]["value"] == [1.0, 0.0]
        code, out, err = run([*command, *argv])
        assert code in (0, 4) and "nan" not in out.lower(), err


@pytest.mark.parametrize("command", ["det", "compare"])
@pytest.mark.parametrize("fixture,lam", [("spectral_sphere.json", "1e200"),
                                         ("spectral_sphere.json", "1e300"),
                                         ("bundle_small.json", "1e160"),
                                         ("block_symbol.json", "1e300")])
def test_an_oracle_that_overflows_reports_null(command, fixture, lam):
    # complex exponentiation in the spectral and bundle oracles, an LU
    # that ends non-finite in the block oracle: a null value with a reason
    argv = [command, "--input", f"fixtures/{fixture}", "--lambda", lam]
    code, report, _ = run_json(argv)
    assert code == 0
    if command == "det":
        assert report["oracle"] == {"value": None, "reason": "overflow"}
        assert report["deviation"] is None
    else:
        assert report["oracle_value"] is None and report["oracle_reason"] == "overflow"
        assert report["abs_deviation"] is report["rel_deviation"] is None
    code, out, _ = run(argv)
    assert code == 0 and "  oracle_value = null (overflow)\n" in out


def test_an_oracle_route_alone_reports_its_overflow():
    block = ["--input", str(FIXTURES / "block_symbol.json"), "--lambda", "1e300"]
    code, report, _ = run_json(["det", *block, "--mode", "oracle"])
    assert code == 0 and report["oracle"] == {"value": None, "reason": "overflow"}
    assert report["series"] is None
    code, out, _ = run(["det", *block, "--mode", "oracle"])
    assert code == 0 and "  oracle_value = null (overflow)\n" in out
    # a finite oracle beside an overflowing series keeps its value
    code, report, _ = run_json(["compare", "--input", str(FIXTURES / "rank_one.json"),
                                "--lambda", "1e160", "--order", "4"])
    assert report["reason"] == "overflow" and report["oracle_value"] == [7e159, 0.0]
    assert "oracle_reason" not in report


def test_one_term_series_reports_its_one_term():
    code, report, _ = run_json(["det", "--input", str(FIXTURES / "zero.json"), "--order", "1"])
    assert code == 0 and report["series"]["value"] == [1.0, 0.0]
    assert report["series"]["converged"] and report["series"]["terms"] == [[0.0, 0.0]]
    code, report, _ = run_json(["det", "--input", str(FIXTURES / "rank_one.json"),
                                "--order", "1", "--mode", "series"])
    assert code == 4 and report["series"]["order_used"] == 1
    assert report["series"]["reason"] == "outside_disc"
    assert report["series"]["tail_estimate"] == "inf"


#: case -> (argv, det's --mode, whether det reports a deviation, whether
#: compare does); compare takes both routes and no other --mode
DEVIATION_CASES = {
    "finite": (["--input", "fixtures/rank_one.json", "--lambda", "0.5"], "both", True, True),
    "both-overflow": (["--input", "fixtures/bundle_small.json", "--lambda", "1e160"],
                      "both", False, False),
    "outside-disc": (["--input", "fixtures/rank_one.json", "--lambda", "3"], "both",
                     False, False),
    "series-only": (["--input", "fixtures/rank_one.json"], "series", False, True),
}


@pytest.mark.parametrize("case", DEVIATION_CASES)
def test_det_and_compare_report_one_deviation(case):
    # no deviation where a route is missing or the series has a reason;
    # det's deviation is compare's pair of deviations
    argv, mode, det_has, compare_has = DEVIATION_CASES[case]
    commands = (["det", "--mode", mode, *argv], ["compare", *argv])
    (det_code, det, _), (compare_code, compared, _) = (run_json(c) for c in commands)
    assert det_code == compare_code == 0
    pair = {"abs": compared["abs_deviation"], "rel": compared["rel_deviation"]}
    assert all(isinstance(v, float) if compare_has else v is None for v in pair.values())
    assert det["deviation"] == (pair if det_has else None)
    (_, det_text, _), (_, compare_text, _) = (run(c) for c in commands)
    assert ("deviation" in det_text) == det_has
    if det_has:
        assert f"  deviation    = abs {pair['abs']}, rel {pair['rel']}\n" in det_text
    shown = {k: "null" if v is None else v for k, v in pair.items()}
    assert (f"  abs_deviation= {shown['abs']}\n  rel_deviation= {shown['rel']}\n"
            in compare_text)


#: case -> (spec whose family or model is no string, field, message)
NON_STRING_CHOICES = {
    "spectral-model": ({"kind": "spectral_model", "model": [1], "alpha": 2}, "model",
                       "unknown model [1] (have ['circle', 'sphere2', 'table', 'torus2'])"),
    "lattice-family": ({"kind": "lattice_kernel", "family": [1], "dim": 1}, "family",
                       "unknown family [1] (have ['banded', 'diagonal', 'rank_one', 'table'])"),
    "toroidal-family": ({"kind": "toroidal_symbol", "family": {}, "dim": 1}, "family",
                        "unknown family {} (have ['custom_table', 'modulated', "
                        "'power_decay', 'sharpness'])"),
}


@pytest.mark.parametrize("case", NON_STRING_CHOICES)
def test_a_non_string_family_or_model_is_a_validation_error(tmp_path, case):
    # an unhashable value is refused on its field, not looked up in a dict
    spec, field, message = NON_STRING_CHOICES[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    argv = ["det", "--input", str(path)]
    assert run(argv + ["--output", "json"]) == (2, "", json.dumps(
        {"error": "validation", "field": field, "message": f"{field}: {message}"},
        sort_keys=True) + "\n")
    assert run(argv) == (2, "", f"specdet: validation error [{field}]: {field}: {message}\n")


def _strict_json(text: str):
    """json.loads that refuses the NaN and Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


#: specs whose traces and norms pass the float range -> the commands run on them
OVERFLOWING_SPECS = {
    "lattice-diagonal": ({"kind": "lattice_kernel", "family": "diagonal", "dim": 1,
                          "entries": [[0, 1e308, 0.0], [1, 1e308, 0.0]]},
                         [["trace", "--mode", "both"], ["norm-profile"]]),
    "block": ({"kind": "block_symbol", "blocks": [[[[1e308, 0.0]]], [[[1e308, 0.0]]]]},
              [["trace", "--mode", "both"]]),
    "bundle": ({"kind": "bundle_symbol", "fiber_dim": 1, "dual": [["a", 2]],
                "sigma": [[1, 1, "a", [[[1e308, 0.0], [0.0, 0.0]],
                                       [[0.0, 0.0], [1e308, 0.0]]]]]},
               [["trace", "--mode", "both"]]),
}


@pytest.mark.parametrize("case", OVERFLOWING_SPECS)
def test_overflowing_reports_are_strict_json_without_warnings(tmp_path, case):
    # inf - inf has no deviation, nan is written as "nan", and the infinite
    # sums raise no numpy warning
    import warnings

    spec, commands = OVERFLOWING_SPECS[case]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    for command in commands:
        argv = [command[0], "--input", str(path), *command[1:]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(argv + ["--output", "json"])
            text_code, text, text_err = run(argv)
        assert caught == [] and (code, err, text_code, text_err) == (0, "", 0, "")
        report = _strict_json(out)
        if command[0] == "trace":
            assert report["deviation"] is None and "deviation" not in text
            assert report["trace"] == report["oracle_trace"] == ["inf", 0.0]
        else:
            assert report["increments"] == ["nan"] * 3
