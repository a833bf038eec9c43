"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line (visible
under ``pytest -s``) and asserts the criterion at its stated tolerance.
Randomized instances use fixed seeds, so the suite is deterministic.
"""

import cmath
import io
import json
import math
import pathlib
import time

import numpy as np

from specdet import (
    BlockSymbol,
    BundleSymbol,
    CMatrix,
    DualObject,
    assemble_truncation,
    bundle_determinant,
    bundle_determinant_product,
    bundle_power,
    diagonal_kernel_from_rule,
    direct_determinant,
    invariant_determinant,
    lattice_determinant,
    literal_cycle_sum,
    literal_power_symbol,
    lu_determinant,
    manifold_determinant,
    mat_mul,
    mat_power_trace,
    mat_trace,
    circle_model,
    norm_growth_profile,
    poincare_norm,
    poincare_strict_kernel,
    power_decay_symbol,
    modulated_symbol,
    sharpness_symbol,
    sphere2_model,
    spectral_determinant_product,
    table_kernel,
    toroidal_determinant,
    toroidal_matrix,
    weyl_tail_check,
)
from specdet.cli import run_command

from support import rand_block, rand_cmatrix, rand_complex

FIXTURES = pathlib.Path("fixtures")


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_lambda(rng, bound):
    scale = 0.5 / max(1e-9, bound) * rng.uniform(0.3, 1.0)
    return scale * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def abs_entry_sum(m):
    return sum(abs(z) for z in m.entries)


def rel_dev(series, oracle):
    return abs(series - oracle) / max(1.0, abs(oracle))


def random_lattice_kernel(rng):
    support = int(rng.integers(1, 4))
    entries = {}
    for j in range(-support, support + 1):
        for m in range(-support, support + 1):
            if rng.uniform() < 0.6:
                entries[(j, m)] = rand_complex(rng, 0.5)
    if not entries:
        entries[(0, 0)] = rand_complex(rng, 0.5)
    return table_kernel(entries), support


def random_trig_symbol(rng):
    modes = {}
    for theta in range(-2, 3):
        if rng.uniform() < 0.6:
            modes[theta] = rand_complex(rng, 0.5)
    if not modes:
        modes[0] = rand_complex(rng, 0.5)
    return modulated_symbol(modes, float(rng.uniform(-3.0, -1.5)))


def random_block_symbol(rng):
    levels = int(rng.integers(1, 11))
    blocks = tuple(rand_block(rng, int(rng.integers(1, 5)), scale=0.4)
                   for _ in range(levels))
    return BlockSymbol(blocks)


def random_bundle_symbol(rng):
    fiber_dim = int(rng.integers(1, 4))
    dual = DualObject(tuple(
        (f"xi{n}", int(rng.integers(1, 4)))
        for n in range(int(rng.integers(1, 4)))
    ))
    entries = {}
    for xi, d in dual.blocks:
        for i in range(1, fiber_dim + 1):
            for r in range(1, fiber_dim + 1):
                if rng.uniform() < 0.8:
                    entries[(i, r, xi)] = rand_block(rng, d, scale=0.3)
    return BundleSymbol.from_entries(fiber_dim, dual, entries)


def test_criterion_1_series_oracle_equivalence():
    rng = np.random.default_rng(1001)
    count = 200
    started = time.time()
    worst = {}

    deviations = []
    for _ in range(count):
        kernel, support = random_lattice_kernel(rng)
        truncation = assemble_truncation(kernel, support)
        lam = random_lambda(rng, abs_entry_sum(truncation))
        series = lattice_determinant(kernel, lam, order=40, cutoff=support,
                                     tol=1e-13)
        oracle = direct_determinant(truncation, lam)
        deviations.append(rel_dev(series.value, oracle))
    worst["lattice"] = max(deviations)

    deviations = []
    for _ in range(count):
        symbol = random_trig_symbol(rng)
        cutoff = 8
        truncation = assemble_truncation(toroidal_matrix(symbol, cutoff), cutoff)
        lam = random_lambda(rng, abs_entry_sum(truncation))
        series = toroidal_determinant(symbol, lam, order=40, cutoff=cutoff,
                                      tol=1e-13)
        oracle = direct_determinant(truncation, lam)
        deviations.append(rel_dev(series.value, oracle))
    worst["toroidal"] = max(deviations)

    deviations = []
    for _ in range(count):
        symbol = random_block_symbol(rng)
        bound = sum(abs_entry_sum(CMatrix.from_array(b)) for b in symbol.blocks)
        lam = random_lambda(rng, bound)
        series = invariant_determinant(symbol, lam, order=40, tol=1e-13)
        oracle = 1 + 0j
        for b in symbol.blocks:
            oracle *= direct_determinant(CMatrix.from_array(b), lam)
        deviations.append(rel_dev(series.value, oracle))
    worst["block"] = max(deviations)

    deviations = []
    for _ in range(count):
        symbol = random_bundle_symbol(rng)
        from specdet import flatten_symbol

        bound = sum(abs_entry_sum(CMatrix.from_array(flatten_symbol(symbol, xi)))
                    for xi, _ in symbol.dual.blocks)
        lam = random_lambda(rng, bound)
        series = bundle_determinant(symbol, lam, order=40, tol=1e-13)
        oracle = bundle_determinant_product(symbol, lam)
        deviations.append(rel_dev(series.value, oracle))
    worst["bundle"] = max(deviations)

    elapsed = time.time() - started
    detail = (f"{count} instances/representation, worst relative deviations "
              + ", ".join(f"{k}={v:.3g}" for k, v in worst.items())
              + f", runtime {elapsed:.1f}s")
    report(1, max(worst.values()) <= 1e-6 and elapsed < 60.0, detail)


def test_criterion_2_cycle_sum_faithfulness():
    rng = np.random.default_rng(1002)
    worst_lattice = 0.0
    for cutoff in (1, 2):
        for _ in range(8):
            kernel, _ = random_lattice_kernel(rng)
            truncation = assemble_truncation(kernel, cutoff)
            for m in (1, 2, 3, 4):
                literal = literal_cycle_sum(kernel, m, cutoff)
                power = mat_power_trace(truncation, m)
                worst_lattice = max(worst_lattice,
                                    abs(literal - power) / max(1.0, abs(power)))

    worst_bundle = 0.0
    for fiber_dim in (1, 2, 3):
        for _ in range(4):
            dual = DualObject((("a", int(rng.integers(1, 3))),
                               ("b", int(rng.integers(1, 3)))))
            entries = {}
            for xi, d in dual.blocks:
                for i in range(1, fiber_dim + 1):
                    for r in range(1, fiber_dim + 1):
                        entries[(i, r, xi)] = rand_block(rng, d, scale=0.4)
            symbol = BundleSymbol.from_entries(fiber_dim, dual, entries)
            for m in (1, 2, 3, 4):
                powered = bundle_power(symbol, m)
                for xi, _ in dual.blocks:
                    for i in range(1, fiber_dim + 1):
                        for r in range(1, fiber_dim + 1):
                            lit = literal_power_symbol(symbol, m, i, r, xi)
                            got = powered.block(i, r, xi)
                            for u, v in zip(got.ravel().tolist(), lit.entries):
                                worst_bundle = max(
                                    worst_bundle,
                                    abs(u - v) / max(1.0, abs(v)))

    detail = (f"lattice worst {worst_lattice:.3g}, "
              f"bundle worst {worst_bundle:.3g}")
    report(2, worst_lattice <= 1e-10 and worst_bundle <= 1e-10, detail)


def test_criterion_3_finite_rank_algebra_laws():
    rng = np.random.default_rng(1003)
    trials = 1000
    started = time.time()
    worst = 0.0
    for _ in range(trials):
        a = rand_cmatrix(rng, 6, scale=0.5)
        b = rand_cmatrix(rng, 6, scale=0.5)
        ab = mat_mul(a, b)
        ba = mat_mul(b, a)

        t1 = mat_trace(ab)
        t2 = mat_trace(ba)
        worst = max(worst, abs(t1 - t2) / max(1.0, abs(t1)))

        ia = CMatrix(6, 6, tuple(a.entries[i * 6 + j] + (1.0 if i == j else 0.0)
                                 for i in range(6) for j in range(6)))
        ib = CMatrix(6, 6, tuple(b.entries[i * 6 + j] + (1.0 if i == j else 0.0)
                                 for i in range(6) for j in range(6)))
        lhs = lu_determinant(mat_mul(ia, ib))
        rhs = lu_determinant(ia) * lu_determinant(ib)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))

        dab = direct_determinant(ab, 1.0)
        dba = direct_determinant(ba, 1.0)
        worst = max(worst, abs(dab - dba) / max(1.0, abs(dab)))
    elapsed = time.time() - started
    detail = f"{trials} trials, worst relative deviation {worst:.3g}, runtime {elapsed:.1f}s"
    report(3, worst <= 1e-9 and elapsed < 10.0, detail)


def test_criterion_4_sharpness_reproduction():
    cutoffs = [8, 16, 32, 64, 128]
    diverging = norm_growth_profile(sharpness_symbol(), cutoffs)
    # symmetric box: each doubling adds ~ 2*log(2) (both signs contribute)
    target = 2 * math.log(2)
    increment_ok = all(abs(inc - target) <= 0.2 * target
                       for inc in diverging.increments)
    control = norm_growth_profile(power_decay_symbol(-2.0), cutoffs)
    ratios = [b / a for a, b in zip(control.increments, control.increments[1:])]
    control_ok = control.verdict == "converging" and all(r < 0.9 for r in ratios)
    detail = (f"sharpness verdict {diverging.verdict!r}, increments "
              + "/".join(f"{x:.3f}" for x in diverging.increments)
              + f" vs 2*log(2)={target:.3f}; control verdict {control.verdict!r}")
    report(4, diverging.verdict == "diverging/inconclusive" and increment_ok
           and control_ok, detail)


def test_criterion_5_poincare_strictness_example():
    kernel = poincare_strict_kernel()
    norm_ok = True
    norms = {}
    for cutoff in (10 ** 2, 10 ** 3, 10 ** 4):
        harmonic = sum(1.0 / n for n in range(1, cutoff + 1))
        norms[cutoff] = poincare_norm(kernel, cutoff)
        norm_ok = norm_ok and norms[cutoff] > harmonic - 0.1
    eigen_sum = sum(1.0 / j ** 2 for j in range(1, 10 ** 4 + 1))
    eigen_ok = abs(eigen_sum - math.pi ** 2 / 6) <= 1e-3
    detail = (f"norms {', '.join(f'R={r}: {v:.3f}' for r, v in norms.items())}; "
              f"eigenvalue sum {eigen_sum:.6f} vs pi^2/6 {math.pi ** 2 / 6:.6f}")
    report(5, norm_ok and eigen_ok, detail)


def test_criterion_6_manifold_corollary():
    worst = 0.0
    for model, alpha in ((circle_model(10 ** 4), 2.0), (sphere2_model(10 ** 4), 3.0)):
        for lam in (0.3, -0.2, 0.15 + 0.2j):
            series = manifold_determinant(model, alpha, lam, order=30, tol=1e-12)
            oracle = spectral_determinant_product(model, alpha, lam)
            worst = max(worst, rel_dev(series.value, oracle))
    circle_flag = weyl_tail_check(circle_model(10 ** 4), 1.0)   # alpha = n = 1
    sphere_flag = weyl_tail_check(sphere2_model(10 ** 4), 2.0)  # alpha = n = 2
    healthy = weyl_tail_check(circle_model(10 ** 4), 2.0)
    flags_ok = circle_flag >= 0.05 and sphere_flag >= 0.05 and healthy < 0.05
    detail = (f"worst determinant deviation {worst:.3g}; tail ratios "
              f"alpha=n: circle {circle_flag:.3f}, sphere {sphere_flag:.3f}, "
              f"alpha>n: {healthy:.2g}")
    report(6, worst <= 1e-6 and flags_ok, detail)


def test_criterion_7_diagonal_closed_form():
    cutoff = 10 ** 4
    kernel = diagonal_kernel_from_rule(
        lambda j: 1.0 / j[0] ** 2 if j[0] >= 1 else 0.0,
        label="inverse-square-diagonal")
    # lambda*norm ~ pi^2/6 > 1: the log series decays like an alternating
    # harmonic tail, so the order must be ~ exp(|log-sum|)/tolerance large
    series = lattice_determinant(kernel, 1.0, order=40_000, cutoff=cutoff,
                                 tol=1e-14)
    product = 1.0
    for j in range(1, cutoff + 1):
        product *= 1.0 + 1.0 / j ** 2
    closed_form = math.sinh(math.pi) / math.pi
    det_ok = abs(series.value - product) <= 1e-4
    product_ok = abs(product - closed_form) <= 1e-3
    detail = (f"series {series.value.real:.8f}, partial product {product:.8f} "
              f"(|diff| {abs(series.value - product):.2g}), sinh(pi)/pi "
              f"{closed_form:.8f} (|diff| {abs(product - closed_form):.2g})")
    report(7, det_ok and product_ok, detail)


def test_criterion_8_cli_contract():
    good = sorted(FIXTURES.glob("*.json"))
    assert good, "fixture directory is empty"
    contract_ok = True
    details = []
    for path in good:
        out, err = io.StringIO(), io.StringIO()
        code = run_command(["det", "--input", str(path), "--output", "json"],
                           out, err)
        rep = json.loads(out.getvalue())
        ok = code == 0 and rep["deviation"]["rel"] < 1e-6
        contract_ok = contract_ok and ok
        if not ok:
            details.append(f"{path.name}: exit {code}")

    for path in sorted(FIXTURES.glob("bad/*.json")):
        out, err = io.StringIO(), io.StringIO()
        code = run_command(["det", "--input", str(path), "--output", "json"],
                           out, err)
        payload = json.loads(err.getvalue())
        ok = code == 2 and payload["message"]
        contract_ok = contract_ok and ok
        if not ok:
            details.append(f"{path.name}: exit {code}")

    stable = True
    for path in good:
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            run_command(["det", "--input", str(path), "--output", "json"],
                        out, err)
            runs.append(out.getvalue())
        stable = stable and runs[0] == runs[1]

    detail = (f"{len(good)} fixtures clean, malformed fixtures exit 2, "
              f"reports byte-stable: {stable}"
              + (f"; failures: {details}" if details else ""))
    report(8, contract_ok and stable, detail)
