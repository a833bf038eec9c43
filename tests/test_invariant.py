import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import specdet
from specdet import (
    BlockSymbol,
    BundleSymbol,
    CMatrix,
    DualObject,
    SpectralModel,
    block_power_trace,
    block_trace,
    block_trace_source,
    bundle_trace_source,
    circle_model,
    invariant_determinant,
    lu_determinant,
    manifold_determinant,
    mat_mul,
    mat_power_trace,
    mat_trace,
    sphere2_model,
    spectral_determinant_product,
    spectral_trace_source,
    torus2_model,
    weyl_tail_check,
)
from specdet.errors import EvaluationError, ParameterError, ShapeError

from support import as_array, assemble_block_diagonal, bits, rand_block


def random_block_symbol(rng, levels=3, max_dim=4, scale=0.3):
    blocks = tuple(rand_block(rng, int(rng.integers(1, max_dim + 1)), scale=scale)
                   for _ in range(levels))
    return BlockSymbol(blocks)


def test_block_trace_zero():
    s = BlockSymbol((np.zeros((2, 2)), np.zeros((3, 3))))
    assert block_trace(s) == 0


def test_block_trace_identity_counts_dimensions():
    s = BlockSymbol((np.eye(1), np.eye(2), np.eye(3)))
    assert block_trace(s) == 6


def test_block_trace_matches_assembled_diagonal():
    rng = np.random.default_rng(51)
    s = random_block_symbol(rng)
    assembled = assemble_block_diagonal(s.blocks)
    assert block_trace(s) == mat_trace(assembled)


def test_block_power_trace_diagonal_blocks():
    s = BlockSymbol((np.diag([0.2, -0.3]), np.diag([0.5])))
    expected = 0.2 ** 2 + (-0.3) ** 2 + 0.5 ** 2
    assert abs(block_power_trace(s, 2) - expected) < 1e-14


def test_block_power_trace_nilpotent():
    s = BlockSymbol((np.array([[0, 1], [0, 0]]),))
    assert block_power_trace(s, 2) == 0
    assert block_power_trace(s, 3) == 0


def test_block_power_trace_matches_assembled_matrix():
    rng = np.random.default_rng(52)
    s = random_block_symbol(rng)
    assembled = assemble_block_diagonal(s.blocks)
    for m in (1, 2, 3):
        expected = mat_power_trace(assembled, m)
        got = block_power_trace(s, m)
        assert abs(got - expected) <= 1e-11 * max(1.0, abs(expected))


def test_block_source_matches_cmatrix_route():
    # batched numpy powers against per-block CMatrix products, over mixed
    # block sizes 1-8 with complex entries and a nilpotent block
    rng = np.random.default_rng(54)
    blocks = [rand_block(rng, n, scale=0.35) for n in (3, 1, 8, 2, 5, 1, 7, 4, 6, 2)]
    blocks.insert(4, np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    s = BlockSymbol(blocks)
    src = block_trace_source(s)
    for m in range(1, 41):
        expected = block_power_trace(s, m)
        assert abs(src.trace_power(m) - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("source", ["block", "bundle", "spectral"])
def test_sources_refuse_trace_powers_below_one(source):
    # before and after powers are formed: a formed power must not answer
    # for m = 0 or a negative m
    if source == "block":
        src = block_trace_source(BlockSymbol((np.eye(2) * 0.5, np.ones((1, 1)))))
    elif source == "bundle":
        a = BundleSymbol.identity(2, DualObject((("xi", 2),)))
        src = bundle_trace_source(a)
    else:
        src = spectral_trace_source(sphere2_model(3), 3.0)
    for _ in range(2):
        for m in (0, -2):
            with pytest.raises(ParameterError, match=f"trace power must be >= 1, got {m}$"):
                src.trace_power(m)
        src.trace_power(3)


def test_block_source_of_nilpotent_and_empty_symbols():
    nilpotent = block_trace_source(BlockSymbol((np.array([[0, 2], [0, 0]]),)))
    assert [nilpotent.trace_power(m) for m in (1, 2, 3)] == [0, 0, 0]
    empty = block_trace_source(BlockSymbol(()))
    assert [empty.trace_power(m) for m in (1, 5)] == [0, 0]
    assert invariant_determinant(BlockSymbol(()), 0.5, order=10).value == 1


def test_power_symbol_equals_powered_blocks_exactly():
    rng = np.random.default_rng(53)
    s = random_block_symbol(rng)
    for m in (2, 3):
        powered = []
        for b in map(CMatrix.from_array, s.blocks):
            p = b
            for _ in range(m - 1):
                p = mat_mul(p, b)
            powered.append(as_array(p))
        assert block_power_trace(s, m) == block_trace(BlockSymbol(tuple(powered)))


def test_invariant_action_on_coordinate_vectors():
    # the assembled operator maps each level's coordinate column through
    # that level's block and nothing else
    rng = np.random.default_rng(54)
    s = random_block_symbol(rng)
    assembled = assemble_block_diagonal(s.blocks)
    offset = 0
    for block in s.blocks:
        for k in range(len(block)):
            column = CMatrix(assembled.rows, 1, tuple(
                1.0 + 0j if i == offset + k else 0j for i in range(assembled.rows)))
            image = mat_mul(assembled, column)
            level_slice = [image.at(offset + i, 0) for i in range(len(block))]
            expected = block[:, k].tolist()
            assert level_slice == expected
            outside = [image.at(i, 0) for i in range(assembled.rows)
                       if not offset <= i < offset + len(block)]
            assert all(v == 0 for v in outside)
        offset += len(block)


def test_block_symbol_holds_read_only_complex_arrays():
    source = np.array([[1, 2], [3, 4]], dtype=np.complex128)
    s = BlockSymbol((source, [[0.5]]))
    assert [b.dtype for b in s.blocks] == [np.complex128] * 2
    assert not any(b.flags.writeable for b in s.blocks)
    assert np.shares_memory(s.blocks[0], source)  # a view, not a copy


@pytest.mark.parametrize("block", [np.zeros((2, 3)), np.zeros(3), np.zeros((1, 2, 2))])
def test_block_symbol_refuses_non_square_blocks(block):
    with pytest.raises(ShapeError, match=r"block 1 has shape \(.*\), expected \((\d), \1\)"):
        BlockSymbol((np.eye(2), block))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("-inf"))])
def test_block_symbol_refuses_non_finite_blocks(bad):
    block = np.eye(3, dtype=np.complex128)
    block[2, 1] = bad
    with pytest.raises(ShapeError, match="block 1 has a non-finite entry"):
        BlockSymbol((np.eye(1), block))


def test_last_block_magnitude_is_the_python_abs_maximum():
    # np.abs may differ from Python's abs(complex) in the last bit; the
    # diagnostic must be the Python maximum exactly
    rng = np.random.default_rng(58)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        scale = 10.0 ** rng.uniform(-4, 4)
        last = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * scale
        s = BlockSymbol((np.eye(2), last))
        got = invariant_determinant(s, 0.0, order=2).diagnostics["last_block_magnitude"]
        assert type(got) is float
        assert bits(got) == bits(max(abs(complex(z)) for z in last.ravel()))


def test_invariant_determinant_zero_symbol():
    s = BlockSymbol((np.zeros((2, 2)),))
    assert invariant_determinant(s, 0.9, order=10).value == 1


def test_invariant_determinant_single_scalar_block():
    mu = 0.35 - 0.1j
    s = BlockSymbol((np.array([[mu]]),))
    result = invariant_determinant(s, 1.0, order=40)
    assert abs(result.value - (1 + mu)) <= 1e-10


def test_invariant_determinant_example_blocks():
    s = BlockSymbol((np.array([[0.2, 0.1], [0, 0.3]]), np.array([[0.05]])))
    result = invariant_determinant(s, 1.0, order=40)
    assert abs(result.value - 1.2 * 1.3 * 1.05) <= 1e-9


def test_invariant_determinant_factorizes_over_blocks():
    rng = np.random.default_rng(55)
    for _ in range(15):
        s = random_block_symbol(rng, levels=int(rng.integers(1, 5)))
        lam = 0.5 / max(1.0, sum(abs(z) for b in s.blocks for z in b.ravel().tolist()))
        result = invariant_determinant(s, lam, order=40, tol=1e-13)
        assert result.converged
        expected = 1 + 0j
        for b in map(CMatrix.from_array, s.blocks):
            shifted = CMatrix(b.rows, b.rows, tuple(
                lam * b.at(i, j) + (1.0 if i == j else 0.0)
                for i in range(b.rows) for j in range(b.rows)))
            expected *= lu_determinant(shifted)
        assert abs(result.value - expected) <= 1e-8 * max(1.0, abs(expected))


def test_manifold_determinant_trivial_spectrum():
    sp = SpectralModel([0.0], [1], nu=2.0)
    lam = 0.4 + 0.1j
    result = manifold_determinant(sp, 3.0, lam, order=40)
    assert abs(result.value - (1 + lam)) <= 1e-10
    assert result.diagnostics["weyl_tail_ratio"] == 0


def test_circle_model_matches_direct_product():
    sp = circle_model(10_000)
    lam = 0.3
    result = manifold_determinant(sp, 2.0, lam, order=30)
    product = spectral_determinant_product(sp, 2.0, lam)
    assert abs(result.value - product) <= 1e-6 * max(1.0, abs(product))


def test_sphere_trace_matches_direct_summation():
    sp = sphere2_model(2000)
    alpha = 3.0
    from specdet import spectral_trace_source

    trace = spectral_trace_source(sp, alpha).trace_power(1)
    direct = sum((2 * j + 1) * (1.0 + j * (j + 1.0)) ** -1.5 for j in range(2001))
    assert abs(trace - direct) <= 1e-10 * max(1.0, abs(direct))


def test_unit_multiplicity_model_equals_scalar_blocks():
    rng = np.random.default_rng(56)
    eigs = np.sort(rng.uniform(0.0, 30.0, size=12))
    sp = SpectralModel(eigs, np.ones(12, dtype=int), nu=2.0)
    alpha = 2.5
    lam = 0.4
    from_model = manifold_determinant(sp, alpha, lam, order=50, tol=1e-14)
    blocks = tuple(np.array([[(1.0 + e) ** (-alpha / 2.0)]]) for e in eigs)
    from_blocks = invariant_determinant(BlockSymbol(blocks), lam, order=50, tol=1e-14)
    assert abs(from_model.value - from_blocks.value) <= 1e-12 * abs(from_blocks.value)


def test_weyl_tail_flags():
    sp = circle_model(10_000)
    assert weyl_tail_check(sp, 2.0) < 0.05
    assert weyl_tail_check(sp, 1.0) >= 0.05  # alpha = manifold dimension
    sphere = sphere2_model(10_000)
    assert weyl_tail_check(sphere, 2.0) >= 0.05


def test_weyl_tail_of_a_sum_that_underflows_is_zero():
    # (1 + 1e300)^-2 underflows to 0: the ratio 0/0 reads 0, not an error
    assert weyl_tail_check(SpectralModel([1e300, 2e300], [1, 1], 2.0), 4.0) == 0.0


def test_manifold_determinant_warns_when_alpha_at_dimension():
    sp = circle_model(500)
    result = manifold_determinant(sp, 1.0, 0.1, order=20, manifold_dim=1)
    assert any("alpha" in w for w in result.diagnostics.get("warnings", []))
    assert result.diagnostics["weyl_flag"] == "slow/divergent"


def _dimension_warnings(sp, alpha, **kw):
    result = manifold_determinant(sp, alpha, 0.1, order=20, **kw)
    return [w for w in result.diagnostics.get("warnings", []) if "manifold dimension" in w]


@pytest.mark.parametrize("sp, alpha, warned", [
    (circle_model(500), 1.0, "alpha = 1 does not exceed the manifold dimension 1"),
    (sphere2_model(100), 2.0, "alpha = 2 does not exceed the manifold dimension 2"),
    (torus2_model(100), 2.0, "alpha = 2 does not exceed the manifold dimension 2"),
    (sphere2_model(100), 3.0, None),
    (circle_model(500), 1.5, None),
], ids=["circle-1", "sphere2-2", "torus2-2", "sphere2-3", "circle-1.5"])
def test_built_in_models_warn_at_their_own_dimension(sp, alpha, warned):
    got = _dimension_warnings(sp, alpha)
    assert [w.split(";")[0] for w in got] == ([warned] if warned else [])
    # the weyl diagnostics do not read the dimension
    plain = SpectralModel(sp.eigenvalues, sp.multiplicities, sp.nu)
    result, bare = (manifold_determinant(m, alpha, 0.1, order=20) for m in (sp, plain))
    assert ({k: result.diagnostics[k] for k in ("weyl_flag", "weyl_tail_ratio")}
            == {k: bare.diagnostics[k] for k in ("weyl_flag", "weyl_tail_ratio")})


def test_a_given_manifold_dim_wins_over_the_model_and_tables_know_none():
    assert _dimension_warnings(sphere2_model(100), 2.0, manifold_dim=1) == []
    assert len(_dimension_warnings(sphere2_model(100), 3.0, manifold_dim=3)) == 1
    table = SpectralModel([0.0, 2.0, 5.5], [1, 2, 4], 2.0)
    assert table.manifold_dim is None and _dimension_warnings(table, 0.5) == []
    assert [m(4).manifold_dim for m in (circle_model, sphere2_model, torus2_model)] == [1, 2, 2]


def test_circle_model_values():
    sp = circle_model(5)
    assert sp.multiplicities.tolist() == [1, 2, 2, 2, 2, 2]
    assert sp.eigenvalues[3] == pytest.approx(4 * math.pi ** 2 * 9)


def test_sphere_model_dimension_count():
    sp = sphere2_model(60)
    assert int(sp.multiplicities.sum()) == 61 ** 2
    assert sp.eigenvalues[4] == 20


def test_torus2_model_matches_direct_enumeration():
    sp = torus2_model(20)
    bound = 12
    counts = {}
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            counts[a * a + b * b] = counts.get(a * a + b * b, 0) + 1
    norms = sorted(counts)[:21]
    assert sp.eigenvalues.tolist() == [4 * math.pi ** 2 * q for q in norms]
    assert sp.multiplicities.tolist() == [counts[q] for q in norms]


def test_negative_eigenvalue_rejected():
    with pytest.raises(EvaluationError, match="positive"):
        SpectralModel([1.0, -0.5], [1, 1], nu=2.0)


def test_bad_multiplicity_rejected():
    with pytest.raises(ParameterError):
        SpectralModel([1.0], [0], nu=2.0)


def test_alpha_must_be_positive():
    sp = circle_model(10)
    with pytest.raises(ParameterError):
        manifold_determinant(sp, 0.0, 0.1)


def _torus2_by_loop(J):
    """Lattice-point counting written as a plain double loop."""
    bound = max(4, int(math.isqrt(2 * J + 4)) + 2)
    while True:
        counts = {}
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                q = a * a + b * b
                if q <= bound * bound:
                    counts[q] = counts.get(q, 0) + 1
        norms = sorted(counts)
        if len(norms) >= J + 1:
            norms = norms[: J + 1]
            break
        bound *= 2
    eig = 4.0 * math.pi ** 2 * np.array(norms, dtype=np.float64)
    return eig, np.array([counts[q] for q in norms], dtype=np.int64)


@pytest.mark.parametrize("J", [0, 1, 2, 50, 1000, 2718, 7777, 10_000])
def test_torus2_model_equals_the_lattice_point_loop(J):
    sp = torus2_model(J)
    eig, mult = _torus2_by_loop(J)
    assert sp.eigenvalues.dtype == np.float64 and sp.multiplicities.dtype == np.int64
    assert np.array_equal(sp.eigenvalues.view(np.uint64), eig.view(np.uint64))
    assert np.array_equal(sp.multiplicities, mult)


def test_torus2_model_counts_once_up_to_ten_thousand_levels(monkeypatch):
    # the first bound already holds the J + 1 norms: one count, no doubling
    calls = []
    count = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a: calls.append(1) or count(*a))
    for J in [*range(300), *range(300, 10_001, 89), 10_000]:
        calls.clear()
        torus2_model(J)
        assert len(calls) == 1, J


def _spectral_det_by_index(sp, alpha, lam):
    det = 1.0 + 0.0j
    for j in range(sp.level_count):
        factor = 1.0 + lam * (1.0 + float(sp.eigenvalues[j])) ** (-alpha / sp.nu)
        det *= factor ** int(sp.multiplicities[j])
    return det


def _spectral_trace_by_index(sp, alpha):
    acc = 0.0
    for j in range(sp.level_count):
        acc += int(sp.multiplicities[j]) * (1.0 + float(sp.eigenvalues[j])) ** (-alpha / sp.nu)
    return complex(acc)


@pytest.mark.parametrize("sp", [
    circle_model(3000), sphere2_model(2000, nu=1.5), torus2_model(2500),
    SpectralModel([0.0, 0.5, 0.5, 3.25, 20.0], [1, 3, 2, 6, 4], nu=2.0),
], ids=["circle", "sphere2", "torus2", "table"])
def test_spectral_oracles_equal_the_per_index_loop(sp):
    from specdet.cli import _spectral_oracle_trace

    for alpha, lam in ((3.0, 0.3), (2.5, -0.7 + 0.2j)):
        assert bits(spectral_determinant_product(sp, alpha, lam)) == bits(
            _spectral_det_by_index(sp, alpha, complex(lam)))
        assert bits(_spectral_oracle_trace(sp, alpha)) == bits(
            _spectral_trace_by_index(sp, alpha))


def test_block_classes_pad_blocks_to_a_power_of_two_side():
    from specdet.invariant import _WeightedBlockPowers, _side_groups

    rng = np.random.default_rng(58)
    sides = [1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 3, 6, 1, 12]
    blocks = [rand_block(rng, n, scale=0.6 / n) for n in sides]
    weights = rng.integers(1, 5, size=len(blocks)).tolist()
    groups = _side_groups(blocks, weights)
    assert len(groups) <= max(sides).bit_length() + 1
    assert [stack.shape[1] for _, stack in groups] == [1, 2, 4, 8, 16, 17]
    powers = _WeightedBlockPowers(groups)
    for m in range(1, 41):
        expected = sum(w * np.trace(np.linalg.matrix_power(b, m))
                       for w, b in zip(weights, blocks))
        assert abs(powers.trace(m) - expected) <= 1e-14 * abs(expected)


def _positive_block(rng, n, imag=0.0):
    """An n x n block of positive entries, so no trace power cancels, with
    ``imag`` added to its first diagonal entry as an imaginary part."""
    block = rng.uniform(0.1, 1.0, size=(n, n)) * (0.6 / n) + 0j
    block[0, 0] += 1j * imag
    return block


def _assert_real_stacks_follow_the_complex_chain(src, dtypes):
    """The stacks behind a block or bundle source have ``dtypes``, and over
    40 orders its traces follow the complex128 chain of the same stacks:
    one batched ``np.matmul`` per order, the diagonals taken by
    ``np.einsum`` against the weights and the groups added in order; bit
    for bit when every stack is complex, else within 1e-14 relative."""
    groups = src.trace_power.__self__._groups
    assert [stack.dtype for _, stack in groups] == dtypes
    groups = [(w, stack.astype(np.complex128)) for w, stack in groups]
    cur = [stack for _, stack in groups]
    for m in range(1, 41):
        if m > 1:
            cur = [np.matmul(p, stack) for p, (_, stack) in zip(cur, groups)]
        want = 0j
        for (w, _), p in zip(groups, cur):
            want += complex(np.einsum("bii,b->", p, w))
        got = src.trace_power(m)
        assert type(got) is complex
        if np.float64 in dtypes:
            assert abs(got - want) <= 1e-14 * abs(want)
        else:
            assert bits(got) == bits(want)


@pytest.mark.parametrize("imag, dtype", [(0.0, np.float64), (0.01, np.complex128)],
                         ids=["real", "complex"])
def test_block_stacks_are_float64_exactly_when_the_blocks_are_real(imag, dtype):
    rng = np.random.default_rng(62)
    s = BlockSymbol([_positive_block(rng, n, imag) for n in (1, 2, 3, 5, 8, 8, 4)])
    assert all(b.dtype == np.complex128 and not b.flags.writeable for b in s.blocks)
    _assert_real_stacks_follow_the_complex_chain(block_trace_source(s), [dtype] * 4)


def test_each_block_stack_keeps_its_own_dtype():
    # side class 1 holds real blocks only; class 2 one real and one complex
    rng = np.random.default_rng(63)
    blocks = [_positive_block(rng, 2), _positive_block(rng, 3), _positive_block(rng, 2),
              _positive_block(rng, 4, imag=0.05)]
    _assert_real_stacks_follow_the_complex_chain(block_trace_source(BlockSymbol(blocks)),
                                                 [np.float64, np.complex128])


@pytest.mark.parametrize("imag, dtype", [(0.0, np.float64), (0.01, np.complex128)],
                         ids=["real", "complex"])
def test_bundle_stacks_are_float64_exactly_when_the_symbol_is_real(imag, dtype):
    rng = np.random.default_rng(64)
    dual = DualObject((("a", 1), ("b", 2), ("c", 3), ("d", 2)))
    entries = {(i, r, xi): _positive_block(rng, d, imag) * 0.5
               for xi, d in dual.blocks for i in (1, 2) for r in (1, 2)}
    a = BundleSymbol.from_entries(2, dual, entries)
    assert all(s.dtype == np.complex128 for s in a.sigma.values())
    # flattened sides 2, 4, 6, 4: three side classes
    _assert_real_stacks_follow_the_complex_chain(bundle_trace_source(a), [dtype] * 3)


def test_spectral_source_is_the_float64_dot_of_iterated_powers():
    # spectral models are one group of 1x1 blocks: per order one float64
    # elementwise product and one float64 np.dot, the arithmetic the golden
    # spectral_table report was recorded with
    from specdet import spectral_trace_source

    for sp, alpha in ((sphere2_model(300), 3.0), (circle_model(50, nu=1.5), 2.2)):
        src = spectral_trace_source(sp, alpha)
        weights = sp.multiplicities.astype(np.float64)
        base = (1.0 + sp.eigenvalues) ** (-alpha / sp.nu)
        cur = base.copy()
        for m in range(1, 31):
            if m > 1:
                cur = cur * base
            assert src.trace_power(m) == complex(np.dot(weights, cur))


def test_weighted_block_powers_mix_value_and_stack_groups():
    from specdet.invariant import _WeightedBlockPowers

    rng = np.random.default_rng(57)
    values = rng.uniform(-0.8, 0.8, size=6)
    stack = (rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))) * 0.3
    powers = _WeightedBlockPowers([([1, 2, 1, 3, 1, 2], values), ([2, 1, 5], stack)])
    for m in range(1, 21):
        expected = np.dot([1, 2, 1, 3, 1, 2], values ** m) + sum(
            w * np.trace(np.linalg.matrix_power(b, m)) for w, b in zip([2, 1, 5], stack))
        assert abs(powers.trace(m) - expected) <= 1e-12 * max(1.0, abs(expected))


_THREADS_PROBE = """
from specdet import circle_model, spectral_trace_source, weyl_tail_check
for sp in (circle_model(10000), circle_model(25000)):
    src = spectral_trace_source(sp, 3.449)
    print(repr([src.trace_power(m) for m in range(1, 6)]), repr(weyl_tail_check(sp, 3.449)))
"""


def test_spectral_sums_do_not_depend_on_the_blas_thread_count():
    # 10,001 and 25,001 levels: OpenBLAS splits a dot product of over 10,000
    # elements across threads, so one np.dot of them moves with the count
    src = str(pathlib.Path(specdet.__file__).resolve().parent.parent)
    reports = [subprocess.run([sys.executable, "-c", _THREADS_PROBE], capture_output=True,
                              text=True, check=True, timeout=120,
                              env=dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                                       PYTHONPATH=src)).stdout
               for threads in ("1", "2")]
    assert reports[0] == reports[1] and len(reports[0].splitlines()) == 2
