
import numpy as np
import pytest

from specdet import (
    BlockSymbol,
    BundleSymbol,
    CMatrix,
    DualObject,
    bundle_compose,
    bundle_determinant,
    bundle_determinant_product,
    bundle_power,
    bundle_trace,
    bundle_trace_source,
    flatten_symbol,
    invariant_determinant,
    literal_power_symbol,
    mat_mul,
    mat_trace,
)
from specdet.errors import ParameterError, ShapeError

from support import rand_block


def random_bundle(rng, fiber_dim=2, dual_dims=(1, 2), scale=0.25):
    dual = DualObject(tuple((f"xi{n}", d) for n, d in enumerate(dual_dims)))
    entries = {}
    for xi, d in dual.blocks:
        for i in range(1, fiber_dim + 1):
            for r in range(1, fiber_dim + 1):
                entries[(i, r, xi)] = rand_block(rng, d, scale=scale)
    return BundleSymbol.from_entries(fiber_dim, dual, entries)


def symbols_equal(a, b, tol=0.0):
    assert a.fiber_dim == b.fiber_dim and a.dual.blocks == b.dual.blocks
    for xi, _ in a.dual.blocks:
        for i in range(1, a.fiber_dim + 1):
            for r in range(1, a.fiber_dim + 1):
                x = a.block(i, r, xi)
                y = b.block(i, r, xi)
                for u, v in zip(x.ravel().tolist(), y.ravel().tolist()):
                    if tol == 0.0:
                        assert u == v
                    else:
                        assert abs(u - v) <= tol
    return True


def test_compose_with_identity_is_identity_map():
    rng = np.random.default_rng(61)
    b = random_bundle(rng)
    identity = BundleSymbol.identity(b.fiber_dim, b.dual)
    symbols_equal(bundle_compose(b, identity), b)
    symbols_equal(bundle_compose(identity, b), b)


def test_scalar_fiber_compose_is_matrix_product():
    rng = np.random.default_rng(62)
    dual = DualObject((("xi", 2),))
    a = BundleSymbol.from_entries(1, dual, {(1, 1, "xi"): rand_block(rng, 2)})
    b = BundleSymbol.from_entries(1, dual, {(1, 1, "xi"): rand_block(rng, 2)})
    composed = bundle_compose(b, a)
    expected = mat_mul(CMatrix.from_array(b.block(1, 1, "xi")),
                       CMatrix.from_array(a.block(1, 1, "xi")))
    got = composed.block(1, 1, "xi")
    for u, v in zip(got.ravel().tolist(), expected.entries):
        assert abs(u - v) <= 1e-14


def test_flatten_is_multiplicative_over_composition():
    rng = np.random.default_rng(63)
    a = random_bundle(rng)
    b = random_bundle(rng)
    composed = bundle_compose(b, a)
    for xi, _ in a.dual.blocks:
        lhs = flatten_symbol(composed, xi)
        rhs = mat_mul(CMatrix.from_array(flatten_symbol(b, xi)),
                      CMatrix.from_array(flatten_symbol(a, xi)))
        for u, v in zip(lhs.ravel().tolist(), rhs.entries):
            assert abs(u - v) <= 1e-12


def test_flatten_block_layout_worked_example():
    # d_tau = 2, d_xi = 1: block-row r, block-column i holds sigma(i, r)
    dual = DualObject((("xi", 1),))
    entries = {(i, r, "xi"): np.array([[complex(10 * i + r)]])
               for i in (1, 2) for r in (1, 2)}
    a = BundleSymbol.from_entries(2, dual, entries)
    flat = flatten_symbol(a, "xi")
    assert flat.tolist() == [[11, 21], [12, 22]]


def test_flatten_scalar_fiber_is_the_block_itself():
    rng = np.random.default_rng(64)
    dual = DualObject((("xi", 3),))
    block = rand_block(rng, 3)
    a = BundleSymbol.from_entries(1, dual, {(1, 1, "xi"): block})
    assert flatten_symbol(a, "xi").tolist() == block.tolist()


def test_flatten_identity_symbol():
    dual = DualObject((("u", 2), ("v", 1)))
    a = BundleSymbol.identity(3, dual)
    assert flatten_symbol(a, "u").tolist() == np.eye(6).tolist()
    assert flatten_symbol(a, "v").tolist() == np.eye(3).tolist()


def test_flatten_unknown_block_id():
    a = BundleSymbol.identity(2, DualObject((("xi", 1),)))
    with pytest.raises(ParameterError, match="unknown dual block"):
        flatten_symbol(a, "nope")


def test_power_of_identity():
    a = BundleSymbol.identity(2, DualObject((("xi", 2),)))
    for m in (1, 2, 5):
        symbols_equal(bundle_power(a, m), a)


def test_scalar_fiber_power_is_matrix_power():
    rng = np.random.default_rng(65)
    dual = DualObject((("xi", 2),))
    block = rand_block(rng, 2, scale=0.5)
    a = BundleSymbol.from_entries(1, dual, {(1, 1, "xi"): block})
    cubed = bundle_power(a, 3).block(1, 1, "xi")
    b = CMatrix.from_array(block)
    expected = mat_mul(mat_mul(b, b), b)
    for u, v in zip(cubed.ravel().tolist(), expected.entries):
        assert abs(u - v) <= 1e-13


def test_power_matches_literal_chain_sum_scalar_blocks():
    rng = np.random.default_rng(66)
    a = random_bundle(rng, fiber_dim=2, dual_dims=(1,))
    powered = bundle_power(a, 3)
    for i in (1, 2):
        for r in (1, 2):
            literal = literal_power_symbol(a, 3, i, r, "xi0")
            got = powered.block(i, r, "xi0")
            for u, v in zip(got.ravel().tolist(), literal.entries):
                assert abs(u - v) <= 1e-12


def test_power_matches_literal_chain_sum_general():
    rng = np.random.default_rng(67)
    for fiber_dim in (1, 2, 3):
        a = random_bundle(rng, fiber_dim=fiber_dim, dual_dims=(1, 2))
        for m in (1, 2, 3, 4):
            powered = bundle_power(a, m)
            for xi, _ in a.dual.blocks:
                for i in range(1, fiber_dim + 1):
                    for r in range(1, fiber_dim + 1):
                        literal = literal_power_symbol(a, m, i, r, xi)
                        got = powered.block(i, r, xi)
                        for u, v in zip(got.ravel().tolist(), literal.entries):
                            assert abs(u - v) <= 1e-10 * max(1.0, abs(v))


def test_trace_of_zero_symbol():
    dual = DualObject((("xi", 2),))
    a = BundleSymbol.from_entries(2, dual, {})
    assert bundle_trace(a) == 0


def test_trace_of_identity_counts_dimensions():
    dual = DualObject((("u", 1), ("v", 2), ("w", 3)))
    a = BundleSymbol.identity(2, dual)
    assert bundle_trace(a) == 2 * (1 + 4 + 9)


def test_trace_matches_weighted_flatten_trace():
    rng = np.random.default_rng(68)
    a = random_bundle(rng, fiber_dim=3, dual_dims=(1, 2))
    expected = sum(d * mat_trace(CMatrix.from_array(flatten_symbol(a, xi)))
                   for xi, d in a.dual.blocks)
    assert abs(bundle_trace(a) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_trace_source_matches_cmatrix_route():
    # batched numpy powers of the flattened S_xi against the CMatrix route
    # (bundle_power's iterated composition, then the d_xi-weighted trace),
    # with d_xi > 1
    rng = np.random.default_rng(71)
    a = random_bundle(rng, fiber_dim=2, dual_dims=(1, 3, 2, 4, 1), scale=0.3)
    src = bundle_trace_source(a)
    power = bundle_power(a, 1)
    for m in range(1, 41):
        if m > 1:
            power = bundle_compose(a, power)
        expected = bundle_trace(power)
        assert abs(src.trace_power(m) - expected) <= 1e-13 * abs(expected)


def test_trace_source_of_empty_dual_object():
    a = BundleSymbol.from_entries(2, DualObject(()), {})
    src = bundle_trace_source(a)
    assert [src.trace_power(m) for m in (1, 4)] == [0, 0]


def test_determinant_of_zero_symbol():
    a = BundleSymbol.from_entries(2, DualObject((("xi", 1),)), {})
    assert bundle_determinant(a, 0.3, order=10).value == 1


def test_determinant_scalar_everything():
    mu = 0.4 - 0.2j
    a = BundleSymbol.from_entries(1, DualObject((("xi", 1),)),
                                  {(1, 1, "xi"): np.array([[mu]])})
    result = bundle_determinant(a, 0.5, order=40)
    assert abs(result.value - (1 + 0.5 * mu)) <= 1e-10


def test_determinant_matches_flattened_lu_product():
    rng = np.random.default_rng(69)
    for _ in range(10):
        a = random_bundle(rng, fiber_dim=2, dual_dims=(1, 2))
        result = bundle_determinant(a, 0.2, order=40, tol=1e-13)
        oracle = bundle_determinant_product(a, 0.2)
        assert result.converged
        assert abs(result.value - oracle) <= 1e-8 * max(1.0, abs(oracle))


def test_determinant_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(70)
    a = random_bundle(rng, fiber_dim=2, dual_dims=(1, 2))
    conjugated = {}
    for xi, d in a.dual.blocks:
        side = a.fiber_dim * d
        q, _ = np.linalg.qr(np.array(
            [[complex(rng.normal(), rng.normal()) for _ in range(side)]
             for _ in range(side)]))
        rotated = q @ flatten_symbol(a, xi) @ q.conj().T
        for r in range(1, a.fiber_dim + 1):
            for i in range(1, a.fiber_dim + 1):
                block = rotated[(r - 1) * d:r * d, (i - 1) * d:i * d]
                conjugated[(i, r, xi)] = block
    b = BundleSymbol.from_entries(a.fiber_dim, a.dual, conjugated)
    da = bundle_determinant(a, 0.2, order=50, tol=1e-13)
    db = bundle_determinant(b, 0.2, order=50, tol=1e-13)
    assert abs(da.value - db.value) <= 1e-10 * max(1.0, abs(da.value))


def test_scalar_fiber_reduces_to_block_symbol_with_multiplicities():
    rng = np.random.default_rng(71)
    a = random_bundle(rng, fiber_dim=1, dual_dims=(1, 2, 2))
    lam = 0.3
    bundle = bundle_determinant(a, lam, order=50, tol=1e-13)
    repeated = []
    for xi, d in a.dual.blocks:
        repeated.extend([flatten_symbol(a, xi)] * d)
    block = invariant_determinant(BlockSymbol(tuple(repeated)), lam,
                                  order=50, tol=1e-13)
    assert abs(bundle.value - block.value) <= 1e-10 * max(1.0, abs(block.value))


def test_compose_rejects_mismatched_symbols():
    a = BundleSymbol.identity(2, DualObject((("xi", 1),)))
    b = BundleSymbol.identity(3, DualObject((("xi", 1),)))
    with pytest.raises(ShapeError):
        bundle_compose(b, a)
    c = BundleSymbol.identity(2, DualObject((("other", 1),)))
    with pytest.raises(ShapeError):
        bundle_compose(c, a)


def test_wrong_block_shape_is_rejected():
    dual = DualObject((("xi", 2),))
    with pytest.raises(ShapeError, match=r"sigma\(1, 1, 'xi'\) has shape \(3, 3\)"):
        BundleSymbol.from_entries(1, dual, {(1, 1, "xi"): np.eye(3)})


@pytest.mark.parametrize("key", [(3, 1, "xi"), (1, 0, "xi"), (1, 1, "zz")])
def test_entries_outside_the_symbol_are_refused(key):
    # such entries used to be dropped silently: trace 0 and det 1
    dual = DualObject((("xi", 1),))
    with pytest.raises(ParameterError, match="outside 1..2|unknown dual block 'zz'"):
        BundleSymbol.from_entries(2, dual, {(1, 1, "xi"): [[0.5]], key: [[5]]})


@pytest.mark.parametrize("fiber_dim", [0, -2])
def test_fiber_dimension_below_one_is_refused(fiber_dim):
    dual = DualObject((("xi", 2),))
    with pytest.raises(ParameterError, match="fiber dimension must be >= 1"):
        BundleSymbol.from_entries(fiber_dim, dual, {})
    with pytest.raises(ParameterError, match="fiber dimension must be >= 1"):
        BundleSymbol.identity(fiber_dim, dual)


def test_constructor_takes_one_array_per_dual_block():
    dual = DualObject((("u", 2), ("v", 1)))
    sigma = {"u": np.arange(16).reshape(1, 1, 4, 4)[..., :2, :2] * 1j,
             "v": np.full((1, 1, 1, 1), 0.5)}
    a = BundleSymbol(1, dual, sigma)
    assert a.block(1, 1, "u").tolist() == [[0, 1j], [4j, 5j]]
    assert all(s.dtype == np.complex128 and not s.flags.writeable
               for s in a.sigma.values())
    with pytest.raises(ParameterError, match="not for the dual blocks"):
        BundleSymbol(1, dual, {"u": sigma["u"]})
    with pytest.raises(ParameterError, match="not for the dual blocks"):
        BundleSymbol(1, dual, dict(sigma, w=sigma["v"]))
    with pytest.raises(ShapeError, match=r"sigma\(\., \., 'v'\) has shape \(1, 1, 2, 2\)"):
        BundleSymbol(1, dual, dict(sigma, v=sigma["u"]))
    with pytest.raises(ShapeError, match="non-finite entry"):
        BundleSymbol(1, dual, dict(sigma, v=np.full((1, 1, 1, 1), np.nan)))
    with pytest.raises(ShapeError, match="non-finite entry"):
        BundleSymbol.from_entries(1, dual, {(1, 1, "v"): [[np.inf]]})
