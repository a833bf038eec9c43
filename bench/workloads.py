"""Seeded workload generators.

``generate(workload, seed, workdir)`` returns the spec files (name to
bytes), the timed request list and the untimed probes of one workload.
The same seed gives byte-identical files and request lists: all randomness
comes from one ``random.Random`` seeded by the workload name and seed, and
specs are written with sorted keys.  Every request carries the reference
values its report is checked against (see :mod:`reference`).

Request lists are built in rounds of four light requests and one heavy
one, so every prefix of the list holds about a fifth heavy requests:
``latency_p50_s`` then reads the light classes and ``latency_p90_s`` the
heavy ones, whatever point of the list a timed window ends at.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field

import numpy as np

from reference import Spectrum, allowed_exits, expected

#: shipped fixtures whose `det --output json` reports are committed goldens
GOLDEN_FIXTURES = ("zero", "rank_one", "toroidal_modulated", "spectral_table",
                   "bundle_small")


@dataclass
class Request:
    cls: str
    argv: list
    expect: dict
    allowed: tuple = (0,)


@dataclass
class Workload:
    name: str
    seed: int
    files: dict = field(default_factory=dict)
    requests: list = field(default_factory=list)
    probes: list = field(default_factory=list)


class _Gen:
    def __init__(self, name: str, seed: int, workdir: str):
        self.rng = random.Random(f"{name}/{seed}")
        self.workdir = workdir
        self.out = Workload(name, seed)

    def uniform(self, lo, hi, digits=4) -> float:
        return float(f"{self.rng.uniform(lo, hi):.{digits}g}")

    def spec(self, stem: str, obj: dict) -> str:
        name = f"{stem}-{len(self.out.files):03d}.json"
        self.out.files[name] = json.dumps(obj, sort_keys=True).encode()
        return f"{self.workdir}/{name}"

    def lam_for(self, ref: Spectrum, lo: float, hi: float, negative=None) -> str:
        """A lambda with |lambda| * spectral radius drawn from [lo, hi]."""
        rho = ref.spectral_radius()
        mag = self.uniform(lo, hi) / rho if rho > 0 else self.uniform(lo, hi)
        if negative is None:
            negative = self.rng.random() < 0.5
        return f"{-mag if negative else mag:.6g},0"

    def request(self, cls, path, ref, command, lam, mode="both", order=30, cutoff=8):
        lam_c = complex(*(float(v) for v in lam.split(",")))
        argv = [command, "--input", path, f"--lambda={lam}", "--order", str(order),
                "--cutoff", str(cutoff), "--mode", mode, "--output", "json"]
        return Request(cls, argv, expected(command, mode, ref, lam_c, order, cutoff),
                       allowed_exits(command, mode, lam_c, ref))


def _rounds(light: list, heavy: list, rng: random.Random) -> list:
    """Interleave four light requests per heavy one, each class shuffled."""
    rng.shuffle(light)
    rng.shuffle(heavy)
    out = []
    hv = iter(heavy)
    for n, req in enumerate(light):
        out.append(req)
        if n % 4 == 3:
            out.append(next(hv, None))
    out.extend(hv)
    return [r for r in out if r is not None]


# ---------------------------------------------------------------------------
# operator builders: (spec object, reference) from generated numbers
# ---------------------------------------------------------------------------

def _dense(entry, r: int) -> np.ndarray:
    """Matrix [entry(j, m)] over the 1-D box |j|, |m| <= r."""
    pts = range(-r, r + 1)
    return np.array([[entry(j, m) for m in pts] for j in pts], dtype=np.complex128)


def _abs_sum(entry):
    return lambda r: float(np.abs(_dense(entry, r)).sum())


def lattice_diagonal(values: dict, cutoff: int):
    spec = {"kind": "lattice_kernel", "family": "diagonal", "dim": 1,
            "entries": [[j, v, 0.0] for j, v in sorted(values.items())]}

    def inside(r):
        return [v for j, v in values.items() if abs(j) <= r]

    ref = Spectrum(inside(cutoff), norm_at=lambda r: float(np.abs(inside(r)).sum()))
    return spec, ref


def lattice_rank_one(g: dict, h: dict, cutoff: int):
    spec = {"kind": "lattice_kernel", "family": "rank_one", "dim": 1,
            "g": [[j, v, 0.0] for j, v in sorted(g.items())],
            "h": [[j, v, 0.0] for j, v in sorted(h.items())]}

    def l1(t, r):
        return sum(abs(v) for j, v in t.items() if abs(j) <= r)

    inner = sum(v * h.get(j, 0.0) for j, v in g.items() if abs(j) <= cutoff)
    return spec, Spectrum([inner], norm_at=lambda r: l1(g, r) * l1(h, r))


def lattice_tridiagonal(c_sub: float, c0: float, c_sup: float, support: int,
                        cutoff: int):
    """Toeplitz K(j, m) = c_{m-j} with offsets -1, 0, 1 on |j|, |m| <= support."""
    spec = {"kind": "lattice_kernel", "family": "banded", "dim": 1, "support": support,
            "offsets": [[-1, c_sub, 0.0], [0, c0, 0.0], [1, c_sup, 0.0]]}
    n = 2 * min(support, cutoff) + 1
    k = np.arange(1, n + 1)
    eig = c0 + 2.0 * np.sqrt(complex(c_sub * c_sup)) * np.cos(k * np.pi / (n + 1))

    def norm_at(r):
        side = 2 * min(support, r) + 1
        return side * abs(c0) + (side - 1) * (abs(c_sub) + abs(c_sup))

    return spec, Spectrum(eig, norm_at=norm_at)


def lattice_table(entries: dict, cutoff: int):
    spec = {"kind": "lattice_kernel", "family": "table", "dim": 1,
            "entries": [[j, m, v.real, v.imag] for (j, m), v in sorted(entries.items())]}

    def entry(j, m):
        return entries.get((j, m), 0.0)

    return spec, Spectrum.of_matrix(_dense(entry, cutoff), norm_at=_abs_sum(entry))


def toroidal_diagonal(family: str, cutoff: int, order=-2.0, amplitude=1.0):
    """x-independent symbols: the quantization is diagonal in k."""
    spec = {"kind": "toroidal_symbol", "family": family, "dim": 1}
    if family == "power_decay":
        spec.update(order=order, amplitude=[amplitude, 0.0])

        def g(k):
            return amplitude * (1.0 + k * k) ** (order / 2.0)
    else:
        def g(k):
            return (1.0 + abs(k)) ** -1.0

    def values(r):
        return np.array([g(k) for k in range(-r, r + 1)])

    return spec, Spectrum(values(cutoff), norm_at=lambda r: float(np.abs(values(r)).sum()))


def toroidal_modulated(modes: dict, decay: float, amplitude: float, cutoff: int):
    """sigma(x, k) = sum_l c_l e^{2 pi i x l} * a (1 + k^2)^(decay/2), so
    A[j, k] = c_{j-k} * a * (1 + k^2)^(decay/2) exactly."""
    spec = {"kind": "toroidal_symbol", "family": "modulated", "dim": 1,
            "modes": [[l, c, 0.0] for l, c in sorted(modes.items())],
            "decay_order": decay, "amplitude": [amplitude, 0.0]}

    def entry(j, k):
        return modes.get(j - k, 0.0) * amplitude * (1.0 + k * k) ** (decay / 2.0)

    return spec, Spectrum.of_matrix(_dense(entry, cutoff), norm_at=_abs_sum(entry))


def toroidal_table(coeffs: dict, cutoff: int, order=-2.0):
    """Explicit Fourier coefficients sigma_hat(l, k): A[j, k] = sigma_hat(j-k, k)."""
    spec = {"kind": "toroidal_symbol", "family": "custom_table", "dim": 1,
            "order": order,
            "entries": [[l, k, v, 0.0] for (l, k), v in sorted(coeffs.items())]}

    def entry(j, k):
        return coeffs.get((j - k, k), 0.0)

    return spec, Spectrum.of_matrix(_dense(entry, cutoff), norm_at=_abs_sum(entry))


def block_symbol(blocks: list):
    spec = {"kind": "block_symbol",
            "blocks": [[[[v, 0.0] for v in row] for row in b] for b in blocks]}
    return spec, Spectrum.of_blocks([(np.array(b, dtype=float), 1) for b in blocks])


def _builtin_spectrum(model: str, J: int):
    """Eigenvalues and multiplicities of the built-in Laplacian spectra."""
    if model == "circle":
        k = np.arange(J + 1, dtype=float)
        mult = np.full(J + 1, 2)
        mult[0] = 1
        return 4.0 * np.pi ** 2 * k ** 2, mult
    if model == "sphere2":
        j = np.arange(J + 1, dtype=float)
        return j * (j + 1.0), 2 * np.arange(J + 1) + 1
    bound = 8
    while True:
        a = np.arange(-bound, bound + 1)
        q = (a[:, None] ** 2 + a[None, :] ** 2).ravel()
        norms, counts = np.unique(q[q <= bound * bound], return_counts=True)
        if norms.size >= J + 1:
            return 4.0 * np.pi ** 2 * norms[:J + 1], counts[:J + 1]
        bound *= 2


def spectral_model(model: str, J: int, alpha: float, nu: float = 2.0):
    spec = {"kind": "spectral_model", "model": model, "J": J, "alpha": alpha,
            "nu": nu}
    eig, mult = _builtin_spectrum(model, J)
    return spec, Spectrum((1.0 + eig) ** (-alpha / nu), mult)


def spectral_table(eigenvalues: list, multiplicities: list, alpha: float, nu=2.0):
    spec = {"kind": "spectral_model", "model": "table", "eigenvalues": eigenvalues,
            "multiplicities": multiplicities, "alpha": alpha, "nu": nu}
    return spec, Spectrum((1.0 + np.array(eigenvalues)) ** (-alpha / nu),
                          multiplicities)


def bundle_symbol(fiber_dim: int, dual: list, sigma: dict):
    """sigma maps (i, r, xi) to a d_xi x d_xi list matrix.  The flattened
    S_xi has block (row r, column i) = sigma(i, r, xi) and weight d_xi."""
    spec = {"kind": "bundle_symbol", "fiber_dim": fiber_dim,
            "dual": [[xi, d] for xi, d in dual],
            "sigma": [[i, r, xi, [[[v, 0.0] for v in row] for row in m]]
                      for (i, r, xi), m in sorted(sigma.items())]}
    blocks = []
    for xi, d in dual:
        s = np.zeros((fiber_dim * d, fiber_dim * d))
        for (i, r, x), m in sigma.items():
            if x == xi:
                s[(r - 1) * d:r * d, (i - 1) * d:i * d] = m
        blocks.append((s, d))
    return spec, Spectrum.of_blocks(blocks)


# ---------------------------------------------------------------------------
# random operator families
# ---------------------------------------------------------------------------

def _positive_matrix(g: _Gen, n: int, scale: float) -> list:
    return [[g.uniform(0.05, 1.0, 3) * scale / n for _ in range(n)] for _ in range(n)]


def _small_operator(g: _Gen, family: str, cutoff: int):
    """One small operator of a shipped fixture family; returns
    (stem, spec, ref, kind) with kind "lattice", "toroidal" or "other"."""
    u = g.uniform
    if family == "diagonal":
        vals = {j: u(0.3, 1.0) / (j * j) * g.rng.choice((1, -1))
                for j in range(1, cutoff + 1)}
        return (family, *lattice_diagonal(vals, cutoff), "lattice")
    if family == "rank_one":
        g_t = {j: u(0.1, 0.8) for j in range(-3, 4)}
        h_t = {j: u(0.1, 0.8) for j in range(-3, 4)}
        return (family, *lattice_rank_one(g_t, h_t, cutoff), "lattice")
    if family == "banded":
        return (family, *lattice_tridiagonal(u(0.05, 0.3), u(0.05, 0.3), u(0.05, 0.3),
                                             g.rng.randint(3, cutoff), cutoff), "lattice")
    if family == "table":
        sites = {(j, m): complex(u(-0.3, 0.3), u(-0.1, 0.1))
                 for j in range(-2, 3) for m in range(-2, 3) if g.rng.random() < 0.5}
        sites[(0, 0)] = complex(u(0.2, 0.4), 0.0)
        return (family, *lattice_table(sites, cutoff), "lattice")
    if family in ("power_decay", "sharpness"):
        return (family, *toroidal_diagonal(family, cutoff, order=-u(2.0, 3.0),
                                           amplitude=u(0.5, 1.5)), "toroidal")
    if family == "modulated":
        modes = {l: u(0.05, 0.3) for l in range(-2, 3)}
        return (family, *toroidal_modulated(modes, -u(2.0, 3.0), u(0.5, 1.5), cutoff),
                "toroidal")
    if family == "custom_table":
        coeffs = {(l, k): u(0.05, 0.5) / (1 + k * k)
                  for k in range(-cutoff, cutoff + 1) for l in (-1, 0, 1)}
        return (family, *toroidal_table(coeffs, cutoff), "toroidal")
    if family == "block":
        blocks = [_positive_matrix(g, g.rng.randint(1, 3), u(0.2, 0.8))
                  for _ in range(g.rng.randint(3, 8))]
        return (family, *block_symbol(blocks), "other")
    if family == "spectral":
        model = g.rng.choice(("circle", "torus2", "sphere2", "table"))
        if model == "table":
            n = g.rng.randint(3, 12)
            return (family, *spectral_table(sorted(u(0.0, 20.0) for _ in range(n)),
                                            [g.rng.randint(1, 6) for _ in range(n)],
                                            u(2.5, 4.0)), "other")
        return (family, *spectral_model(model, g.rng.randint(20, 200), u(2.5, 4.0)),
                "other")
    dual = [(xi, g.rng.randint(1, 2)) for xi in ("a", "b", "c")[:g.rng.randint(2, 3)]]
    sigma = {(i, r, xi): _positive_matrix(g, d, u(0.2, 0.6))
             for xi, d in dual for i in (1, 2) for r in (1, 2)}
    return ("bundle", *bundle_symbol(2, dual, sigma), "other")


CLI_FAMILIES = ("diagonal", "rank_one", "banded", "table", "power_decay", "sharpness",
                "modulated", "custom_table", "block", "spectral", "bundle")
#: x-dependent toroidal symbols: sampling them costs 10-100 times a light request
SAMPLED_FAMILIES = ("modulated", "custom_table")
#: operators per sampled family in the heavy class, which then makes up a fifth
#: of a pass
HEAVY_VARIANTS = 8


def cli_mix(g: _Gen):
    """Every fixture family under every command.  The heavy class is the
    determinants of sampled toroidal symbols at cutoff 12, all of nearly one
    cost (0.05-0.09 s on a 2-core Xeon VM), so latency_p90_s lands in the
    middle of a dense cluster of samples and not between requests of
    different sizes.  The light class is every other family at cutoffs 4, 8
    and 12 and the sampled families at cutoff 4 (at most 0.02 s).  Probes
    ride along."""
    light, heavy = [], []
    for family, cutoff in itertools.product(CLI_FAMILIES, (4, 8, 12)):
        if family in SAMPLED_FAMILIES and cutoff != 4:
            continue
        stem, spec, ref, kind = _small_operator(g, family, cutoff)
        path = g.spec(stem, spec)

        def req(command, mode="both", lam=None):
            return g.request(f"{stem}:{command}", path, ref, command,
                             lam=lam or g.lam_for(ref, 0.1, 0.35), mode=mode,
                             cutoff=cutoff)

        light += [req("det"), req("det", "series"), req("compare"),
                  req("trace"), req("radius")]
        if kind != "other":
            light.append(req("norm-profile"))
        if ref.spectral_radius() > 0 and family in ("diagonal", "rank_one", "banded",
                                                    "table", "modulated", "block",
                                                    "spectral"):
            # outside the series disc: every order runs and exit 4 is the
            # contract's refusal
            light.append(req("det", "series", lam=g.lam_for(ref, 1.5, 2.5)))
    for family, _ in itertools.product(SAMPLED_FAMILIES, range(HEAVY_VARIANTS)):
        stem, spec, ref, _ = _small_operator(g, family, 12)
        path = g.spec(stem, spec)
        for command, mode in (("det", "both"), ("det", "series"), ("compare", "both")):
            heavy.append(g.request(f"{stem}-12:{command}", path, ref, command,
                                   lam=g.lam_for(ref, 0.1, 0.35), mode=mode,
                                   cutoff=12))
    g.out.requests = _rounds(light, heavy, g.rng)
    g.out.probes = _cli_probes(g)


def _cli_probes(g: _Gen) -> list:
    """Requests the CLI contract says must be refused (exit 3), plus
    determinants outside the series disc under ``--mode both``, which must
    not report a wrong finite series value with exit 0."""
    probes = [Request("probe:toroidal-cutoff-5000",
                      ["det", "--input", "fixtures/toroidal_modulated.json",
                       "--cutoff", "5000", "--output", "json"], {}, (3,))]
    stem, spec, ref, _ = _small_operator(g, "rank_one", 8)
    path = g.spec("probe-rank_one", spec)
    probes.append(Request("probe:assembly-guard-det",
                          ["det", "--input", path, "--cutoff", "20000", "--output",
                           "json"], {}, (3,)))
    stem, spec, ref, _ = _small_operator(g, "diagonal", 12)
    path = g.spec("probe-diagonal", spec)
    probes.append(Request("probe:assembly-guard-trace",
                          ["trace", "--input", path, "--mode", "oracle", "--cutoff",
                           "10001", "--output", "json"], {}, (3,)))
    for family in ("rank_one", "diagonal", "banded"):
        stem, spec, ref, _ = _small_operator(g, family, 8)
        path = g.spec(f"probe-{stem}", spec)
        probes.append(g.request(f"probe:{stem}:outside-disc-both", path, ref, "det",
                                lam=g.lam_for(ref, 2.0, 4.0, negative=True),
                                mode="both", cutoff=8))
    return probes


def _ladder(lo: int, hi: int, n: int) -> list:
    """n sizes spread evenly over [lo, hi]: the seed varies coefficients,
    lambda and order of requests, not the amount of work in a pass."""
    return [lo + (hi - lo) * i // max(1, n - 1) for i in range(n)]


#: sides of the heavy classes of large_operators: dense banded truncations
#: (cutoff) and block symbols (blocks) of about one cost, so latency_p90_s
#: lands in a dense cluster of samples
HEAVY_DENSE = 190
HEAVY_BLOCKS = 70


def _lattice_classes(g: _Gen, light: list, heavy: list):
    """Large 1-D lattice truncations: the dense, sparse and diagonal
    trace-power paths, long and full-order series, and rank-one assembly."""
    u = g.uniform

    def tri(cls, bucket, cutoff, command="det", outside=False):
        c = u(0.1, 0.3)
        spec, ref = lattice_tridiagonal(c * u(0.8, 1.0), u(0.05, 0.2), c, cutoff, cutoff)
        path = g.spec("banded", spec)
        lam = g.lam_for(ref, 1.3, 1.5) if outside else g.lam_for(ref, 0.2, 0.25)
        bucket.append(g.request(cls, path, ref, command, lam=lam, mode="series",
                                cutoff=cutoff))

    for cutoff in _ladder(100, 130, 10):
        tri("dense", light, cutoff)
    for cutoff in _ladder(1100, 1600, 8):
        tri("sparse", light, cutoff)
    for cutoff in _ladder(1030, 1200, 4):
        tri("sparse-radius", light, cutoff, command="radius")
        # outside the series disc: every order runs, then exit 4
        tri("outside-disc", light, cutoff, outside=True)
    for cutoff in _ladder(40, 60, 4):
        gt = {j: u(0.2, 1.0) / (1 + abs(j)) for j in range(-cutoff, cutoff + 1)}
        ht = {j: u(0.2, 1.0) / (1 + abs(j)) for j in range(-cutoff, cutoff + 1)}
        spec, ref = lattice_rank_one(gt, ht, cutoff)
        path = g.spec("rank_one", spec)
        light.append(g.request("rank-one", path, ref, "det", lam=g.lam_for(ref, 0.2, 0.25),
                               mode="series", cutoff=cutoff))
    for sign in ("-", ""):
        vals = {j: u(0.5, 1.0) / (j * j) for j in range(2, 10001)}
        vals[1] = 1.0
        spec, ref = lattice_diagonal(vals, 10000)
        path = g.spec("diagonal", spec)
        light.append(g.request("diagonal-long", path, ref, "det", lam=f"{sign}0.99,0",
                               mode="series", order=4000, cutoff=10000))
    for cutoff in _ladder(HEAVY_DENSE - 5, HEAVY_DENSE + 5, 10):
        tri("dense-heavy", heavy, cutoff)


def _block_classes(g: _Gen, light: list, heavy: list):
    """Block and bundle symbols of 20-50 KB specs, run through pure-Python
    CMatrix products, and spectral models with 10^3 to 10^4 levels."""
    u = g.uniform

    def blocks(count):
        mats = [_positive_matrix(g, 2 + (k % 7), u(0.3, 0.9)) for k in range(count)]
        spec, ref = block_symbol(mats)
        return g.spec("block", spec), ref

    # light: det, compare and trace of blocks and bundles, every command on
    # spectral models; heavy: block radius at order 40
    commands = itertools.cycle(("det", "compare", "trace"))
    for count, command in zip(_ladder(40, 70, 12), commands):
        path, ref = blocks(count)
        light.append(g.request(f"block-{command}", path, ref, command,
                               lam=g.lam_for(ref, 0.2, 0.25)))
    for count in _ladder(HEAVY_BLOCKS - 5, HEAVY_BLOCKS + 5, 10):
        path, ref = blocks(count)
        heavy.append(g.request("block-radius", path, ref, "radius",
                               lam=g.lam_for(ref, 0.2, 0.25), order=40))
    for count, command in zip(_ladder(8, 14, 12), commands):
        dual = [(f"x{k}", 2 + k % 4) for k in range(count)]
        sigma = {(i, r, xi): _positive_matrix(g, d, u(0.2, 0.5))
                 for xi, d in dual for i in (1, 2, 3) for r in (1, 2, 3)}
        spec, ref = bundle_symbol(3, dual, sigma)
        path = g.spec("bundle", spec)
        light.append(g.request(f"bundle-{command}", path, ref, command,
                               lam=g.lam_for(ref, 0.2, 0.25)))
    commands = itertools.cycle(("det", "compare", "trace", "radius"))
    for J, model in itertools.product(_ladder(1000, 10000, 8),
                                      ("sphere2", "torus2", "circle")):
        spec, ref = spectral_model(model, J, u(3.0, 4.0))
        path = g.spec(model, spec)
        command = next(commands)
        light.append(g.request(f"spectral-{command}", path, ref, command,
                               lam=g.lam_for(ref, 0.2, 0.25)))


def large_operators(g: _Gen):
    """Large lattice truncations and block, bundle and spectral symbols; no
    toroidal code runs, so a toroidal change must leave it unmoved.  The
    list holds 100 requests, so ten lie above latency_p90_s."""
    light, heavy = [], []
    _lattice_classes(g, light, heavy)
    _block_classes(g, light, heavy)
    g.out.requests = _rounds(light, heavy, g.rng)


def golden_requests() -> list:
    """`det --output json` on the golden fixtures; compared byte for byte."""
    return [Request(f"golden:{name}",
                    ["det", "--input", f"fixtures/{name}.json", "--output", "json"],
                    {"golden": f"tests/golden/{name}.json"})
            for name in GOLDEN_FIXTURES]


WORKLOADS = {"cli_mix": cli_mix, "large_operators": large_operators}


def generate(name: str, seed: int, workdir: str) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; have {list(WORKLOADS)}")
    g = _Gen(name, seed, workdir)
    WORKLOADS[name](g)
    return g.out
