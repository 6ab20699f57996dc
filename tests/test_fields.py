"""Grid containers, metric fields, jets, norms and exchange formats."""
import re
import tracemalloc
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from lorentz_corrugate import fields
from lorentz_corrugate.cli import _write_record
from lorentz_corrugate.corrugation import CorrugationStepRecord, apply_corrugation, prepare_step
from lorentz_corrugate.decomp import build_dictionary, decompose
from lorentz_corrugate.errors import (
    ConfigError,
    DomainError,
    GridMismatch,
    NotLong,
    NotPSD,
    SingularMetric,
)
from lorentz_corrugate.fields import (
    EmbeddingJet,
    Grid,
    LinearForm,
    MetricField,
    apply_d,
    c0_distance,
    c1_increments,
    corrugation_frame,
    export_obj,
    form_norm,
    isometric_default,
    operator_norm_form,
    operator_norm_map,
    pullback_metric,
    read_metric_csv,
    read_scalar_csv,
    require_long,
    write_grid_csv,
    write_metric_csv,
)
from lorentz_corrugate.lorentz import minkowski_inner
from lorentz_corrugate.scenarios import STRIP_FORM, flat_inclusion, strip_eta_field
from lorentz_corrugate.scheduler import RunLedger, StageRow


def graph_jet(grid, zx, zy):
    """Jet of the graph (x, y, z(x,y)) with constant slopes zx, zy."""
    X, Y = grid.mesh()
    one = np.ones(grid.shape)
    zero = np.zeros(grid.shape)
    pos = np.stack([X, Y, zx * X + zy * Y], axis=-1)
    dfx = np.stack([one, zero, zx * one], axis=-1)
    dfy = np.stack([zero, one, zy * one], axis=-1)
    return EmbeddingJet(grid, pos, dfx, dfy)


def random_pd_metric(rng, shape, scale=1.0):
    a = rng.uniform(0.5, 1.5, size=shape) * scale
    c = rng.uniform(0.5, 1.5, size=shape) * scale
    b = rng.uniform(-0.4, 0.4, size=shape) * np.sqrt(a * c)
    return MetricField(a, b, c)


# ---------------------------------------------------------------- grid


def test_grid_basic():
    g = Grid(5, 3)
    assert g.shape == (5, 3)
    assert g.hx == 0.25 and g.hy == 0.5
    assert g.x[0] == 0.0 and g.x[-1] == 1.0
    X, Y = g.mesh()
    assert X.shape == (5, 3)
    assert X[2, 0] == 0.5 and Y[0, 1] == 0.5


def test_grid_too_small():
    with pytest.raises(DomainError):
        Grid(1, 5)


# ---------------------------------------------------------------- metric field


def test_metric_eigenvalues_against_eigvalsh():
    rng = np.random.default_rng(3)
    g = random_pd_metric(rng, (7, 6))
    lo, hi = g.eigenvalues()
    mats = np.empty((7, 6, 2, 2))
    mats[..., 0, 0] = g.E
    mats[..., 0, 1] = mats[..., 1, 0] = g.F
    mats[..., 1, 1] = g.G
    ev = np.linalg.eigvalsh(mats)
    assert np.allclose(lo, ev[..., 0], atol=1e-13)
    assert np.allclose(hi, ev[..., 1], atol=1e-13)
    assert np.allclose(g.det(), np.linalg.det(mats), atol=1e-13)


def test_metric_arith_and_copy():
    g = MetricField.constant(2.0, 0.5, 1.0, (3, 3))
    h = MetricField.identity((3, 3))
    s = g + h - 2.0 * h
    assert np.allclose(s.E, 1.0) and np.allclose(s.F, 0.5) and np.allclose(s.G, 0.0)
    # arithmetic builds new component arrays; the operands stay untouched
    s.E[0, 0] = 99.0
    assert g.E[0, 0] == 2.0 and h.E[0, 0] == 1.0


def test_metric_shape_mismatch():
    with pytest.raises(GridMismatch):
        MetricField(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(GridMismatch):
        MetricField.identity((2, 2)) + MetricField.identity((3, 3))


def test_metric_pd_and_psd_guards():
    flat = MetricField.constant(1.0, 0.0, -0.5, (2, 2))
    with pytest.raises(SingularMetric):
        flat.require_positive_definite()
    with pytest.raises(NotPSD):
        flat.require_psd()
    # A tiny negative eigenvalue passes the PSD gate but not the PD one.
    near = MetricField.constant(1.0, 0.0, -1e-14, (2, 2))
    near.require_psd()
    with pytest.raises(SingularMetric):
        near.require_positive_definite()
    # NaN compares False both ways, so it must not slip past the PSD gate.
    nan = MetricField.constant(1.0, 0.0, 1.0, (2, 2))
    nan.G[1, 0] = np.nan
    with pytest.raises(NotPSD):
        nan.require_psd()


def test_metric_inner_matches_matrix_product():
    rng = np.random.default_rng(5)
    g = random_pd_metric(rng, (4, 4))
    u = rng.normal(size=(4, 4, 2))
    w = rng.normal(size=(4, 4, 2))
    got = g.inner(u, w)
    expect = (
        g.E * u[..., 0] * w[..., 0]
        + g.F * u[..., 0] * w[..., 1]
        + g.F * u[..., 1] * w[..., 0]
        + g.G * u[..., 1] * w[..., 1]
    )
    assert np.allclose(got, expect, atol=1e-14)


def test_metric_frobenius():
    g = MetricField.constant(3.0, 2.0, 1.0, (2, 2))
    # sqrt(9 + 2*4 + 1) on every node.
    assert np.allclose(g.frobenius(), np.sqrt(18.0))


# ---------------------------------------------------------------- linear form


def test_linear_form_kernel_and_outer():
    ell = LinearForm(0.6, -0.8)
    assert ell.of(ell.kernel_direction()) == 0.0
    out = ell.outer(np.full((2, 2), 2.0))
    assert np.allclose(out.E, 2.0 * 0.36)
    assert np.allclose(out.F, -2.0 * 0.48)
    assert np.allclose(out.G, 2.0 * 0.64)
    with pytest.raises(DomainError):
        LinearForm(0.0, 0.0)


def test_linear_form_phase_and_angle():
    ell = LinearForm.from_angle(np.pi / 2)
    assert abs(ell.a) < 1e-15 and abs(ell.b - 1.0) < 1e-15
    X = np.array([[0.0, 1.0]])
    Y = np.array([[2.0, 3.0]])
    ph = LinearForm(2.0, 1.0).phase(X, Y)
    assert np.array_equal(ph, np.array([[2.0, 5.0]]))


def test_form_norm_against_inverse_metric():
    rng = np.random.default_rng(9)
    g = random_pd_metric(rng, (5, 5))
    ell = LinearForm(0.3, 1.1)
    got = form_norm(ell, g)
    mats = np.empty((5, 5, 2, 2))
    mats[..., 0, 0] = g.E
    mats[..., 0, 1] = mats[..., 1, 0] = g.F
    mats[..., 1, 1] = g.G
    vec = np.array([ell.a, ell.b])
    expect = np.sqrt(np.einsum("i,...ij,j->...", vec, np.linalg.inv(mats), vec))
    assert np.allclose(got, expect, atol=1e-12)


def test_form_norm_frozen():
    g = MetricField.constant(4.0, 0.0, 1.0, (2, 2))
    assert np.allclose(form_norm(LinearForm(1.0, 0.0), g), 0.5)
    assert np.allclose(form_norm(LinearForm(0.0, 1.0), g), 1.0)


# ---------------------------------------------------------------- jets


def test_pullback_flat_inclusion_is_identity():
    f = flat_inclusion(Grid(9, 9))
    g = pullback_metric(f)
    assert np.allclose(g.E, 1.0) and np.allclose(g.F, 0.0) and np.allclose(g.G, 1.0)


def test_pullback_tilted_graph_frozen():
    # Graph (x, y, 0.9 x): E = 1 - 0.81, the timelike axis subtracts.
    f = graph_jet(Grid(4, 4), 0.9, 0.0)
    g = pullback_metric(f)
    assert np.allclose(g.E, 0.19, atol=1e-15)
    assert np.allclose(g.F, 0.0) and np.allclose(g.G, 1.0)


def test_jet_shape_guard():
    grid = Grid(3, 3)
    with pytest.raises(GridMismatch):
        EmbeddingJet(grid, np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), np.zeros((3, 2, 3)))


def test_apply_d():
    rng = np.random.default_rng(2)
    f = graph_jet(Grid(3, 3), 0.2, -0.1)
    u = rng.normal(size=(3, 3, 2))
    got = apply_d(f, u)
    expect = u[..., 0:1] * f.dfx + u[..., 1:2] * f.dfy
    assert np.array_equal(got, expect)


def test_longness():
    f = flat_inclusion(Grid(5, 5))
    g_short = MetricField.constant(0.5, 0.0, 0.5, (5, 5))
    d = require_long(f, g_short)
    assert d.min_eigenvalue() == pytest.approx(0.5)
    g_big = MetricField.constant(2.0, 0.0, 0.5, (5, 5))
    with pytest.raises(NotLong):
        require_long(f, g_big)
    g_short.E[2, 2] = np.nan
    with pytest.raises(NotLong):
        require_long(f, g_short)
    with pytest.raises(GridMismatch):
        isometric_default(f, MetricField.identity((4, 4)))


# ---------------------------------------------------------------- operator norms


def test_operator_norm_form_frozen():
    g = MetricField.identity((2, 2))
    b = MetricField.constant(2.0, 0.0, -0.5, (2, 2))
    # Eigenvalues 2 and -0.5; the norm takes the largest magnitude.
    assert np.allclose(operator_norm_form(b, g), 2.0)
    assert np.allclose(operator_norm_form(MetricField.constant(-0.5, 0.0, 0.25, (2, 2)), g), 0.5)


def test_operator_norm_form_against_dense():
    rng = np.random.default_rng(21)
    for _ in range(50):
        g = random_pd_metric(rng, ())
        b = MetricField(rng.normal(), rng.normal(), rng.normal())
        gm = np.array([[float(g.E), float(g.F)], [float(g.F), float(g.G)]])
        bm = np.array([[float(b.E), float(b.F)], [float(b.F), float(b.G)]])
        w = np.linalg.cholesky(gm)
        winv = np.linalg.inv(w)
        lam = np.linalg.eigvalsh(winv @ bm @ winv.T)
        assert operator_norm_form(b, g) == pytest.approx(np.max(np.abs(lam)), abs=1e-12)


def test_operator_norm_map_against_svd():
    rng = np.random.default_rng(23)
    for _ in range(50):
        g = random_pd_metric(rng, ())
        A = rng.normal(size=(3, 2))
        gm = np.array([[float(g.E), float(g.F)], [float(g.F), float(g.G)]])
        winv = np.linalg.inv(np.linalg.cholesky(gm))
        s = np.linalg.svd(A @ winv.T, compute_uv=False)
        got = operator_norm_map(A[:, 0], A[:, 1], g)
        assert got == pytest.approx(s[0], abs=1e-12)


def test_operator_norm_map_homogeneity():
    rng = np.random.default_rng(25)
    g = random_pd_metric(rng, (3, 3))
    Ax = rng.normal(size=(3, 3, 3))
    Ay = rng.normal(size=(3, 3, 3))
    base = operator_norm_map(Ax, Ay, g)
    assert np.allclose(operator_norm_map(3.0 * Ax, 3.0 * Ay, g), 3.0 * base, atol=1e-12)
    assert np.allclose(operator_norm_map(Ax, Ay, 4.0 * g), 0.5 * base, atol=1e-12)


def test_c0_c1_distances():
    f1 = flat_inclusion(Grid(4, 4))
    f2 = flat_inclusion(Grid(4, 4))
    f2.pos[2, 1] += np.array([0.0, 3.0, 4.0])
    assert c0_distance(f1, f2) == pytest.approx(5.0)
    f2.dfx[0, 0] += np.array([0.0, 0.0, 0.5])
    g = MetricField.identity((4, 4))
    assert c1_increments(f1, f2, (g,))[0] == pytest.approx(0.5)
    # one difference and Gram field serve each metric, in order
    assert c1_increments(f1, f2, (g, 4.0 * g)) == [c1_increments(f1, f2, (g,))[0], 0.25]
    with pytest.raises(GridMismatch):
        c0_distance(f1, flat_inclusion(Grid(5, 5)))


def test_identity_pencil_is_bitwise_the_identity_metric():
    """None stands for the identity metric in c1_increments, to the last bit."""
    rng = np.random.default_rng(29)
    shape = (17, 13)
    for scale in (1e-9, 1e-3, 1.0, 1e3):
        f1, f2 = flat_inclusion(Grid(*shape)), flat_inclusion(Grid(*shape))
        for jet in (f1, f2):
            jet.dfx += scale * rng.normal(size=shape + (3,))
            jet.dfy += scale * rng.normal(size=shape + (3,))
        f2.dfy[::2] = f1.dfy[::2]  # rank-one differences on every other row
        identity = MetricField.identity(shape)
        assert c1_increments(f1, f2, (None,)) == c1_increments(f1, f2, (identity,))
        B = fields._gram(f1.dfx - f2.dfx, f1.dfy - f2.dfy)
        got, want = fields._map_norm(B, None), fields._map_norm(B, identity)
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------- frame


def test_frame_flat_diagonal_form():
    f = flat_inclusion(Grid(5, 5))
    ell = LinearForm(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
    fr = corrugation_frame(f, ell, pullback_metric(f))
    assert np.allclose(fr.dlu, 1.0, atol=1e-15)
    assert np.allclose(ell.of(fr.v), 0.0, atol=1e-15)


def test_frame_orthonormal_random():
    rng = np.random.default_rng(31)
    grid = Grid(6, 5)
    for _ in range(20):
        f = graph_jet(grid, rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        ell = LinearForm.from_angle(rng.uniform(0.0, 2.0 * np.pi))
        g = pullback_metric(f)
        fr = corrugation_frame(f, ell, g)
        assert np.allclose(g.inner(fr.v, fr.v), 1.0, atol=1e-12)
        assert np.allclose(g.inner(fr.u, fr.u), 1.0, atol=1e-12)
        assert np.allclose(g.inner(fr.u, fr.v), 0.0, atol=1e-12)
        assert np.all(fr.dlu > 0.0)
        assert np.allclose(ell.of(fr.v), 0.0, atol=1e-12)
        # Images of a pullback-orthonormal pair are h-orthonormal.
        assert np.allclose(minkowski_inner(fr.t, fr.t), 1.0, atol=1e-12)
        assert np.allclose(minkowski_inner(fr.vhat, fr.vhat), 1.0, atol=1e-12)
        assert np.allclose(minkowski_inner(fr.t, fr.vhat), 0.0, atol=1e-12)
        assert np.allclose(minkowski_inner(fr.n, fr.n), -1.0, atol=1e-12)
        assert np.allclose(minkowski_inner(fr.n, fr.t), 0.0, atol=1e-12)
        assert np.all(fr.n[..., 2] > 0.0)


# ---------------------------------------------------------------- audits and io


def _special_jet(nx, ny, seed):
    """Jet whose positions mix random doubles with NaN, +-inf, +-1e+-300 and -0.0."""
    grid = Grid(nx, ny)
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=grid.shape + (3,))
    specials = [np.nan, np.inf, -np.inf, 1e300, -1e300, 1e-300, -1e-300, -0.0]
    flat = pos.reshape(-1)
    flat[: len(specials)] = specials
    rng.shuffle(flat)
    zero = np.zeros(grid.shape + (3,))
    return EmbeddingJet(grid, pos, zero, zero)


def test_export_obj_layout(tmp_path):
    f = flat_inclusion(Grid(2, 2))
    path = tmp_path / "m.obj"
    export_obj(f, str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4 + 2
    assert lines[0] == "v 0 0 0"
    assert lines[1] == "v 0 1 0"
    assert lines[2] == "v 1 0 0"
    assert lines[4] == "f 1 3 4"
    assert lines[5] == "f 1 4 2"
    for nx, ny in ((3, 5), (17, 4)):
        f = _special_jet(nx, ny, seed=nx)
        path = tmp_path / ("m%dx%d.obj" % (nx, ny))
        export_obj(f, str(path))
        text = path.read_text()
        assert text.endswith("\n") and not text.endswith("\n\n")
        lines = text[:-1].split("\n")
        assert len(lines) == nx * ny + 2 * (nx - 1) * (ny - 1)
        verts, faces = lines[: nx * ny], lines[nx * ny :]
        assert all(v.startswith("v ") for v in verts)
        assert all(q.startswith("f ") for q in faces)
        back = np.array([[float(c) for c in v.split()[1:]] for v in verts])
        want = f.pos.reshape(nx * ny, 3)
        # bitwise, NaN-aware: the sign of -0.0 survives as well
        assert np.array_equal(back.view(np.uint64), want.view(np.uint64))
        idx = np.arange(1, nx * ny + 1).reshape(nx, ny)
        v00, v10 = idx[:-1, :-1], idx[1:, :-1]
        v11, v01 = idx[1:, 1:], idx[:-1, 1:]
        tri = np.stack([np.stack([v00, v10, v11], -1), np.stack([v00, v11, v01], -1)], -2)
        got = np.array([[int(c) for c in q.split()[1:]] for q in faces])
        assert np.array_equal(got, tri.reshape(-1, 3))


def test_export_obj_writes_row_by_row(tmp_path):
    """Peak Python allocation while writing stays far below the file's size."""
    f = _special_jet(129, 133, seed=7)
    path = tmp_path / "big.obj"
    tracemalloc.start()
    try:
        export_obj(f, str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * path.stat().st_size


def _reference_obj(pos):
    """The OBJ text of a position array, formatted one node and one face at a time."""
    nx, ny = pos.shape[:2]
    lines = ["v %.17g %.17g %.17g\n" % tuple(p) for p in pos.reshape(-1, 3).tolist()]
    for i in range(nx - 1):
        for j in range(ny - 1):
            v = i * ny + j + 1
            lines.append("f %d %d %d\n" % (v, v + ny, v + ny + 1))
            lines.append("f %d %d %d\n" % (v, v + ny + 1, v + 1))
    return "".join(lines)


def _reference_grid_csv(columns):
    """The grid CSV text of {name: (nx, ny) array}, formatted one node at a time."""
    names = list(columns)
    nx, ny = columns[names[0]].shape
    row = "%d,%d," + ",".join(["%.17g"] * len(names)) + "\n"
    lines = [",".join(["x_idx", "y_idx"] + names) + "\n"]
    for i in range(nx):
        for j in range(ny):
            lines.append(row % ((i, j) + tuple(float(columns[n][i, j]) for n in names)))
    return "".join(lines)


def _engine_output():
    """A corrugated 33x33 jet (negative coordinates, |z| < 1e-4 and exact
    zeros among its positions) and a decomposition's eta fields (exact zeros)."""
    grid = Grid(33, 33)
    eta = strip_eta_field(grid)
    f, _ = apply_corrugation(prepare_step(flat_inclusion(grid), eta, LinearForm(0.6, -0.8)), 16)
    delta = 0.25 * MetricField.identity(grid.shape) + STRIP_FORM.outer(eta)
    etas = decompose(delta, build_dictionary(5)).etas
    return f, {"eta_%d" % (q + 1): e for q, e in enumerate(etas)}


@pytest.mark.parametrize(
    "nx,ny", [(2, 2), (3, 5), (17, 4), (5, 2), pytest.param(None, None, id="engine")]
)
def test_writers_match_per_node_reference(tmp_path, nx, ny):
    """Both grid writers write byte for byte what a per-node formatter writes,
    on special values and on engine output, whose writes end in a short block."""
    if nx is None:
        f, etas = _engine_output()
        pos = f.pos.reshape(-1)
        assert np.any(pos < 0.0) and np.any((pos != 0.0) & (np.abs(pos) < 1e-4))
        assert np.any(pos == 0.0) and np.any(np.array(list(etas.values())) == 0.0)
        for cols in (3, 5, 7):
            blocks = fields._row_blocks(f.grid.shape, cols)
            assert np.diff(blocks[-1]) < np.diff(blocks[0])
        tables = [etas]
    else:
        f = _special_jet(nx, ny, seed=nx * ny)
        tables = []
    obj = tmp_path / "m.obj"
    export_obj(f, str(obj))
    assert obj.read_bytes() == _reference_obj(f.pos).encode()
    for k in (1, 3):
        tables.append({name: f.pos[..., c] for c, name in enumerate(["E", "F", "G"][:k])})
    for t, columns in enumerate(tables):
        csv = tmp_path / ("g%d.csv" % t)
        write_grid_csv(str(csv), columns)
        assert csv.read_bytes() == _reference_grid_csv(columns).encode()


def _float_cases(rng):
    """Doubles that stress a %.17g formatter, both signs."""
    ties = []
    for m in range(1, 22):
        # x = A / 2^(m+1) with A odd and 10^(16-m) <= x < 10^(17-m): x 10^m
        # has 17 integer digits and a fraction of exactly one half
        lo = -(-(2 ** (m + 1)) * 10**16 // 10**m)
        hi = min(2 ** (m + 1) * 10**17 // 10**m, 2**53 - 1)
        ties.append((rng.integers(lo, hi, size=2000) | 1) / 2.0 ** (m + 1))
    powers = np.array([float("1e%d" % k) for k in range(-30, 31)])
    digits = [
        float("%de%d" % (rng.integers(10 ** (n - 1), 10**n), rng.integers(-12, 12)))
        for n in range(1, 18)
        for _ in range(500)
    ]
    extremes = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    cases = np.concatenate(
        ties
        + [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), digits, extremes]
        + [np.array([0.0, np.inf, np.nan]), np.arange(300001.0)]
    )
    return np.concatenate([cases, -cases])


def test_float_text_matches_percent_operator():
    """The writers' float kernel writes exactly what FLOAT_FMT % x writes: a
    million random bit patterns with exponents around the fixed-notation range
    [1e-4, 1e16) and 10^5 with any exponent, exact 17-digit ties, powers of ten
    and their neighbours (the edges 1e-4 and 1e16 among them), zeros,
    subnormals, the largest double, inf, nan, integers and short decimals."""
    rng = np.random.default_rng(29)
    bits = rng.integers(0, 2**64, size=11 * 10**5, dtype=np.uint64)
    # biased exponents 1009 .. 1077: 2^-14 <= |x| < 2^55
    bits[: 10**6] &= ~np.uint64(0x7FF << 52)
    bits[: 10**6] |= rng.integers(1009, 1078, size=10**6, dtype=np.uint64) << np.uint64(52)
    values = np.concatenate([bits.view(float), _float_cases(rng)])
    values = np.concatenate([values, np.zeros(-len(values) % 4)]).reshape(-1, 4)
    line = "v " + " ".join([fields.FLOAT_FMT] * 4) + "\n"
    for i in range(0, len(values), 1024):
        block = values[i : i + 1024]
        got = bytes(fields._lines(fields._texts([b"\nv"]), block, b" "))
        want = (line * len(block) % tuple(block.ravel().tolist())).encode()
        if got != want:
            bad = next(j for j, (a, b) in enumerate(zip(got.split(), want.split())) if a != b)
            pytest.fail("%r written as %r" % (want.split()[bad], got.split()[bad]))


def test_int_text_matches_percent_operator():
    """The face kernel writes exactly what " %d" % n writes: a million random
    indices below 10^7, every power of ten and its neighbours, and indices
    of 10^7 or more (two words a value), alone and mixed with small ones in
    one block; 10^15, past its digits, raises."""
    rng = np.random.default_rng(30)
    powers = 10 ** np.arange(15)
    near = np.concatenate([powers - 1, powers, powers + 1])
    cases = [
        rng.integers(1, 10**7, size=10**6),
        near,
        near[near < 10**7],
        rng.integers(10**7, 10**15, size=10**5),
        np.concatenate([rng.integers(1, 10**7, size=10**5), [10**7]]),
    ]
    for n in cases:
        n = np.concatenate([n, np.ones(-len(n) % 3, n.dtype)]).reshape(-1, 3)
        got = bytes(fields._int_lines(b"f", n))
        want = ("f %d %d %d\n" * len(n) % tuple(n.ravel().tolist())).encode()
        assert got == want
    with pytest.raises(IndexError):
        fields._int_lines(b"f", np.array([[1, 10**15, 2]]))


@pytest.fixture
def spills(monkeypatch):
    """The temporary files the writers open, recorded as they are made."""
    made, make = [], fields.tempfile.TemporaryFile

    def record(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(fields.tempfile, "TemporaryFile", record)
    return made


def test_large_writes_are_the_same_on_any_lane_count(tmp_path, monkeypatch, spills):
    """A grid large enough for the lane blocks is written byte for byte as
    the per-node formatter writes it on one, two and three lanes; every lane
    past the first writes its band through one temporary file a section,
    closed when the write returns."""
    f = _special_jet(209, 213, seed=30)
    columns = {"E": f.pos[..., 0], "F": f.pos[..., 1], "G": f.pos[..., 2]}
    assert 209 * 213 * 3 >= fields._LANE_VALUES
    blocks = fields._row_blocks(f.grid.shape, 3)
    assert blocks[0][1] * 213 * 3 > fields._BLOCK_VALUES
    assert np.diff(blocks[-1]) < np.diff(blocks[0])
    want_obj, want_csv = _reference_obj(f.pos).encode(), _reference_grid_csv(columns).encode()
    for workers in (1, 2, 3):
        monkeypatch.setattr(fields, "WORKERS", workers)
        spills.clear()
        obj, csv = tmp_path / ("m%d.obj" % workers), tmp_path / ("g%d.csv" % workers)
        export_obj(f, str(obj))
        write_grid_csv(str(csv), columns)
        assert obj.read_bytes() == want_obj
        assert csv.read_bytes() == want_csv
        assert len(spills) == 3 * (workers - 1)
        assert all(spill.closed for spill in spills)


@pytest.mark.parametrize("failing", [(1,), (0, 1)])
def test_a_failing_band_raises_in_band_order(tmp_path, monkeypatch, spills, failing):
    """On two lanes a grid CSV whose band 1, or both bands, raise raises the
    first error in band order, and leaves no temporary file open or in the
    output's directory."""
    monkeypatch.setattr(fields, "WORKERS", 2)
    pos = _special_jet(209, 213, seed=31).pos
    blocks = fields._row_blocks(pos.shape[:2], 5)
    second = blocks[fields._bands(len(blocks))[1].start][0]
    lines = fields._lines

    def raising(heads, values, sep):
        band = int(values[0, 0] >= second)  # the block's first grid row
        if band in failing:
            raise RuntimeError("band %d" % band)
        return lines(heads, values, sep)

    monkeypatch.setattr(fields, "_lines", raising)
    # the first column holds each node's grid row
    rows = np.broadcast_to(np.arange(209.0)[:, None], (209, 213))
    columns = {"i": rows, "E": pos[..., 0], "F": pos[..., 1]}
    with pytest.raises(RuntimeError, match="^band %d$" % failing[0]):
        write_grid_csv(str(tmp_path / "g.csv"), columns)
    assert len(spills) == 1 and spills[0].closed
    assert [p.name for p in tmp_path.iterdir()] == ["g.csv"]


@pytest.mark.parametrize(
    "shapes",
    [((3, 3), (3, 2)), ((3, 2), (3, 3)), ((3, 3), (9,)), ((3, 0), (3, 0)), ((0, 3), (0, 3))],
)
def test_write_grid_csv_rejects_mismatched_columns(tmp_path, shapes):
    """Columns of differing shapes raise before the file exists, in either
    order, and so do columns with no node on one axis."""
    path = tmp_path / "g.csv"
    columns = {"a": np.zeros(shapes[0]), "b": np.ones(shapes[1])}
    with pytest.raises(GridMismatch, match=re.escape("got a %s, b %s" % shapes)):
        write_grid_csv(str(path), columns)
    assert not path.exists()


def test_write_grid_csv_writes_row_by_row(tmp_path):
    """Peak Python allocation while writing stays far below the file's size."""
    pos = _special_jet(129, 133, seed=11).pos
    path = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        write_grid_csv(str(path), {"E": pos[..., 0], "F": pos[..., 1], "G": pos[..., 2]})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * path.stat().st_size


def test_metric_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(41)
    g = random_pd_metric(rng, (4, 3))
    path = tmp_path / "g.csv"
    write_metric_csv(str(path), g)
    back = read_metric_csv(str(path))
    # 17 significant digits round-trip doubles exactly.
    assert np.array_equal(back.E, g.E)
    assert np.array_equal(back.F, g.F)
    assert np.array_equal(back.G, g.G)


def test_scalar_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(43)
    field = rng.normal(size=(3, 5))
    path = tmp_path / "s.csv"
    write_grid_csv(str(path), {"eta": field})
    assert np.array_equal(read_scalar_csv(str(path)), field)
    assert path.read_text().splitlines()[0] == "x_idx,y_idx,eta"


def test_metric_csv_incomplete(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_idx,y_idx,E,F,G\n0,0,1,0,1\n1,1,1,0,1\n")
    with pytest.raises(ConfigError):
        read_metric_csv(str(path))


METRIC_HEADER = "x_idx,y_idx,E,F,G\n"
# three of the four nodes of a 2x2 grid; each case supplies the fourth row
THREE_NODES = "0,0,1,0,1\n0,1,1,0,1\n1,0,1,0,1\n"
MALFORMED_METRIC_CSV = {
    "non-numeric cell": METRIC_HEADER + THREE_NODES + "1,1,1,zero,1\n",
    "nan value": METRIC_HEADER + THREE_NODES + "1,1,nan,0,1\n",
    "inf value": METRIC_HEADER + THREE_NODES + "1,1,1,0,inf\n",
    "header without E,F,G": "x_idx,y_idx,A,B,C\n" + THREE_NODES + "1,1,1,0,1\n",
    "duplicated node": METRIC_HEADER + THREE_NODES + "1,0,1,0,1\n",
    "negative index": METRIC_HEADER + THREE_NODES + "-1,1,1,0,1\n",
    "non-integral index": METRIC_HEADER + THREE_NODES + "1,0.5,1,0,1\n",
    "ragged row": METRIC_HEADER + THREE_NODES + "1,1,1,0\n",
    "no rows": METRIC_HEADER,
    "empty file": "",
}


@pytest.mark.parametrize("case", sorted(MALFORMED_METRIC_CSV))
def test_grid_csv_rejects_malformed(tmp_path, case):
    path = tmp_path / "bad.csv"
    path.write_text(MALFORMED_METRIC_CSV[case])
    with pytest.raises(ConfigError, match="bad.csv: no data rows$" if case == "no rows" else "bad.csv"):
        read_metric_csv(str(path))


def test_csv_writers_golden_format(tmp_path):
    # Pins every CSV format byte for byte: ints and flags as %d, strings
    # as-is, floats with 17 significant digits (nan and inf included).
    row = StageRow(
        stage=2, delta=0.25, sup_default=0.1, stage_bound=1e-3, stage_bound_pass=True,
        c0_shift=2.5e-20, c0_budget=0.00625, c0_pass=True, c1_increment=1.0 / 3.0,
        c1_increment_euclid=2.0, c1_bound=123456.789, c1_bound_pass=False,
        c1_bound_pass_euclid=True, triangle_pass=True, n_values=[16, 1024, 262144],
        alpha_max=0.7, per_step_eps=float("nan"), retries=1, decomp_residual=0.0,
        form_constant=1.5, long_next_min_eig=-1e-17, sup_vs_target=float("inf"),
    )
    summary = {
        "mode": "practical", "monotone_pass": True, "stages": 6, "probes": np.int64(7),
        "eps": 0.05, "c0_total": 1e-300,
    }
    ledger = RunLedger(rows=[row], summary=summary)
    ledger.write_csv(str(tmp_path / "ledger.csv"))
    ledger.write_constants_csv(str(tmp_path / "constants.csv"))
    rec = CorrugationStepRecord(
        N=64, alpha_max=0.0, orders=3, eta_max=0.25, sup_default=0.1, c0_shift=1.0 / 3.0,
        c1_shift=np.float64(2.0), c1_shift_euclid=1e-300, spacelike_min=-0.5,
        audits={"identity_max": 1e-16, "growth_margin": float("-inf"), "normal_ortho_budget": 0.15625},
    )
    _write_record(str(tmp_path / "record.csv"), rec)
    E = np.array([[1.0, 0.1, 2.0], [1e-17, 3.0, -0.5]])
    write_metric_csv(str(tmp_path / "grid.csv"), MetricField(E, E / 3.0, -E))

    header, line = (tmp_path / "ledger.csv").read_text().splitlines()
    assert header == (
        "stage,delta,sup_default,stage_bound,stage_bound_pass,c0_shift,c0_budget,c0_pass,"
        "c1_increment,c1_increment_euclid,c1_bound,c1_bound_pass,c1_bound_pass_euclid,"
        "triangle_pass,steps,n_values,alpha_max,per_step_eps,retries,"
        "decomp_residual,form_constant,long_next_min_eig,sup_vs_target"
    )
    assert line == (
        "2,0.25,0.10000000000000001,0.001,1,2.4999999999999999e-20,0.0062500000000000003,1,"
        "0.33333333333333331,2,123456.789,0,1,1,3,16;1024;262144,0.69999999999999996,nan,1,"
        "0,1.5,-1.0000000000000001e-17,inf"
    )
    assert len(header.split(",")) == len(line.split(",")) == 23
    assert (tmp_path / "constants.csv").read_text() == (
        "name,value\nc0_total,1e-300\neps,0.050000000000000003\nmode,practical\n"
        "monotone_pass,1\nprobes,7\nstages,6\n"
    )
    assert (tmp_path / "record.csv").read_text() == (
        "name,value\nN,64\nalpha_max,0\norders,3\neta_max,0.25\nsup_default,0.10000000000000001\n"
        "c0_shift,0.33333333333333331\nc1_shift,2\nc1_shift_euclid,1e-300\nspacelike_min,-0.5\n"
        "growth_margin,-inf\nidentity_max,9.9999999999999998e-17\nnormal_ortho_budget,0.15625\n"
    )
    assert (tmp_path / "grid.csv").read_text() == (
        "x_idx,y_idx,E,F,G\n"
        "0,0,1,0.33333333333333331,-1\n"
        "0,1,0.10000000000000001,0.033333333333333333,-0.10000000000000001\n"
        "0,2,2,0.66666666666666663,-2\n"
        "1,0,1.0000000000000001e-17,3.3333333333333337e-18,-1.0000000000000001e-17\n"
        "1,1,3,1,-3\n"
        "1,2,-0.5,-0.16666666666666666,0.5\n"
    )


# ---------------------------------------------------------------- cell parser


def _parse_lines(lines):
    """fields._read_block over whole lines of cells: (values, lines it read)."""
    text = "".join(",".join(line) + "\n" for line in lines).encode()
    buffer = bytearray(fields._CELL) + text + bytearray(1)
    a = np.frombuffer(buffer, np.uint8)
    values, fast, _ = fields._read_block(a, len(buffer) - 1, len(lines[0]))
    return values, fast


# -?digits[.digits] with a digit, at most 24 bytes and 22 digits after the point
FAST_CELL = re.compile(r"-?(\d*)(?:\.(\d{0,22}))?$")


def _in_form(cell):
    """Whether the parser reads cell itself: its form, and its digits below 922 * 10^16."""
    m = FAST_CELL.match(cell)
    digits = m and (m.group(1) + (m.group(2) or ""))
    return bool(digits) and len(cell) <= 24 and int(digits) < 922 * 10**16


def _check_cells(cells, columns=4):
    """The parser reads lines of cells only in its form, each cell bitwise as
    float() does, and sends every other line on; returns which lines it
    read, and whether it read every line in its form."""
    cells = cells + ["0"] * (-len(cells) % columns)
    lines = [cells[i : i + columns] for i in range(0, len(cells), columns)]
    values, fast = _parse_lines(lines)
    want = np.array([[float(c) for c in line] for line in lines])
    form = np.array([all(map(_in_form, line)) for line in lines])
    assert not (fast & ~form).any()
    assert np.array_equal(values[fast].view(np.uint64), want[fast].view(np.uint64))
    return fast, np.array_equal(fast, form)


def test_parser_reads_random_decimals_as_float():
    """Decimals of 1 to 19 digits, leading zeros among them, with a point at
    any place or none and either sign, are read bitwise as float() reads
    them; those whose digits pass 922 * 10^16 go to np.loadtxt."""
    rng = np.random.default_rng(33)
    cells = []
    for _ in range(60000):
        digits = "".join(map(str, rng.integers(0, 10, size=rng.integers(1, 20))))
        point = rng.integers(-1, len(digits) + 1)
        text = digits if point < 0 else digits[:point] + "." + digits[point:]
        cells.append("-" * rng.integers(0, 2) + text)
    fast, every = _check_cells(cells)
    assert every and 0.9 < fast.mean() < 1.0


def _near_midpoints(rng, count):
    """Decimals of 17 to 19 significant digits next to the midpoint of two
    adjacent doubles, one rounded down from it and one up, in fixed
    notation of at most 24 bytes; and exact midpoints above 2^52."""
    x = 10.0 ** rng.uniform(-4, 15, size=count)
    ties = 2.0 ** rng.uniform(52, 63, size=count // 5)
    cells = []
    with localcontext() as ctx:
        ctx.prec = 1100
        for v, digits in zip(x.tolist(), rng.integers(17, 20, size=count).tolist()):
            mid = (Decimal(v) + Decimal(np.nextafter(v, np.inf))) / 2
            quantum = Decimal(1).scaleb(mid.adjusted() - digits + 1)
            for rounding in (ROUND_FLOOR, ROUND_CEILING):
                cells.append("{:f}".format(mid.quantize(quantum, rounding=rounding)))
        for v in ties.tolist():
            cells.append("{:f}".format((Decimal(v) + Decimal(np.nextafter(v, np.inf))) / 2))
    return cells


def test_parser_rounds_near_midpoints_as_float():
    """Decimals just below and just above the exact midpoints between
    adjacent doubles, where one wrong step of the rounding shows, and exact
    midpoints, which go to the even neighbour, are read bitwise as float()
    reads them."""
    cells = _near_midpoints(np.random.default_rng(34), 10000)
    assert len({len(c) for c in cells}) > 5 and max(map(len, cells)) <= 24
    fast, every = _check_cells(cells, columns=2)
    assert every and fast.mean() > 0.95


def test_parser_rounds_next_to_powers_of_two():
    """Decimals of 19 digits just below and above powers of two, where
    fl(fl(D) / 10^f) can round up to the power of two, whose lower neighbour
    is half as far as its upper one, are read bitwise as float() reads them;
    the parser sends on each line whose quotient is a power of two."""
    cells = []
    for e in range(50, 61):
        for f in range(1, 5):
            for k in np.linspace(-1.5, 1.5, 301).tolist():
                x = Fraction(2**e) + Fraction(k) * Fraction(2) ** (e - 53)
                D = round(x * 10**f)
                if 2**53 < D < 922 * 10**16:
                    text = str(D)
                    cells.append(text[:-f] + "." + text[-f:])
    fast, every = _check_cells(cells, columns=1)
    assert not every and fast.mean() > 0.5


def test_grid_csv_round_trips_every_binade(tmp_path):
    """Doubles of every binade, subnormals, +-0, the neighbours of 1e-4 and
    1e16 and integers up to 2^53, written by write_grid_csv, read back
    bitwise: the parser's cells and np.loadtxt's (exponent notation) alike."""
    rng = np.random.default_rng(35)
    binades = np.ldexp(rng.uniform(1.0, 2.0, size=(2098, 4)), np.arange(-1074, 1024)[:, None])
    edges = np.array([1e-4, 1e16])
    values = np.concatenate(
        [
            binades.ravel(),
            [0.0, -0.0, 5e-324, 2**53, 2**53 - 1, 2**53 + 2, 9007199254740993.0],
            np.nextafter(edges, 0.0), edges, np.nextafter(edges, np.inf),
            np.arange(0.0, 2.0**53, 2.0**53 / 3001),
            np.ldexp(1.0, np.arange(-60, 60)),
        ]
    )
    values = np.concatenate([values, -values])
    values = np.concatenate([values, np.zeros(-len(values) % 6)]).reshape(-1, 3, 2)
    columns = {"a": values[..., 0], "b": values[..., 1]}
    path = tmp_path / "v.csv"
    write_grid_csv(str(path), columns)
    back = fields.read_grid_csv(str(path))
    for name, column in columns.items():
        assert np.array_equal(back[name].view(np.uint64), column.view(np.uint64))


def _parse_as_loadtxt(monkeypatch, path):
    """read_grid_csv with np.loadtxt reading the whole body: the arrays, or the
    error's type and message."""
    with monkeypatch.context() as m:
        m.setattr(fields, "_read_cells", lambda *args: None)
        return _read_or_error(path)


def _read_or_error(path):
    try:
        return fields.read_grid_csv(str(path))
    except Exception as exc:
        return type(exc), str(exc)


def _same_read(got, want):
    if isinstance(want, tuple):
        return got == want
    return isinstance(got, dict) and got.keys() == want.keys() and all(
        np.array_equal(got[k].view(np.uint64), want[k].view(np.uint64)) for k in want
    )


EDGE_BODIES = {
    "crlf": "0,0,1,0,1\r\n0,1,1,0,1\r\n1,0,1,0,1\r\n1,1,1,0,1\r\n",
    "no final newline": THREE_NODES + "1,1,1,0,1",
    "blank line": THREE_NODES + "\n1,1,1,0,1\n",
    "comment line": "# nodes\n" + THREE_NODES + "1,1,1,0,1 # last\n",
    "spaces": THREE_NODES + "1, 1,1 ,0,  1\n",
    "plus sign": THREE_NODES + "1,1,+1,0,1\n",
    "trailing point": THREE_NODES + "1.,1,1.,0,1\n",
    "leading point": THREE_NODES + "1,1,.5,-.5,1\n",
    "negative zero": THREE_NODES + "1,1,-0,-0.0,1\n",
    "leading zeros": THREE_NODES + "001,01,007.50,0,00.001\n",
    "exponent cells": THREE_NODES + "1,1,1e-05,2.5E+20,-3e0\n",
    "25-byte cell": THREE_NODES + "1,1,0.00012345678901234567891,0,1\n",
    "40-byte cell": THREE_NODES + "1,1,0.000000000000000000000000000000000001,0,1\n",
    "23 digits after the point": THREE_NODES + "1,1,.00000000000000000000001,0,1\n",
    "23 digits": THREE_NODES + "1,1,.12345678901234567890123,0,1\n",
    "22 digits after the point": THREE_NODES + "1,1,-.0000000000000000000001,.00000000000,1\n",
    "19 digits": THREE_NODES + "1,1,9219999999999999999,-9220000000000000000,1\n",
    "ragged row": THREE_NODES + "1,1,1,0\n",
    "extra cell": THREE_NODES + "1,1,1,0,1,2\n",
    "extra cell on every row": "0,0,1,0,1,9\n0,1,1,0,1,9\n1,0,1,0,1,9\n1,1,1,0,1,9\n",
    "empty cell": THREE_NODES + "1,1,,0,1\n",
    "lone sign": THREE_NODES + "1,1,-,0,1\n",
    "lone point": THREE_NODES + "1,1,.,0,1\n",
    "two points": THREE_NODES + "1,1,1.2.3,0,1\n",
    "two signs": THREE_NODES + "1,1,--1,0,1\n",
    "inner sign": THREE_NODES + "1,1,1-2,0,1\n",
    "nan": THREE_NODES + "1,1,nan,0,1\n",
    "fractional index": THREE_NODES + "1,1.0,1,0,1\n",
    "not utf-8": THREE_NODES + "1,1,1\xe9,0,1\n",
}


@pytest.mark.parametrize("case", sorted(EDGE_BODIES))
def test_parser_reads_edge_files_as_loadtxt(tmp_path, monkeypatch, case):
    """Each edge body gives bitwise the arrays, or the error (type and
    message), that read_grid_csv gives when np.loadtxt reads the whole body."""
    path = tmp_path / "edge.csv"
    body = EDGE_BODIES[case]
    if case == "crlf":
        path.write_bytes((METRIC_HEADER.replace("\n", "\r\n") + body).encode())
    else:
        path.write_bytes(METRIC_HEADER.encode() + body.encode("latin-1"))
    assert _same_read(_read_or_error(path), _parse_as_loadtxt(monkeypatch, path))


def test_grid_csv_read_is_the_same_on_any_lane_count_and_block(tmp_path, monkeypatch):
    """A grid CSV large enough for two bands, with lines for np.loadtxt in
    both, reads bitwise the same on one, two and three lanes and in blocks
    shorter than a line, and gives back what was written."""
    f = _special_jet(209, 213, seed=36)
    pos = np.where(np.isfinite(f.pos), f.pos, 1.5)
    # exponent notation in the first and the last line
    pos[0, 0, 0], pos[-1, -1, 2] = 1e-7, -2.5e-300
    columns = {"E": pos[..., 0], "F": pos[..., 1], "G": pos[..., 2]}
    assert 209 * 213 * 5 >= fields._LANE_VALUES
    path = tmp_path / "g.csv"
    write_grid_csv(str(path), columns)
    slow = []
    read_band = fields._read_band

    def counting(*args):
        slow.append(read_band(*args))
        return slow[-1]

    monkeypatch.setattr(fields, "_read_band", counting)
    for workers, least in ((1, 2**16), (2, 2**16), (3, 2**16), (2, 16)):
        monkeypatch.setattr(fields, "WORKERS", workers)
        monkeypatch.setattr(fields, "_READ_BYTES", least)
        if least < 2**16:
            monkeypatch.setattr(fields, "_READ_BLOCKS", 10**9)
        slow.clear()
        back = fields.read_grid_csv(str(path))
        assert len(slow) == workers and slow[0] and slow[-1]
        for name, column in columns.items():
            assert np.array_equal(back[name].view(np.uint64), column.view(np.uint64))


def test_read_metric_csv_peak_stays_below_a_whole_file_parse(tmp_path):
    """Reading a 257^2 metric CSV (4.4 MB) peaks below 5.1 MB of Python
    allocations: the lanes' blocks stay small beside the values (the whole
    body through np.loadtxt peaked at 5.36 MB)."""
    rng = np.random.default_rng(37)
    path = tmp_path / "m.csv"
    write_metric_csv(str(path), random_pd_metric(rng, (257, 257)))
    tracemalloc.start()
    try:
        read_metric_csv(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.1e6


def test_grid_csv_writes_indices_of_any_width(tmp_path):
    """The indices of a grid with rows up to 10000 are written as the per-cell
    rule writes them as floats, one to five digits."""
    rng = np.random.default_rng(38)
    a = rng.normal(size=(10001, 2))
    path = tmp_path / "wide.csv"
    write_grid_csv(str(path), {"a": a})
    rows = ["x_idx,y_idx,a"] + [
        ",".join(fields.FLOAT_FMT % v for v in (float(i), float(j), a[i, j]))
        for i in range(10001)
        for j in range(2)
    ]
    assert path.read_text() == "\n".join(rows) + "\n"
