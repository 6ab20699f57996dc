"""Grids, metric fields, linear forms, embedding jets and their norms.

Everything lives on a regular grid over the unit square C = [0,1]^2. A first
order jet stores positions and both partial derivative fields explicitly;
derivatives are exact data, never finite differences of the positions.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError, GridMismatch, NotLong, NotPSD, SingularMetric
from .lorentz import euclidean_norm, minkowski_inner, timelike_unit_normal

FLOAT_FMT = "%.17g"
# A form field counts as positive semidefinite, and a jet as long for a
# metric, when its least eigenvalue is at least -LONG_TOL.
LONG_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Regular nx-by-ny grid on the unit square."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise DomainError("grid needs at least 2 nodes per axis")

    @property
    def shape(self):
        return (self.nx, self.ny)

    @property
    def hx(self):
        return 1.0 / (self.nx - 1)

    @property
    def hy(self):
        return 1.0 / (self.ny - 1)

    @cached_property
    def x(self):
        return np.linspace(0.0, 1.0, self.nx)

    @cached_property
    def y(self):
        return np.linspace(0.0, 1.0, self.ny)

    def mesh(self):
        """Meshgrid (X, Y) with ij indexing, each of shape (nx, ny)."""
        return np.meshgrid(self.x, self.y, indexing="ij")


def _same_shape(a, b):
    if a.shape != b.shape:
        raise GridMismatch("field shapes %s and %s differ" % (a.shape, b.shape))


@dataclass
class MetricField:
    """Symmetric bilinear form field with components E, F, G per node."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=float)
        self.F = np.asarray(self.F, dtype=float)
        self.G = np.asarray(self.G, dtype=float)
        if self.E.shape != self.F.shape or self.F.shape != self.G.shape:
            raise GridMismatch("metric components have mismatched shapes")

    @classmethod
    def constant(cls, E, F, G, shape):
        return cls(np.full(shape, float(E)), np.full(shape, float(F)), np.full(shape, float(G)))

    @classmethod
    def identity(cls, shape):
        return cls.constant(1.0, 0.0, 1.0, shape)

    @property
    def shape(self):
        return self.E.shape

    def __add__(self, other):
        _same_shape(self.E, other.E)
        return MetricField(self.E + other.E, self.F + other.F, self.G + other.G)

    def __sub__(self, other):
        _same_shape(self.E, other.E)
        return MetricField(self.E - other.E, self.F - other.F, self.G - other.G)

    def __mul__(self, s):
        return MetricField(self.E * s, self.F * s, self.G * s)

    __rmul__ = __mul__

    def det(self):
        return self.E * self.G - self.F**2

    def eigenvalues(self):
        """Pointwise symmetric eigenvalues (lmin, lmax)."""
        mean = 0.5 * (self.E + self.G)
        rad = np.sqrt((0.5 * (self.E - self.G)) ** 2 + self.F**2)
        return mean - rad, mean + rad

    def min_eigenvalue(self):
        return float(np.min(self.eigenvalues()[0]))

    def require_positive_definite(self, what="metric"):
        m = self.min_eigenvalue()
        if not m > 0.0:
            raise SingularMetric("%s not positive definite: min eigenvalue %.3e" % (what, m))

    def require_psd(self, what="field"):
        m = self.min_eigenvalue()
        if not m >= -LONG_TOL:
            raise NotPSD("%s has eigenvalue %.3e below -%.1e" % (what, m, LONG_TOL))

    def inner(self, u, w):
        """g(u, w) for tangent vectors given as (..., 2) component arrays."""
        u = np.asarray(u, dtype=float)
        w = np.asarray(w, dtype=float)
        return (
            self.E * u[..., 0] * w[..., 0]
            + self.F * (u[..., 0] * w[..., 1] + u[..., 1] * w[..., 0])
            + self.G * u[..., 1] * w[..., 1]
        )

    def frobenius(self):
        """Pointwise Frobenius norm of the component matrix."""
        return np.sqrt(self.E**2 + 2.0 * self.F**2 + self.G**2)


@dataclass(frozen=True)
class LinearForm:
    """Constant linear form ell = a dx + b dy on the square."""

    a: float
    b: float

    def __post_init__(self):
        if self.a == 0.0 and self.b == 0.0:
            raise DomainError("zero linear form")

    @classmethod
    def from_angle(cls, theta):
        return cls(float(np.cos(theta)), float(np.sin(theta)))

    def phase(self, X, Y):
        """ell evaluated on position coordinates, a*X + b*Y."""
        return self.a * np.asarray(X, dtype=float) + self.b * np.asarray(Y, dtype=float)

    def of(self, u):
        """ell applied to tangent vectors with trailing axis of length 2."""
        u = np.asarray(u, dtype=float)
        return self.a * u[..., 0] + self.b * u[..., 1]

    def kernel_direction(self):
        return np.array([-self.b, self.a])

    def outer(self, eta):
        """eta * ell (x) ell as a MetricField; eta may be a scalar or array."""
        eta = np.asarray(eta, dtype=float)
        return MetricField(eta * self.a * self.a, eta * self.a * self.b, eta * self.b * self.b)


def form_norm(ell, g):
    """Pointwise norm of a constant 1-form with respect to metric field g."""
    d = g.det()
    if np.any(d <= 0.0):
        raise SingularMetric("form_norm needs a positive definite metric")
    q = (g.G * ell.a**2 - 2.0 * g.F * ell.a * ell.b + g.E * ell.b**2) / d
    return np.sqrt(np.maximum(q, 0.0))


@dataclass
class EmbeddingJet:
    """First order jet of a map C -> R^{2,1}: positions and both partials."""

    grid: Grid
    pos: np.ndarray
    dfx: np.ndarray
    dfy: np.ndarray

    def __post_init__(self):
        want = self.grid.shape + (3,)
        for name in ("pos", "dfx", "dfy"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != want:
                raise GridMismatch("%s has shape %s, expected %s" % (name, arr.shape, want))
            setattr(self, name, arr)

    def apply_d(self, u):
        """df(u) for tangent vectors u with trailing axis of length 2."""
        u = np.asarray(u, dtype=float)
        return u[..., 0:1] * self.dfx + u[..., 1:2] * self.dfy


def pullback_metric(f):
    """f*h as a MetricField: pairwise h-inner products of the partials."""
    return MetricField(
        minkowski_inner(f.dfx, f.dfx),
        minkowski_inner(f.dfx, f.dfy),
        minkowski_inner(f.dfy, f.dfy),
    )


def isometric_default(f, g):
    """Defect f*h - g, the amount of metric still to be absorbed."""
    if g.shape != f.grid.shape:
        raise GridMismatch("metric shape %s does not match grid %s" % (g.shape, f.grid.shape))
    return pullback_metric(f) - g


def require_long(f, g):
    """Raise NotLong unless f*h - g is positive semidefinite (within LONG_TOL)."""
    d = isometric_default(f, g)
    m = d.min_eigenvalue()
    if not m >= -LONG_TOL:
        raise NotLong("default min eigenvalue %.3e < -%.1e" % (m, LONG_TOL))
    return d


def _pencil_eigenvalues(B, g):
    """Eigenvalues of the pencil det(B - lambda g) = 0 for PD g, both (...)."""
    dg = g.det()
    if np.any(dg <= 0.0):
        raise SingularMetric("pencil needs a positive definite base metric")
    tr = B.E * g.G + B.G * g.E - 2.0 * B.F * g.F
    disc = tr**2 - 4.0 * dg * B.det()
    # Symmetric pencil with PD base: discriminant is nonnegative up to rounding.
    rad = np.sqrt(np.maximum(disc, 0.0))
    lo = (tr - rad) / (2.0 * dg)
    hi = (tr + rad) / (2.0 * dg)
    return lo, hi


def operator_norm_map(Ax, Ay, g):
    """Pointwise operator norm of a linear map into R^3.

    The map sends the coordinate basis of the tangent plane to the vectors
    Ax, Ay in R^3; the domain carries the metric field g, the target the
    Euclidean reference. Returns the per-node norm as an array.
    """
    Ax = np.asarray(Ax, dtype=float)
    Ay = np.asarray(Ay, dtype=float)
    B = MetricField(
        np.einsum("...i,...i->...", Ax, Ax),
        np.einsum("...i,...i->...", Ax, Ay),
        np.einsum("...i,...i->...", Ay, Ay),
    )
    _, hi = _pencil_eigenvalues(B, g)
    return np.sqrt(np.maximum(hi, 0.0))


def operator_norm_form(B, g):
    """Pointwise operator norm of a symmetric form field relative to g.

    Largest absolute generalized eigenvalue of det(B - lambda g) = 0; B may
    be indefinite, g must be positive definite.
    """
    lo, hi = _pencil_eigenvalues(B, g)
    return np.maximum(np.abs(lo), np.abs(hi))


def c0_distance(f1, f2):
    """Sup over nodes of the Euclidean distance between positions."""
    if f1.grid != f2.grid:
        raise GridMismatch("jets live on different grids")
    return float(np.max(euclidean_norm(f1.pos - f2.pos)))


def c1_increment(f1, f2, g):
    """Sup over nodes of the operator norm of df1 - df2 against g."""
    if f1.grid != f2.grid:
        raise GridMismatch("jets live on different grids")
    return float(np.max(operator_norm_map(f1.dfx - f2.dfx, f1.dfy - f2.dfy, g)))


@dataclass
class FrameField:
    """Adapted corrugation frame along an embedding for a given form.

    v, u are tangent-plane fields (shape grid + (2,)), f*h-orthonormal with
    v spanning ker ell; vhat, t are their images under df; n is the
    future-pointing h-unit timelike normal; dlu = ell(u) > 0.
    """

    v: np.ndarray
    u: np.ndarray
    vhat: np.ndarray
    t: np.ndarray
    n: np.ndarray
    dlu: np.ndarray


def corrugation_frame(f, ell):
    """Build the f*h-orthonormal frame adapted to a linear form.

    Parameters
    ----------
    f : EmbeddingJet
        Spacelike embedding jet.
    ell : LinearForm
        Nonzero constant form whose kernel directs the corrugation.

    Returns
    -------
    FrameField
        With v in ker ell normalized, u completing the orthonormal pair on
        the side where ell(u) > 0, and the ambient fields vhat = df(v),
        t = df(u), n the timelike unit normal.
    """
    g = pullback_metric(f)
    g.require_positive_definite(what="pullback")
    shape = f.grid.shape

    kd = ell.kernel_direction()
    v = np.broadcast_to(kd, shape + (2,)).copy()
    nv = np.sqrt(g.inner(v, v))
    v /= nv[..., None]

    w = np.broadcast_to(np.array([ell.a, ell.b]), shape + (2,)).copy()
    u = w - g.inner(w, v)[..., None] * v
    nu = np.sqrt(g.inner(u, u))
    if np.any(nu <= 0.0):
        raise SingularMetric("projection of the form direction collapsed")
    u /= nu[..., None]

    dlu = ell.of(u)
    if np.any(dlu <= 0.0):
        raise SingularMetric("frame orientation failed: ell(u) <= 0 somewhere")

    vhat = f.apply_d(v)
    t = f.apply_d(u)
    n = timelike_unit_normal(t, vhat)
    return FrameField(v=v, u=u, vhat=vhat, t=t, n=n, dlu=dlu)


def export_obj(f, path):
    """Write the jet positions as a triangulated OBJ mesh.

    Vertices appear in row-major node order; each grid quad is split into
    two triangles with consistent orientation. Floats carry 17 significant
    digits so the mesh round-trips the double values.
    """
    nx, ny = f.grid.shape
    vertex = "v " + " ".join([FLOAT_FMT] * 3) + "\n"
    with open(path, "w") as fh:
        for row in f.pos:
            fh.write("".join([vertex % tuple(p) for p in row.tolist()]))
        # quad (i, j) has 1-based corner v = i ny + j + 1; two triangles each
        for i in range(nx - 1):
            fh.write("".join([
                "f %d %d %d\nf %d %d %d\n" % (v, v + ny, v + ny + 1, v, v + ny + 1, v + 1)
                for v in range(i * ny + 1, (i + 1) * ny)
            ]))


def _cell(value):
    """One CSV cell: str as-is, bool and integers with %d, floats with FLOAT_FMT."""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, int, np.integer)):
        return "%d" % value
    return FLOAT_FMT % value


def write_table(path, header, rows):
    """Write a CSV of header names and one line per row, each cell typed by _cell.

    Serves the name,value tables (header ("name", "value")) and the ledger.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_grid_csv(path, columns):
    """Write fields over a grid as x_idx,y_idx,<names...> rows in row-major order.

    columns maps each name to an (nx, ny) array. Floats carry 17 significant
    digits, so read_grid_csv returns the doubles bitwise.
    """
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    row = "%d,%d," + ",".join([FLOAT_FMT] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(["x_idx", "y_idx"] + names) + "\n")
        for i in range(arrays[0].shape[0]):
            values = zip(*(a[i].tolist() for a in arrays))
            fh.writelines(row % (i, j, *v) for j, v in enumerate(values))


def read_grid_csv(path, names=None):
    """Read a grid CSV into {name: (nx, ny) array}, checking it on the way.

    names selects the value columns (default: all, in file order). The grid
    is inferred from the largest node indices. The header must be
    x_idx,y_idx followed by distinct names, every cell numeric, every value
    finite, and the rows must give each node of the grid exactly once with
    integral indices; anything else raises ConfigError naming the file.
    """
    with open(path) as fh:
        header = [name.strip() for name in fh.readline().split(",")]
        if header[:2] != ["x_idx", "y_idx"] or len(header) < 3 or len(set(header)) < len(header):
            raise ConfigError("%s: header must be x_idx,y_idx followed by distinct names" % path)
        try:
            with warnings.catch_warnings():
                # an empty body only warns; make it an error like a bad cell
                warnings.simplefilter("error")
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except (ValueError, UserWarning) as exc:
            raise ConfigError("%s: %s" % (path, exc)) from None
    if data.shape[1] != len(header):
        raise ConfigError("%s: %d header names but %d columns" % (path, len(header), data.shape[1]))
    names = header[2:] if names is None else list(names)
    missing = [name for name in names if name not in header]
    if missing:
        raise ConfigError("%s: no column %s" % (path, ",".join(missing)))
    if not np.all(np.isfinite(data)):
        raise ConfigError("%s: NaN or infinite value" % path)
    rows = len(data)
    idx = data[:, :2]
    if np.any(idx < 0.0) or np.any(idx >= rows) or np.any(idx != np.floor(idx)):
        raise ConfigError("%s: node indices must be integers in [0, %d)" % (path, rows))
    xi, yi = idx.astype(np.intp).T
    nx, ny = int(xi.max()) + 1, int(yi.max()) + 1
    seen = np.zeros(rows, dtype=bool)
    if nx * ny == rows:
        seen[xi * ny + yi] = True
    if not seen.all():
        raise ConfigError("%s: rows do not give each node of a %dx%d grid once" % (path, nx, ny))
    out = {}
    for name in names:
        out[name] = np.empty((nx, ny))
        out[name][xi, yi] = data[:, header.index(name)]
    return out


def write_metric_csv(path, mf):
    """Write a metric field as x_idx,y_idx,E,F,G rows in row-major order."""
    write_grid_csv(path, {"E": mf.E, "F": mf.F, "G": mf.G})


def read_metric_csv(path):
    """Read a metric field written by write_metric_csv; infers the grid."""
    c = read_grid_csv(path, ("E", "F", "G"))
    return MetricField(c["E"], c["F"], c["G"])


def read_scalar_csv(path):
    """Read the first value column of a grid CSV as an (nx, ny) array."""
    return next(iter(read_grid_csv(path).values()))
