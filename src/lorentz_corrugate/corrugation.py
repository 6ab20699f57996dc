"""One corrugation step and its quantitative audits.

A step replaces a spacelike jet f by

    F = f + (1/N) * r * (A_c(Nl) t + A_s(Nl) n),

where (t, n) come from the adapted frame for the form ell, r and the
amplitude alpha are chosen so the corrugated differential

    L = df + (gamma(Nl) - gammabar) (x) dl

pulls back exactly to mu = f*h - eta dl (x) dl. The loop family is

    gamma(s) = r (cosh(theta) t + sinh(theta) n),  theta = alpha cos(2 pi s),

whose average is gammabar = r phi(alpha) t with phi(alpha) the full-turn
average of cosh(alpha cos 2 pi s). A_c and A_s are the primitives of the
oscillating parts of cosh(theta) and sinh(theta); their harmonic expansions
terminate the everywhere-periodic integrals exactly, so both are short
harmonic sums whose coefficients are modified-Bessel values, tabulated once
per step. The true differential is dF = L + (1/N) D where D collects the
derivatives of the slowly varying fields at frozen oscillation phase; D is
formed by differencing the remainder field across neighbor nodes while
holding the phase fixed at the center node, one-sided at the boundary.

A probe at N sums the harmonics of a node and of its four neighbors (at the
node's phase) in one pass over k, running the sine recurrence in three rows
instead of an (orders + 1) x nodes table. sin_table and remainder_series do
the same arithmetic on whole tables as the tests' bitwise reference, and a
trapezoid evaluator is kept as an independent cross-check. prepare_step
makes everything that does not depend on N once per step: the input jet's
pullback (one evaluation, shared by the frame, mu and the growth audit)
and every N-independent audit term.

Probes and audits run in tiles: a tile is a range of rows by a range of
columns, of at most TILE_NODES nodes (at least one row). A tile reads its
nodes of the step and of the probe's metrics, and writes its nodes of the
output jet, through views cut by one rule from each per-node field's one
declaration (_Nodes). It also reads the neighbour line on each side of it
on both axes (its halo) for the frozen-phase differences, and reduces its
maxima and minima, which are then reduced across tiles. Every operation is
per node except those differences, so each node gets bitwise the value the
whole grid would give it, and the whole grid is the one-tile case. A probe
runs on one region of the grid, cut into tiles by one rule: the whole
grid, whose probe measures the step audits in the same walk, or a pair of
boundary lines (one stepped slice) that N-selection screens first. The
prepared step's fields cover the whole grid; prepare_step writes them
through the cuts of WORKERS row bands, one per thread, and takes its two
whole-grid decisions exactly across the bands (the Newton count and the
stop of the series behind phi), so every field is bitwise the one the
whole grid as one band gives.

A region of several tiles runs them on WORKERS threads (two where the
process may use two CPUs, else one), as prepare_step runs its row bands
and the grid writers their bands, on the lane runner in fields
(_in_lanes): the calling thread runs items 0, W, 2W, ... and a helper
started for the call each other residue mod W; tiles and bands are cut
into even runs of rows by one rule (_runs). Tiles write disjoint rows of
the output jet and every reduction is a max or a min, taken in tile order,
so the outputs are bitwise the same on any number of threads. Each numpy
call holds the GIL for its Python part, so a tile must be large enough for
its arithmetic to outweigh those hand-offs: two threads save under a tenth
of a 257 x 257 probe's time in tiles of 2^13 nodes and over a third in its
four tiles of about 2^14 nodes, two per thread. An odd tile count leaves
one thread a tile more. Each thread holds one tile's temporaries at a
time, so a probe's peak beyond its output jet is about WORKERS tiles'
worth. A boundary line pair is one tile and runs on the calling thread.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .bounds import ALPHA_CAP, growth_constant, increment_constant, phi, phi_prime
from .errors import (
    BudgetExceeded,
    DegeneratePlane,
    DomainError,
    EngineError,
    LostSpacelike,
    NotRiemannian,
)
from .fields import (
    LONG_TOL,
    EmbeddingJet,
    MetricField,
    _bands,
    _in_lanes,
    _runs,
    c1_increments,
    corrugation_frame,
    operator_norm_form,
    operator_norm_map,
    pullback_metric,
)
from .lorentz import euclidean_norm, minkowski_inner, timelike_unit_normal

SPACELIKE_TOL = 1e-10
# phi_inverse steps until |phi(alpha) - y| <= PHI_INVERSE_TOL * y at every
# node (y >= 1), and gives up after PHI_INVERSE_MAX_ITER Newton steps.
PHI_INVERSE_TOL = 1e-12
PHI_INVERSE_MAX_ITER = 61
# series_orders keeps the harmonics whose coefficients can exceed this.
SERIES_TOL = 1e-18
# Every N-selection climbs the doubling ladder N = 16, 32, ..., 2^20.
LADDER_START = 16
LADDER_CAP = 2**20
# Probes and audits run in tiles of at most this many nodes (at least one row
# of the region): a pair of 257-node boundary lines is one tile, a 257 x 257
# grid four.
TILE_NODES = 20000


def phi_quadrature(alpha, samples=4096):
    """Trapezoid cross-check of phi on a full period."""
    s = np.linspace(0.0, 1.0, samples + 1)
    vals = np.cosh(np.multiply.outer(np.asarray(alpha, dtype=float), np.cos(2.0 * np.pi * s)))
    return np.trapezoid(vals, s, axis=-1)


@dataclass
class AmplitudeSolveResult:
    """Solution of phi(alpha) = y with its number of Newton steps."""

    alpha: np.ndarray
    iterations: int


def phi_inverse(y, at_least=0):
    """Solve phi(alpha) = y for alpha >= 0 by Newton steps with phi_prime.

    phi <= cosh, so the start arccosh(y) is at or left of the root; phi is
    convex and increasing, so the first step lands at or right of it and
    later iterates decrease monotonically to it. Every node steps until all
    of them have |phi(alpha) - y| <= PHI_INVERSE_TOL * y; steps are clipped
    at ALPHA_CAP only. Deterministic and vectorized. y may be an
    array; values inside [1 - 1e-12, 1) are clamped to 1; smaller values,
    NaN, values above phi(ALPHA_CAP) and a solve that needs more than
    PHI_INVERSE_MAX_ITER steps raise DomainError. No count below at_least
    is returned: prepare_step holds a row band to the whole grid's count.
    """
    y = np.asarray(y, dtype=float)
    if not np.all(y >= 1.0 - 1e-12):
        raise DomainError("phi_inverse needs y >= 1, got min %.17g" % float(np.min(y)))
    if not np.all(y <= phi(ALPHA_CAP)):
        raise DomainError("amplitude beyond cap %g" % ALPHA_CAP)
    y = np.maximum(y, 1.0)
    tol = PHI_INVERSE_TOL * y
    a = np.arccosh(y)
    for iterations in range(PHI_INVERSE_MAX_ITER + 1):
        fa = phi(a) - y
        if iterations >= at_least and np.all(np.abs(fa) <= tol):
            return AmplitudeSolveResult(alpha=np.asarray(a), iterations=iterations)
        # phi_prime vanishes only at alpha = 0, where y = 1 is solved exactly
        step = np.divide(fa, phi_prime(a), out=np.zeros_like(fa), where=fa != 0.0)
        a = np.minimum(a - step, ALPHA_CAP)
    raise DomainError("phi_inverse took more than %d Newton steps" % PHI_INVERSE_MAX_ITER)


def radial_factor(eta, dlu):
    """Loop radius r = sqrt(1 - eta dl(u)^2) / dl(u).

    Raises NotRiemannian when eta dl(u)^2 >= 1 somewhere, since the
    intermediate metric mu = f*h - eta dl (x) dl degenerates there.
    """
    eta = np.asarray(eta, dtype=float)
    dlu = np.asarray(dlu, dtype=float)
    q = 1.0 - eta * dlu**2
    if np.any(q <= 0.0):
        raise NotRiemannian(
            "eta * dl(u)^2 reaches %.6g >= 1" % float(np.max(eta * dlu**2))
        )
    return np.sqrt(q) / dlu


def series_orders(alpha_max):
    """Number of harmonics so dropped coefficients are below SERIES_TOL."""
    a = max(float(alpha_max), 1e-6) / 2.0
    t = 1.0
    m = 0
    while t > SERIES_TOL and m < 200:
        m += 1
        t *= a / m
    return max(10, min(m + 6, 120))


def bessel_table(alpha, orders, alpha_max=None, out=None):
    """Modified Bessel values I_m(alpha) for m = 0..orders, per node.

    Downward recurrence on the ratios r_m = I_m / I_{m-1},
    r_m = alpha / (2m + alpha r_{m+1}), started at 0 well above the top
    order; then I_m = phi(alpha) r_1 ... r_m. Every r_m lies in [0, 1), so
    nothing overflows, and alpha = 0 gives r_m = 0 exactly. alpha may be
    any array. Agrees with library Bessel evaluations to ~1e-15 and is an
    order of magnitude faster on grid-sized batches.

    The start order follows alpha_max (default: the largest alpha), so a
    row band given its grid's alpha_max gets bitwise the grid's rows, and
    writes them into out (default: a new table) when given its columns.
    """
    z = np.asarray(alpha, dtype=float)
    top = float(np.max(z)) if alpha_max is None else alpha_max
    start = orders + int(np.sqrt(40.0 * max(top, 1.0))) + 14
    if out is None:
        out = np.empty((orders + 1,) + z.shape)
    r = np.zeros(z.shape)
    for m in range(start, 0, -1):
        # r = z / (2m + z r), in place
        np.multiply(z, r, out=r)
        r += 2.0 * m
        np.divide(z, r, out=r)
        if m <= orders:
            out[m] = r
    del r  # the ratios go before phi's series allocates
    out[0] = phi(z)
    # a running product row by row; np.cumprod along axis 0 is slower here
    for m in range(1, orders + 1):
        out[m] *= out[m - 1]
    return out


def _sine_rows(psi, cos_psi, orders):
    """Yield sin(k psi) for k = 1..orders by the three-term recurrence.

    S_k = 2 cos(psi) S_{k-1} - S_{k-2} from S_0 = 0, S_1 = sin(psi), in
    three rows that are reused: a yielded row is overwritten two steps later.
    """
    twoc = 2.0 * cos_psi
    prev = np.zeros(psi.shape)
    # out= keeps a 0-d row an array, so every row can be written in place
    cur = np.sin(psi, out=np.empty(psi.shape))
    nxt = np.empty(psi.shape)
    for k in range(1, orders + 1):
        if k > 1:
            np.multiply(twoc, cur, out=nxt)
            nxt -= prev
            prev, cur, nxt = cur, nxt, prev
        yield cur


def sin_table(x, orders):
    """sin(2 pi k x) for k = 0..orders, one row per k, via the three-term recurrence.

    The probe runs the same recurrence (_sine_rows) without storing the table;
    this table serves the cross-checks.
    """
    psi = 2.0 * np.pi * np.asarray(x, dtype=float)
    S = np.empty((orders + 1,) + psi.shape)
    S[0] = 0.0
    for k, row in enumerate(_sine_rows(psi, np.cos(psi), orders), 1):
        S[k] = row
    return S


def _add_harmonic(Ac, As, k, coeff_k, sine_k, term):
    """Add harmonic k, coeff_k sine_k / (pi k), to A_c (k even) or A_s (k odd)."""
    np.multiply(coeff_k, sine_k, out=term)
    term /= np.pi * k
    acc = Ac if k % 2 == 0 else As
    acc += term


def remainder_series(coeff, sines):
    """Oscillation primitives (A_c, A_s) from aligned coefficient/sine tables.

    A_c collects even harmonics of cosh(theta) - phi, A_s the odd harmonics
    of sinh(theta); both vanish at every integer phase. The probe sums the
    same harmonics by the same step (_harmonic_sums) without a sine table;
    this form serves the cross-checks.
    """
    Ac = np.zeros(coeff.shape[1:])
    As = np.zeros(coeff.shape[1:])
    term = np.empty(coeff.shape[1:])
    for k in range(1, coeff.shape[0]):
        _add_harmonic(Ac, As, k, coeff[k], sines[k], term)
    return Ac, As


_ALL = slice(None)


def _neighbours(lines, n):
    """(lo, hi) for the lines (a slice) of an n-line axis: their local
    indices lo.. have a - neighbour, those ..hi-1 a + neighbour."""
    lines = range(n)[lines]
    return int(0 in lines), len(lines) - int(n - 1 in lines)


def _slice(lines, shift=0):
    """The lines (a range) moved by shift, as a slice."""
    return slice(lines.start + shift, lines.stop + shift, lines.step)


def _cuts(tile, shape):
    """(coefficient cut, sine cut) of the centre and of its +x, -x, +y and -y
    neighbours on a tile (rows, cols) of a grid of this shape: a neighbour's
    coefficients read at the centre node's phase. Coefficient cuts index the
    whole grid, sine cuts the tile. Both axes follow one rule on the lines
    a slice selects (range(n)[slice]), stepped or not: a neighbour's cut
    covers the tile's lines that have that neighbour inside the grid."""
    cuts = [(tile, (_ALL, _ALL))]
    for axis, n in enumerate(shape):
        lines = range(n)[tile[axis]]
        lo, hi = _neighbours(tile[axis], n)
        plus = (_slice(lines[:hi], 1), slice(0, hi))
        minus = (_slice(lines[lo:], -1), slice(lo, len(lines)))
        for cut in (plus, minus):
            ccut, scut = list(tile), [_ALL, _ALL]
            ccut[axis], scut[axis] = cut
            cuts.append((tuple(ccut), tuple(scut)))
    return cuts


def _harmonic_sums(coeff, psi, cos_psi, cuts):
    """(A_c, A_s) for each (coefficient cut, sine cut) of cuts (see _cuts), in
    one pass over the harmonics.

    psi is the phase angle of the nodes the sine cuts index. For each cut
    this equals, bitwise, remainder_series on that cut of coeff and of
    sin_table(x), where psi = 2 pi x: the same recurrence and the same
    per-harmonic step, but three sine rows in place of an (orders + 1) x
    nodes table.
    """
    sums, work = [], []
    for ccut, scut in cuts:
        table = coeff[(_ALL,) + ccut]
        Ac, As = np.zeros(table.shape[1:]), np.zeros(table.shape[1:])
        sums.append((Ac, As))
        # the cut past a grid edge is empty: a tile on that edge has no such neighbour
        if Ac.size:
            work.append((table, scut, Ac, As, np.empty(Ac.shape)))
    for k, row in enumerate(_sine_rows(psi, cos_psi, coeff.shape[0] - 1), 1):
        for table, scut, Ac, As, term in work:
            _add_harmonic(Ac, As, k, table[k], row[scut], term)
    return sums


def remainder_quadrature(alpha, x, samples_per_period=64):
    """Trapezoid evaluation of the oscillation primitives on [0, x].

    Independent cross-check for the harmonic series; the integrand is
    resolved with samples_per_period points per unit of phase.
    """
    alpha = float(alpha)
    x = float(x)
    n = max(2, int(np.ceil(samples_per_period * max(x, 1.0 / samples_per_period))))
    s = np.linspace(0.0, x, n + 1)
    theta = alpha * np.cos(2.0 * np.pi * s)
    Ac = np.trapezoid(np.cosh(theta) - phi(alpha), s)
    As = np.trapezoid(np.sinh(theta), s)
    return Ac, As


@dataclass
class _JetRows:
    """A jet's arrays on some nodes, all that pullback_metric and c1_increments
    read: a Grid needs two lines on each axis, so a tile cannot carry one."""

    pos: np.ndarray
    dfx: np.ndarray
    dfy: np.ndarray


@dataclass(frozen=True)
class _Nodes:
    """A per-node field's axes, by which one rule allocates and cuts it: the
    grid's two node axes, after the table's harmonic axis if harmonic (first:
    a harmonic is one contiguous row), then the component axes tail. Given
    of (a metric, a jet's rows), the field is an of whose fields have them."""

    tail: tuple = ()
    harmonic: bool = False
    of: type | None = None

    def arrays(self, value):
        """value's arrays: value, or one for each field of of."""
        return [value] if self.of is None else [getattr(value, f.name) for f in fields(self.of)]

    def new(self, shape, orders=None):
        """The field on a grid of this shape, uninitialised; orders + 1 harmonic rows."""
        if self.of is not None:
            return self.of(*(np.empty(shape + self.tail) for _ in fields(self.of)))
        return np.empty(((orders + 1,) if self.harmonic else ()) + shape + self.tail)

    def at(self, value, index):
        """value on the nodes of index, rows or (rows, cols), as views; None stays None."""
        if value is None:
            return None
        if self.of is not None:
            return self.of(*(a[index] for a in self.arrays(value)))
        return value[(_ALL,) + np.index_exp[index]] if self.harmonic else value[index]


# a probe's output jet and metrics, cut to a tile by the rule of a step's fields
_JET, _METRIC = _Nodes((3,), of=_JetRows), _Nodes(of=MetricField)


def _nodes(*tail, harmonic=False, of=None):
    """A per-node field of StepParams with its axes; None until allocated."""
    return field(default=None, metadata={"nodes": _Nodes(tail, harmonic, of)})


@dataclass
class StepParams:
    """Everything about a corrugation step that does not depend on N.

    pullback is f*h of the input jet f, made once. The N-independent
    audit terms come with it: average_max is sup |r phi(alpha) - 1/dl(u)|,
    envelope = M sqrt(eta) dl(u) (|t| + |n|) with M the increment constant
    bounds the u-direction C1 shift up to the O(1/N) slack, and the growth
    constant K times base bounds the new differential and normal in the
    norm of pullback. Of the adapted frame it keeps what probes and audits
    read: t, n and the tangent field u.

    The input jet, eight arrays, the coefficient table and two metrics are
    per-node fields over the whole grid, each declared once below with its
    axes (_nodes), which alone allocate them and cut the step to some nodes
    (at: views, f as a _JetRows, scalars kept). prepare_step's row bands
    write through their cuts, a probe's tiles read through theirs, and the
    differences read around a tile (_cuts). The grid spacing is f.grid's.
    """

    f: EmbeddingJet = _nodes(3, of=_JetRows)
    t: np.ndarray = _nodes(3)
    n: np.ndarray = _nodes(3)
    u: np.ndarray = _nodes(2)
    r: np.ndarray = _nodes()
    alpha: np.ndarray = _nodes()
    coeff: np.ndarray = _nodes(harmonic=True)
    phase0: np.ndarray = _nodes()
    mu: MetricField = _nodes(of=MetricField)
    pullback: MetricField = _nodes(of=MetricField)
    envelope: np.ndarray = _nodes()
    base: np.ndarray = _nodes()
    eta_max: float = None
    ell: object = None
    alpha_max: float = None
    orders: int = None
    average_max: float = None
    increment_constant: float = None
    growth_constant: float = None

    def allocate(self):
        """Allocate each per-node field that is None; a harmonic one once orders is set."""
        for name, nodes in _DECLARED.items():
            if getattr(self, name) is None and not (nodes.harmonic and self.orders is None):
                setattr(self, name, nodes.new(self.f.grid.shape, self.orders))

    def at(self, index):
        """The step on the nodes of index, a (rows, cols) pair or rows."""
        return replace(self, **{n: d.at(getattr(self, n), index) for n, d in _DECLARED.items()})

    def write(self, **values):
        """Copy each value into the per-node field of its name: through a cut's views."""
        for name, value in values.items():
            nodes = _DECLARED[name]
            for view, array in zip(nodes.arrays(getattr(self, name)), nodes.arrays(value)):
                view[...] = array


_DECLARED = {f.name: f.metadata["nodes"] for f in fields(StepParams) if "nodes" in f.metadata}


@dataclass
class CorrugationStepRecord:
    """Measured quantities and audits of one applied corrugation."""

    N: int
    alpha_max: float
    orders: int
    eta_max: float
    sup_default: float
    c0_shift: float
    c1_shift: float
    c1_shift_euclid: float
    spacelike_min: float
    audits: dict = field(default_factory=dict)


def prepare_step(f, eta, ell):
    """Frame, radius, amplitude, coefficient tables and audit terms for a step.

    The grid is cut into WORKERS row bands (_bands), run on as many
    threads (_in_lanes), and every per-node field is written by its band
    into one whole-grid array. Each node gets bitwise the value the whole
    grid would give it, although two decisions look at every node:

    - phi_inverse steps all nodes until every one has converged. Each band
      steps until it first converges; the bands short of the largest count
      are solved again (_solve_band), phi_inverse(y, at_least=count), and
      while one has not converged there the largest count grows, until
      every band has converged at one count. That is the first count at
      which all nodes have converged, the whole grid's count.
    - The series behind phi stops on its largest term over the nodes it is
      given, and that stop is exact on any band (bounds._bessel_series).
      The coefficient table's orders and its recurrence start follow the
      grid's largest amplitude.

    A band checks only its own rows, and an EngineError's message names an
    extreme over the nodes checked. So when a band raises one, the step is
    prepared again as one band, the whole grid on the calling thread,
    which raises what the whole-grid order of checks raises. A band may be
    one row: it reads the jet's rows (_JetRows), never a Grid.
    """
    eta = np.asarray(eta, dtype=float)
    if eta.shape != f.grid.shape:
        raise DomainError("eta shape %s does not match grid" % (eta.shape,))
    if np.any(eta < 0.0):
        raise DomainError("eta must be nonnegative")
    bands = _bands(f.grid.nx)
    if len(bands) > 1:
        try:
            return _prepare(f, eta, ell, bands)
        except EngineError:
            # raised below as the whole grid raises it
            pass
    return _prepare(f, eta, ell, [slice(0, f.grid.nx)])


def _prepare(f, eta, ell, bands):
    """prepare_step on these row bands, in walks over them: the fields that
    do not depend on alpha with a first Newton solve, the solves again of
    the bands short of the largest count until all counts agree, then the
    coefficient table and the terms that read alpha or the grid's largest
    amplitude."""
    step = StepParams(f=f, eta_max=float(np.max(eta)), ell=ell)
    step.allocate()
    ys, counts = zip(*_in_lanes(partial(_frame_band, step, eta), bands))
    count = max(counts)
    # the bands short of the largest count solve again until all counts agree
    while min(counts) < count:
        counts = _in_lanes(partial(_solve_band, step, count), list(zip(bands, ys, counts)))
        count = max(counts)
    # the targets go before the coefficient table allocates
    del ys
    step.alpha_max = float(np.max(step.alpha))
    step.orders = series_orders(step.alpha_max)
    step.allocate()
    amplitude = max(step.alpha_max, 1e-12)
    step.increment_constant = increment_constant(amplitude)
    step.growth_constant = growth_constant(amplitude)
    step.average_max = float(np.max(_in_lanes(partial(_table_band, step, eta), bands)))
    return step


def _frame_band(step, eta, rows):
    """Write the step's fields that do not depend on alpha on a band of rows,
    and solve the band's amplitude; returns the solve's target y and count."""
    band, eta = step.at(rows), eta[rows]
    g = pullback_metric(band.f)
    frame = corrugation_frame(band.f, step.ell, g)
    band.write(t=frame.t, n=frame.n, u=frame.u, pullback=g, mu=g - step.ell.outer(eta))
    band.write(phase0=step.ell.phase(step.f.grid.x[rows, None], step.f.grid.y))
    dlu = frame.dlu
    # the frame's other fields go before the amplitude solve allocates
    del frame, g
    r = radial_factor(eta, dlu)
    # average condition: the loop average r phi(alpha) equals 1 / dl(u)
    y = 1.0 / (r * dlu)
    solve = phi_inverse(y)
    band.write(alpha=solve.alpha, r=r)
    n_norm = euclidean_norm(band.n)
    band.write(base=operator_norm_map(band.f.dfx, band.f.dfy, band.pullback) + n_norm)
    # the frame's norms; _table_band scales them to the envelope
    band.write(envelope=euclidean_norm(band.t) + n_norm)
    return y, solve.iterations


def _solve_band(step, at_least, band):
    """A band (rows, y, count) solved at a count below at_least is solved
    again, to the first count of at least at_least at which it has
    converged; returns the band's count."""
    rows, y, count = band
    if count < at_least:
        solve = phi_inverse(y, at_least=at_least)
        step.at(rows).write(alpha=solve.alpha)
        count = solve.iterations
    return count


def _table_band(step, eta, rows):
    """Write the coefficient table's columns and the envelope on a band of
    rows; returns the band's average_max."""
    band = step.at(rows)
    table = bessel_table(band.alpha, step.orders, step.alpha_max, band.coeff)
    dlu = step.ell.of(band.u)
    band.envelope *= step.increment_constant * np.sqrt(eta[rows]) * dlu
    return np.max(np.abs(band.r * table[0] - 1.0 / dlu))


def _loop_differential(params, theta):
    """Corrugated differential pair (L dx, L dy) at loop angle theta, one
    vector component at a time."""
    ch = np.cosh(theta) - params.coeff[0]
    sh = np.sinh(theta)
    Lx = np.empty(params.f.dfx.shape)
    Ly = np.empty(params.f.dfy.shape)
    for c in range(3):
        gap = params.r * (ch * params.t[..., c] + sh * params.n[..., c])
        Lx[..., c] = params.f.dfx[..., c] + params.ell.a * gap
        Ly[..., c] = params.f.dfy[..., c] + params.ell.b * gap
    return Lx, Ly


def _remainder_field(params, Ac, As, sel, W):
    """W = r (A_c t + A_s n) with the slow fields sliced by sel, one component
    at a time, written into W; returns W."""
    r = params.r[sel]
    term = np.empty(Ac.shape)
    for c in range(3):
        Wc = W[..., c]
        np.multiply(Ac, params.t[sel + (c,)], out=Wc)
        np.multiply(As, params.n[sel + (c,)], out=term)
        Wc += term
        Wc *= r
    return W


def _difference(D, W, Wp, Wm, lo, hi, h):
    """Frozen-phase difference along axis 0 into D from the centre W, the +
    neighbours Wp of lines ..hi-1 and the - neighbours Wm of lines lo..:
    central where a line has both, one-sided on the grid's first line
    (lo = 1) and last line (hi short of D)."""
    D[lo:hi] = (Wp[lo:] - Wm[: hi - lo]) / (2.0 * h)
    if lo:
        D[0] = (Wp[0] - W[0]) / h
    if hi < len(D):
        D[-1] = (W[-1] - Wm[-1]) / h


def _remainder_jet(params, tile, psi, cos_psi, out):
    """The remainder W = r (A_c t + A_s n) at phase angle psi and its
    frozen-phase derivatives on a tile of the grid, written into out's pos,
    dfx and dfy.

    One pass over the harmonics (_harmonic_sums) gives the centre's sums
    and those of its four neighbours at the centre's phase, so only the
    slow fields are differenced, both axes by one routine (_difference).
    Neighbours outside the tile are its halo, read from the step's
    whole-grid fields.
    """
    grid = params.f.grid
    cuts = _cuts(tile, grid.shape)
    sums = _harmonic_sums(params.coeff, psi, cos_psi, cuts)
    W, *neighbours = [
        _remainder_field(params, Ac, As, ccut, out.pos if i == 0 else np.empty(Ac.shape + (3,)))
        for i, ((Ac, As), (ccut, _)) in enumerate(zip(sums, cuts))
    ]
    for axis, (D, h) in enumerate(((out.dfx, grid.hx), (out.dfy, grid.hy))):
        Wp, Wm = neighbours[2 * axis : 2 * axis + 2]
        lo, hi = _neighbours(tile[axis], grid.shape[axis])
        _difference(*(a.swapaxes(0, axis) for a in (D, W, Wp, Wm)), lo, hi, h)


def _whole(shape):
    """The region (rows, cols) that is a whole grid of this shape."""
    return (slice(0, shape[0]), slice(0, shape[1]))


def _tiles(region, shape):
    """Tiles covering a region (rows, cols) of a grid of this shape in order,
    each with its rows in an output shaped like the region: runs of the
    region's rows (_runs), each of at most max(TILE_NODES // width, 1) rows,
    with all of its columns."""
    rows, cols = (range(n)[lines] for lines, n in zip(region, shape))
    count = -(-len(rows) // max(TILE_NODES // len(cols), 1))
    return [((_slice(rows[run]), region[1]), run) for run in _runs(len(rows), count)]


def _phase(params, N):
    """psi = 2 pi frac(N phase0) and cos(psi), psi made in place: bitwise
    2 pi (x - floor(x)) with x = N phase0."""
    psi = params.phase0 * float(N)
    psi -= np.floor(psi)
    psi *= 2.0 * np.pi
    return psi, np.cos(psi)


@dataclass
class _Probe:
    """The corrugated jet at one N on a region of the grid (out, shaped like
    the region) and the quantities acceptance reads.

    Each quantity is a max (defect, C0 shift) or a min (spacelike and
    long-for-next eigenvalues) over the region's nodes; long_min is None
    when no next metric was given. audits holds each tile's step audits
    (_tile_audits) on the whole grid, and None per tile elsewhere.
    """

    N: int
    out: _JetRows
    sup_default: float
    spacelike_min: float
    c0_shift: float
    long_min: float | None
    audits: tuple


def _node_values(params, out, gF, norm_metric, next_metric):
    """Per-node defect, spacelike eigenvalue, C0 shift and long-for-next eigenvalue."""
    d = out.pos - params.f.pos
    return (
        operator_norm_form(gF - params.mu, norm_metric),
        gF.lower_eigenvalue(),
        euclidean_norm(d),
        None if next_metric is None else (gF - next_metric).lower_eigenvalue(),
    )


def _probe_tile(params, N, tile, new, norm_metric, next_metric, audited):
    """Corrugate a tile of the grid at N into new, the tile's output arrays;
    the extremes of the acceptance values over its nodes and, when audited,
    the tile's step audits from the loop angle and differential made here."""
    step = params.at(tile)
    psi, cos_psi = _phase(step, N)
    _remainder_jet(params, tile, psi, cos_psi, new)
    theta = step.alpha * cos_psi
    Lx, Ly = _loop_differential(step, theta)
    # in place, bitwise f + W / N and L + D / N: addition commutes exactly
    for remainder, base in ((new.pos, step.f.pos), (new.dfx, Lx), (new.dfy, Ly)):
        remainder /= float(N)
        remainder += base
    gF = pullback_metric(new)
    norm_tile, next_tile = _METRIC.at(norm_metric, tile), _METRIC.at(next_metric, tile)
    defect, spacelike, c0, long = _node_values(step, new, gF, norm_tile, next_tile)
    extremes = np.max(defect), np.min(spacelike), np.max(c0), None if long is None else np.min(long)
    return *extremes, _tile_audits(step, new, norm_tile, theta, Lx, Ly) if audited else None


def _probe(params, N, norm_metric, next_metric, region):
    """Corrugate at N on a region (rows, cols) of the grid; measure what
    acceptance reads over its nodes.

    The region runs tile by tile (_probe_tile), on WORKERS threads when it
    has more than one tile (_in_lanes), into one output jet, allocated once
    and shaped like the region, so a boundary line pair touches no
    whole-grid output. Tiles write disjoint rows of it, and their maxima
    and minima are reduced here in tile order, which is exact. A whole-grid
    probe measures its step audits in the same walk.
    """
    if N < 1:
        raise DomainError("corrugation number must be positive")
    shape = params.f.grid.shape
    out = _JET.new(params.phase0[region].shape)
    audited = region == _whole(shape)

    def run(tile_rows):
        tile, rows = tile_rows
        return _probe_tile(params, N, tile, _JET.at(out, rows), norm_metric, next_metric, audited)

    defect, spacelike, c0, long, audits = zip(*_in_lanes(run, _tiles(region, shape)))
    return _Probe(
        N=N,
        out=out,
        sup_default=float(np.max(defect)),
        spacelike_min=float(np.min(spacelike)),
        c0_shift=float(np.max(c0)),
        long_min=None if next_metric is None else float(np.min(long)),
        audits=audits,
    )


def _failures(probe, epsilon, c0_budget):
    """The acceptance tests of N-selection that the probe fails, each with its measured value.

    C0 is tested only with a budget, long-for-next only with a next metric;
    an empty list accepts the probe.
    """
    failed = []
    if not probe.sup_default <= epsilon:
        failed.append("defect %.6e > %.6e" % (probe.sup_default, epsilon))
    if not probe.spacelike_min > SPACELIKE_TOL:
        failed.append(
            "spacelike min eigenvalue %.6e <= %.6e" % (probe.spacelike_min, SPACELIKE_TOL)
        )
    if c0_budget is not None and not probe.c0_shift <= c0_budget:
        failed.append("C0 shift %.6e > %.6e" % (probe.c0_shift, c0_budget))
    if probe.long_min is not None and not probe.long_min >= -LONG_TOL:
        failed.append("long-for-next min eigenvalue %.6e < %.6e" % (probe.long_min, -LONG_TOL))
    return failed


def _rungs(shape):
    """The regions N-selection probes in turn, one per rung: the grid's
    first and last rows, its first and last columns (each pair one stepped
    region), then the whole grid."""
    nx, ny = shape
    rows, cols = _whole(shape)
    return [(slice(0, nx, nx - 1), cols), (rows, slice(0, ny, ny - 1)), (rows, cols)]


def _step_record(params, probe):
    """The jet of a whole-grid probe and its record: the maxima of its tiles'
    C1 shifts and audits, and the step's N-independent terms. A probe that
    is not spacelike somewhere has no unit normal there: its actual-normal
    audits are infinite. A spacelike probe raises its first DegeneratePlane."""
    tiles = probe.audits
    spacelike = probe.spacelike_min > SPACELIKE_TOL
    errors = [tile["degenerate"] for tile in tiles if "degenerate" in tile]
    if spacelike and errors:
        raise errors[0]

    def peak(name):
        return float(np.max([tile[name] for tile in tiles]))

    def actual(name):
        return peak(name) if spacelike else float("inf")

    record = CorrugationStepRecord(
        N=int(probe.N),
        alpha_max=params.alpha_max,
        orders=params.orders,
        eta_max=params.eta_max,
        sup_default=probe.sup_default,
        c0_shift=probe.c0_shift,
        c1_shift=peak("c1_shift"),
        c1_shift_euclid=peak("c1_shift_euclid"),
        spacelike_min=probe.spacelike_min,
        audits={
            "identity_max": peak("identity_max"),
            "average_max": params.average_max,
            "normal_unit_predicted": peak("normal_unit_predicted"),
            "normal_ortho_predicted": peak("normal_ortho_predicted"),
            "normal_ortho_exact": peak("normal_ortho_exact"),
            "normal_unit_actual": actual("normal_unit_actual"),
            "normal_ortho_actual": actual("normal_ortho_actual"),
            "normal_ortho_budget": 10.0 / float(probe.N),
            "increment_margin": peak("increment_margin"),
            "growth_margin": peak("growth_margin"),
            "normal_growth_margin": actual("normal_growth_margin"),
            "increment_constant": params.increment_constant,
            "growth_constant": params.growth_constant,
        },
    )
    return EmbeddingJet(params.f.grid, probe.out.pos, probe.out.dfx, probe.out.dfy), record


def apply_corrugation(params, N, raise_on_loss=True):
    """Apply the corrugation at corrugation number N and audit the result.

    The defect and the C1 shift are measured against the step's own
    intermediate metric mu.
    """
    probe = _probe(params, N, params.mu, None, _whole(params.f.grid.shape))
    if raise_on_loss and probe.spacelike_min <= SPACELIKE_TOL:
        raise LostSpacelike(
            "corrugated jet min eigenvalue %.3e at N=%d" % (probe.spacelike_min, N)
        )
    return _step_record(params, probe)


def _unit_defect(n):
    """max |h(n, n) + 1|: how far n is from an h-unit timelike vector."""
    return float(np.max(np.abs(minkowski_inner(n, n) + 1.0)))


def _ortho_defect(n, ax, ay):
    """max |h(n, a)| over both vector fields a of the pair (ax, ay)."""
    return float(
        max(np.max(np.abs(minkowski_inner(n, ax))), np.max(np.abs(minkowski_inner(n, ay))))
    )


def _predicted_normal_audits(step, theta, new, Lx, Ly):
    """Unit and orthogonality defects of n_L = sinh(theta) t + cosh(theta) n.

    Against the corrugated jet's differential and against L itself.
    """
    sh = np.sinh(theta)
    ch = np.cosh(theta)
    nL = np.empty(step.n.shape)
    for c in range(3):
        nL[..., c] = sh * step.t[..., c] + ch * step.n[..., c]
    return (
        _unit_defect(nL),
        _ortho_defect(nL, new.dfx, new.dfy),
        _ortho_defect(nL, Lx, Ly),
    )


def _actual_normal_audits(out):
    """Unit and orthogonality defects of the jet's own unit normal, and its Euclidean norm."""
    nF = timelike_unit_normal(out.dfx, out.dfy)
    return _unit_defect(nF), _ortho_defect(nF, out.dfx, out.dfy), euclidean_norm(nF)


def _increment_margin(params, new, Lx, Ly):
    """max of |dF(u) - t| - envelope - |dF(u) - L(u)| over nodes.

    The u-direction C1 shift is controlled by the amplitude envelope plus the
    O(1/N) remainder slack.
    """
    u0, u1 = params.u[..., 0:1], params.u[..., 1:2]
    du_new = u0 * new.dfx + u1 * new.dfy
    lhs = euclidean_norm(du_new - params.t)
    slack = euclidean_norm(du_new - (u0 * Lx + u1 * Ly))
    return float(np.max(lhs - params.envelope - slack))


def _tile_audits(step, new, norm_metric, theta, Lx, Ly):
    """The C1 shifts (against norm_metric, then Euclidean) and the step
    audits that vary by node, each its max over a tile, from the jet new and
    the loop angle and differential the probe made; a DegeneratePlane is
    kept for _step_record. Each group of audits runs in its own function,
    so its temporaries are freed before the next group allocates."""
    c1, c1_euclid = c1_increments(new, step.f, (norm_metric, None))
    mu = step.mu
    identity_max = max(
        np.max(np.abs(minkowski_inner(Lx, Lx) - mu.E)),
        np.max(np.abs(minkowski_inner(Lx, Ly) - mu.F)),
        np.max(np.abs(minkowski_inner(Ly, Ly) - mu.G)),
    )
    unit_pred, ortho_pred, ortho_exact = _predicted_normal_audits(step, theta, new, Lx, Ly)
    # Growth bound: K controls the new differential and normal against the
    # old ones in the pullback operator norm.
    K = step.growth_constant
    audits = {
        "c1_shift": c1,
        "c1_shift_euclid": c1_euclid,
        "identity_max": identity_max,
        "normal_unit_predicted": unit_pred,
        "normal_ortho_predicted": ortho_pred,
        "normal_ortho_exact": ortho_exact,
        "increment_margin": _increment_margin(step, new, Lx, Ly),
        "growth_margin": np.max(operator_norm_map(new.dfx, new.dfy, step.pullback) - K * step.base),
    }
    try:
        unit_actual, ortho_actual, normal_norm = _actual_normal_audits(new)
    except DegeneratePlane as error:
        # without its traceback, whose frames would hold the tile's arrays
        audits["degenerate"] = error.with_traceback(None)
    else:
        audits["normal_unit_actual"] = unit_actual
        audits["normal_ortho_actual"] = ortho_actual
        audits["normal_growth_margin"] = np.max(normal_norm - K * step.base)
    return audits


def select_corrugation_number(
    f,
    eta,
    ell,
    epsilon,
    norm_metric=None,
    c0_budget=None,
    next_metric=None,
):
    """Smallest doubling N whose corrugated jet meets every acceptance bound.

    Tries N = 16, 32, ..., 2^20 (LADDER_START doubling up to LADDER_CAP);
    accepts when the measured defect against mu is at most epsilon, the
    output stays spacelike, the position shift fits c0_budget (when given)
    and the output remains long for next_metric (when given). Raises
    BudgetExceeded past LADDER_CAP, naming the form, epsilon and the tests
    the last rung failed with their measured values.

    Each N is probed on three rungs in turn (_rungs), and the first that
    fails rejects it: the grid's first and last rows, its first and last
    columns, which cost a few percent of a whole-grid probe, then the whole
    grid. A pair of boundary lines is a region of tiles like the whole
    grid's, whose halo reads each line's inner neighbour, so it gets
    bitwise the whole-grid probe's values. Every acceptance quantity is a
    max or a min over nodes, so a violation on the lines proves that the
    whole grid fails: the lines can only reject an N the whole-grid probe
    would reject, and the chosen N is the one the whole-grid probe alone
    chooses. Only the accepted N's audits make a record, which equals the
    one apply_corrugation gives at that N.
    """
    params = prepare_step(f, eta, ell)
    if norm_metric is None:
        norm_metric = params.mu
    rungs = _rungs(f.grid.shape)
    N = LADDER_START
    while N <= LADDER_CAP:
        for region in rungs:
            # drop the previous rung's probe before this one allocates: held
            # through a whole-grid probe, its line-pair jet adds to that peak
            probe = None
            probe = _probe(params, N, norm_metric, next_metric, region)
            failed = _failures(probe, epsilon, c0_budget)
            if failed:
                break
        else:
            return _step_record(params, probe)
        N *= 2
    where = "whole grid" if region is rungs[-1] else "boundary lines"
    raise BudgetExceeded(
        "no corrugation number up to %d met the bounds for form (%.3g, %.3g) at per-step"
        " budget %.6e; N=%d fails on the %s: %s"
        % (LADDER_CAP, ell.a, ell.b, epsilon, N // 2, where, ", ".join(failed))
    )


def successive_cp(
    f,
    decomposition,
    epsilon_per_step,
    norm_metric=None,
    c0_budget_per_step=None,
    final_long_for=None,
):
    """Corrugate once per pair of decomposition.active(), in dictionary order.

    Returns the final jet and the step records.
    """
    records = []
    cur = f
    active = decomposition.active()
    for idx, (ell, eta) in enumerate(active):
        last = idx == len(active) - 1
        cur, rec = select_corrugation_number(
            cur,
            eta,
            ell,
            epsilon_per_step,
            norm_metric=norm_metric,
            c0_budget=c0_budget_per_step,
            next_metric=final_long_for if last else None,
        )
        records.append(rec)
    return cur, records
