"""Grids, metric fields, linear forms, embedding jets and their norms.

Everything lives on a regular grid over the unit square C = [0,1]^2. A first
order jet stores positions and both partial derivative fields explicitly;
derivatives are exact data, never finite differences of the positions.
"""
from __future__ import annotations

import io
import os
import shutil
import tempfile
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import cache, cached_property

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
        """g(u, w) for tangent vectors given as (..., 2) component arrays; a
        (2,) array is one vector for every node."""
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


def apply_d(f, u):
    """df(u) for tangent vectors u with trailing axis of length 2, for a jet
    or any object with its dfx and dfy (the rows of a jet)."""
    u = np.asarray(u, dtype=float)
    return u[..., 0:1] * f.dfx + u[..., 1:2] * f.dfy


def pullback_metric(f):
    """f*h as a MetricField: pairwise h-inner products of the partials."""
    return MetricField(
        minkowski_inner(f.dfx, f.dfx),
        minkowski_inner(f.dfx, f.dfy),
        minkowski_inner(f.dfy, f.dfy),
    )


def isometric_default(f, g):
    """Defect f*h - g, the amount of metric still to be absorbed."""
    return pullback_metric(f) - g


def require_long(f, g):
    """Raise NotLong unless f*h - g is positive semidefinite (within LONG_TOL)."""
    d = isometric_default(f, g)
    m = d.min_eigenvalue()
    if not m >= -LONG_TOL:
        raise NotLong("default min eigenvalue %.3e < -%.1e" % (m, LONG_TOL))
    return d


def _pencil(B, g):
    """(tr, rad, 2 det g) of the pencil det(B - lambda g) = 0 for PD g, or
    for the identity when g is None: its eigenvalues are (tr -+ rad) / (2 det g).

    The identity pencil is bitwise the general one at E = G = 1, F = 0:
    det g = 1 and tr = B.E + B.G.
    """
    if g is None:
        dg, tr = 1.0, B.E + B.G
    else:
        dg = g.det()
        if np.any(dg <= 0.0):
            raise SingularMetric("pencil needs a positive definite base metric")
        tr = B.E * g.G + B.G * g.E - 2.0 * B.F * g.F
    disc = tr**2 - 4.0 * dg * B.det()
    # Symmetric pencil with PD base: discriminant is nonnegative up to rounding.
    return tr, np.sqrt(np.maximum(disc, 0.0)), 2.0 * dg


def operator_norm_map(Ax, Ay, g):
    """Pointwise operator norm of a linear map into R^3.

    The map sends the coordinate basis of the tangent plane to the vectors
    Ax, Ay in R^3; the domain carries the metric field g, the target the
    Euclidean reference. Returns the per-node norm as an array.
    """
    return _map_norm(_gram(Ax, Ay), g)


def _gram(Ax, Ay):
    """Euclidean Gram field of the vector fields Ax, Ay as a MetricField."""
    Ax = np.asarray(Ax, dtype=float)
    Ay = np.asarray(Ay, dtype=float)
    return MetricField(
        np.einsum("...i,...i->...", Ax, Ax),
        np.einsum("...i,...i->...", Ax, Ay),
        np.einsum("...i,...i->...", Ay, Ay),
    )


def _map_norm(B, g):
    """Pointwise operator norm against g (the identity when None) of a map
    whose Gram field is B: the root of the pencil's upper eigenvalue."""
    tr, rad, dg2 = _pencil(B, g)
    tr += rad
    tr /= dg2
    return np.sqrt(np.maximum(tr, 0.0))


def operator_norm_form(B, g):
    """Pointwise operator norm of a symmetric form field relative to g.

    Largest absolute generalized eigenvalue of det(B - lambda g) = 0; B may
    be indefinite, g must be positive definite.
    """
    tr, rad, dg2 = _pencil(B, g)
    return np.maximum(np.abs((tr - rad) / dg2), np.abs((tr + rad) / dg2))


def c0_distance(f1, f2):
    """Sup over nodes of the Euclidean distance between positions."""
    if f1.grid != f2.grid:
        raise GridMismatch("jets live on different grids")
    return float(np.max(euclidean_norm(f1.pos - f2.pos)))


def c1_increments(f1, f2, metrics):
    """Sup over nodes of the operator norm of df1 - df2 against each g in
    metrics, in order; None stands for the Euclidean (identity) metric.

    f1 and f2 are jets on one grid, or any two objects whose dfx and dfy
    have one shape (the rows of a jet). The difference df1 - df2 and its
    Gram field are formed once and shared by every metric.
    """
    _same_shape(f1.dfx, f2.dfx)
    B = _gram(f1.dfx - f2.dfx, f1.dfy - f2.dfy)
    return [float(np.max(_map_norm(B, g))) for g in metrics]


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


def corrugation_frame(f, ell, g):
    """Build the f*h-orthonormal frame adapted to a linear form.

    Parameters
    ----------
    f : EmbeddingJet
        Spacelike embedding jet, or any object with its dfx and dfy (the
        rows of a jet, as prepare_step passes a row band).
    ell : LinearForm
        Nonzero constant form whose kernel directs the corrugation.
    g : MetricField
        The pullback f*h, which the caller makes once and reuses; it is
        checked positive definite here.

    Returns
    -------
    FrameField
        With v in ker ell normalized, u completing the orthonormal pair on
        the side where ell(u) > 0, and the ambient fields vhat = df(v),
        t = df(u), n the timelike unit normal.
    """
    g.require_positive_definite(what="pullback")

    # the kernel and form directions are constant: one (2,) vector each
    kd = ell.kernel_direction()
    v = kd / np.sqrt(g.inner(kd, kd))[..., None]

    w = np.array([ell.a, ell.b])
    u = w - g.inner(w, v)[..., None] * v
    nu = np.sqrt(g.inner(u, u))
    if np.any(nu <= 0.0):
        raise SingularMetric("projection of the form direction collapsed")
    u /= nu[..., None]

    dlu = ell.of(u)
    if np.any(dlu <= 0.0):
        raise SingularMetric("frame orientation failed: ell(u) <= 0 somewhere")

    vhat = apply_d(f, v)
    t = apply_d(f, u)
    n = timelike_unit_normal(t, vhat)
    return FrameField(v=v, u=u, vhat=vhat, t=t, n=n, dlu=dlu)


# ------------------------------------------------------------------ lanes
#
# Work cut into runs of rows goes to WORKERS threads (_in_lanes): a probe's
# tiles and prepare_step's bands in the engine, and a large write's bands
# below. numpy releases the GIL inside each call, so a thread pays where a
# call's arithmetic outweighs its Python part.

# Two, or one where the process may use a single CPU.
WORKERS = min(
    2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)


def _runs(n, count):
    """count runs of range(n) in order, as slices, as even as their count
    allows: row bands, tiles and write bands are cut by this one rule."""
    return [slice(n * i // count, n * (i + 1) // count) for i in range(count)]


def _bands(n):
    """One run of range(n) a lane: min(WORKERS, n) of them (_runs)."""
    return _runs(n, min(WORKERS, n))


def _in_lanes(run, items):
    """[run(item) for item in items], in lanes: the calling thread runs items
    0, W, 2W, ... and one helper thread for each other residue mod
    W = WORKERS runs its items, each lane in order; one item runs on the
    calling thread alone.

    Every lane stops at its first error. The helpers are started for this
    call and have stopped before it returns or raises, and it raises the
    first error in item order, the one the serial walk raises; every item
    before it has run.
    """
    results, errors = [None] * len(items), {}

    def lane(first):
        for index in range(first, len(items), WORKERS):
            try:
                results[index] = run(items[index])
            except Exception as error:
                errors[index] = error
                return

    lanes = range(min(WORKERS, len(items)))
    # leaving the block waits for every helper, also when the calling lane raised
    with ThreadPoolExecutor(max(len(lanes) - 1, 1), thread_name_prefix="lane") as helpers:
        helped = [helpers.submit(lane, first) for first in lanes[1:]]
        lane(0)
    for helper in helped:
        # raises what is not an Exception, which the lane let through
        helper.result()
    if errors:
        raise errors[min(errors)]
    return results


# ------------------------------------------------------------ float text
#
# The grid writers print every float exactly as FLOAT_FMT does ("%.17g", the
# correctly rounded C printf: ties to even), for a block of whole grid rows at
# a time in numpy. A value x with 1e-4 <= |x| < 1e16 has decimal exponent
# X = floor(log10|x|) in [-4, 15], which "%.17g" writes in fixed notation, and
# its 17 significant digits are D = |x| 10^(16 - X) rounded half to even.
# 10^(16 - X) is an exact double (16 - X <= 20 <= 22), so Dekker's
# two-product gives |x| 10^(16 - X) = P + E exactly, and P >= 1e16 > 2^53 is
# an even integer, so D = P + rint(E). D never rounds up to 10^17: the
# greatest double below each of 10^-3 .. 10^16 lies at least 8e-17 of it
# below. Zero is "0" or "-0". Every other value (nonzero |x| < 1e-4,
# |x| >= 1e16, nan, inf) goes through FLOAT_FMT itself, in one call per block.
#
# A line is its head words, then one slot a value. The head is "\n", ending
# the line before, and the line's start: "v" in an OBJ, and in a grid CSV the
# node's indices as integer text, one word from a table of the rows ("\ni")
# and one from a table of the columns (",j"). A value fills a slot of four
# 8-byte words. Word 0 holds, right-aligned, the separator, the sign, "0."
# and the zeros before the first digit when X < 0, and the first digit d0;
# words 1-3 hold d1..d16 with the point after d_X when X >= 0, up to the last
# digit printed. Every other byte is zero, and one compress of the block's
# words drops them.

_WORD = np.dtype("<u8")  # byte i of a word is its bits 8i .. 8i+7
_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's split of a double into halves
# A write goes in blocks of whole grid rows, at least one. A write of fewer
# than _LANE_VALUES values takes blocks of about _BLOCK_VALUES values, on one
# lane: enough to spread numpy's per-call cost (about 40 us a block) thin,
# few enough that the working arrays (about 110 bytes a value) stay small
# beside the file. A larger write takes blocks of about _LANE_BLOCK_VALUES
# values, on WORKERS lanes: a call's arithmetic runs without the GIL, and
# blocks this large let it outweigh the call's Python part, while their
# working arrays still fit in a core's cache.
_BLOCK_VALUES = 2048
_LANE_VALUES = 2**17
_LANE_BLOCK_VALUES = 2**15


def _by_exponent(f):
    """f(k) for k = -8 .. 22 in an array indexed by k itself (negative k wraps)."""
    return np.array([f(k) for k in range(23)] + [f(k) for k in range(-8, 0)])


def _least_double_at(k):
    """The least double >= 10^k (10^k itself when k >= 0)."""
    if k >= 0:
        return float(10**k)
    t = 1 / 10**-k  # correctly rounded
    a, b = t.as_integer_ratio()
    return t if a * 10**-k >= b else float(np.nextafter(t, np.inf))


# |x| >= _AT_LEAST[k] exactly when |x| >= 10^k
_AT_LEAST = _by_exponent(_least_double_at)
# 10^(16 - k), exact for the k of every value written in fixed notation
_SCALE = _by_exponent(lambda k: float(10 ** (16 - k)))
_SCALE_HI = _SCALE * _SPLITTER - (_SCALE * _SPLITTER - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI
# 10 * -X when X < 0 ("0." and -X - 1 zeros come before d0), else 0
_LEAD = _by_exponent(lambda k: 10 * max(-k, 0))


def _digit_tables():
    """_TEXT4[q]: 0000 .. 9999 as text in the low four bytes of a word.
    _LAST[g][q]: the index among d1..d16 of the last nonzero digit of q when
    q is digit group g (d4g+1 .. d4g+4), or a negative number when q is 0."""
    q = np.arange(10000, dtype=np.int16)[:, None]
    digits = (q // np.array([1000, 100, 10, 1], np.int16) % 10).astype(np.uint8)
    text = (digits + np.uint8(ord("0"))).view("<u4").ravel().astype(_WORD)
    last = np.where(q[:, 0] > 0, 4 - np.argmax(digits[:, ::-1] != 0, axis=1), -99)
    return text, last.astype(np.int8) + np.arange(0, 16, 4, dtype=np.int8)[:, None]


_TEXT4, _LAST = _digit_tables()


def _body_masks():
    """Byte masks of words 1-3 for each (X, last), row (X + 4) * 17 + last.

    last is the index of the last nonzero digit among d1..d16 (0 if none).
    The masks pick the printed bytes that keep their digit, those that take
    the digit one place before (after the point), and the point itself.
    """
    X = np.arange(-4, 16)[:, None, None]
    last = np.arange(17)[None, :, None]
    p = np.arange(1, 25)  # place in the number of each byte; d0 is place 0
    shown = p < np.where(X < 0, last + 1, np.maximum(X, last) + 1 + (last > X))
    masks = ((X < 0) | (p <= X), (X >= 0) & (p > X + 1), (X >= 0) & (p == X + 1))
    return [
        (shown & m).astype(np.uint8).reshape(-1, 24) * np.uint8(byte)
        for m, byte in zip(masks, (0xFF, 0xFF, ord(".")))
    ]


_KEEP, _SHIFT, _POINT = [np.ascontiguousarray(m.view(_WORD).T) for m in _body_masks()]


@cache
def _heads(sep):
    """Word 0 for each (sign, X, d0), at 50 * sign + _LEAD[X] + d0."""
    heads = np.zeros((100, 8), np.uint8)
    for i in range(100):
        neg, lead, d0 = i // 50, i // 10 % 5, i % 10
        text = sep + b"-" * neg + (b"0." + b"0" * (lead - 1)) * (lead > 0) + b"%d" % d0
        heads[i, 8 - len(text) :] = np.frombuffer(text, np.uint8)
    return heads.view(_WORD).ravel()


def _word(text):
    """text right-aligned in one word."""
    return np.frombuffer(text.rjust(8, b"\0"), _WORD)[0]


def _texts(texts):
    """Each of texts right-aligned in as many words as the longest needs, as
    a (len(texts), words) array."""
    width = -(-max(map(len, texts)) // 8) * 8
    text = b"".join(t.rjust(width, b"\0") for t in texts)
    return np.frombuffer(text, _WORD).reshape(len(texts), -1)


def _lines(heads, values, sep):
    """The text heads + "".join(sep + FLOAT_FMT % v for v in row) + "\n" of
    every row of the 2-D float array values, byte for byte what % writes, as
    one uint8 array, with the zero bytes of heads dropped. heads holds each
    line's head words, "\n" (ending the line before) first, as a (lines, h)
    word array or one (1, h) row for every line; sep is one byte."""
    lines, cols = values.shape
    h = heads.shape[1]
    v = values.reshape(-1)
    # words 0 .. lines * (h + 4 cols) - 1 are each line's head and slots;
    # the last ends the last line
    words = np.empty(lines * (h + 4 * cols) + 1, _WORD)
    words[-1] = _word(b"\n")
    line = words[:-1].reshape(lines, h + 4 * cols)
    line[:, :h] = heads
    slot = line[:, h:].reshape(lines, cols, 4)

    ax = np.abs(v)
    fast = ax >= 1e-4
    fast &= ax < 1e16
    np.copyto(ax, 1.0, where=~fast)
    k = np.log10(ax)
    np.floor(k, out=k)
    k = k.astype(np.intp)
    k += ax >= _AT_LEAST[k + 1]
    k -= ax < _AT_LEAST[k]
    # two-product: ax * 10^(16 - k) = P + E, with ax = ah + al
    P = ax * _SCALE[k]
    ah = ax * _SPLITTER
    al = ah - ax
    ah -= al
    np.subtract(ax, ah, out=al)
    del ax
    E = ah * _SCALE_HI[k]
    E -= P
    ah *= _SCALE_LO[k]
    E += ah
    ah = _SCALE_HI[k]
    ah *= al
    E += ah
    al *= _SCALE_LO[k]
    E += al
    del ah, al
    D = P.astype(np.int64)
    del P
    D += np.rint(E, out=E).astype(np.int64)
    del E
    D *= fast

    # word 0 from the sign, X and d0; D keeps d1..d16
    d0 = D // 10**16
    D -= d0 * 10**16
    d0 += _LEAD[k]
    d0 += np.signbit(v) * 50
    slot[..., 0] = _heads(sep)[d0].reshape(lines, cols)
    del d0
    # D is d1..d16: groups q of four digits make words 1 (d1..d8) and 2
    hi = D // 10**8
    D -= hi * 10**8
    q = hi // 10**4
    hi -= q * 10**4
    last = np.maximum(_LAST[0][q], _LAST[1][hi])
    w1 = _TEXT4[hi] << 32
    w1 |= _TEXT4[q]
    np.floor_divide(D, 10**4, out=q)
    D -= q * 10**4
    np.maximum(last, _LAST[2][q], out=last)
    np.maximum(last, _LAST[3][D], out=last)
    np.maximum(last, 0, out=last)
    w2 = _TEXT4[D] << 32
    w2 |= _TEXT4[q]
    del q, hi, D
    # the point moves the digits after d_X one byte up, d16 into word 3
    k += 4
    k *= 17
    k += last
    del last
    shifted = w2 >> 56
    shifted &= _SHIFT[2][k]
    slot[..., 3] = shifted.reshape(lines, cols)
    np.left_shift(w2, 8, out=shifted)
    shifted |= w1 >> 56
    shifted &= _SHIFT[1][k]
    w2 &= _KEEP[1][k]
    w2 |= shifted
    w2 |= _POINT[1][k]
    slot[..., 2] = w2.reshape(lines, cols)
    np.left_shift(w1, 8, out=shifted)
    shifted &= _SHIFT[0][k]
    w1 &= _KEEP[0][k]
    w1 |= shifted
    w1 |= _POINT[0][k]
    slot[..., 1] = w1.reshape(lines, cols)
    del w1, w2, shifted, k

    other = np.flatnonzero(~fast & (v != 0))
    if other.size:
        text = ("%-32" + FLOAT_FMT[1:]) * other.size % tuple(v[other].tolist())
        text = np.frombuffer(text.replace(" ", "\0").encode(), np.uint8).reshape(-1, 32)
        i, c = np.divmod(other, cols)
        raw = slot.view(np.uint8)
        raw[i, c, 0] = ord(sep)
        raw[i, c, 1:] = text[:, :31]
    raw = words.view(np.uint8)
    return raw[raw != 0][1:]


def _int_tables(size):
    """Byte masks of a value's size words for each digit count c, row c - 1:
    the digits shown, and the space before the first of them."""
    c = np.arange(1, 8 * size)[:, None]
    place = np.arange(8 * size)
    masks = (place >= 8 * size - c, place == 8 * size - 1 - c)
    return [
        np.ascontiguousarray((m.astype(np.uint8) * np.uint8(byte)).view(_WORD).T)
        for m, byte in zip(masks, (0xFF, ord(" ")))
    ]


_INT_TABLES = [_int_tables(size) for size in (1, 2)]
_POWERS = 10 ** np.arange(1, 16)


def _int_lines(prefix, values):
    """The text prefix + "".join(" %d" % n for n in row) + "\n" of every row
    of the 2-D integer array values, 0 <= n < 10^15, as one uint8 array.
    prefix has at most seven bytes.

    A value fills a slot of one word, or of two when the block holds one of
    10^7 or more: the _TEXT4 words of its groups of four digits, masked to
    its digit count, with the space right before its first digit, so one
    compress of the block's words drops every other byte.
    """
    lines, cols = values.shape
    n = values.reshape(-1)
    size = 1 + int(n.max() >= 10**7)
    shown, space = _INT_TABLES[size - 1]
    words = np.empty(lines * (1 + size * cols) + 1, _WORD)
    words[-1] = _word(b"\n")
    line = words[:-1].reshape(lines, 1 + size * cols)
    line[:, 0] = _word(b"\n" + prefix)
    slot = line[:, 1:].reshape(lines, cols, size)
    count = np.searchsorted(_POWERS, n, side="right")
    text = np.zeros((size, n.size), _WORD)
    # group g (digits 4g .. 4g + 3 from the right) is the low half of word
    # size - 1 - g // 2 when g is odd, the high half when it is even
    rest = n
    for g in range(2 * size):
        q = rest // 10**4
        group = _TEXT4[rest - q * 10**4]
        if g % 2 == 0:
            group <<= 32
        text[size - 1 - g // 2] |= group
        rest = q
    for w in range(size):
        text[w] &= shown[w][count]
        text[w] |= space[w][count]
        slot[..., w] = text[w].reshape(lines, cols)
    raw = words.view(np.uint8)
    return raw[raw != 0][1:]


def _row_blocks(shape, columns):
    """Row ranges [i0, i1) of a write of columns values a node over a grid of
    this shape, each of about _BLOCK_VALUES values, or _LANE_BLOCK_VALUES
    in a write of at least _LANE_VALUES, and at least one grid row."""
    nx, ny = shape
    values = _LANE_BLOCK_VALUES if nx * ny * columns >= _LANE_VALUES else _BLOCK_VALUES
    step = max(1, values // (ny * columns))
    return [(i, min(i + step, nx)) for i in range(0, nx, step)]


def _write_rows(fh, shape, columns, text):
    """Write text(i0, i1), the uint8 text of rows i0 .. i1 - 1 of a grid of
    this shape with columns values a node, to the open file fh for every
    block of _row_blocks, in order.

    A write of at least _LANE_VALUES values runs on WORKERS lanes: its
    blocks are cut into one even run a lane (_bands), the calling lane
    writes band 0 into fh and each other lane its band into an anonymous
    temporary file in fh's directory, appended to fh in band order once
    every band is written. An error in any band raises the first in band
    order (_in_lanes); the temporary files are closed, which deletes them.
    """
    blocks = _row_blocks(shape, columns)
    many = shape[0] * shape[1] * columns >= _LANE_VALUES
    bands = _bands(len(blocks)) if many else [slice(0, len(blocks))]
    folder = os.path.dirname(os.path.abspath(fh.name))
    with ExitStack() as stack:
        outs = [fh] + [stack.enter_context(tempfile.TemporaryFile(dir=folder)) for _ in bands[1:]]

        def band(b):
            for i0, i1 in blocks[bands[b]]:
                outs[b].write(text(i0, i1))

        _in_lanes(band, range(len(bands)))
        for spill in outs[1:]:
            spill.seek(0)
            shutil.copyfileobj(spill, fh)


def export_obj(f, path):
    """Write the jet positions as a triangulated OBJ mesh.

    Vertices appear in row-major node order; each grid quad is split into
    two triangles with consistent orientation. Floats are exactly
    FLOAT_FMT's 17 significant digits, so the mesh round-trips the double
    values; the face indices are integer text (_int_lines). The vertex
    rows, then the rows of quads, are formatted in numpy blocks of whole
    rows (_write_rows). A section of fewer than 2^17 values (vertex
    coordinates or face indices) takes blocks of about 2048 values on one
    lane, and its working arrays take about 110 bytes a value, about 0.25 MB
    beside the jet. A larger one takes blocks of about 2^15 values on two
    lanes where the process may use two CPUs, about 3.6 MB a lane. Either
    holds more only when one grid row has more values than its block.
    """
    nx, ny = f.grid.shape
    # quad (0, j) has 1-based corner v = j + 1; two triangles each
    v = np.arange(1, ny)
    first = np.stack([v, v + ny, v + ny + 1, v, v + ny + 1, v + 1], axis=-1).ravel()

    def vertices(i0, i1):
        return _lines(_texts([b"\nv"]), f.pos[i0:i1].reshape(-1, 3), b" ")

    def faces(i0, i1):
        return _int_lines(b"f", (np.arange(i0, i1)[:, None] * ny + first).reshape(-1, 3))

    with open(path, "wb") as fh:
        _write_rows(fh, f.grid.shape, 3, vertices)
        _write_rows(fh, (nx - 1, ny - 1), 6, faces)


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

    columns maps each name to an (nx, ny) array; columns of differing, empty
    or non-2-D shapes raise GridMismatch before the file is opened. Floats are
    exactly FLOAT_FMT's 17 significant digits, so read_grid_csv returns the
    doubles bitwise, and the indices are integer text from a table of the
    rows' and one of the columns' (what FLOAT_FMT prints for them as
    doubles). The rows are formatted in numpy blocks of whole grid rows
    (_write_rows). A write of fewer than 2^17 values (indices included)
    takes blocks of about 2048 values on one lane, and its working arrays
    take about 110 bytes a value, about 0.25 MB beside the columns. A larger
    one takes blocks of about 2^15 values on two lanes where the process may
    use two CPUs, about 3.6 MB a lane. Either holds more only when one grid
    row has more values than its block.
    """
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    if len({a.shape for a in arrays}) != 1 or arrays[0].ndim != 2 or not arrays[0].size:
        raise GridMismatch(
            "grid CSV columns need one nonempty 2-D shape, got %s"
            % ", ".join("%s %s" % (name, a.shape) for name, a in zip(names, arrays))
        )
    shape = arrays[0].shape
    # a line's head: "\n" and its x_idx from the row, "," and its y_idx from the column
    row_heads = _texts([b"\n%d" % i for i in range(shape[0])])
    column_heads = _texts([b",%d" % j for j in range(shape[1])])

    def rows(i0, i1):
        heads = np.concatenate(
            np.broadcast_arrays(row_heads[i0:i1, None], column_heads[None]), axis=-1
        )
        block = np.stack([a[i0:i1] for a in arrays], axis=-1)
        return _lines(heads.reshape(-1, heads.shape[-1]), block.reshape(-1, len(arrays)), b",")

    with open(path, "wb") as fh:
        fh.write((",".join(["x_idx", "y_idx"] + names) + "\n").encode())
        _write_rows(fh, shape, 2 + len(arrays), rows)


# ------------------------------------------------------------- cell text
#
# read_grid_csv parses a body's cells in numpy, a block of whole lines at a
# time (_read_block), and gives each value bitwise what float() gives. A cell
# -?digits[.digits] of at most _CELL bytes, with a digit and at most 22
# digits after the point, is D / 10^f: D is its digits as one integer, f the
# number of digits after the point.
# - The cell's last _CELL bytes are three words, gathered at its end. The
#   bytes before the cell and its sign become 0, and those left of the point
#   move one place right, over it (_CELL_KEEP, _CELL_MOVE, by the cell's
#   length and f). Every byte must then be a digit. Each word's eight digits
#   give its value in three multiplies (SWAR), and the three values give D,
#   which must be below 922 * 10^16 < 2^63.
# - If D <= 2^53, fl(D) / 10^f is one IEEE division of exact operands, so it
#   is correctly rounded (Clinger's fast path; 10^f is exact for f <= 22).
# - Else y = fl(D) / 10^f is within 2^-53 y of D / 10^f, so q = fl(y) is the
#   nearest double or one of its neighbours, unless q is a power of two
#   (whose lower neighbour is half as far as its upper one). Dekker's
#   two-product gives q 10^f = P + E exactly, P an integer. E -+ ulp(q) 10^f
#   / 2 is exact too: it is a multiple of ulp(q) 2^(f-1), fewer than
#   3 5^f < 2^53 of them. So comparing the integer D - P with it tells
#   exactly on which side of the midpoint to q's neighbour D / 10^f lies. A
#   tie goes to the even double.
# A line with any other cell (exponents, nan, inf, spaces, "+", CR), or with
# a cell whose q is a power of two, is read by np.loadtxt once every block is
# parsed, and so is every line of a block in which a line has not as many
# cells as the header. A line that np.loadtxt rejects or skips sends the
# whole body to np.loadtxt, so the values and errors are those of np.loadtxt
# on the body.

_CELL = 24  # bytes of a cell's window, and of the room before a block
# A body is read in blocks of whole lines of about a _READ_BLOCKS-th of its
# bytes, and at least _READ_BYTES. A block's working arrays take about 9
# bytes a byte of its text, so on a large body the lanes' arrays stay well
# below the values (8 bytes a cell of about 13 bytes). The blocks are still
# large enough that numpy's per-call cost, which holds the GIL, stays small
# beside a call's arithmetic: on two lanes a 17.5 MB metric CSV took 1.25
# times as long to read in blocks of 2^17 bytes as in blocks of 2^18. A read
# of at least _LANE_VALUES cells runs on WORKERS lanes, one band of the body
# each.
_READ_BLOCKS = 64
_READ_BYTES = 2**16


def _cell_masks():
    """_CELL_KEEP[25 L + f] and _CELL_MOVE[25 L + f]: the byte masks of a
    cell's three words (the word farthest from its end first) that keep
    their digit, and that take the digit one place left of them, for a cell
    of L bytes after its sign with its point f bytes before its end
    (f = 24 when it has none)."""
    length = np.arange(25)[:, None, None]
    f = np.arange(25)[None, :, None]
    d = np.arange(_CELL - 1, -1, -1)  # each byte's place before the cell's end
    masks = ((d < f) & (d < length), (d >= f) & (d + 1 < length))
    return [(m.astype(np.uint8) * np.uint8(0xFF)).reshape(625, _CELL).view(_WORD) for m in masks]


_CELL_KEEP, _CELL_MOVE = _cell_masks()
_TENS = np.array([float(10**f) for f in range(23)])
_TENS_HI = _TENS * _SPLITTER - (_TENS * _SPLITTER - _TENS)
_TENS_LO = _TENS - _TENS_HI
_U64 = np.uint64


def _round_cells(D, f, ok):
    """D / 10^f rounded to the nearest double, ties to even, for D < 2^63
    and f <= 22; clears ok where D > 2^53 and fl(fl(D) / 10^f) is a power
    of two."""
    q = D.astype(float)
    q /= _TENS[f]
    big = np.flatnonzero(D > 2**53)
    if not big.size:
        return q
    D, f, x = D[big], f[big], q[big]
    bits = x.view(_WORD)
    edge = bits & _U64(2**52 - 1)
    edge = edge == 0
    if edge.any():
        ok[big[edge]] = False
    # two-product: x 10^f = P + E, with x = xh + xl and 10^f = th + tl
    th, tl, h = _TENS_HI[f], _TENS_LO[f], _TENS[f]
    P = h * x
    xh = x * _SPLITTER
    xl = xh - x
    xh -= xl
    np.subtract(x, xh, out=xl)
    E = xh * th
    E -= P
    xh *= tl
    E += xh
    th *= xl
    E += th
    xl *= tl
    E += xl
    del xh, xl, th, tl
    a = D.view(np.int64) - P.astype(np.int64)
    a = a.astype(float)
    # D - x 10^f = a - E; the midpoint on its side is at E -+ h, h = ulp(x) 10^f / 2
    g = a - E
    u = bits & _U64(0x7FF << 52)
    u = u.view(float)
    u *= 2.0**-52
    h *= 0.5
    h *= u
    np.copysign(h, g, out=h)
    h += E
    a -= h
    tie = a == 0
    a *= g
    step = a > 0
    if tie.any():
        step |= tie & (bits & _U64(1)).astype(bool)
    np.copysign(u, g, out=u)
    u *= step
    x += u
    q[big] = x
    return q


def _read_block(a, end, cols):
    """The values of the whole lines in a[_CELL:end], an array over the
    bytes of a buffer that has _CELL bytes before them, as a (lines, cols)
    array, with a mask of the lines they hold and the place of each line's
    "\n" in a. A line outside the mask has no values: it has a cell not in
    the form of "cell text", or some line of the block has not cols cells."""
    b = a[_CELL:end]
    sep = b == ord("\n")
    lines = np.count_nonzero(sep)
    sep |= b == ord(",")
    sep = np.flatnonzero(sep)
    sep += _CELL
    ends = sep[cols - 1 :: cols]
    if len(sep) != lines * cols or (a[ends] != ord("\n")).any():
        # a line has not cols cells: np.loadtxt reads the block
        return np.empty((lines, cols)), np.zeros(lines, bool), sep[a[sep] == ord("\n")]
    starts = np.empty_like(sep)
    starts[0] = _CELL
    starts[1:] = sep[:-1] + 1
    # each cell's point, and its place before the cell's end
    point = np.flatnonzero(b == ord("."))
    point += _CELL
    cell = np.searchsorted(sep, point)
    point = sep[cell] - 1 - point
    f = np.zeros(len(sep), np.intp)
    f[cell] = point
    # each cell's row of the masks: 25 length + f, f = 24 for no point
    form = np.full(len(sep), 24)
    form[cell] = point
    del point, cell
    length = sep - starts
    neg = a[starts] == ord("-")
    length -= neg
    ok = length > (form < 24)
    ok &= length <= _CELL
    ok &= f <= 22
    np.minimum(length, _CELL, out=length)
    np.minimum(f, 22, out=f)
    np.minimum(form, 24, out=form)
    length *= 25
    form += length
    del starts, length
    window = np.ndarray((len(a) - _CELL + 1,), "V%d" % _CELL, buffer=a, strides=(1,))
    x = window[sep - _CELL].view(_WORD)
    del sep
    x ^= _U64(0x3030303030303030)
    y = np.take(_CELL_KEEP, form, axis=0).reshape(-1)
    y &= x
    # the byte before each word is the last byte of the word before it
    carry = x[:-1] >> _U64(56)
    x <<= _U64(8)
    x[1:] |= carry
    del carry
    x &= np.take(_CELL_MOVE, form, axis=0).reshape(-1)
    del form
    y |= x
    # a digit byte plus 0x76 stays below 0x80
    np.add(y, _U64(0x7676767676767676), out=x)
    x |= y
    x = x.reshape(-1, 3)
    bad = x[:, 0] | x[:, 1]
    bad |= x[:, 2]
    bad &= _U64(0x8080808080808080)
    ok &= bad == 0
    del x, bad
    # eight digit bytes to their value: pairs, fours, eights
    y *= _U64(10 << 8 | 1)
    y >>= _U64(8)
    y &= _U64(0x00FF00FF00FF00FF)
    y *= _U64(100 << 16 | 1)
    y >>= _U64(16)
    y &= _U64(0x0000FFFF0000FFFF)
    y *= _U64(10000 << 32 | 1)
    y >>= _U64(32)
    y = y.reshape(-1, 3)
    ok &= y[:, 0] < 922
    D = y[:, 0] * _U64(10**8)
    D += y[:, 1]
    D *= _U64(10**8)
    D += y[:, 2]
    del y
    D *= ok
    q = _round_cells(D, f, ok)
    np.negative(q, out=q, where=neg)
    return q.reshape(lines, cols), ok.reshape(lines, cols).all(axis=1), ends


def _read_band(path, start, stop, data, block):
    """Parse the lines in bytes start .. stop of the file at path into the
    rows of data, in blocks of whole lines of about block bytes, and return
    (row, text) for each line that np.loadtxt has to read.

    stop ends a line or the file; the file's last line may lack its "\n".
    """
    cols = data.shape[1]
    buffer = bytearray(_CELL + block + 1)
    slow, row, held = [], 0, 0  # held: bytes of a line begun in the last read
    with open(path, "rb") as fh:
        fh.seek(start)
        while start < stop or held:
            room = len(buffer) - 1 - _CELL - held
            with memoryview(buffer) as view:
                got = fh.readinto(view[_CELL + held : _CELL + held + min(room, stop - start)])
            start += got
            end = _CELL + held + got
            if start == stop and buffer[end - 1] != ord("\n"):
                buffer[end] = ord("\n")
                end += 1
            last = buffer.rfind(b"\n", _CELL, end) + 1
            if not last:  # a line longer than the buffer
                held = end - _CELL
                buffer.extend(bytes(len(buffer)))
                continue
            a = np.frombuffer(buffer, np.uint8)
            values, fast, ends = _read_block(a, last, cols)
            lines = len(values)
            data[row : row + lines] = values
            for i in np.flatnonzero(~fast):
                slow.append((row + i, bytes(buffer[ends[i - 1] + 1 if i else _CELL : ends[i] + 1])))
            row += lines
            held = end - last
            buffer[_CELL : _CELL + held] = buffer[last:end]
            del a
    return slow


def _read_cells(path, start, cols):
    """The lines of the file at path from byte start on as a (lines, cols)
    float array, parsed in numpy (see "cell text"), or None when np.loadtxt
    has to read them whole.

    The body is cut at line ends into one band a lane, counted, and each band
    parsed into its rows of the array (_read_band) on its lane (_in_lanes).
    """
    with open(path, "rb") as fh:
        size = fh.seek(0, os.SEEK_END)
        block = max((size - start) // _READ_BLOCKS, _READ_BYTES)
        cuts = [start]
        for band in _bands(size - start)[1:]:
            fh.seek(max(start + band.start, cuts[-1]))
            fh.readline()
            cuts.append(fh.tell())
        cuts.append(size)
        fh.seek(start)
        counts = [_count_lines(fh, lo, hi, block) for lo, hi in zip(cuts, cuts[1:])]
        if size > start:
            fh.seek(size - 1)
            counts[-1] += fh.read(1) != b"\n"
    rows = sum(counts)
    if rows * cols < _LANE_VALUES:
        cuts, counts = [start, size], [rows]
    data = np.empty((rows, cols))
    first = np.cumsum([0] + counts)
    slow = _in_lanes(
        lambda b: _read_band(path, cuts[b], cuts[b + 1], data[first[b] : first[b + 1]], block),
        range(len(counts)),
    )
    slow = [(first[b] + row, text) for b, band in enumerate(slow) for row, text in band]
    if slow:
        rows, texts = zip(*slow)
        try:
            with warnings.catch_warnings():
                # an empty result only warns; it is rejected below
                warnings.simplefilter("ignore")
                text = io.TextIOWrapper(io.BytesIO(b"".join(texts)))
                values = np.loadtxt(text, delimiter=",", ndmin=2)
        except ValueError:
            return None
        if values.shape != (len(rows), cols):
            return None
        data[list(rows)] = values
    return data


def _count_lines(fh, start, stop, block):
    """The number of "\n" in bytes start .. stop of the open file fh, read
    from start in blocks of block bytes."""
    count, buffer = 0, bytearray(block)
    while start < stop:
        got = fh.readinto(memoryview(buffer)[: stop - start])
        count += np.count_nonzero(np.frombuffer(buffer, np.uint8, got) == ord("\n"))
        start += got
    return count


def read_grid_csv(path, names=None):
    """Read a grid CSV into {name: (nx, ny) array}, checking it on the way.

    names selects the value columns (default: all, in file order). The grid
    is inferred from the largest node indices. The header must be
    x_idx,y_idx followed by distinct names, every cell numeric, every value
    finite, and the rows must give each node of the grid exactly once with
    integral indices; anything else raises ConfigError naming the file.

    The body's cells are parsed in numpy, a block of whole lines at a time
    on the lanes (_read_cells), each bitwise as float() reads it.
    np.loadtxt reads the lines of any other cells, and reads the whole body
    when it rejects or skips one of them or when the header line has a CR
    or a byte beyond ASCII, so what is accepted, and every error, is
    np.loadtxt's. Beside the values read and the grids they fill, a read
    holds a block's working arrays a lane, about 9 bytes a byte of its text.
    """
    with open(path, "rb") as fh:
        head = fh.readline()
    # text mode reads an ASCII line without CR as it is
    plain = head.isascii() and b"\r" not in head
    if plain:
        head = head.decode()
    else:
        with open(path) as fh:
            head = fh.readline()
    header = [name.strip() for name in head.split(",")]
    if header[:2] != ["x_idx", "y_idx"] or len(header) < 3 or len(set(header)) < len(header):
        raise ConfigError("%s: header must be x_idx,y_idx followed by distinct names" % path)
    data = _read_cells(path, len(head), len(header)) if plain else None
    if data is None:
        with open(path) as fh:
            fh.readline()
            try:
                with warnings.catch_warnings():
                    # an empty body only warns; it is caught below
                    warnings.simplefilter("ignore")
                    data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise ConfigError("%s: %s" % (path, exc)) from None
    if not len(data):
        raise ConfigError("%s: no data rows" % path)
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
    nx, ny = (int(n) + 1 for n in idx.max(axis=0))
    # each row's node as its index in row-major order
    node = idx[:, 0].astype(np.intp)
    node *= ny
    node += idx[:, 1].astype(np.intp)
    seen = np.zeros(rows, dtype=bool)
    if nx * ny == rows:
        seen[node] = True
    if not seen.all():
        raise ConfigError("%s: rows do not give each node of a %dx%d grid once" % (path, nx, ny))
    out = {}
    for name in names:
        out[name] = np.empty((nx, ny))
        out[name].reshape(-1)[node] = data[:, header.index(name)]
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
