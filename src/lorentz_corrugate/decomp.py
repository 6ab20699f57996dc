"""Decomposition of PSD metric fields over a dictionary of squared forms.

A defect field D is written as sum_j eta_j * ell_j (x) ell_j with eta_j >= 0
per node. Symmetric forms on the plane are 3-dimensional, so the exact
nonnegative least-squares optimum per node is supported on at most 3
dictionary forms; the solver enumerates all supports of size <= 3 in a fixed
order, solves each candidate batched over a block of nodes and keeps the
first one that passes the optimality conditions. This is deterministic,
exact and vectorized per block. Least squares runs in the weighted coordinates
(E, sqrt(2) F, G) so residuals are pointwise Frobenius norms.

A call allocates the eta fields (the rows of one (k, nodes) array) and the
residuals once and each block writes its solution into its slice. The
blocks run on the lane runner (fields._in_lanes) on as many lanes as the
call's threads, so beside its outputs a call holds one block's working set
a lane.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConeViolation, DomainError
from .fields import LinearForm, _in_lanes

MAX_FORMS = 12

_FEAS_TOL = 1e-11
_OPT_TOL = 1e-10
# Sup-node Frobenius reconstruction tolerance; beyond it the field is
# outside the dictionary cone.
RESIDUAL_TOL = 1e-9
# Nodes per solve block. The blocks are the same for every thread count,
# so the coefficients are too.
BLOCK_NODES = 4096


@dataclass(frozen=True)
class FormDictionary:
    """Ordered tuple of pairwise non-parallel unit forms."""

    forms: tuple

    def __post_init__(self):
        k = len(self.forms)
        if k < 3:
            raise DomainError("dictionary needs at least 3 forms")
        if k > MAX_FORMS:
            raise DomainError("dictionary capped at %d forms" % MAX_FORMS)
        for i in range(k):
            for j in range(i + 1, k):
                fi, fj = self.forms[i], self.forms[j]
                if abs(fi.a * fj.b - fi.b * fj.a) < 1e-12:
                    raise DomainError("dictionary forms %d and %d are parallel" % (i, j))

    @property
    def k(self):
        return len(self.forms)

    def weighted_matrix(self):
        """3 x k matrix of squared forms in (E, sqrt(2) F, G) coordinates."""
        cols = []
        for f in self.forms:
            cols.append([f.a * f.a, np.sqrt(2.0) * f.a * f.b, f.b * f.b])
        return np.array(cols).T


def build_dictionary(k):
    """Evenly spread directions theta_i = (i-1) pi / k, i = 1..k."""
    forms = tuple(LinearForm.from_angle((i * np.pi) / k) for i in range(k))
    return FormDictionary(forms=forms)


@dataclass
class PrimitiveDecomposition:
    """Coefficient fields per dictionary form plus the achieved residual."""

    forms: tuple
    etas: list
    residual: float

    def reconstruct(self):
        """Sum of eta_j * ell_j (x) ell_j as a MetricField."""
        out = None
        for ell, eta in zip(self.forms, self.etas):
            term = ell.outer(eta)
            out = term if out is None else out + term
        return out

    def active(self):
        """The (form, eta) pairs with eta > 0 at some node, in dictionary order:
        the forms a stage splits its budget over and corrugates, one step each."""
        return [(ell, eta) for ell, eta in zip(self.forms, self.etas) if float(np.max(eta)) > 0.0]


def _support_plan(A):
    """Precompute solve data for every support of size 3, 2, 1 in fixed order."""
    k = A.shape[1]
    plan = []
    for size in (3, 2, 1):
        for S in combinations(range(k), size):
            As = A[:, S]
            if size == 3:
                solver = np.linalg.inv(As)
            else:
                solver = np.linalg.pinv(As)
            plan.append((S, As, solver))
    return plan


def _solve_chunk(b, A, plan):
    """Exact per-node NNLS over one block of weighted rows b (m, 3)."""
    m = b.shape[0]
    k = A.shape[1]
    coeff = np.zeros((m, k))
    resid = np.full(m, np.nan)
    open_mask = np.ones(m, dtype=bool)
    scale = 1.0 + np.sqrt(np.einsum("ij,ij->i", b, b))

    for S, As, solver in plan:
        if not np.any(open_mask):
            break
        idx = np.flatnonzero(open_mask)
        bs = b[idx]
        x = bs @ solver.T
        feasible = np.all(x >= -_FEAS_TOL, axis=1)
        if len(S) == 3:
            ok = feasible
            r = np.zeros(len(idx))
        else:
            res = bs - x @ As.T
            w = res @ A
            off = np.ones(k, dtype=bool)
            off[list(S)] = False
            optimal = np.all(w[:, off] <= _OPT_TOL * scale[idx, None], axis=1)
            ok = feasible & optimal
            r = np.sqrt(np.einsum("ij,ij->i", res, res))
        hit = idx[ok]
        if hit.size:
            xs = np.maximum(x[ok], 0.0)
            coeff[np.repeat(hit, len(S)), np.tile(list(S), hit.size)] = xs.ravel()
            resid[hit] = r[ok]
            open_mask[hit] = False

    if np.any(open_mask):
        # Remaining nodes: zero vector is the last KKT candidate.
        idx = np.flatnonzero(open_mask)
        bs = b[idx]
        resid[idx] = np.sqrt(np.einsum("ij,ij->i", bs, bs))
    return coeff, resid


def decompose(delta, dictionary, threads=None):
    """Nonnegative per-node coefficients of delta over the dictionary.

    Parameters
    ----------
    delta : MetricField
        Pointwise positive semidefinite field (within fields.LONG_TOL).
    dictionary : FormDictionary
    threads : int or None
        Lanes over the node blocks (fields._in_lanes), at least 1; None
        means one, the calling thread. The nodes are solved in fixed blocks
        of BLOCK_NODES, so results are identical for any value.

    Returns
    -------
    PrimitiveDecomposition
        Its etas are row views of one (k, nodes) array.

    Raises NotPSD (checked first) when delta is not PSD, and ConeViolation,
    naming the first node of largest residual, when the sup-node residual
    exceeds RESIDUAL_TOL. A call holds the eta fields, the residuals and one
    block's working set a lane.
    """
    if threads is not None and threads < 1:
        raise DomainError("thread count must be at least 1")
    delta.require_psd(what="decomposition input")
    shape = delta.shape

    A = dictionary.weighted_matrix()
    plan = _support_plan(A)
    E, F, G = (c.reshape(-1) for c in (delta.E, delta.F, delta.G))
    coeff = np.empty((dictionary.k, E.size))
    resid = np.empty(E.size)

    def solve(start):
        s = slice(start, start + BLOCK_NODES)
        b = np.stack([E[s], np.sqrt(2.0) * F[s], G[s]], axis=-1)
        block, resid[s] = _solve_chunk(b, A, plan)
        coeff[:, s] = block.T

    _in_lanes(solve, range(0, E.size, BLOCK_NODES), threads or 1)

    sup = float(np.max(resid)) if resid.size else 0.0
    if sup > RESIDUAL_TOL:
        flat = int(np.argmax(resid))
        i, j = np.unravel_index(flat, shape)
        raise ConeViolation(
            "field leaves the dictionary cone: residual %.3e at node (%d, %d); "
            "matrix E=%.6g F=%.6g G=%.6g"
            % (sup, i, j, delta.E[i, j], delta.F[i, j], delta.G[i, j])
        )
    etas = [eta.reshape(shape) for eta in coeff]
    return PrimitiveDecomposition(forms=dictionary.forms, etas=etas, residual=sup)
