"""Built-in example scenarios: initial embeddings and target metrics.

Each scenario builds, for a given grid, the flat inclusion as its long
spacelike initial jet and a target metric with positive semidefinite
default f*h - g. The strip scenario's coefficient peaks at 0.5 in the grid
center (odd grids place a node exactly there) and varies smoothly, so
single-step decay measurements see a nonconstant corrugation field.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnknownScenario
from .fields import EmbeddingJet, LinearForm, MetricField, pullback_metric


def flat_inclusion(grid):
    """The inclusion plane (x, y, 0) with exact constant differentials."""
    X, Y = grid.mesh()
    pos = np.stack([X, Y, np.zeros_like(X)], axis=-1)
    dfx = np.zeros(grid.shape + (3,))
    dfx[..., 0] = 1.0
    dfy = np.zeros(grid.shape + (3,))
    dfy[..., 1] = 1.0
    return EmbeddingJet(grid, pos, dfx, dfy)


def strip_eta_field(grid):
    """Smoothly varying coefficient with sup eta = 0.5 at the center node."""
    X, Y = grid.mesh()
    return 0.5 * (0.7 + 0.3 * np.sin(np.pi * X) * np.sin(np.pi * Y))


COLLAR_WIDTH = 0.1
COLLAR_HEIGHT = 0.4


def collar_eta_field(grid):
    """Bump of peak COLLAR_HEIGHT vanishing on a collar of width COLLAR_WIDTH.

    Inside the collar the value is exactly 0.0 (masked, not just small), so
    corrugation leaves collar nodes bitwise untouched.
    """
    X, Y = grid.mesh()
    w = COLLAR_WIDTH
    sx = (X - w) / (1.0 - 2.0 * w)
    sy = (Y - w) / (1.0 - 2.0 * w)
    bump = np.sin(np.pi * np.clip(sx, 0.0, 1.0)) ** 2 * np.sin(np.pi * np.clip(sy, 0.0, 1.0)) ** 2
    inside = (X > w) & (X < 1.0 - w) & (Y > w) & (Y < 1.0 - w)
    return np.where(inside, COLLAR_HEIGHT * bump, 0.0)


STRIP_FORM = LinearForm(1.0, 0.0)


@dataclass(frozen=True)
class Scenario:
    """A target metric builder; every scenario starts from the flat inclusion."""

    description: str
    build_target: object

    def build(self, grid):
        f0 = flat_inclusion(grid)
        g = self.build_target(grid, f0)
        return f0, g


def _flat_shrink_target(grid, f0):
    return MetricField.constant(0.5, 0.0, 0.5, grid.shape)


def _aniso_shrink_target(grid, f0):
    return MetricField.constant(0.6, 0.0, 0.8, grid.shape)


def _strip_target(grid, f0):
    return pullback_metric(f0) - STRIP_FORM.outer(strip_eta_field(grid))


SCENARIOS = {
    "flat-shrink": Scenario(
        description="inclusion plane toward 0.5*(dx^2+dy^2), default 0.5*I",
        build_target=_flat_shrink_target,
    ),
    "aniso-shrink": Scenario(
        description="inclusion plane toward diag(0.6, 0.8)",
        build_target=_aniso_shrink_target,
    ),
    "strip-primitive": Scenario(
        description="single primitive: target f*h - eta dx^2, sup eta = 0.5",
        build_target=_strip_target,
    ),
}


def scenario(name):
    """Look up a registered scenario by id."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise UnknownScenario(
            "unknown scenario %r; registered: %s" % (name, ", ".join(sorted(SCENARIOS)))
        ) from None
