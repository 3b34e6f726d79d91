"""Chemotaxis model declarations and initial states.

A ModelSpec describes one continuous system: cell diffusion mu, chemotactic
sensitivity (a or chi), chemoattractant decay gamma, whether the
chemoattractant equation is elliptic or parabolic, the chemoattractant
source kind (saturated u/(u+1) or linear u), and an optional logistic
growth term for the cells.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .mesh import Mesh
from .state import State

log = logging.getLogger(__name__)

CHEM_ELLIPTIC = "elliptic"
CHEM_PARABOLIC = "parabolic"
SOURCE_SATURATED = "saturated"
SOURCE_LINEAR = "linear"
GROWTH_NONE = "none"
GROWTH_QUADRATIC = "quadratic_logistic"
GROWTH_CUBIC = "cubic_logistic"

_CHEM_DYNAMICS = (CHEM_ELLIPTIC, CHEM_PARABOLIC)
_CHEM_SOURCES = (SOURCE_SATURATED, SOURCE_LINEAR)
_GROWTHS = (GROWTH_NONE, GROWTH_QUADRATIC, GROWTH_CUBIC)

@dataclass(frozen=True)
class ModelSpec:
    cell_diffusion: float
    chemo_sensitivity: float
    chem_decay: float = 1.0
    chem_dynamics: str = CHEM_ELLIPTIC
    chem_source: str = SOURCE_SATURATED
    growth: str = GROWTH_NONE
    growth_rate: float = 1.0  # rate r of r*u*(1-u); unused for other kinds

    def __post_init__(self):
        for name in ("cell_diffusion", "chemo_sensitivity", "chem_decay", "growth_rate"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.cell_diffusion <= 0:
            raise ValueError(f"cell_diffusion must be > 0, got {self.cell_diffusion}")
        if self.chemo_sensitivity <= 0:
            raise ValueError(
                f"chemo_sensitivity must be > 0, got {self.chemo_sensitivity}"
            )
        if self.chem_decay <= 0:
            raise ValueError(f"chem_decay must be > 0, got {self.chem_decay}")
        if self.chem_dynamics not in _CHEM_DYNAMICS:
            raise ValueError(f"unknown chem_dynamics {self.chem_dynamics!r}")
        if self.chem_source not in _CHEM_SOURCES:
            raise ValueError(f"unknown chem_source {self.chem_source!r}")
        if self.growth not in _GROWTHS:
            raise ValueError(f"unknown growth {self.growth!r}")


@dataclass(frozen=True)
class RectRegion:
    """Open axis-aligned rectangle used for initial perturbations."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def contains(self, x, y) -> np.ndarray:
        """Membership of the points (x, y), with ``x`` and ``y`` broadcast."""
        return (
            (x > self.x_min) & (x < self.x_max) & (y > self.y_min) & (y < self.y_max)
        )


@dataclass(frozen=True)
class DiskRegion:
    """Open disk used for initial perturbations."""

    cx: float
    cy: float
    radius: float

    def contains(self, x, y) -> np.ndarray:
        """Membership of the points (x, y), with ``x`` and ``y`` broadcast."""
        dx, dy = x - self.cx, y - self.cy
        return dx * dx + dy * dy < self.radius * self.radius


@dataclass(frozen=True)
class InitialConditionSpec:
    """Constant base state plus a random perturbation on a region.

    The per-cell perturbation is the mean of ten uniform draws on [0, 1]
    from a PCG64 stream seeded with ``rng_seed``, consumed in cell-index
    order over the perturbed cells. ``base_c`` is only meaningful for
    parabolic chemoattractant dynamics.
    """

    base_u: float = 1.0
    region: RectRegion | DiskRegion | None = None
    rng_seed: int = 42
    base_c: float = 0.0

    def __post_init__(self):
        seed = self.rng_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError(f"rng_seed must be a non-negative integer, got {seed!r}")
        for name in ("base_u", "base_c"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


def chem_source_value(spec: ModelSpec, u):
    """Chemoattractant source as a function of the cell density.

    Saturated kind: u/(u+1) in [0, 1). Linear kind: u. Accepts scalars or
    arrays; rejects negative densities.
    """
    arr = np.asarray(u, dtype=float)
    if (arr < 0).any():
        raise ValueError("cell density must be nonnegative")
    if spec.chem_source == SOURCE_SATURATED:
        out = arr / (arr + 1.0)
    else:
        out = arr
    if arr.ndim == 0:
        return float(out)
    return out


def make_initial_state(mesh: Mesh, ic: InitialConditionSpec) -> State:
    """Realize the initial cell averages on a mesh.

    Pure function of (mesh, ic): equal inputs give bit-identical states.
    A region that contains no cell center leaves u uniform and logs a WARNING.
    """
    u = np.full(mesh.n_cells, float(ic.base_u))
    if ic.region is not None:
        # the (ny, nx) grid of centers, raveled row-major into cell order
        mask = ic.region.contains(mesh.x_centers, mesh.y_centers[:, None]).ravel()
        n_hit = int(mask.sum())
        if n_hit:
            rng = np.random.default_rng(ic.rng_seed)  # PCG64
            u[mask] += rng.random((n_hit, 10)).mean(axis=1)
        else:
            log.warning(
                "initial-condition region %r contains no cell center of the %dx%d mesh",
                ic.region, mesh.nx, mesh.ny,
            )
    c = np.full(mesh.n_cells, float(ic.base_c))
    return State(u=u, c=c, u_prev=u.copy(), step_index=0)
