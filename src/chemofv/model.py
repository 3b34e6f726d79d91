"""Chemotaxis model declarations, initial states and experiment presets.

A ModelSpec describes one continuous system: cell diffusion mu, chemotactic
sensitivity (a or chi), chemoattractant decay gamma, whether the
chemoattractant equation is elliptic or parabolic, the chemoattractant
source kind (saturated u/(u+1) or linear u), and an optional logistic
growth term for the cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import Mesh
from .state import State

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

TEST4_CHI_VALUES = (6.0, 7.4, 20.0, 70.0, 80.0)


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

    def contains(self, points: np.ndarray) -> np.ndarray:
        x, y = points[:, 0], points[:, 1]
        return (
            (x > self.x_min) & (x < self.x_max) & (y > self.y_min) & (y < self.y_max)
        )


@dataclass(frozen=True)
class DiskRegion:
    """Open disk used for initial perturbations."""

    cx: float
    cy: float
    radius: float

    def contains(self, points: np.ndarray) -> np.ndarray:
        dx = points[:, 0] - self.cx
        dy = points[:, 1] - self.cy
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
    perturbation_amplitude: float = 1.0
    rng_seed: int = 42
    base_c: float = 0.0

    def __post_init__(self):
        if self.base_u < 0:
            raise ValueError(f"base_u must be >= 0, got {self.base_u}")
        if self.base_c < 0:
            raise ValueError(f"base_c must be >= 0, got {self.base_c}")


def chem_source_value(spec: ModelSpec, u):
    """Chemoattractant source as a function of the cell density.

    Saturated kind: u/(u+1) in [0, 1). Linear kind: u. Accepts scalars or
    arrays; rejects negative densities.
    """
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise ValueError("cell density must be nonnegative")
    if spec.chem_source == SOURCE_SATURATED:
        out = arr / (arr + 1.0)
    else:
        out = arr
    if np.ndim(u) == 0:
        return float(out)
    return out


def make_initial_state(mesh: Mesh, ic: InitialConditionSpec, dt: float = 0.0) -> State:
    """Realize the initial cell averages on a mesh.

    Pure function of (mesh, ic): equal inputs give bit-identical states.
    """
    u = np.full(mesh.n_cells, float(ic.base_u))
    if ic.region is not None:
        mask = ic.region.contains(mesh.cell_centers)
        n_hit = int(mask.sum())
        if n_hit:
            rng = np.random.default_rng(ic.rng_seed)  # PCG64
            eps = rng.random((n_hit, 10)).mean(axis=1)
            u[mask] += ic.perturbation_amplitude * eps
    c = np.full(mesh.n_cells, float(ic.base_c))
    return State(u=u, c=c, u_prev=u.copy(), step_index=0, dt=float(dt))


@dataclass(frozen=True)
class Preset:
    """One of the four published experiments, with its exact parameters."""

    name: str
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    nx: int
    ny: int
    t_final: float
    dt_default: float
    dt_reference: float | None
    dt_study: tuple[float, ...]
    model: ModelSpec
    ic: InitialConditionSpec = field(default_factory=InitialConditionSpec)

    def build_mesh(self) -> Mesh:
        return Mesh(self.x_range, self.y_range, self.nx, self.ny)


def preset(name: str, chi: float | None = None) -> Preset:
    """Experiment presets test1..test4; ``chi`` only applies to test4."""
    if name == "test1" or name == "test2":
        parabolic = name == "test2"
        return Preset(
            name=name,
            x_range=(-3.5, 3.5),
            y_range=(-35.0, 35.0),
            nx=35,
            ny=350,  # 12250 control volumes
            t_final=150.0,
            dt_default=1e-2,
            dt_reference=1e-3,
            dt_study=(5.0, 1.0, 5e-1, 1e-1, 5e-2, 1e-2),
            model=ModelSpec(
                cell_diffusion=0.25,
                chemo_sensitivity=2.0,
                chem_decay=1.0,
                chem_dynamics=CHEM_PARABOLIC if parabolic else CHEM_ELLIPTIC,
                chem_source=SOURCE_SATURATED,
            ),
            ic=InitialConditionSpec(
                base_u=1.0,
                region=RectRegion(-4.5, 4.5, -1.0, 1.0),
                base_c=1.0 / 32.0 if parabolic else 0.0,
            ),
        )
    if name == "test3":
        return Preset(
            name=name,
            x_range=(-8.0, 8.0),
            y_range=(-8.0, 8.0),
            nx=100,
            ny=100,
            t_final=30.0,
            dt_default=1e-3,
            dt_reference=1e-4,
            dt_study=(5e-1, 1e-1, 5e-2, 1e-2, 5e-3, 1e-3),
            model=ModelSpec(
                cell_diffusion=0.0625,
                chemo_sensitivity=6.0,
                chem_decay=16.0,
                chem_dynamics=CHEM_PARABOLIC,
                chem_source=SOURCE_LINEAR,
                growth=GROWTH_QUADRATIC,
                growth_rate=2.0,
            ),
            ic=InitialConditionSpec(
                base_u=1.0, region=DiskRegion(0.0, 0.0, 0.7), base_c=1.0 / 32.0
            ),
        )
    if name == "test4":
        return Preset(
            name=name,
            x_range=(-10.0, 10.0),
            y_range=(-10.0, 10.0),
            nx=150,
            ny=150,
            t_final=150.0,
            dt_default=1e-1,
            dt_reference=None,
            dt_study=(),
            model=ModelSpec(
                cell_diffusion=0.0625,
                chemo_sensitivity=6.0 if chi is None else float(chi),
                chem_decay=32.0,
                chem_dynamics=CHEM_PARABOLIC,
                chem_source=SOURCE_LINEAR,
                growth=GROWTH_CUBIC,
            ),
            ic=InitialConditionSpec(
                base_u=1.0, region=DiskRegion(0.0, 0.0, 1.0), base_c=1.0 / 32.0
            ),
        )
    raise ValueError(f"unknown preset {name!r}; expected test1, test2, test3 or test4")
