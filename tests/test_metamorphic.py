"""Metamorphic tests: the discrete scheme commutes with the symmetries of
the uniform rectangle.

Transposing an nx-by-ny mesh together with its state, or mirroring the
state in x or in y, maps the assembled operators onto each other up to a
permutation of the cells, so one step (and a short run) taken from the
mapped state must land on the mapped result, up to round-off; without
growth, the mass is kept as well. A spatially
uniform state sees no gradient: it stays uniform, and without growth its
density keeps its value. Every variant, both chem dynamics and all three
growth kinds are covered, on meshes with hx != hy.

The mapped runs follow the same solver path, so they agree to round-off
(``RTOL``). A uniform state's own cell solves start from a Jacobi iterate
that is not uniform at the boundary and stop at the solver's tolerance, so
its fields are held to ``LinearSolver.tol`` per step instead.
"""

import numpy as np
import pytest

from chemofv import (
    LinearSolver,
    ModelSpec,
    SchemeVariant,
    State,
    StepPlan,
    build_uniform_rect_mesh,
    step,
)
from chemofv.model import (
    CHEM_ELLIPTIC,
    CHEM_PARABOLIC,
    GROWTH_CUBIC,
    GROWTH_NONE,
    GROWTH_QUADRATIC,
)
from chemofv.scheme import VARIANT_KINDS

RTOL = 1e-13
DT = 0.01
RUN_STEPS = 5
# (x_range, y_range, nx, ny): hx = 0.1 != hy = 0.125, and hx = 0.05 != hy = 0.0625
MESHES = {
    "20x24": ((0.0, 2.0), (0.0, 3.0), 20, 24),
    "20x30": ((-0.5, 0.5), (-1.0, 0.875), 20, 30),
}
GROWTHS = (GROWTH_NONE, GROWTH_QUADRATIC, GROWTH_CUBIC)
DYNAMICS = (CHEM_ELLIPTIC, CHEM_PARABOLIC)


def model_of(dynamics, growth):
    # threshold 2 mu / a = 0.25: the jumps of c below straddle it, so the
    # limiter's central and both upwind branches all occur
    return ModelSpec(
        cell_diffusion=0.25,
        chemo_sensitivity=2.0,
        chem_decay=1.5,
        chem_dynamics=dynamics,
        growth=growth,
        growth_rate=2.0,
    )


def advance(state, mesh, model, kind, steps):
    plan = StepPlan(
        mesh=mesh,
        model=model,
        epsilon=1e-6,
        variant=SchemeVariant(kind=kind),
        dt=DT,
    )
    for _ in range(steps):
        state = step(state, plan)
    return state


def random_state(mesh, seed):
    rng = np.random.default_rng(seed)
    n = mesh.n_cells
    return State(
        u=0.5 + rng.random(n),
        c=0.5 * rng.random(n),
        u_prev=0.5 + rng.random(n),
        step_index=1,
    )


def transpose(mesh):
    """The transposed mesh and the map of a field onto it."""
    swapped = build_uniform_rect_mesh(mesh.y_range, mesh.x_range, mesh.ny, mesh.nx)
    return swapped, lambda f: f.reshape(mesh.ny, mesh.nx).T.ravel()


def mirror_x(mesh):
    return mesh, lambda f: f.reshape(mesh.ny, mesh.nx)[:, ::-1].ravel()


def mirror_y(mesh):
    return mesh, lambda f: f.reshape(mesh.ny, mesh.nx)[::-1, :].ravel()


SYMMETRIES = {"transpose": transpose, "mirror-x": mirror_x, "mirror-y": mirror_y}


def mapped(state, f):
    return State(
        u=f(state.u),
        c=f(state.c),
        u_prev=f(state.u_prev),
        step_index=state.step_index,
    )


def assert_close(got, want, what):
    error = np.max(np.abs(got - want))
    assert error <= RTOL * np.max(np.abs(want)), f"{what}: max difference {error:.3e}"


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("symmetry", sorted(SYMMETRIES))
@pytest.mark.parametrize("growth", GROWTHS)
@pytest.mark.parametrize("dynamics", DYNAMICS)
@pytest.mark.parametrize("kind", VARIANT_KINDS)
def test_step_and_run_commute_with_symmetry(kind, dynamics, growth, symmetry, mesh_name):
    mesh = build_uniform_rect_mesh(*MESHES[mesh_name])
    image_mesh, f = SYMMETRIES[symmetry](mesh)
    model = model_of(dynamics, growth)
    state = random_state(mesh, seed=sum(map(ord, kind + dynamics + growth)))
    for steps in (1, RUN_STEPS):
        direct = advance(state, mesh, model, kind, steps)
        image = advance(mapped(state, f), image_mesh, model, kind, steps)
        assert image.step_index == direct.step_index
        assert_close(image.u, f(direct.u), f"u after {steps} steps")
        assert_close(image.c, f(direct.c), f"c after {steps} steps")
        if growth == GROWTH_NONE:  # the run monitor's mass tolerance
            mass0, mass = mesh.integral(state.u), mesh.integral(direct.u)
            assert abs(mass - mass0) <= 1e-10 * mass0, f"mass after {steps} steps"


@pytest.mark.parametrize("growth", GROWTHS)
@pytest.mark.parametrize("dynamics", DYNAMICS)
@pytest.mark.parametrize("kind", VARIANT_KINDS)
def test_uniform_state_stays_uniform(kind, dynamics, growth):
    mesh = build_uniform_rect_mesh(*MESHES["20x30"])
    n = mesh.n_cells
    # u^{n-1} != u^n: the corrected variant's increment is nonzero, but uniform
    state = State(
        u=np.full(n, 1.3), c=np.full(n, 0.2), u_prev=np.full(n, 1.1), step_index=1
    )
    model = model_of(dynamics, growth)
    for steps in (1, RUN_STEPS):
        new = advance(state, mesh, model, kind, steps)
        tol = LinearSolver.tol * steps
        for name, field in (("u", new.u), ("c", new.c)):
            spread = field.max() - field.min()
            assert spread <= tol * np.max(np.abs(field)), f"{name} spread {spread:.3e}"
        if growth == GROWTH_NONE:
            error = np.max(np.abs(new.u - state.u))
            assert error <= tol * 1.3, f"u moved by {error:.3e} in {steps} steps"
