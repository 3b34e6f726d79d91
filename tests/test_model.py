import logging

import numpy as np
import pytest

from chemofv import (
    DiskRegion,
    InitialConditionSpec,
    ModelSpec,
    RectRegion,
    State,
    build_uniform_rect_mesh,
    chem_source_value,
    make_initial_state,
    preset,
)
from chemofv.model import (
    CHEM_PARABOLIC,
    GROWTH_CUBIC,
    GROWTH_QUADRATIC,
    SOURCE_LINEAR,
    SOURCE_SATURATED,
)

from oracles import initial_state_reference


def saturated_model():
    return ModelSpec(cell_diffusion=0.25, chemo_sensitivity=2.0)


def linear_model():
    return ModelSpec(cell_diffusion=0.25, chemo_sensitivity=2.0, chem_source=SOURCE_LINEAR)


class TestChemSource:
    def test_saturated_values(self):
        model = saturated_model()
        assert chem_source_value(model, 0.0) == 0.0
        assert chem_source_value(model, 1.0) == 0.5

    def test_linear_is_identity(self):
        assert chem_source_value(linear_model(), 3.25) == 3.25

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            chem_source_value(saturated_model(), -0.1)
        with pytest.raises(ValueError):
            chem_source_value(saturated_model(), np.array([0.5, -1e-9]))

    def test_saturated_monotone_and_bounded(self):
        model = saturated_model()
        u = np.linspace(0.0, 100.0, 1000)
        g = chem_source_value(model, u)
        assert np.all(np.diff(g) >= 0.0)
        assert np.all(g >= 0.0)
        assert np.all(g < 1.0)

    def test_saturated_lipschitz_constant_one(self):
        # |u/(u+1) - v/(v+1)| <= |u - v| on nonnegative pairs
        model = saturated_model()
        rng = np.random.default_rng(7)
        u = rng.random(10_000) * 50.0
        v = rng.random(10_000) * 50.0
        lhs = np.abs(chem_source_value(model, u) - chem_source_value(model, v))
        assert np.all(lhs <= np.abs(u - v) + 1e-15)


class TestInitialState:
    def test_empty_region_gives_constant_field(self, mesh_small):
        state = make_initial_state(mesh_small, InitialConditionSpec(base_u=1.0))
        np.testing.assert_array_equal(state.u, np.ones(mesh_small.n_cells))
        np.testing.assert_array_equal(state.u_prev, state.u)
        assert state.step_index == 0

    def test_perturbed_cells_land_in_unit_band(self, mesh_small):
        ic = InitialConditionSpec(
            base_u=1.0, region=RectRegion(0.0, 1.0, 0.0, 1.0), rng_seed=42
        )
        state = make_initial_state(mesh_small, ic)
        assert np.all(state.u >= 1.0)
        assert np.all(state.u <= 2.0)
        assert np.any(state.u > 1.0)

    def test_equal_seeds_bitwise_identical(self, mesh_small):
        ic = InitialConditionSpec(
            base_u=1.0, region=DiskRegion(0.5, 0.5, 0.4), rng_seed=1234
        )
        a = make_initial_state(mesh_small, ic)
        b = make_initial_state(mesh_small, ic)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.c, b.c)

    def test_different_seeds_differ(self, mesh_small):
        region = RectRegion(0.0, 1.0, 0.0, 1.0)
        a = make_initial_state(mesh_small, InitialConditionSpec(region=region, rng_seed=1))
        b = make_initial_state(mesh_small, InitialConditionSpec(region=region, rng_seed=2))
        assert not np.array_equal(a.u, b.u)

    def test_base_c_fills_chem_field(self, mesh_small):
        state = make_initial_state(mesh_small, InitialConditionSpec(base_c=1.0 / 32.0))
        np.testing.assert_array_equal(state.c, np.full(mesh_small.n_cells, 1.0 / 32.0))

    def test_negative_base_rejected(self):
        with pytest.raises(ValueError):
            InitialConditionSpec(base_u=-1.0)

    @pytest.mark.parametrize("nx,ny", [(1, 1), (1, 9), (9, 1), (7, 5), (150, 150)])
    @pytest.mark.parametrize(
        "region",
        [RectRegion(0.4, 2.1, -1.3, 0.9), DiskRegion(1.5, 0.0, 1.2)],
        ids=["rect", "disk"],
    )
    def test_bit_identical_to_point_wise_reference(self, nx, ny, region):
        mesh = build_uniform_rect_mesh((0.0, 3.0), (-2.0, 2.0), nx, ny)
        ic = InitialConditionSpec(base_u=1.0, region=region, rng_seed=7, base_c=0.25)
        state = make_initial_state(mesh, ic)
        u, c = initial_state_reference(mesh, ic)
        assert np.any(u > 1.0)
        assert state.u.tobytes() == u.tobytes()
        assert state.c.tobytes() == c.tobytes()

    @pytest.mark.parametrize("name", ["test1", "test2", "test3", "test4"])
    def test_presets_bit_identical_to_point_wise_reference(self, name):
        p = preset(name)
        mesh = p.build_mesh()
        state = make_initial_state(mesh, p.ic)
        u, c = initial_state_reference(mesh, p.ic)
        assert state.u.tobytes() == u.tobytes()
        assert state.c.tobytes() == c.tobytes()


class TestRegionMissesMesh:
    def warnings(self, caplog, mesh, ic):
        with caplog.at_level(logging.WARNING, logger="chemofv.model"):
            state = make_initial_state(mesh, ic)
        records = [r for r in caplog.records if r.name == "chemofv.model"]
        return state, records

    def test_warns_when_no_center_lies_inside(self, caplog):
        # test1's band |y| < 1 lies between the centers y = +-2.9 of 6x12 cells
        p = preset("test1")
        mesh = build_uniform_rect_mesh(p.x_range, p.y_range, 6, 12)
        state, records = self.warnings(caplog, mesh, p.ic)
        assert np.all(state.u == p.ic.base_u)
        [record] = records
        assert record.levelno == logging.WARNING
        assert repr(p.ic.region) in record.getMessage()
        assert "6x12 mesh" in record.getMessage()

    def test_silent_when_the_region_hits(self, caplog):
        p = preset("test1")
        _, records = self.warnings(caplog, p.build_mesh(), p.ic)
        assert records == []

    def test_silent_without_a_region(self, caplog, mesh_small):
        _, records = self.warnings(caplog, mesh_small, InitialConditionSpec(region=None))
        assert records == []


class TestState:
    @pytest.mark.parametrize("u", [np.ones((3, 2)), np.ones((1, 3)), np.array(1.0)])
    def test_u_must_be_one_dimensional(self, u):
        with pytest.raises(ValueError, match="one-dimensional"):
            State(u=u, c=np.ones(3), u_prev=np.ones(3), step_index=1)

    @pytest.mark.parametrize("name", ["u", "c", "u_prev"])
    def test_fields_must_be_arrays(self, name):
        fields = {"u": np.ones(2), "c": np.ones(2), "u_prev": np.ones(2)}
        fields[name] = [1.0, 2.0]
        with pytest.raises(ValueError, match=f"^{name} must be an array, got list"):
            State(**fields, step_index=1)

    def test_c_and_u_prev_must_match_u(self):
        with pytest.raises(ValueError, match="identical shapes"):
            State(u=np.ones(3), c=np.ones(4), u_prev=np.ones(3), step_index=1)
        with pytest.raises(ValueError, match="identical shapes"):
            State(u=np.ones(3), c=np.ones(3), u_prev=np.ones((3, 1)), step_index=1)


class TestModelValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cell_diffusion": 0.0, "chemo_sensitivity": 1.0},
            {"cell_diffusion": 1.0, "chemo_sensitivity": -2.0},
            {"cell_diffusion": 1.0, "chemo_sensitivity": 1.0, "chem_decay": 0.0},
            {"cell_diffusion": 1.0, "chemo_sensitivity": 1.0, "growth": "exp"},
        ]
        + [
            {"cell_diffusion": 1.0, "chemo_sensitivity": 1.0, name: value}
            for name in ("cell_diffusion", "chemo_sensitivity", "chem_decay", "growth_rate")
            for value in (float("nan"), float("inf"))
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ModelSpec(**kwargs)


class TestPresets:
    def test_test1_parameters(self):
        p = preset("test1")
        assert p.model.cell_diffusion == 0.25
        assert p.model.chemo_sensitivity == 2.0
        assert p.model.chem_decay == 1.0
        assert p.model.chem_source == SOURCE_SATURATED
        assert p.nx * p.ny == 12250
        assert p.x_range == (-3.5, 3.5)
        assert p.y_range == (-35.0, 35.0)
        assert p.t_final == 150.0
        assert isinstance(p.ic.region, RectRegion)
        assert (p.ic.region.x_min, p.ic.region.x_max) == (-4.5, 4.5)

    def test_test2_is_parabolic_with_initial_chem(self):
        p = preset("test2")
        assert p.model.chem_dynamics == CHEM_PARABOLIC
        assert p.ic.base_c == 1.0 / 32.0
        assert p.t_final == 150.0

    def test_test3_parameters(self):
        p = preset("test3")
        assert p.model.chem_decay == 16.0
        assert p.model.chemo_sensitivity == 6.0
        assert p.model.cell_diffusion == 0.0625
        assert p.model.growth == GROWTH_QUADRATIC
        assert p.model.growth_rate == 2.0
        assert p.model.chem_source == SOURCE_LINEAR
        assert (p.nx, p.ny) == (100, 100)
        assert p.ic.region == DiskRegion(0.0, 0.0, 0.7)

    def test_test4_parameters(self):
        p = preset("test4", chi=80.0)
        assert p.model.chem_decay == 32.0
        assert p.dt_default == 0.1
        assert p.model.chemo_sensitivity == 80.0
        assert p.model.growth == GROWTH_CUBIC
        assert (p.nx, p.ny) == (150, 150)
        assert p.ic.region == DiskRegion(0.0, 0.0, 1.0)
        assert preset("test4").model.chemo_sensitivity == 6.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("test9")

    def test_test1_perturbation_clips_to_domain(self):
        # The stated strip is wider than the domain; membership by center
        # only ever selects in-domain cells.
        p = preset("test1")
        mesh = build_uniform_rect_mesh(p.x_range, p.y_range, p.nx, p.ny)
        state = make_initial_state(mesh, p.ic)
        perturbed = state.u > p.ic.base_u
        inside_band = np.repeat(np.abs(mesh.y_centers) < 1.0, mesh.nx)
        assert np.array_equal(perturbed, inside_band)
