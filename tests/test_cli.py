import csv
import logging

import numpy as np
import pytest
import yaml

import chemofv
from chemofv import config
from chemofv.cli import main
from chemofv.output import read_snapshot_csv

from oracles import write_vtk_per_value


def write_config(path, outdir, nx=6, ny=6, dt=0.05, t_final=0.2, region=True, **extra):
    doc = {
        "domain": {"x_range": [-1.0, 1.0], "y_range": [-1.0, 1.0], "nx": nx, "ny": ny},
        "model": {"mu": 0.25, "chi": 2.0},
        "time": {"dt": dt, "t_final": t_final},
        "ic": {
            "base_u": 1.0,
            "seed": 7,
            "region": {
                "kind": "rect",
                "x_min": -0.5,
                "x_max": 0.5,
                "y_min": -0.5,
                "y_max": 0.5,
            }
            if region
            else None,
        },
        "output": {"directory": str(outdir)},
    }
    doc.update(extra)
    path.write_text(yaml.safe_dump(doc))
    return path


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestRun:
    def test_run_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["run", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "manifest.yaml").exists()
        rows = read_csv(out / "diagnostics.csv")
        assert rows[0][0] == "step"
        assert len(rows) == 1 + 1 + 4  # header + initial + 4 steps
        snaps = sorted(out.glob("snapshot_*.csv"))
        assert len(snaps) == 1
        data = read_csv(snaps[0])
        assert data[0] == ["cell_index", "cx", "cy", "u", "c"]
        assert len(data) == 1 + 36
        values = np.array([[float(v) for v in row] for row in data[1:]])
        assert np.all(np.isfinite(values))

    def test_run_with_preset_and_overrides(self, tmp_path):
        code = main(
            [
                "run",
                "--preset",
                "test1",
                "--set",
                "domain.nx=8",
                "--set",
                "domain.ny=16",
                "--set",
                "time.dt=0.05",
                "--set",
                "time.t_final=0.2",
                "--output-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == 0
        manifest = yaml.safe_load((tmp_path / "o" / "manifest.yaml").read_text())
        assert manifest["domain"]["nx"] == 8
        assert manifest["model"]["mu"] == 0.25
        assert manifest["scheme"]["variant"] == "corrected-decoupled"

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.yaml")]) == 2

    def test_no_config_at_all_exits_2(self):
        assert main(["run"]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        doc = yaml.safe_load(cfg.read_text())
        doc["solver"] = {"tol": 1e-9}
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg)]) == 2

    def test_unknown_section_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["run", str(cfg), "--set", "model.nu=3"]) == 2

    def test_manifest_round_trip_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out1")
        assert main(["run", str(cfg)]) == 0
        manifest = tmp_path / "out1" / "manifest.yaml"
        assert main(["run", str(manifest), "--output-dir", str(tmp_path / "out2")]) == 0
        first = (tmp_path / "out1" / "diagnostics.csv").read_bytes()
        second = (tmp_path / "out2" / "diagnostics.csv").read_bytes()
        assert first == second

    def test_manifest_round_trip_snapshots_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out1")
        csv_vtk = ["--set", "output.format=csv+vtk", "--set", "output.snapshot_every=1"]
        assert main(["run", str(cfg), *csv_vtk]) == 0
        manifest = tmp_path / "out1" / "manifest.yaml"
        assert main(["run", str(manifest), "--output-dir", str(tmp_path / "out2")]) == 0

        def snapshot_files(out):
            return sorted(
                p.name for pattern in ("snapshot_*.csv", "*.vtk") for p in out.glob(pattern)
            )

        names = snapshot_files(tmp_path / "out1")
        assert len(names) == 4 * 3  # steps 1 to 4: one CSV and two VTK files each
        assert snapshot_files(tmp_path / "out2") == names
        for name in names:
            first = (tmp_path / "out1" / name).read_bytes()
            assert (tmp_path / "out2" / name).read_bytes() == first, name

    def test_csv_and_csv_vtk_runs_write_the_same_snapshots(self, tmp_path):
        """One pass writes a snapshot's CSV and both VTK files: the CSV does
        not depend on the format, and each VTK file holds the values the CSV
        reads back bit for bit."""
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "unused", nx=7, ny=5)
        for fmt in ("csv", "csv+vtk"):
            argv = ["run", str(cfg), "--output-dir", str(tmp_path / fmt)]
            argv += ["--set", "output.snapshot_every=2", "--set", f"output.format={fmt}"]
            assert main(argv) == 0
        assert not list((tmp_path / "csv").glob("*.vtk"))
        csvs = sorted(p.name for p in (tmp_path / "csv").glob("snapshot_*.csv"))
        assert csvs == ["snapshot_00000002.csv", "snapshot_00000004.csv"]
        mesh = config.resolve(yaml.safe_load(cfg.read_text())).run.mesh
        for name in csvs:
            snap = tmp_path / "csv+vtk" / name
            assert snap.read_bytes() == (tmp_path / "csv" / name).read_bytes(), name
            data = read_snapshot_csv(snap)
            for field in ("u", "c"):
                vtk = snap.with_name(f"{snap.stem}_{field}.vtk")
                write_vtk_per_value(tmp_path / "want.vtk", mesh, data[field], field)
                assert vtk.read_bytes() == (tmp_path / "want.vtk").read_bytes(), vtk.name

    def test_vtk_output(self, tmp_path):
        cfg = write_config(
            tmp_path / "run.yaml",
            tmp_path / "out",
            t_final=0.1,
        )
        assert main(["run", str(cfg), "--set", "output.format=csv+vtk"]) == 0
        vtks = sorted((tmp_path / "out").glob("*.vtk"))
        assert len(vtks) == 2  # u and c for the final snapshot
        text = vtks[0].read_text().splitlines()
        assert text[0] == "# vtk DataFile Version 3.0"
        assert text[3] == "DATASET STRUCTURED_POINTS"
        assert text[4] == "DIMENSIONS 6 6 1"
        assert len(text) == 10 + 36

    @pytest.mark.parametrize(
        "assignment",
        ["domain.nx=6.9", "domain.ny=true", "output.snapshot_every=1.5", "ic.seed=2.5",
         "domain.nx=abc", "domain.nx=[1,2]"],
    )
    def test_non_integral_integer_value_exits_2(self, tmp_path, assignment, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["run", str(cfg), "--set", assignment]) == 2
        assert assignment.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["output.snapshot_every", "output.diagnostics_every"])
    def test_negative_cadence_exits_2(self, tmp_path, key, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["run", str(cfg), "--set", f"{key}=-1"]) == 2
        assert key.split(".")[1] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert main(["run", str(cfg), "--set", f"{key}=0"]) == 0

    def test_negative_seed_exits_2_before_making_the_directory(self, tmp_path, capsys):
        out = tmp_path / "o1"
        argv = ["run", "--preset", "test1", "--set", "domain.nx=8", "--set", "domain.ny=80"]
        argv += ["--set", "time.t_final=0.02", "--set", "ic.seed=-1", "--output-dir", str(out)]
        assert main(argv) == 2
        assert "rng_seed must be a non-negative integer, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "assignment",
        ["time.t_final=.inf", "time.dt=.inf", "time.dt=.nan", "model.chi=.nan", "model.mu=.inf"],
    )
    def test_non_finite_value_exits_2(self, tmp_path, assignment, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["run", str(cfg), "--set", assignment]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "assignment",
        [
            "model.mu=true",
            "time.dt=true",
            "scheme.epsilon=false",
            "domain.x_range=[true, 5]",
            "ic.region={kind: disk, cx: 0.0, cy: false, radius: 0.5}",
        ],
    )
    def test_boolean_float_value_exits_2(self, tmp_path, assignment, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["run", str(cfg), "--set", assignment]) == 2
        assert assignment.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "region,key",
        [
            ("{kind: rect, x_min: -0.5, x_max: 0.5, y_min: -0.5, y_max: 0.5, radius: 5}",
             "radius"),
            ("{kind: disk, cx: 0.0, cy: 0.0, radius: 0.5, x_min: -1}", "x_min"),
            ("{kind: disk, cx: 0.0, cy: 0.0, radius: 0.5, r: 0.5}", "'r'"),
        ],
    )
    def test_region_key_outside_its_kind_exits_2(self, tmp_path, region, key, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["run", str(cfg), "--set", f"ic.region={region}"]) == 2
        err = capsys.readouterr().err
        assert "ic.region" in err and key in err
        assert not (tmp_path / "out").exists()

    def test_integral_and_string_float_values_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out", t_final=0.1)
        argv = ["run", str(cfg), "--set", "model.chi=2", "--set", "domain.x_range=[-1, '1.0']"]
        argv += ["--set", "time.dt='0.05'"]
        assert main(argv) == 0
        manifest = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
        assert manifest["model"]["chi"] == 2.0 and type(manifest["model"]["chi"]) is float
        assert manifest["domain"]["x_range"] == [-1.0, 1.0]
        assert manifest["time"]["dt"] == 0.05

    def test_integral_float_integer_values_accepted(self, tmp_path):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out", t_final=0.1)
        overrides = ["domain.nx=4.0", "ic.seed=7.0", "output.diagnostics_every=1.0"]
        argv = ["run", str(cfg)]
        for item in overrides:
            argv += ["--set", item]
        assert main(argv) == 0
        manifest = yaml.safe_load((tmp_path / "out" / "manifest.yaml").read_text())
        assert manifest["domain"]["nx"] == 4 and type(manifest["domain"]["nx"]) is int
        assert manifest["ic"]["seed"] == 7 and type(manifest["ic"]["seed"]) is int
        assert len(read_csv(tmp_path / "out" / "diagnostics.csv")) == 1 + 1 + 2


TEST1_MANIFEST = """\
version: 0.1.0
domain:
  x_range:
  - -3.5
  - 3.5
  y_range:
  - -35.0
  - 35.0
  nx: 35
  ny: 350
model:
  mu: 0.25
  chi: 2.0
  gamma: 1.0
  chem_dynamics: elliptic
  chem_source: saturated
  growth: none
  growth_rate: 1.0
scheme:
  variant: corrected-decoupled
  epsilon: 1.0e-06
  beta_policy: fixed1
time:
  dt: 0.01
  t_final: 150.0
ic:
  base_u: 1.0
  base_c: 0.0
  region:
    kind: rect
    x_min: -4.5
    x_max: 4.5
    y_min: -1.0
    y_max: 1.0
  seed: 42
output:
  directory: out
  snapshot_every: 0
  diagnostics_every: 1
  format: csv
"""

TEST3_MANIFEST = """\
version: 0.1.0
domain:
  x_range:
  - -8.0
  - 8.0
  y_range:
  - -8.0
  - 8.0
  nx: 100
  ny: 100
model:
  mu: 0.0625
  chi: 6.0
  gamma: 16.0
  chem_dynamics: parabolic
  chem_source: linear
  growth: quadratic_logistic
  growth_rate: 2.0
scheme:
  variant: corrected-decoupled
  epsilon: 1.0e-06
  beta_policy: fixed1
time:
  dt: 0.001
  t_final: 30.0
ic:
  base_u: 1.0
  base_c: 0.03125
  region:
    kind: disk
    cx: 0.0
    cy: 0.0
    radius: 0.7
  seed: 42
output:
  directory: out
  snapshot_every: 0
  diagnostics_every: 1
  format: csv
"""


class TestResolvedDocument:
    def test_test1_manifest_text_pinned(self, tmp_path):
        resolved = config.resolve({"preset": "test1", "output": {"directory": "out"}})
        config.write_manifest(tmp_path / "manifest.yaml", resolved)
        assert (tmp_path / "manifest.yaml").read_text() == TEST1_MANIFEST

    def test_test3_manifest_text_pinned(self, tmp_path):
        # a disk region, parabolic dynamics and logistic growth
        resolved = config.resolve({"preset": "test3", "output": {"directory": "out"}})
        config.write_manifest(tmp_path / "manifest.yaml", resolved)
        assert (tmp_path / "manifest.yaml").read_text() == TEST3_MANIFEST

    @pytest.mark.parametrize(
        "name, chi",
        [(n, None) for n in ("test1", "test2", "test3", "test4")]
        + [("test4", 80.0), ("test1", 80.0), ("test3", 3.0)],
    )
    def test_preset_matches_resolved_run(self, name, chi):
        p = chemofv.preset(name, chi=chi)
        doc = {"preset": name} if chi is None else {"preset": name, "model": {"chi": chi}}
        run = config.resolve(doc).run
        assert (run.mesh.x_range, run.mesh.y_range) == (p.x_range, p.y_range)
        assert (run.mesh.nx, run.mesh.ny) == (p.nx, p.ny)
        assert (run.model, run.ic) == (p.model, p.ic)
        assert (run.dt, run.t_final) == (p.dt_default, p.t_final)

    @pytest.mark.parametrize("name", ["test1", "test2", "test3", "test4"])
    def test_preset_document_resolves_like_its_name(self, name):
        assert config.resolve(config.PRESETS[name]).doc == config.resolve({"preset": name}).doc

    @pytest.mark.parametrize("name", ["test1", "test2", "test3", "test4"])
    def test_resolved_document_is_a_fixed_point(self, name):
        doc = config.resolve({"preset": name}).doc
        assert config.resolve(doc).doc == doc

    @pytest.mark.parametrize("name", ["test1", "test2", "test3", "test4"])
    def test_resolved_run_is_strict(self, name):
        # the CLI raises on a broken run invariant; structure checks stay off
        run = config.resolve({"preset": name}).run
        assert run.strict and not run.check_matrices


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "assignment,key",
        [("ic.base_u=.nan", "base_u"), ("domain.x_range=[0,.inf]", "x_range"),
         ("ic.base_c=.inf", "base_c")],
    )
    def test_exits_2_naming_the_key(self, tmp_path, capsys, assignment, key):
        out = tmp_path / "out"
        argv = ["run", "--preset", "test1", "--set", "domain.nx=8", "--set", "domain.ny=8",
                "--set", "time.t_final=0.05", "--set", assignment, "--output-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err and "finite" in err
        assert not out.exists()


class TestMalformedRunInputs:
    def test_step_count_overflow_exits_2(self, tmp_path, capsys):
        # 1e318 steps: the step count used to overflow with a traceback, exit 1
        out = tmp_path / "o1"
        argv = ["run", "--preset", "test1", "--set", "domain.nx=4", "--set", "domain.ny=8",
                "--set", "time.t_final=1e308", "--set", "time.dt=1e-10", "--output-dir", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "t_final / dt is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("base_u", ["0.21", "0.19"])
    def test_negative_growth_rate_exits_2(self, tmp_path, capsys, base_u):
        # r < 0 takes the cell matrix out of the M-matrix class: at u = 0.21
        # the run used to end with only a "c dips" warning, at 0.19 with u < 0
        out = tmp_path / "o1"
        argv = ["run", "--preset", "test3", "--output-dir", str(out)]
        for assignment in ("domain.nx=20", "domain.ny=20", "time.dt=0.1", "time.t_final=0.5",
                           "model.growth=quadratic_logistic", "model.growth_rate=-50",
                           "ic.region=null", f"ic.base_u={base_u}"):
            argv += ["--set", assignment]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "growth_rate must be >= 0, got -50" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "region",
        [
            "{kind: rect, x_min: .nan, x_max: 0.5, y_min: -0.5, y_max: 0.5}",
            "{kind: rect, x_min: 0.5, x_max: 0.5, y_min: -0.5, y_max: 0.5}",
            "{kind: rect, x_min: -0.5, x_max: 0.5, y_min: 0.5, y_max: -0.5}",
            "{kind: disk, cx: 0, cy: .nan, radius: 0.5}",
            "{kind: disk, cx: 0, cy: 0, radius: 0}",
            "{kind: disk, cx: 0, cy: 0, radius: -1}",
        ],
        ids=["rect-nan", "rect-empty-x", "rect-reversed-y", "disk-nan", "disk-zero-radius",
             "disk-negative-radius"],
    )
    def test_malformed_region_exits_2(self, tmp_path, region, capsys):
        # a negative radius used to run to the end, with only a warning
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["run", str(cfg), "--set", f"ic.region={region}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: region needs")
        assert not (tmp_path / "out").exists()


class TestRunExtras:
    def test_uncreatable_output_dir_fails_before_the_run(self, tmp_path, monkeypatch, capsys):
        def no_run(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(chemofv.sim, "run", no_run)
        (tmp_path / "file").write_text("")
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "file" / "out")
        assert main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CHEMOFV_OUTPUT_DIR", str(tmp_path / "envout"))
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "ignored")
        doc = yaml.safe_load(cfg.read_text())
        del doc["output"]  # fall back to the env var
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "envout" / "diagnostics.csv").exists()

    def test_test4_preset_with_chi_override(self, tmp_path):
        code = main(
            [
                "run",
                "--preset",
                "test4",
                "--set",
                "model.chi=80",
                "--set",
                "domain.nx=12",
                "--set",
                "domain.ny=12",
                "--set",
                "time.t_final=0.5",
                "--output-dir",
                str(tmp_path / "o4"),
            ]
        )
        assert code == 0
        manifest = yaml.safe_load((tmp_path / "o4" / "manifest.yaml").read_text())
        assert manifest["model"]["chi"] == 80
        assert manifest["model"]["growth"] == "cubic_logistic"


class TestStudy:
    def test_single_dt_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "s.yaml", tmp_path / "out")
        assert main(["study", str(cfg), "--dt", "0.1"]) == 2

    def test_repeated_dt_is_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.yaml", tmp_path / "out", t_final=0.1)
        argv = ["study", str(cfg), "--dt", "0.05", "0.1", "0.05", "--reference-dt", "0.01"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "step sizes must be distinct: dt=0.05 is repeated" in err
        assert not (tmp_path / "out").exists()

    def test_two_variant_study(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "s.yaml", tmp_path / "out", t_final=0.2)
        code = main(
            [
                "study",
                str(cfg),
                "--dt",
                "0.1",
                "0.05",
                "--reference-dt",
                "0.01",
                "--variants",
                "corrected-decoupled",
                "plain-decoupled",
            ]
        )
        assert code == 0
        rows = read_csv(tmp_path / "out" / "study.csv")
        assert rows[0] == ["variant", "dt", "l2_error", "rate"]
        assert len(rows) == 1 + 4  # two variants x two dts
        variants = {row[0] for row in rows[1:]}
        assert variants == {"corrected-decoupled", "plain-decoupled"}
        table = capsys.readouterr().out
        assert "L2-error corrected-decoupled" in table
        assert (tmp_path / "out" / "study.txt").exists()

    # test1 on a 6x36 grid: the middle two rows of cells start perturbed
    SMALL_TEST1 = ["--preset", "test1", "--set", "domain.nx=6", "--set", "domain.ny=36",
                   "--set", "time.t_final=1.0", "--dt", "0.2", "0.1", "--reference-dt", "0.05"]

    def test_default_epsilon_study_text_pinned(self, tmp_path):
        assert main(["study", *self.SMALL_TEST1, "--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "study.txt").read_text() == (
            "reference dt = 0.05, field = u\n"
            "dt   L2-error corrected-decoupled  rate   L2-error plain-decoupled  rate\n"
            "------------------------------------------------------------------------\n"
            "0.2  6.582e-05                     ---    1.881e-04                 ---\n"
            "0.1  1.957e-05                     1.750  9.051e-05                 1.055\n"
        )

    def test_members_run_at_the_configured_epsilon(self, tmp_path):
        texts = []
        for name, extra in (("default", []), ("eps", ["--set", "scheme.epsilon=0.2"])):
            out = tmp_path / name
            assert main(["study", *self.SMALL_TEST1, *extra, "--output-dir", str(out)]) == 0
            texts.append((out / "study.csv").read_text())
        assert texts[0] != texts[1]

    @pytest.mark.parametrize("reference_dt", ["0.05", "0"])
    def test_reference_dt_not_below_members_exits_2(self, tmp_path, reference_dt, capsys):
        cfg = write_config(tmp_path / "s.yaml", tmp_path / "out", t_final=0.1)
        argv = ["study", str(cfg), "--dt", "0.1", "0.05", "--reference-dt", reference_dt]
        assert main(argv) == 2
        assert "dt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_uncreatable_output_dir_fails_before_the_first_run(self, tmp_path, capsys, caplog):
        # the directory used to be made only after every member had run
        (tmp_path / "file").write_text("")
        argv = ["study", *self.SMALL_TEST1, "--output-dir", str(tmp_path / "file" / "out")]
        with caplog.at_level(logging.INFO, logger="chemofv"):
            assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert [r.message for r in caplog.records if r.message.startswith("study:")] == []


class TestOracleCheck:
    def test_uniform_data_passes_with_zero_distances(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "o.yaml", tmp_path / "out", region=False)
        assert main(["oracle-check", str(cfg)]) == 0
        out = capsys.readouterr().out
        distances = [
            float(line.rsplit("=", 1)[1])
            for line in out.splitlines()
            if line.startswith("distance(")
        ]
        assert len(distances) == 2
        assert all(d <= 1e-14 for d in distances)  # zero up to roundoff

    def test_perturbed_data_passes(self, tmp_path):
        cfg = write_config(tmp_path / "o.yaml", tmp_path / "out", nx=8, ny=8, dt=0.1)
        assert main(["oracle-check", str(cfg)]) == 0

    @pytest.mark.parametrize("dt", [0.0, -0.05])
    def test_nonpositive_dt_exits_2(self, tmp_path, dt, capsys):
        cfg = write_config(tmp_path / "o.yaml", tmp_path / "out", dt=dt)
        assert main(["oracle-check", str(cfg)]) == 2
        assert "dt must be positive" in capsys.readouterr().err

    def test_oversized_grid_refused(self, tmp_path):
        cfg = write_config(tmp_path / "o.yaml", tmp_path / "out", nx=70, ny=70)
        assert main(["oracle-check", str(cfg)]) == 2

    def test_one_cell_above_the_limit_refused_before_any_step(
        self, tmp_path, monkeypatch, capsys
    ):
        from chemofv import cli
        from chemofv.scheme import ORACLE_CELL_LIMIT

        assert 17 * 241 == ORACLE_CELL_LIMIT + 1
        steps = []
        monkeypatch.setattr(cli, "step", lambda *args: steps.append(args))
        monkeypatch.setattr(cli, "step_coupled_oracle", lambda *args: steps.append(args))
        cfg = write_config(tmp_path / "o.yaml", tmp_path / "out", nx=17, ny=241)
        assert main(["oracle-check", str(cfg)]) == 2
        assert f"4097 cells exceed the limit of {ORACLE_CELL_LIMIT}" in capsys.readouterr().err
        assert steps == []

    @pytest.mark.parametrize("option", ["--warmup", "--cell-limit"])
    def test_removed_options_rejected(self, tmp_path, option, capsys):
        # one warm-up step and the scheme's cell limit are fixed, not options
        cfg = write_config(tmp_path / "o.yaml", tmp_path / "out", nx=4, ny=4)
        assert main(["oracle-check", str(cfg), option, "5000"]) == 2
        assert f"unrecognized arguments: {option} 5000" in capsys.readouterr().err

    def test_oracle_nonconvergence_exits_3(self, tmp_path, monkeypatch):
        from chemofv import cli
        from chemofv.scheme import SchemeError

        def boom(*args, **kwargs):
            raise SchemeError("coupled oracle did not converge in 200 iterations")

        monkeypatch.setattr(cli, "step_coupled_oracle", boom)
        cfg = write_config(tmp_path / "o.yaml", tmp_path / "out", nx=4, ny=4)
        assert main(["oracle-check", str(cfg)]) == 3


class TestContour:
    def run_and_snapshot(self, tmp_path, **kwargs):
        cfg = write_config(tmp_path / "c.yaml", tmp_path / "out", **kwargs)
        assert main(["run", str(cfg)]) == 0
        return sorted((tmp_path / "out").glob("snapshot_*.csv"))[0]

    def test_constant_field_gives_constant_profile(self, tmp_path):
        snap = self.run_and_snapshot(tmp_path, region=False, t_final=0.05)
        out = tmp_path / "contour.csv"
        assert main(["contour", str(snap), "--x0", "0.0", "--output", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["y", "u"]
        values = np.array([float(r[1]) for r in rows[1:]])
        assert values.shape == (6,)
        np.testing.assert_allclose(values, values[0])

    def test_x0_outside_domain_fails(self, tmp_path):
        snap = self.run_and_snapshot(tmp_path, t_final=0.05)
        assert main(["contour", str(snap), "--x0", "9.0"]) == 2

    def test_malformed_snapshot_fails(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("who,knows\n1,2\n")
        assert main(["contour", str(bad), "--x0", "0.0"]) == 2
