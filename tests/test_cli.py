import csv

import numpy as np
import pytest
import yaml

from chemofv import config
from chemofv.cli import main


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
        ["domain.nx=6.9", "domain.ny=true", "output.snapshot_every=1.5", "ic.seed=2.5"],
    )
    def test_non_integral_integer_value_exits_2(self, tmp_path, assignment, capsys):
        cfg = write_config(tmp_path / "run.yaml", tmp_path / "out")
        assert main(["run", str(cfg), "--set", assignment]) == 2
        assert assignment.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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


class TestResolvedDocument:
    def test_test1_manifest_text_pinned(self, tmp_path):
        resolved = config.resolve({"preset": "test1", "output": {"directory": "out"}})
        config.write_manifest(tmp_path / "manifest.yaml", resolved)
        assert (tmp_path / "manifest.yaml").read_text() == TEST1_MANIFEST

    @pytest.mark.parametrize("name", ["test1", "test2", "test3", "test4"])
    def test_resolved_document_is_a_fixed_point(self, name):
        doc = config.resolve({"preset": name}).doc
        assert config.resolve(doc).doc == doc


class TestRunExtras:
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

    def test_oversized_grid_refused(self, tmp_path):
        cfg = write_config(tmp_path / "o.yaml", tmp_path / "out", nx=70, ny=70)
        assert main(["oracle-check", str(cfg)]) == 2

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
