"""Config parsing, file formats, and the command-line interface."""

from pathlib import Path

import numpy as np
import pytest

from igtop.cli import main
from igtop.config import load_config, parse_config
from igtop.driver import HistoryRecord, analyze, cantilever, run
from igtop.enrich import build_enriched_model, snap_nodal_levelset
from igtop.errors import ConfigError
from igtop.mesh import structured_grid
from igtop.output import (read_design, read_history, write_contour,
                          write_design, write_history, write_vtk)

REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def tiny_config(tmp_path, extra=""):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        "[problem]\n"
        "name = cantilever\n"
        "nx = 11\n"
        "ny = 6\n"
        "rbf_nx = 11\n"
        "rbf_ny = 6\n"
        "budget = 3\n"
        f"{extra}"
        "\n[output]\n"
        f"directory = {tmp_path / 'out'}\n"
        "snapshot_every = 1\n")
    return cfg


class TestConfig:
    def test_full_roundtrip(self, tmp_path):
        cfg = load_config(tiny_config(tmp_path))
        assert cfg.problem.name == "cantilever"
        assert (cfg.problem.nx, cfg.problem.ny) == (11, 6)
        assert cfg.problem.budget == 3
        assert cfg.output.snapshot_every == 1
        assert cfg.output.directory == tmp_path / "out"

    def test_defaults(self):
        cfg = parse_config("[problem]\nname = heat_sink\n")
        assert cfg.problem.budget == 100
        assert cfg.output.history == "history.csv"
        assert cfg.output.vtk and cfg.output.contour
        assert cfg.output.snapshot_every == 10
        assert not cfg.output.gradient_check

    def test_volume_fraction_must_be_a_fraction(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[problem]\nname = cantilever\n"
                         "volume_fraction = 1.5\n")
        assert "volume_fraction" in str(err.value)

    def test_output_root_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("IGTOP_OUTPUT_ROOT", str(tmp_path / "root"))
        path = tmp_path / "case.cfg"
        path.write_text("[problem]\nname = cantilever\n"
                        "[output]\ndirectory = out/x\n")
        cfg = load_config(path)
        assert cfg.output.directory == tmp_path / "root" / "out" / "x"

    def test_relative_directory_is_anchored_at_config(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text("[problem]\nname = cantilever\n"
                        "[output]\ndirectory = out/x\n")
        cfg = load_config(path)
        assert cfg.output.directory == tmp_path / "out" / "x"

    def test_errors_are_aggregated(self):
        bad = ("[problem]\nname = cantilever\nnx = many\nwidth = 3\n"
               "[output]\nvtk = maybe\n[extra]\nk = v\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        msg = str(exc.value)
        assert "nx" in msg
        assert "width" in msg  # not an overridable problem key
        assert "vtk" in msg
        assert "[extra]" in msg

    def test_unknown_problem_name(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            parse_config("[problem]\nname = tower\n")

    def test_missing_name(self):
        with pytest.raises(ConfigError, match="must set 'name'"):
            parse_config("[problem]\nbudget = 5\n")

    def test_syntax_error(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config("name = cantilever\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "nope.cfg")

    @pytest.mark.parametrize("name", ["cantilever", "mbb", "heat_sink"])
    def test_shipped_configs_parse(self, name):
        cfg = load_config(REPO_CONFIGS / f"{name}.cfg")
        assert cfg.problem.name == name


class TestHistoryFile:
    def test_roundtrip_is_exact(self, tmp_path):
        records = [HistoryRecord(0, 52.43068512345678901, 1 / 3, 104),
                   HistoryRecord(1, 1e-17, 0.5499999999999999, 88)]
        path = tmp_path / "history.csv"
        write_history(path, records)
        back = read_history(path)
        assert back == records  # bitwise: 17 significant digits

    def test_header(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history(path, [])
        assert path.read_text().splitlines()[0] \
            == "iteration,compliance,volume_fraction,enriched_dofs"

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="not a history file"):
            read_history(path)


class TestDesignFile:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        design = rng.uniform(-1, 1, 37)
        path = tmp_path / "design.txt"
        write_design(path, design)
        assert np.array_equal(read_design(path), design)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ConfigError, match="not a design file"):
            read_design(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read design"):
            read_design(tmp_path / "nope.txt")

    def test_rejects_non_finite_values(self, tmp_path):
        path = tmp_path / "design.txt"
        path.write_text("design\n0.5\nnan\n")
        with pytest.raises(ConfigError, match="finite"):
            read_design(path)


@pytest.fixture(scope="module")
def interface_model():
    mesh = structured_grid(1.0, 1.0, 6, 6)
    phi = snap_nodal_levelset(mesh.nodes[:, 0] - 0.44)
    return build_enriched_model(mesh, phi)


class TestGeometryExports:
    def test_contour_segments_lie_on_interface(self, tmp_path,
                                               interface_model):
        model = interface_model
        path = tmp_path / "contour.txt"
        write_contour(path, model)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == model.n_cut
        for line in lines:
            x1, y1, x2, y2 = map(float, line.split())
            assert x1 == pytest.approx(0.44, abs=1e-12)
            assert x2 == pytest.approx(0.44, abs=1e-12)

    def test_vtk_structure(self, tmp_path, interface_model):
        model = interface_model
        path = tmp_path / "design.vtk"
        write_vtk(path, model)
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "ASCII" in lines
        assert "DATASET UNSTRUCTURED_GRID" in lines

        n_points = model.mesh.n_nodes + model.n_enriched
        assert f"POINTS {n_points} double" in text
        n_cells = (model.mesh.n_elements - model.n_cut) \
            + 3 * model.n_cut
        assert f"CELLS {n_cells} {4 * n_cells}" in text
        assert f"CELL_TYPES {n_cells}" in text
        assert "SCALARS material int 1" in text

        # every cell references valid points; phases are 0/1
        idx = lines.index(f"CELLS {n_cells} {4 * n_cells}")
        for row in lines[idx + 1: idx + 1 + n_cells]:
            parts = row.split()
            assert parts[0] == "3"
            assert all(0 <= int(p) < n_points for p in parts[1:])
        scal = lines.index("LOOKUP_TABLE default")
        phases = lines[scal + 1: scal + 1 + n_cells]
        assert set(phases) <= {"0", "1"}
        assert "0" in phases and "1" in phases

    def test_uncut_design_exports_cleanly(self, tmp_path):
        # all-positive levelset: no interface, every element is material
        mesh = structured_grid(1.0, 1.0, 6, 6)
        model = build_enriched_model(mesh, np.ones(mesh.n_nodes))
        assert model.n_cut == 0

        contour = tmp_path / "contour.txt"
        write_contour(contour, model)
        assert contour.read_text().strip() == ""

        vtk = tmp_path / "design.vtk"
        write_vtk(vtk, model)
        text = vtk.read_text()
        assert f"POINTS {mesh.n_nodes} double" in text
        assert f"CELLS {mesh.n_elements} {4 * mesh.n_elements}" in text
        lines = text.splitlines()
        scal = lines.index("LOOKUP_TABLE default")
        phases = set(lines[scal + 1: scal + 1 + mesh.n_elements])
        assert phases == {"1"}


class TestCli:
    def test_list_problems(self, capsys):
        assert main(["list-problems"]) == 0
        out = capsys.readouterr().out
        for name in ("cantilever", "mbb", "heat_sink"):
            assert name in out

    def test_run_writes_artifacts(self, tmp_path, capsys):
        rc = main(["run", str(tiny_config(tmp_path))])
        assert rc == 0
        outdir = tmp_path / "out"
        history = read_history(outdir / "history.csv")
        assert len(history) == 3
        design = read_design(outdir / "design_final.txt")
        assert design.shape == (11 * 6,)
        assert (outdir / "design.vtk").exists()
        assert (outdir / "contour.txt").exists()
        # snapshot_every = 1: one snapshot per iteration
        assert sorted(p.name for p in outdir.glob("design_0*.txt")) \
            == ["design_0000.txt", "design_0001.txt", "design_0002.txt"]

        # rerunning the stored design reproduces the recorded compliance
        model, u, f, c, vol = analyze(load_config(tiny_config(tmp_path)).problem,
                                      design)
        assert c == pytest.approx(history[-1].compliance, rel=1e-14)

    def test_run_with_builtin_problem_flag(self, tmp_path, capsys):
        rc = main(["run", "--problem", "cantilever", "--budget", "2",
                   "--output-dir", str(tmp_path / "o")])
        # full-size problem but only 2 iterations
        assert rc == 0
        assert len(read_history(tmp_path / "o" / "history.csv")) == 2

    def test_config_and_problem_flag_conflict(self, tmp_path, capsys):
        rc = main(["run", str(tiny_config(tmp_path)), "--problem", "mbb"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[problem]\nname = cantilever\nnx = many\n")
        assert main(["run", str(bad)]) == 2

    def test_check_gradients(self, tmp_path, capsys):
        rc = main(["check-gradients", str(tiny_config(tmp_path)),
                   "--samples", "6", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "within 0.001" in out

    @pytest.mark.parametrize("flags", [["--step", "0"], ["--step", "nan"],
                                       ["--samples", "0"]])
    def test_check_gradients_rejects_bad_arguments(self, tmp_path, capsys,
                                                   flags):
        rc = main(["check-gradients", str(tiny_config(tmp_path))] + flags)
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_export_roundtrip(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        rc = main(["export", str(cfg),
                   "--design", str(tmp_path / "out" / "design_final.txt"),
                   "--vtk", str(tmp_path / "final.vtk"),
                   "--contour", str(tmp_path / "final_contour.txt")])
        assert rc == 0
        assert (tmp_path / "final.vtk").exists()
        assert (tmp_path / "final_contour.txt").exists()

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read design"),
        ("design\n" + "nan\n" * 66, "must be finite"),
        ("design\n0.5\n0.5\n", "expects 66 values"),
    ], ids=["missing", "nan", "wrong-length"])
    def test_export_rejects_bad_design_file(self, tmp_path, capsys, content,
                                            message):
        design = tmp_path / "design.txt"
        if content is not None:
            design.write_text(content)
        rc = main(["export", str(tiny_config(tmp_path)),
                   "--design", str(design),
                   "--contour", str(tmp_path / "c.txt")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "c.txt").exists()

    def test_export_snapshot_by_iteration(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        rc = main(["export", str(cfg), "--iteration", "1",
                   "--contour", str(tmp_path / "it1_contour.txt")])
        assert rc == 0
        assert (tmp_path / "it1_contour.txt").exists()

        rc = main(["export", str(cfg), "--iteration", "7",
                   "--contour", str(tmp_path / "nope.txt")])
        assert rc == 2
        assert "no snapshot" in capsys.readouterr().err

        rc = main(["export", str(cfg), "--iteration", "1",
                   "--design", str(tmp_path / "out" / "design_final.txt"),
                   "--contour", str(tmp_path / "nope.txt")])
        assert rc == 2

    def test_export_requires_a_target(self, tmp_path, capsys):
        rc = main(["export", str(tiny_config(tmp_path))])
        assert rc == 2
        assert "nothing to export" in capsys.readouterr().err

    def test_gradient_check_toggle_runs_after_optimization(self, tmp_path,
                                                           capsys):
        cfg = tiny_config(tmp_path)
        cfg.write_text(cfg.read_text() + "gradient_check = yes\n")
        rc = main(["run", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gradient check on the final design" in out
        assert "within 0.001" in out

    def test_artifacts_are_byte_stable_across_runs(self, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            sub = tmp_path / tag
            sub.mkdir()
            assert main(["run", str(tiny_config(sub))]) == 0
            paths.append(sub / "out")
        for name in ("history.csv", "design_final.txt", "design.vtk",
                     "contour.txt"):
            assert (paths[0] / name).read_bytes() \
                == (paths[1] / name).read_bytes()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
