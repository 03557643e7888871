"""Config parsing, file formats, and the command-line interface."""

import csv
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from igtop.cli import build_parser, main
from igtop.config import load_config, parse_config
from igtop.driver import (GradientCheckRow, HistoryRecord, analyze,
                          cantilever, get_problem, run)
from igtop.enrich import build_enriched_model, snap_nodal_levelset
from igtop.errors import ConfigError, MmaStepError, SolverError
from igtop.mesh import structured_grid
from igtop.mma import MmaOptimizer
from igtop.output import (read_design, write_contour, write_design,
                          write_history, write_vtk)

REPO = Path(__file__).resolve().parents[1]
REPO_CONFIGS = REPO / "configs"


def read_history(path):
    """The records of a history file, read back with the csv module."""
    with open(path, newline="") as fh:
        return [HistoryRecord(int(r["iteration"]), float(r["compliance"]),
                              float(r["volume_fraction"]),
                              int(r["enriched_dofs"]), r["mesh"])
                for r in csv.DictReader(fh)]


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


def run_not_reached(*args, **kwargs):
    raise AssertionError("the optimization started")


def analyze_not_reached(*args, **kwargs):
    raise AssertionError("the design was analyzed")


def two_of_twenty_off(*args, **kwargs):
    """Twenty gradient-check rows with no topology event, the first two
    outside the tolerance."""
    return [GradientCheckRow(i, 1.0, 1.0 + err, err, False)
            for i, err in enumerate([0.01] * 2 + [0.0] * 18)]


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
        assert cfg.output.snapshot_every == 10
        assert not cfg.output.gradient_check

    def test_volume_fraction_must_be_a_fraction(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[problem]\nname = cantilever\n"
                         "volume_fraction = 1.5\n")
        assert "volume_fraction" in str(err.value)

    def test_relative_directory_is_anchored_at_config(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text("[problem]\nname = cantilever\n"
                        "[output]\ndirectory = out/x\n")
        cfg = load_config(path)
        assert cfg.output.directory == tmp_path / "out" / "x"

    def test_errors_are_aggregated(self):
        bad = ("[problem]\nname = cantilever\nnx = many\nwidth = 3\n"
               "[output]\ngradient_check = maybe\n[extra]\nk = v\n"
               "[DEFAULT]\nbudget = 5\n")
        with pytest.raises(ConfigError) as exc:
            parse_config(bad)
        msg = str(exc.value)
        assert "nx" in msg
        assert "width" in msg  # not an overridable problem key
        assert "gradient_check" in msg
        assert "[extra]" in msg
        assert "unknown section [DEFAULT]" in msg
        assert "key 'budget'" not in msg  # not merged into another section

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

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_bytes(b"[problem]\nname = \xff\xfe\n")
        message = re.escape(f"cannot read config {path}")
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    @pytest.mark.parametrize("name", ["cantilever", "mbb", "heat_sink"])
    def test_shipped_configs_parse(self, name):
        cfg = load_config(REPO_CONFIGS / f"{name}.cfg")
        assert cfg.problem == get_problem(name)

    def test_readme_example_parses(self):
        readme = (REPO / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(block)
        assert cfg.problem.name == "cantilever"
        assert cfg.problem.move_limit == 0.01
        assert not cfg.output.gradient_check

    def test_readme_commands_parse(self):
        readme = (REPO / "README.md").read_text()
        lines = [line for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
                 for line in block.splitlines() if line.startswith("igtop ")]
        assert len(lines) >= 4
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])


class TestHistoryFile:
    def test_roundtrip_is_exact(self, tmp_path):
        records = [HistoryRecord(0, 52.43068512345678901, 1 / 3, 104,
                                 "76x26"),
                   HistoryRecord(1, 1e-17, 0.5499999999999999, 88)]
        path = tmp_path / "history.csv"
        write_history(path, records)
        back = read_history(path)
        assert back == records  # bitwise: 17 significant digits

    def test_header(self, tmp_path):
        path = tmp_path / "history.csv"
        write_history(path, [])
        assert path.read_text().splitlines()[0] \
            == "iteration,compliance,volume_fraction,enriched_dofs,mesh"


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

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "design.txt"
        path.write_bytes(b"design\n\xff\xfe\n")
        message = re.escape(f"cannot read design {path}")
        with pytest.raises(ConfigError, match=message):
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

    def test_a_staged_run_marks_each_records_mesh(self, tmp_path, capsys):
        cfg = tmp_path / "mbb.cfg"
        cfg.write_text("[problem]\nname = mbb\nnx = 31\nny = 11\n"
                       "rbf_nx = 16\nrbf_ny = 6\nbudget = 6\n[output]\n"
                       f"directory = {tmp_path / 'out'}\nsnapshot_every = 1\n")
        assert main(["run", str(cfg)]) == 0
        history = read_history(tmp_path / "out" / "history.csv")
        assert [r.mesh for r in history] == ["16x6"] * 5 + ["31x11"]
        # a snapshot of the coarse stage exports on the problem's own mesh
        snapshot = tmp_path / "out" / "design_0004.txt"
        assert main(["export", str(cfg), "--design", str(snapshot),
                     "--vtk", str(tmp_path / "d.vtk")]) == 0
        points = re.search(r"^POINTS (\d+) ", (tmp_path / "d.vtk").read_text(),
                           re.M)
        assert int(points.group(1)) > 31 * 11  # mesh nodes and enriched ones

    def test_the_progress_line_names_the_mesh(self, tmp_path, capsys):
        cfg = tmp_path / "mbb.cfg"
        cfg.write_text("[problem]\nname = mbb\nnx = 31\nny = 11\n"
                       "rbf_nx = 16\nrbf_ny = 6\nbudget = 12\n[output]\n"
                       f"directory = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 0
        # iterations 0-9 run on 16x6 and 10-11 on 31x11
        progress = [line.split() for line in
                    capsys.readouterr().out.splitlines()
                    if line.startswith("iter ")]
        assert [(words[1], words[3]) for words in progress] \
            == [("0", "16x6"), ("10", "31x11")]

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

    def test_non_finite_move_limit_in_config_exits_2(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path, "move_limit = nan\n")
        assert main(["run", str(cfg)]) == 2
        assert "move_limit" in capsys.readouterr().err

    def test_check_gradients(self, tmp_path, capsys):
        rc = main(["check-gradients", str(tiny_config(tmp_path)),
                   "--samples", "6", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "within 0.001" in out

    @pytest.mark.parametrize("flags", [["--samples", "0"], ["--seed", "-1"]])
    def test_check_gradients_rejects_bad_arguments(self, tmp_path, capsys,
                                                   flags):
        rc = main(["check-gradients", str(tiny_config(tmp_path))] + flags)
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_run_rejects_non_finite_move_limit_before_running(
            self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setattr("igtop.cli.run", run_not_reached)
        rc = main(["run", str(tiny_config(tmp_path)), "--move-limit", value])
        assert rc == 2
        assert "move_limit" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        ("design\n" + "nan\n" * 66, "at index 0 lies outside [-1, 1]"),
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

    @pytest.mark.parametrize("value", ["5.0", "-1.5"])
    def test_export_rejects_out_of_bounds_design(self, tmp_path, capsys,
                                                 value):
        values = ["0.5"] * 66
        values[7] = values[40] = value
        design = tmp_path / "design.txt"
        design.write_text("design\n" + "\n".join(values) + "\n")
        rc = main(["export", str(tiny_config(tmp_path)),
                   "--design", str(design),
                   "--contour", str(tmp_path / "c.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "index 7 " in err and "[-1, 1]" in err
        assert not (tmp_path / "c.txt").exists()

    def test_mma_failure_exits_3_and_saves_that_iterations_design(
            self, tmp_path, capsys, monkeypatch):
        step = MmaOptimizer.step

        def fail_second_step(self, *args):
            if self.iteration == 1:
                raise MmaStepError("forced failure")
            return step(self, *args)

        monkeypatch.setattr(MmaOptimizer, "step", fail_second_step)
        rc = main(["run", str(tiny_config(tmp_path))])
        err = capsys.readouterr().err
        outdir = tmp_path / "out"
        assert rc == 3
        assert "MMA step failed at iteration 1" in err
        assert "forced failure" in err
        assert np.array_equal(read_design(outdir / "design_failed.txt"),
                              read_design(outdir / "design_0001.txt"))
        assert not (outdir / "history.csv").exists()

    def test_solve_failure_exits_3_and_saves_that_iterations_design(
            self, tmp_path, capsys, monkeypatch):
        import igtop.driver as drv

        cfg = tiny_config(tmp_path)
        # a clean run of two iterations ends at the design iteration 1 solves
        expected = run(load_config(cfg).problem, budget=2).design
        solve, calls = drv.solve_system, []

        def fail_second_solve(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise SolverError("forced failure")
            return solve(*args, **kwargs)

        monkeypatch.setattr(drv, "solve_system", fail_second_solve)
        rc = main(["run", str(cfg)])
        err = capsys.readouterr().err
        outdir = tmp_path / "out"
        assert rc == 3
        assert "state solve failed at iteration 1" in err
        assert "forced failure" in err
        assert np.array_equal(read_design(outdir / "design_failed.txt"),
                              expected)
        assert (outdir / "design_0000.txt").exists()
        assert not (outdir / "design_0001.txt").exists()
        assert not (outdir / "history.csv").exists()

    def test_export_snapshot_by_iteration(self, tmp_path, capsys):
        cfg = tiny_config(tmp_path)
        assert main(["run", str(cfg)]) == 0
        rc = main(["export", str(cfg),
                   "--design", str(tmp_path / "out" / "design_0001.txt"),
                   "--contour", str(tmp_path / "it1_contour.txt")])
        assert rc == 0
        assert (tmp_path / "it1_contour.txt").exists()

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

    def test_failed_gradient_check_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr("igtop.cli.check_gradients", two_of_twenty_off)
        assert main(["check-gradients", "--problem", "cantilever"]) == 3
        out, err = capsys.readouterr()
        assert "18/20 within 0.001" in out
        assert "gradient check FAILED" in err

    def test_failed_gradient_check_after_run_exits_3(self, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr("igtop.cli.check_gradients", two_of_twenty_off)
        cfg = tiny_config(tmp_path)
        cfg.write_text(cfg.read_text() + "gradient_check = yes\n")
        assert main(["run", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert "18/20 within 0.001" in out
        assert "gradient check FAILED" in err
        assert len(read_history(tmp_path / "out" / "history.csv")) == 3

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

    # the history file name is fixed, so no config key sets it: whatever
    # name a config gives, it fails as an unknown key before anything runs
    @pytest.mark.parametrize("history", [
        "design_final.txt", "design_failed.txt", "design.vtk", "contour.txt",
        "design_0003.txt", "design_12345.txt"])
    def test_history_named_like_another_artifact_exits_2_before_running(
            self, tmp_path, capsys, monkeypatch, history):
        monkeypatch.setattr("igtop.cli.run", run_not_reached)
        cfg = tiny_config(tmp_path)
        cfg.write_text(cfg.read_text() + f"history = {history}\n")
        assert main(["run", str(cfg)]) == 2
        assert "unknown key 'history'" in capsys.readouterr().err

    @pytest.mark.parametrize("history", ["", "nosuch/h.csv"])
    def test_bad_history_name_exits_2_before_running(self, tmp_path, capsys,
                                                     monkeypatch, history):
        monkeypatch.setattr("igtop.cli.run", run_not_reached)
        cfg = tiny_config(tmp_path)
        cfg.write_text(cfg.read_text() + f"history = {history}\n")
        assert main(["run", str(cfg)]) == 2
        assert "unknown key 'history'" in capsys.readouterr().err

    def test_output_directory_under_a_file_exits_2(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr("igtop.cli.run", run_not_reached)
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = tiny_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(str(tmp_path / "out"),
                                               str(blocker / "x")))
        assert main(["run", str(cfg)]) == 2
        assert "output directory" in capsys.readouterr().err

    def test_output_dir_flag_naming_a_file_exits_2(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.setattr("igtop.cli.run", run_not_reached)
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["run", str(tiny_config(tmp_path)),
                   "--output-dir", str(blocker)])
        assert rc == 2
        assert "output directory" in capsys.readouterr().err

    def test_empty_output_dir_flag_exits_2_before_running(
            self, tmp_path, capsys, monkeypatch):
        # an empty path once fell back to the default igtop-out
        monkeypatch.setattr("igtop.cli.run", run_not_reached)
        monkeypatch.chdir(tmp_path)
        rc = main(["run", "--problem", "cantilever", "--budget", "1",
                   "--output-dir", ""])
        assert rc == 2
        assert "--output-dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_empty_output_directory_key_exits_2_before_running(
            self, tmp_path, capsys, monkeypatch):
        # an empty key once resolved to the config file's own directory
        monkeypatch.setattr("igtop.cli.run", run_not_reached)
        cfg = tiny_config(tmp_path)
        cfg.write_text(cfg.read_text().replace(str(tmp_path / "out"), ""))
        assert main(["run", str(cfg)]) == 2
        assert "[output] directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["case.cfg"]

    def test_export_to_missing_directory_exits_2(self, tmp_path, capsys,
                                                 monkeypatch):
        # the paths are checked before the design is analyzed
        monkeypatch.setattr("igtop.cli.analyze", analyze_not_reached)
        for flag in ("--vtk", "--contour"):
            target = tmp_path / "nosuch" / "x.out"
            rc = main(["export", str(tiny_config(tmp_path)), flag,
                       str(target)])
            assert rc == 2
            assert f"cannot write {target}" in capsys.readouterr().err

    def test_export_to_empty_path_exits_2(self, tmp_path, capsys,
                                          monkeypatch):
        # an empty path is a bad file, not a file left out
        monkeypatch.setattr("igtop.cli.analyze", analyze_not_reached)
        monkeypatch.chdir(tmp_path)
        for args in (["--vtk", ""], ["--contour", ""],
                     ["--design", "", "--contour", "x.txt"]):
            rc = main(["export", "--problem", "cantilever", *args])
            assert rc == 2
            assert f"{args[0]} needs a file, got an empty path" \
                in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
