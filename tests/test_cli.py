"""End-to-end command-line runs: bundled configs, validation and I/O exit
codes, determinism, and sweeps with per-point failure isolation."""
import json
import threading

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import maxreg.cli as cli
import maxreg.commutators as commutators
from maxreg.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VALIDATION,
    bundled_config_path,
    main,
)
from maxreg.coefficients import generate_family, save_field
from maxreg.fem import SpaceMesh
from maxreg.report import load_report
from maxreg.timefourier import TimeGrid


def run_cli(*args, outdir):
    return main([*args, "--output-dir", str(outdir)])


def write_config(tmp_path, body, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return str(path)


class TestBundledConfigs:
    def test_paths_exist(self):
        import os
        for name in ("autonomous-dirichlet", "sqrt-product"):
            assert os.path.exists(bundled_config_path(name))

    def test_autonomous_solve_matches_oracle(self, tmp_path):
        assert run_cli("solve", "autonomous-dirichlet", outdir=tmp_path) == EXIT_OK
        rep = load_report(str(tmp_path / "autonomous-dirichlet.report.json"))
        assert rep.diagnostics["oracle_relative_deviation"] <= 1e-3
        assert rep.diagnostics["residual"] <= 1e-8
        assert rep.ratios["maxreg_alpha_0.5"] > 0
        assert all(v >= 0 for v in rep.norms.values())

    def test_sqrt_product_analyze_bounds(self, tmp_path):
        code = run_cli("analyze", "sqrt-product",
                       "--set", "analysis.resolutions=[512]",
                       outdir=tmp_path)
        assert code == EXIT_OK
        rep = load_report(str(tmp_path / "sqrt-product.report.json"))
        names = {r.functional for r in rep.seminorms}
        assert {"bmo", "scale_invariant_half_sobolev", "holder", "dini",
                "extension_M", "extension_M_natural"} <= names
        dini = next(r for r in rep.seminorms if r.functional == "dini")
        assert dini.divergent_flag is True
        assert rep.diagnostics["reflected_2T_le_3M"] is True
        assert rep.diagnostics["reflected_3T_le_9M"] is True
        assert rep.diagnostics["M_natural_le_bound"] is True


class TestValidation:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment_id": "x",
                                      "solver": {"relaxation": 0.5}})
        assert run_cli("solve", cfg, outdir=tmp_path) == EXIT_VALIDATION

    def test_unknown_override_key_rejected(self, tmp_path):
        code = run_cli("solve", "autonomous-dirichlet",
                       "--set", "solver.warp=1", outdir=tmp_path)
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("key", ["solver.theta_re=5", "solver.theta_im=1",
                                     "solver.max_iterations=10"])
    def test_removed_solver_keys_rejected(self, tmp_path, key):
        code = run_cli("solve", "autonomous-dirichlet", "--set", key, outdir=tmp_path)
        assert code == EXIT_VALIDATION

    def test_missing_config_file(self, tmp_path):
        assert run_cli("solve", str(tmp_path / "nope.json"),
                       outdir=tmp_path) == EXIT_IO

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli("solve", str(path), outdir=tmp_path) == EXIT_IO

    def test_unknown_output_format_rejected_before_running(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_solve", ran.append)
        code = run_cli("solve", "autonomous-dirichlet",
                       "--set", 'output.format="xml"', outdir=tmp_path)
        assert code == EXIT_VALIDATION
        assert ran == []

    def test_sweep_rejects_csv_before_any_point(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "run_solve", ran.append)
        code = run_cli("sweep", "autonomous-dirichlet", "--axis", "resolution",
                       "--values", "64", "--set", 'output.format="csv"',
                       outdir=tmp_path)
        assert code == EXIT_VALIDATION
        assert ran == []
        assert not (tmp_path / "autonomous-dirichlet.sweep.json").exists()

    @pytest.mark.parametrize("args, flag", [
        (["--values", " , "], "--values"), (["--values", "64,64"], "--values"),
        (["--values", "64", "--workers", "0"], "--workers")])
    def test_sweep_flags_checked_before_any_point(self, tmp_path, capsys, monkeypatch,
                                                  args, flag):
        forbid_runs(monkeypatch)
        code = run_cli("sweep", "autonomous-dirichlet", "--axis", "resolution", *args,
                       outdir=tmp_path)
        assert_rejected(code, capsys.readouterr().err, flag)
        assert not (tmp_path / "autonomous-dirichlet.sweep.json").exists()

    def test_unknown_seminorm_rejected(self, tmp_path, capsys):
        # a misspelt functional must not be dropped from the report silently
        code = run_cli("analyze", "sqrt-product",
                       "--set", 'analysis.seminorms=["half-sobolev"]', outdir=tmp_path)
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert all(name in err for name in ("bmo", "half_sobolev", "holder", "dini"))

    @pytest.mark.parametrize("item, named", [
        ("time.n_points=64.0", "n_points"),
        ("mesh.n_cells=16.0", "n_cells"),
        ("time.window_factor=4.0", "time.window_factor"),
        ("time.window_factor=2", "time.window_factor"),
        ("time.window_factor=6", "time.window_factor"),
    ])
    def test_counts_must_be_integers(self, tmp_path, capsys, item, named):
        # a float count or a window that extend_full cannot build is a
        # validation error, not a traceback or a solver failure
        code = run_cli("solve", "autonomous-dirichlet", "--set", item, outdir=tmp_path)
        assert code == EXIT_VALIDATION
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_coefficient_file_on_another_mesh(self, tmp_path, capsys, command):
        # the bundled config has 64 cells, the file 32
        A = generate_family("step", TimeGrid(0.0, 1.0, 256), SpaceMesh(0.0, 1.0, 32))
        prefix = str(tmp_path / "field")
        save_field(A, prefix)
        code = run_cli(command, "autonomous-dirichlet",
                       "--set", f"coefficient.file={json.dumps(prefix)}", outdir=tmp_path)
        assert code == EXIT_VALIDATION
        assert "mesh" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["-0.5", "0", "1.5"])
    def test_commutator_order_out_of_range_exits_2_before_arpack(
            self, tmp_path, capsys, monkeypatch, alpha):
        def forbidden(*args, **kwargs):
            raise AssertionError("svds ran for an invalid order")
        monkeypatch.setattr(commutators, "svds", forbidden)
        code = run_cli("commutator", "sqrt-product",
                       "--set", f"analysis.alphas=[{alpha}]", outdir=tmp_path)
        assert code == EXIT_VALIDATION
        assert "fractional order" in capsys.readouterr().err.strip().splitlines()[-1]

    @pytest.mark.parametrize("item, named", [
        ("solver.tolerance=-1", "solver.tolerance"),
        ("solver.tolerance=0", "solver.tolerance"),
        ('solver.tolerance="x"', "solver.tolerance"),
        ("solver.tolerance=true", "solver.tolerance"),
        ("solver.tolerance=Infinity", "solver.tolerance"),
        ("solver.tolerance=NaN", "solver.tolerance"),
        ('analysis.divergence_threshold="x"', "analysis.divergence_threshold"),
        ("analysis.divergence_threshold=-1", "analysis.divergence_threshold"),
    ])
    @pytest.mark.parametrize("command", ["solve", "analyze"])
    def test_positive_finite_numbers_checked_at_load(
            self, tmp_path, capsys, monkeypatch, command, item, named):
        # unchecked, a negative tolerance runs GMRES to its iteration cap and
        # a string one reaches GMRES as a TypeError
        ran = []
        monkeypatch.setattr(cli, "run_solve", ran.append)
        monkeypatch.setattr(cli, "run_analyze", ran.append)
        code = run_cli(command, "sqrt-product", "--set", item, outdir=tmp_path)
        assert code == EXIT_VALIDATION
        assert ran == []
        assert named in capsys.readouterr().err.strip().splitlines()[-1]

    @pytest.mark.parametrize("item, named", [
        ("analysis.alphas=[1.5]", "1.5"),
        ("analysis.alphas=[0.5,0.75]", "0.75"),
        ("analysis.alphas=[0]", "0"),
        ("analysis.alphas=[-0.5]", "-0.5"),
        ('analysis.alphas=["x"]', '"x"'),
        ('analysis.alphas="x"', '"x"'),
    ])
    def test_solve_order_out_of_range_exits_2_before_solving(
            self, tmp_path, capsys, monkeypatch, item, named):
        # the report's ratio needs u in H^(alpha + 1/2): the error names the
        # configured alpha, not alpha + 1/2, and no solve runs first
        def forbidden(*args, **kwargs):
            raise AssertionError("cauchy_solve ran for an invalid order")
        monkeypatch.setattr(cli, "cauchy_solve", forbidden)
        code = run_cli("solve", "autonomous-dirichlet", "--set", item, outdir=tmp_path)
        assert code == EXIT_VALIDATION
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert "analysis.alphas" in last and named in last

    def test_bad_coefficient_kind(self, tmp_path):
        code = run_cli("solve", "autonomous-dirichlet",
                       "--set", 'coefficient.kind="fractal"',
                       outdir=tmp_path)
        assert code == EXIT_VALIDATION


class TestSolverFailure:
    def test_diagnostics_printed_as_json_object(self, tmp_path, capsys):
        # no GMRES run reaches a relative residual of 1e-20
        code = run_cli("solve", "autonomous-dirichlet",
                       "--set", "time.n_points=8", "--set", "mesh.n_cells=4",
                       "--set", "solver.tolerance=1e-20",
                       "--set", "analysis.seminorms=[]", outdir=tmp_path)
        assert code == EXIT_SOLVER
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        # only the numbers GMRES measured
        assert set(record) == {"error", "residual", "iterations"}
        assert record["residual"] > 1e-20
        assert record["iterations"] > 0

    def test_commutator_nonconvergence_exits_3(self, tmp_path, capsys, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0),
                                      np.empty((0, 0)))
        monkeypatch.setattr(commutators, "svds", no_convergence)
        code = run_cli("commutator", "sqrt-product", outdir=tmp_path)
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err.strip().splitlines()
        assert "did not converge" in err[0]
        record = json.loads(err[-1])
        assert isinstance(record, dict)
        assert "n =" in record["error"]


class TestSolveBehavior:
    def test_zero_forcing_gives_zero_solution(self, tmp_path):
        code = run_cli("solve", "autonomous-dirichlet",
                       "--set", 'forcing.kind="zero"', outdir=tmp_path)
        assert code == EXIT_OK
        rep = load_report(str(tmp_path / "autonomous-dirichlet.report.json"))
        assert rep.norms["l2h_u"] == 0.0
        assert rep.norms["l2h_f"] == 0.0
        assert rep.ratios == {}  # ratios present iff forcing is nonzero

    def test_determinism(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run_cli("solve", "sqrt-product",
                           "--set", "analysis.resolutions=[]",
                           "--set", "analysis.extension_constants=false",
                           outdir=d) == EXIT_OK
        r1 = load_report(str(d1 / "sqrt-product.report.json"))
        r2 = load_report(str(d2 / "sqrt-product.report.json"))
        assert r1.to_dict() == r2.to_dict()

    def test_extend_writes_field(self, tmp_path):
        code = run_cli("extend", "sqrt-product", outdir=tmp_path)
        assert code == EXIT_OK
        rep = load_report(str(tmp_path / "sqrt-product.report.json"))
        assert rep.diagnostics["M_natural_le_bound"] is True
        prefix = rep.diagnostics["extended_field"]
        import glob
        assert glob.glob(prefix + "*"), "extended coefficient not saved"

    def test_mollified_ladder_is_native_only_with_null_flags(self, tmp_path):
        # a mollified field cannot be regenerated at 512 or 1024 points, so
        # the refinement flags are null rather than read off resampled data
        code = run_cli("analyze", "sqrt-product",
                       "--set", "coefficient.mollify_width=4",
                       "--set", "analysis.resolutions=[512,1024]",
                       outdir=tmp_path)
        assert code == EXIT_OK
        rep = load_report(str(tmp_path / "sqrt-product.report.json"))
        ladder = {r.functional: r for r in rep.seminorms
                  if r.functional in ("bmo", "scale_invariant_half_sobolev", "holder", "dini")}
        assert set(ladder) == {"bmo", "scale_invariant_half_sobolev", "holder", "dini"}
        for name in ("bmo", "scale_invariant_half_sobolev", "holder"):
            assert ladder[name].divergent_flag is None
        assert isinstance(ladder["dini"].divergent_flag, bool)
        assert all(r.resolution == 256 for r in ladder.values())
        assert "mollify4" in rep.diagnostics["ladder"]

    def test_dini_flag_null_below_six_octaves(self, tmp_path):
        # at n = 32 the octave fit has too few points: null, not false
        for n, flag in ((32, None), (64, True)):
            code = run_cli("analyze", "sqrt-product", "--set", f"time.n_points={n}",
                           "--set", "analysis.resolutions=[]", outdir=tmp_path)
            assert code == EXIT_OK
            with open(tmp_path / "sqrt-product.report.json") as fh:
                rows = json.load(fh)["seminorms"]
            (dini,) = [r for r in rows if r["functional"] == "dini"]
            assert dini["divergent_flag"] is flag

    def test_family_ladder_measures_refinement(self, tmp_path):
        code = run_cli("analyze", "sqrt-product",
                       "--set", "analysis.resolutions=[512,1024]",
                       outdir=tmp_path)
        assert code == EXIT_OK
        rep = load_report(str(tmp_path / "sqrt-product.report.json"))
        half = next(r for r in rep.seminorms if r.functional == "scale_invariant_half_sobolev")
        assert half.resolution == 1024
        assert isinstance(half.divergent_flag, bool)
        assert "ladder" not in rep.diagnostics

    def test_commutator_subcommand(self, tmp_path):
        code = run_cli("commutator", "sqrt-product",
                       "--set", "time.n_points=128",
                       "--set", "analysis.resolutions=[128,256,512]",
                       outdir=tmp_path)
        assert code == EXIT_OK
        rep = load_report(str(tmp_path / "sqrt-product.report.json"))
        row = next(r for r in rep.seminorms if r.functional == "commutator_norm")
        assert row.value > 0
        assert row.divergent_flag is False
        assert len(rep.diagnostics["alpha_0.5"]["estimates"]) == 3

    def test_commutator_reports_file_kind_and_seed(self, tmp_path):
        A = generate_family("step", TimeGrid(0.0, 1.0, 256), SpaceMesh(0.0, 1.0, 64),
                            seed=5)
        prefix = str(tmp_path / "field")
        save_field(A, prefix)
        # the bundled config names the constant kind and seed 0
        code = run_cli("commutator", "autonomous-dirichlet",
                       "--set", f"coefficient.file={json.dumps(prefix)}",
                       outdir=tmp_path)
        assert code == EXIT_OK
        rep = load_report(str(tmp_path / "autonomous-dirichlet.report.json"))
        assert rep.coefficient == {"kind": "step", "seed": 5}

    def test_rows_carry_the_field_seed(self, tmp_path):
        A = generate_family("step", TimeGrid(0.0, 1.0, 256), SpaceMesh(0.0, 1.0, 64),
                            seed=5)
        prefix = str(tmp_path / "field")
        save_field(A, prefix)
        rows = []
        # the bundled config names seed 0
        for command in ("analyze", "commutator"):
            code = run_cli(command, "autonomous-dirichlet",
                           "--set", f"coefficient.file={json.dumps(prefix)}",
                           outdir=tmp_path / command)
            assert code == EXIT_OK
            rep = load_report(str(tmp_path / command / "autonomous-dirichlet.report.json"))
            rows += rep.seminorms
        named = {"bmo", "scale_invariant_half_sobolev", "commutator_norm"}
        seeds = {r.functional: r.seed for r in rows if r.functional in named}
        assert seeds == dict.fromkeys(named, 5)

    def test_commutator_reports_mollified_kind(self, tmp_path):
        code = run_cli("commutator", "sqrt-product",
                       "--set", 'coefficient.kind="holder"',
                       "--set", "coefficient.mollify_width=8",
                       outdir=tmp_path)
        assert code == EXIT_OK
        rep = load_report(str(tmp_path / "sqrt-product.report.json"))
        assert rep.coefficient["kind"] == "holder+mollify8"


class TestLadderRungs:
    def test_each_rung_generated_once(self, tmp_path, monkeypatch):
        calls = []

        def counting(kind, grid, *args, **kwargs):
            calls.append(grid.n_points)
            return generate_family(kind, grid, *args, **kwargs)

        monkeypatch.setattr(cli, "generate_family", counting)
        code = run_cli("analyze", "sqrt-product",
                       "--set", "analysis.resolutions=[512,1024]",
                       outdir=tmp_path)
        assert code == EXIT_OK
        assert sorted(calls) == [256, 512, 1024]

    def test_commutator_on_coefficient_file_is_native_only(self, tmp_path):
        A = generate_family("sqrt_product", TimeGrid(0.0, 1.0, 256),
                            SpaceMesh(0.0, 1.0, 64), amp=0.5)
        prefix = str(tmp_path / "field")
        save_field(A, prefix)
        # the bundled config asks for 512 and 1024 as well
        code = run_cli("commutator", "sqrt-product",
                       "--set", f"coefficient.file={json.dumps(prefix)}",
                       outdir=tmp_path)
        assert code == EXIT_OK
        rep = load_report(str(tmp_path / "sqrt-product.report.json"))
        row = next(r for r in rep.seminorms if r.functional == "commutator_norm")
        assert row.divergent_flag is None
        assert row.resolution == 256
        assert rep.diagnostics["resolutions"] == [256]
        assert "ladder" in rep.diagnostics

    def test_mollified_commutator_flag_is_null(self, tmp_path):
        code = run_cli("commutator", "sqrt-product",
                       "--set", "coefficient.mollify_width=4",
                       outdir=tmp_path)
        assert code == EXIT_OK
        rep = load_report(str(tmp_path / "sqrt-product.report.json"))
        row = next(r for r in rep.seminorms if r.functional == "commutator_norm")
        assert row.divergent_flag is None
        assert rep.diagnostics["resolutions"] == [256]
        assert "mollify4" in rep.diagnostics["ladder"]


class TestSweep:
    def test_points_written_in_values_order(self, tmp_path):
        # the 512-point solve finishes last, but is written first
        assert run_cli("sweep", "autonomous-dirichlet", "--axis", "resolution",
                       "--values", "512,64", outdir=tmp_path) == EXIT_OK
        with open(tmp_path / "autonomous-dirichlet.sweep.json") as fh:
            sweep = json.load(fh)
        assert list(sweep["points"]) == ["512", "64"]

    def test_sweeps_reuse_one_pool(self, monkeypatch):
        # a new pool per sweep would run on new threads, and so on new malloc arenas
        names = []

        def point(cfg, axis, value):
            names.append(threading.current_thread().name)
            return {}

        monkeypatch.setattr(cli, "_sweep_point", point)
        cfg = cli.load_config(cli.bundled_config_path("autonomous-dirichlet"))
        for _ in range(3):
            cli.run_sweep(cfg, "resolution", ["64", "128", "256"], workers=2)
        assert len(names) == 9
        assert len(set(names)) <= 2

    def test_singleton_sweep_matches_solve(self, tmp_path):
        assert run_cli("sweep", "autonomous-dirichlet", "--axis", "resolution",
                       "--values", "128", outdir=tmp_path) == EXIT_OK
        with open(tmp_path / "autonomous-dirichlet.sweep.json") as fh:
            sweep = json.load(fh)
        point = sweep["points"]["128"]
        assert run_cli("solve", "autonomous-dirichlet",
                       "--set", "time.n_points=128", outdir=tmp_path) == EXIT_OK
        solo = load_report(str(tmp_path / "autonomous-dirichlet.report.json"))
        assert point["norms"] == solo.to_dict()["norms"]
        assert point["ratios"] == solo.to_dict()["ratios"]

    def test_alpha_point_out_of_range_recorded_without_solving(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("cauchy_solve ran for an invalid order")
        monkeypatch.setattr(cli, "cauchy_solve", forbidden)
        cfg = cli.load_config(cli.bundled_config_path("autonomous-dirichlet"))
        point = cli.run_sweep(cfg, "alpha", ["1.5"], workers=2)["points"]["1.5"]
        assert point["error_type"] == "ConfigError"
        assert "analysis.alphas" in point["error"] and "1.5" in point["error"]

    def test_partial_failure_is_isolated(self, tmp_path):
        code = run_cli("sweep", "autonomous-dirichlet", "--axis", "family",
                       "--values", "constant,fractal,lipschitz",
                       outdir=tmp_path)
        assert code == EXIT_OK
        with open(tmp_path / "autonomous-dirichlet.sweep.json") as fh:
            sweep = json.load(fh)
        assert "error" in sweep["points"]["fractal"]
        assert sweep["points"]["fractal"]["error_type"]
        for good in ("constant", "lipschitz"):
            assert "norms" in sweep["points"][good]
            assert sweep["points"][good]["norms"]["l2h_u"] > 0


def config_leaves(node, path=""):
    for key, val in node.items():
        if isinstance(val, dict):
            yield from config_leaves(val, path + key + ".")
        else:
            yield path + key, val


def forbid_runs(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a run started on a rejected config")
    for name in ("run_solve", "run_analyze", "run_extend", "run_commutator", "run_sweep"):
        monkeypatch.setattr(cli, name, forbidden)


def assert_rejected(code, err, key):
    assert code == EXIT_VALIDATION
    assert "Traceback" not in err
    assert key in err.strip().splitlines()[-1]


class TestConfigSchema:
    # a boolean leaf takes no number, and no other leaf takes a boolean; no
    # leaf takes an object
    @pytest.mark.parametrize("key, wrong", [
        (key, wrong) for key, default in config_leaves(cli.DEFAULT_CONFIG)
        for wrong in ("1" if isinstance(default, bool) else "true", '{"x":1}')])
    def test_wrong_type_exits_2_naming_the_key(self, tmp_path, capsys, monkeypatch,
                                               key, wrong):
        forbid_runs(monkeypatch)
        code = run_cli("solve", "sqrt-product", "--set", f"{key}={wrong}", outdir=tmp_path)
        assert_rejected(code, capsys.readouterr().err, key)

    @pytest.mark.parametrize("item", [
        'analysis.holder_alpha="x"', 'analysis.dini_q=["x"]', "analysis.dini_q=1",
        'analysis.resolutions="x"', 'coefficient.amp="x"', 'coefficient.t0="x"',
        'time.T="x"', 'mesh.x_lo="x"', 'forcing.mode="x"', "mesh=5",
        "coefficient.mollify_width=2.5", "coefficient.mollify_width=true",
        'coefficient.seed="x"', 'analysis.extension_constants="x"', "experiment_id=5",
        'coefficient.value="x"', "coefficient.value=[2.0]",
        "analysis.holder_alpha=1.5", "analysis.dini_q=[3]", "analysis.resolutions=[100]",
        "coefficient.mollify_width=-1", "coefficient.value=[[1.0, 2.0]]",
        "coefficient.value=[[1.0, 2.0], [3.0]]", "coefficient.value=[]",
        'coefficient.kind="fractal"', 'forcing.kind="noise"',
        'coefficient.space_profile="wavy"', 'mesh.bc_left="robin"', 'mesh.bc_right="robin"',
        "mesh.x_hi=Infinity", "time.T=NaN", "coefficient.t0=-Infinity",
        "coefficient.amp=NaN", "coefficient.value=[[Infinity]]",
        "coefficient.seed=-1", "forcing.seed=-1", "time.n_points=1099511627776",
        "time.window_factor=1099511627776", "analysis.resolutions=[1099511627776]",
        "time.n_points=100", "mesh.n_cells=2", "mesh.n_cells=1099511627776", "time.T=0",
        "mesh.x_hi=-1", "coefficient.amp=1.5",
    ])
    @pytest.mark.parametrize("command", ["solve", "analyze", "sweep"])
    def test_rejected_before_any_run(self, tmp_path, capsys, monkeypatch, command, item):
        # each of these raised a traceback, ran to exit 0 or failed only
        # after the solve; the error names the key and the value
        forbid_runs(monkeypatch)
        sweep = ["--axis", "resolution", "--values", "64"] if command == "sweep" else []
        code = run_cli(command, "sqrt-product", *sweep, "--set", item, outdir=tmp_path)
        err = capsys.readouterr().err
        key, _, value = item.partition("=")
        assert_rejected(code, err, key)
        assert value.strip('"[]').lower() in err.strip().splitlines()[-1].lower()

    @pytest.mark.parametrize("item", ["time.T=1e400", "mesh.x_hi=1" + "0" * 400])
    def test_numbers_beyond_float_range_rejected(self, tmp_path, capsys, monkeypatch, item):
        # json reads 1e400 as Infinity and a 401-digit integer exactly
        forbid_runs(monkeypatch)
        code = run_cli("solve", "sqrt-product", "--set", item, outdir=tmp_path)
        assert_rejected(code, capsys.readouterr().err, item.partition("=")[0])

    def test_grid_size_bound_at_load(self, monkeypatch):
        # the bound holds on the native grid, the solve's line grid and every
        # ladder rung; nothing at or below it is refused.  The mesh is bounded
        # through the field bound below.
        forbid_runs(monkeypatch)
        path, top = bundled_config_path("sqrt-product"), cli.MAX_GRID_POINTS
        cfg = cli.load_config(path, [f"time.n_points={top // 4}", "time.window_factor=4",
                                     f"analysis.resolutions=[{top}]", "mesh.n_cells=7"])
        assert cfg["time"]["n_points"] * cfg["time"]["window_factor"] == top
        assert top * (cfg["mesh"]["n_cells"] + 1) == cli.MAX_FIELD_POINTS
        for items, key in (([f"time.n_points={2 * top}"], "time.n_points"),
                           ([f"time.n_points={top // 4}", "time.window_factor=8"],
                            "time.window_factor"),
                           ([f"analysis.resolutions=[8, {2 * top}]"], "analysis.resolutions"),
                           ([f"mesh.n_cells={2 * top}"], "mesh.n_cells")):
            with pytest.raises(cli.ConfigError, match=key):
                cli.load_config(path, items)
        point = cli._sweep_point(cli.load_config(path), "resolution", 2 * top)
        assert point["error_type"] == "ConfigError"
        assert "time.n_points" in point["error"]

    def test_field_size_bound_at_load(self, monkeypatch):
        # every time grid times mesh.n_cells + 1 is bounded: the 32-point line
        # grid of time.n_points=8 takes the most cells, and one cell more is
        # refused
        forbid_runs(monkeypatch)
        path, top = bundled_config_path("sqrt-product"), cli.MAX_FIELD_POINTS
        cells = top // 32 - 1
        cfg = cli.load_config(path, ["time.n_points=8", "analysis.resolutions=[]",
                                     f"mesh.n_cells={cells}"])
        assert 32 * (cfg["mesh"]["n_cells"] + 1) == top
        for items, key in (
                (["time.n_points=8", "analysis.resolutions=[]", f"mesh.n_cells={cells + 1}"],
                 "time.window_factor"),
                (["time.n_points=262144", "mesh.n_cells=1048576"], "time.n_points"),
                (["time.n_points=8", f"analysis.resolutions=[{top // 8}]", "mesh.n_cells=8"],
                 "analysis.resolutions")):
            with pytest.raises(cli.ConfigError, match=key) as err:
                cli.load_config(path, items)
            cells_set = items[-1].partition("=")[2]
            assert f"mesh.n_cells = {cells_set}" in str(err.value)
        point = cli._sweep_point(cli.load_config(path, ["mesh.n_cells=4096"]),
                                 "resolution", 4096)
        assert point["error_type"] == "ConfigError"
        assert "mesh.n_cells" in point["error"]

    def test_whole_section_set_merges(self):
        cfg = cli.load_config(bundled_config_path("sqrt-product"),
                              ['coefficient={"kind": "step", "seed": 3}',
                               "coefficient.amp=0.25"])
        assert cfg["coefficient"] == {**cli.DEFAULT_CONFIG["coefficient"],
                                      "kind": "step", "seed": 3, "amp": 0.25}

    def test_null_t0_and_matrix_value_accepted(self, tmp_path):
        cfg = cli.load_config(bundled_config_path("sqrt-product"),
                              ["coefficient.t0=0.25", "coefficient.t0=null",
                               "coefficient.value=[[2.0]]"])
        assert cfg["coefficient"]["t0"] is None
        assert cfg["coefficient"]["value"] == [[2.0]]
        code = run_cli("solve", "autonomous-dirichlet", "--set", "time.n_points=64",
                       "--set", "coefficient.value=[[2.0]]", outdir=tmp_path)
        assert code == EXIT_OK
        rep = load_report(str(tmp_path / "autonomous-dirichlet.report.json"))
        assert rep.coefficient["lambda"] == rep.coefficient["Lambda"] == 2.0

    def test_merged_config_shares_nothing_with_its_layers(self):
        # main writes --output-dir into the loaded config
        defaults = json.dumps(cli.DEFAULT_CONFIG)
        given = {"analysis": {"alphas": [0.25]}}
        cfg = cli._merge_checked(cli.DEFAULT_CONFIG, given)
        cfg["output"]["directory"] = "elsewhere"
        cfg["analysis"]["seminorms"].append("bmo")
        cfg["analysis"]["alphas"].append(0.5)
        assert json.dumps(cli.DEFAULT_CONFIG) == defaults
        assert given == {"analysis": {"alphas": [0.25]}}

    @pytest.mark.parametrize("kind, item", [
        ("holder", "coefficient.alpha=1.5"), ("step", "coefficient.amp=2.5"),
        ("constant", "coefficient.value=-1.0"),
        ("constant", "coefficient.value=[[1,3],[3,1]]")])
    @pytest.mark.parametrize("command", ["solve", "analyze", "sweep"])
    def test_kind_ranges_rejected_at_load(self, tmp_path, capsys, monkeypatch, command,
                                          kind, item):
        # each passed load and failed only when the run generated the family,
        # with a message that named neither the key nor the value
        forbid_runs(monkeypatch)
        sweep = ["--axis", "resolution", "--values", "64"] if command == "sweep" else []
        code = run_cli(command, "sqrt-product", *sweep, "--set", f'coefficient.kind="{kind}"',
                       "--set", item, outdir=tmp_path)
        err = capsys.readouterr().err
        key, _, value = item.partition("=")
        assert_rejected(code, err, key)
        assert repr(json.loads(value)) in err.strip().splitlines()[-1]

    def test_sweep_point_family_range_is_a_config_error(self, monkeypatch):
        # amp = 1.5 is in range for lipschitz and out of range for sqrt_product
        def forbidden(*args, **kwargs):
            raise AssertionError("cauchy_solve ran for an out-of-range family")
        monkeypatch.setattr(cli, "cauchy_solve", forbidden)
        cfg = cli.load_config(bundled_config_path("sqrt-product"),
                              ['coefficient.kind="lipschitz"', "coefficient.amp=1.5"])
        point = cli.run_sweep(cfg, "family", ["sqrt_product"])["points"]["sqrt_product"]
        assert point["error_type"] == "ConfigError"
        assert "coefficient.amp" in point["error"] and "1.5" in point["error"]

    def test_sweep_point_config_is_checked(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("cauchy_solve ran for an unchecked point")
        monkeypatch.setattr(cli, "cauchy_solve", forbidden)
        cfg = cli.load_config(bundled_config_path("autonomous-dirichlet"))
        cfg["coefficient"]["mollify_width"] = 2.5
        point = cli.run_sweep(cfg, "resolution", ["64"], workers=2)["points"]["64"]
        assert point["error_type"] == "ConfigError"
        assert "coefficient.mollify_width" in point["error"] and "2.5" in point["error"]


SMALL = ["--set", "time.n_points=64", "--set", "mesh.n_cells=8",
         "--set", "analysis.resolutions=[128,256]"]
TOP_KEYS = ["experiment_id", "coefficient", "resolutions", "norms", "ratios", "seminorms",
            "diagnostics", "schema_version"]
DESCRIPTOR = ["kind", "seed", "lambda", "Lambda", "T"]
EXTENSION_CHECKS = ["reflected_2T_le_3M", "reflected_3T_le_9M", "M_natural_le_bound",
                    "M_natural_bound"]
SOLVE_DIAGNOSTICS = ["residual", "iterations", "guard_mass_fraction"]


class TestReportKeyOrder:
    """Reports are compared byte for byte, so each subcommand's key order is
    part of its output: at the top level, in the coefficient descriptor, the
    resolutions and the diagnostics."""

    @pytest.mark.parametrize("argv, coefficient, resolutions, diagnostics", [
        (["solve", "sqrt-product", *SMALL], DESCRIPTOR, ["n_t", "n_x", "window_factor"],
         SOLVE_DIAGNOSTICS + EXTENSION_CHECKS),
        (["solve", "sqrt-product", *SMALL, "--set", "coefficient.mollify_width=2"],
         DESCRIPTOR, ["n_t", "n_x", "window_factor"],
         SOLVE_DIAGNOSTICS + ["ladder"] + EXTENSION_CHECKS),
        (["solve", "autonomous-dirichlet", "--set", "time.n_points=64",
          "--set", "mesh.n_cells=8"], DESCRIPTOR, ["n_t", "n_x", "window_factor"],
         SOLVE_DIAGNOSTICS + ["oracle_relative_deviation"]),
        (["analyze", "sqrt-product", *SMALL], DESCRIPTOR, ["n_t", "n_x"], EXTENSION_CHECKS),
        (["analyze", "sqrt-product", *SMALL, "--set", "coefficient.mollify_width=2"],
         DESCRIPTOR, ["n_t", "n_x"], ["ladder"] + EXTENSION_CHECKS),
        (["extend", "sqrt-product", *SMALL], DESCRIPTOR, ["n_t", "n_x", "window_factor"],
         ["extended_field"] + EXTENSION_CHECKS),
        (["commutator", "sqrt-product", *SMALL, "--set", "analysis.alphas=[0.25,0.5]"],
         ["kind", "seed"], ["n_t", "n_x"], ["resolutions", "alpha_0.25", "alpha_0.5"]),
        (["commutator", "sqrt-product", *SMALL, "--set", "coefficient.mollify_width=2"],
         ["kind", "seed"], ["n_t", "n_x"], ["ladder", "resolutions", "alpha_0.5"]),
    ])
    def test_key_order(self, tmp_path, argv, coefficient, resolutions, diagnostics):
        assert run_cli(*argv, outdir=tmp_path) == EXIT_OK
        with open(tmp_path / f"{argv[1]}.report.json") as fh:
            rep = json.load(fh)
        assert list(rep) == TOP_KEYS
        assert list(rep["coefficient"]) == coefficient
        assert list(rep["resolutions"]) == resolutions
        assert list(rep["diagnostics"]) == diagnostics
        for row in rep["seminorms"]:
            assert list(row) == ["functional", "order", "value", "achieving_interval",
                                 "resolution", "divergent_flag", "seed"]
