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
        assert isinstance(record, dict)
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
