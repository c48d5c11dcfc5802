import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import igac
from igac import cli
from igac.cli import main
from igac.errors import IgacError


def run(args, capsys=None):
    rc = main(args)
    err = capsys.readouterr().err if capsys is not None else ""
    return rc, err


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_metric_grid_csv(tmp_path):
    out = tmp_path / "m"
    rc = main(["metric", "--family", "exponential", "--grid", "mu=1:4:4",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "metric_grid.csv").read_text().splitlines()
    assert len(lines) == 5  # header + 4 rows
    assert "mu" in lines[0] and "g_closed_00" in lines[0]
    closed = [float(line.split(",")[1]) for line in lines[1:]]
    np.testing.assert_allclose(closed, [1.0, 0.25, 1.0 / 9.0, 0.0625])
    summary = read_json(out / "metric.json")
    assert summary["kind"] == "metric_check"
    assert summary["max_rel_error"] < 1e-12
    # The largest quadrature residual and node count over the grid.
    diagnostics = summary["diagnostics"]
    assert 0.0 <= diagnostics["max_error_estimate"] <= 1e-8
    assert diagnostics["max_nodes"] >= 200 and diagnostics["max_nodes"] % 200 == 0


def test_metric_grid_refines_each_distinct_factor_block_once(tmp_path, monkeypatch):
    # The README grid has 125 points and two atomic kinds: each kind's block
    # is integrated once, at its reference point, and pulled back to all.
    refined = []
    refine = igac.manifold._reference_block

    def counted(rec):
        refined.append(rec.kind)
        return refine(rec)

    monkeypatch.setattr(igac.manifold, "_reference_block", counted)
    rc = main(["metric", "--family", "composite_chaotic", "--grid",
               "mu_A=0.5:2.5:5,mu_B=-1:1:5,sigma_B=0.5:2.5:5",
               "--out", str(tmp_path / "m")])
    assert rc == 0
    assert refined == ["wigner_dyson", "gaussian"]
    summary = read_json(tmp_path / "m" / "metric.json")
    assert summary["n_points"] == 125 and summary["max_rel_error"] <= 3e-14
    assert summary["diagnostics"]["max_nodes"] == 400


def test_metric_gaussian_point_row(tmp_path):
    out = tmp_path / "m"
    rc = main(["metric", "--family", "gaussian", "--point", "mu=0,sigma=1",
               "--out", str(out)])
    assert rc == 0
    row = (out / "metric_grid.csv").read_text().splitlines()[1]
    assert "1,0,0,2" in row


def test_metric_malformed_grid(tmp_path, capsys):
    rc, err = run(["metric", "--family", "exponential", "--grid", "mu=%%",
                   "--out", str(tmp_path / "m")], capsys)
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "validation"
    assert payload["field"] == "grid"


def test_metric_requires_point_or_grid(tmp_path, capsys):
    rc, err = run(["metric", "--family", "exponential",
                   "--out", str(tmp_path / "m")], capsys)
    assert rc == 2


@pytest.mark.parametrize("argv, key", [
    (["metric", "--family", "gaussian", "--point", "mu=0,sigma=1"], "jobs"),
    (["ige", "--manifold", "integrable", "--tau-max", "5"], "quad_nodes"),
    (["metric", "--family", "gaussian", "--point", "mu=0,sigma=1"], "fd_step"),
    (["ige", "--manifold", "integrable", "--tau-max", "5"], "seed"),
    (["report"], "seed"),
    (["report"], "format"),
    (["curvature", "--manifold", "chaotic", "--sample", "3"], "plot"),
    (["metric", "--family", "gaussian", "--point", "mu=0,sigma=1"], "nodes"),
    (["metric", "--family", "gaussian", "--point", "mu=0,sigma=1"], "quad_tol"),
], ids=["jobs", "quad_nodes", "fd_step", "ige_seed", "report_seed",
        "report_format", "curvature_plot", "metric_nodes", "metric_quad_tol"])
def test_jobs_option_removed(tmp_path, capsys, argv, key):
    # Removed options, and shared flags on a command that does not read
    # them, are unknown both as flags and as config keys.
    flag = "--" + key.replace("_", "-")
    rc, err = run(argv + ["--out", str(tmp_path / "a"), flag, "2"], capsys)
    assert rc == 2
    assert "unrecognized arguments: " in err and flag in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 2}))
    rc, err = run(argv + ["--config", str(cfg), "--out", str(tmp_path / "b")],
                  capsys)
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["field"] == key
    assert payload["message"].startswith(f"unknown config key {key!r}")


def test_curvature_chaotic_negative(tmp_path):
    out = tmp_path / "c"
    rc = main(["curvature", "--manifold", "chaotic", "--sample", "10",
               "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "curvature.json")
    assert rep["kind"] == "curvature_signs"
    assert rep["classification"] == "negative"
    assert rep["scalar_max"] == pytest.approx(-1.0, abs=1e-4)


def test_curvature_computes_each_point_once(tmp_path, monkeypatch):
    from igac import geometry
    calls = [0]
    original = geometry.curvature

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(geometry, "curvature", counted)
    assert main(["curvature", "--manifold", "chaotic", "--sample", "50",
                 "--out", str(tmp_path / "c")]) == 0
    assert calls[0] == 50


def test_geodesic_files_and_summary(tmp_path):
    out = tmp_path / "g"
    rc = main(["geodesic", "--manifold", "integrable", "--tau-max", "2",
               "--tol", "1e-10", "--out", str(out), "--plot"])
    assert rc == 0
    rep = read_json(out / "geodesic.json")
    assert rep["final_coords"][0] == pytest.approx(np.exp(2.0), rel=1e-8)
    assert rep["speed_drift"] < 1e-9
    assert (out / "trajectory.csv").exists()
    svg = (out / "geodesic.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_geodesic_deep_into_the_gaussian_chart(tmp_path):
    # sigma = exp(-1000 tau) leaves float64 at tau ~ 0.75 and is written as
    # 0.0, float64's value of e^-10000; the manifold is complete, so the
    # run succeeds and the speed stays put.
    out = tmp_path / "deep"
    rc = main(["geodesic", "--manifold", "gaussian", "--theta0", "0,1",
               "--v0", "0,-1000", "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "geodesic.json")
    assert rep["final_coords"] == [0.0, 0.0]
    assert "boundary_event" not in rep
    assert rep["speed_drift"] <= 1e-9 * 1000.0 * np.sqrt(2.0)


def test_jacobi_gaussian_lambda(tmp_path):
    out = tmp_path / "j"
    rc = main(["jacobi", "--manifold", "gaussian", "--tol", "1e-10",
               "--samples", "1024", "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "jacobi.json")
    assert rep["kind"] == "jacobi_fit"
    assert rep["lambda_j"] == pytest.approx(1.0 / np.sqrt(2.0), rel=0.02)
    assert rep["window"] == [10.0, 30.0]


def test_solver_diagnostics_in_trajectory_json(tmp_path):
    for cmd in ("geodesic", "jacobi", "ige"):
        out = tmp_path / cmd
        assert main([cmd, "--manifold", "chaotic", "--tau-max", "5",
                     "--samples", "64", "--out", str(out)]) == 0
        rep = read_json(out / f"{cmd}.json")
        assert "boundary_event" not in rep
        solver = rep["diagnostics"]["solver"]
        assert set(solver) == {"rhs_calls", "accepted", "rejected", "min_step"}
        assert solver["rhs_calls"] == 1 + 6 * (solver["accepted"]
                                               + solver["rejected"])
        assert 0.0 < solver["min_step"] <= 5.0


def test_ige_integrable_logarithmic(tmp_path):
    out = tmp_path / "i"
    rc = main(["ige", "--manifold", "integrable", "--tau-max", "60",
               "--out", str(out), "--plot"])
    assert rc == 0
    rep = read_json(out / "ige.json")
    assert rep["kind"] == "ige_fit"
    assert rep["selected"] == "logarithmic"
    assert rep["logarithmic"]["slope"] == pytest.approx(2.0, rel=0.05)
    assert (out / "ige_series.csv").exists()
    assert (out / "ige.svg").exists()


def test_ige_chaotic_linear(tmp_path):
    out = tmp_path / "i"
    rc = main(["ige", "--manifold", "chaotic", "--out", str(out)])
    assert rc == 0
    rep = read_json(out / "ige.json")
    assert rep["selected"] == "linear"
    assert rep["linear"]["slope"] > 0.0


@pytest.mark.parametrize("manifold, theta0, v0", [
    ("gaussian", "0,1", "0,-40"),
    ("gaussian", "0,1", "0,-80"),
    ("integrable", "1,1", "-80,0"),
    ("chaotic", "1,0,1", "0,0,-80"),
])
def test_ige_deep_run_writes_strict_json(tmp_path, manifold, theta0, v0):
    # A scale parameter falls to e^-400 or below, where theta reads 0.0;
    # the entropy and its fits stay finite, and ige.json is strict JSON.
    def reject(token):
        raise ValueError(f"ige.json holds {token}")

    out = tmp_path / "deep"
    rc = main(["ige", "--manifold", manifold, f"--theta0={theta0}",
               f"--v0={v0}", "--tau-max", "10", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "ige.json").read_text(encoding="utf-8"),
                     parse_constant=reject)
    assert all(np.isfinite(rep[law][key]) for law in ("logarithmic", "linear")
               for key in ("slope", "intercept", "r2", "aic"))


def test_ige_tau_max_zero(tmp_path, capsys):
    rc, err = run(["ige", "--manifold", "integrable", "--tau-max", "0",
                   "--out", str(tmp_path / "i")], capsys)
    assert rc == 2
    assert json.loads(err.strip().splitlines()[-1])["field"] == "tau_max"


def test_geodesic_non_finite_velocity(tmp_path, capsys):
    rc, err = run(["geodesic", "--manifold", "integrable", "--v0", "nan,1",
                   "--out", str(tmp_path / "g")], capsys)
    assert rc == 2
    assert json.loads(err.strip().splitlines()[-1])["field"] == "v0"


@pytest.mark.parametrize("argv, message", [
    (["geodesic", "--manifold", "gaussian", "--theta0", "0,-1"],
     "coordinate sigma=-1.0 outside open interval (0.0, inf) of model 'gaussian'"),
    (["metric", "--family", "gaussian", "--point", "mu=0,sigma=-1"],
     "parameter sigma=-1.0 outside open interval (0.0, inf) for family 'gaussian'"),
], ids=["geodesic", "metric"])
def test_out_of_domain_value_reads_as_a_float(tmp_path, capsys, argv, message):
    rc, err = run(argv + ["--out", str(tmp_path / "o")], capsys)
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["field"] == "sigma"
    assert payload["message"] == message


def test_chain_small_run(tmp_path):
    out = tmp_path / "c"
    rc = main(["chain", "--n", "10", "--hx", "1", "--hy", "1",
               "--out", str(out), "--plot"])
    assert rc == 0
    rep = read_json(out / "chain.json")
    assert rep["kind"] == "chain_verdict"
    assert rep["verdict"] == "wigner_like"
    assert abs(rep["r_mean"] - 0.531) < abs(rep["r_mean"] - 0.386)
    assert (out / "eigenvalues.csv").exists()
    assert (out / "spacings.csv").exists()
    assert (out / "chain.svg").exists()
    diag = rep["diagnostics"]
    assert diag["method"] == "dense" and diag["dense_dim"] == 528
    assert diag["mode_energies"] is None and diag["trimmed_levels"] == 104
    assert 1.0 < diag["unfold_condition"] < 1e8


def test_chain_resource_guard(tmp_path, capsys, monkeypatch):
    rc, err = run(["chain", "--n", "20", "--out", str(tmp_path / "c")], capsys)
    assert rc == 3
    assert json.loads(err.strip().splitlines()[-1])["error"] == "resource"
    # The memory check is on the path taken: n = 8 full at h_x = 1 diagonalizes
    # the d = 136 even block (342 KB with the eigensolver's copy and the
    # unfolding of 256 levels), but at h_x = 0 no matrix is built (46 KB).
    monkeypatch.setattr(igac.spinchain, "_physical_memory_bytes",
                        lambda: 300_000)
    argv = ["chain", "--n", "8", "--hy", "2", "--sector", "full"]
    rc, _ = run(argv + ["--hx", "0", "--out", str(tmp_path / "c0")], capsys)
    assert rc == 0
    diag = read_json(tmp_path / "c0" / "chain.json")["diagnostics"]
    assert diag["method"] == "free_fermion" and diag["dense_dim"] is None
    assert len(diag["mode_energies"]) == 8
    rc, err = run(argv + ["--hx", "1", "--out", str(tmp_path / "c1")], capsys)
    assert rc == 3
    assert json.loads(err.strip().splitlines()[-1])["error"] == "resource"


@pytest.mark.parametrize("key, value", [("bins", 3), ("trim", 0.5)])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_chain_checks_bins_and_trim_before_writing(tmp_path, capsys, key,
                                                   value, source):
    # A bad --bins or --trim, as a flag or a config key, exits 2 naming that
    # key, and writes nothing: no tables, no chain.json, no run_config.json.
    argv = ["chain", "--n", "10", "--plot"]
    if source == "flag":
        argv += [f"--{key}", str(value)]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv += ["--config", str(cfg)]
    out = tmp_path / "o"
    rc, err = run(argv + ["--out", str(out)], capsys)
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "validation" and payload["field"] == key
    assert not out.exists()


def test_report_full_bundle(tmp_path):
    paths = []
    out = tmp_path / "curv"
    main(["curvature", "--manifold", "chaotic", "--sample", "5",
          "--out", str(out)])
    paths.append(out / "curvature.json")
    out = tmp_path / "ige1"
    main(["ige", "--manifold", "integrable", "--tau-max", "60",
          "--out", str(out)])
    paths.append(out / "ige.json")
    out = tmp_path / "ige2"
    main(["ige", "--manifold", "chaotic", "--tau-max", "60", "--out", str(out)])
    paths.append(out / "ige.json")
    out = tmp_path / "chain1"
    main(["chain", "--n", "10", "--hx", "0", "--hy", "2", "--out", str(out)])
    paths.append(out / "chain.json")
    out = tmp_path / "chain2"
    main(["chain", "--n", "10", "--hx", "1", "--hy", "1", "--out", str(out)])
    paths.append(out / "chain.json")
    out = tmp_path / "metric"
    main(["metric", "--family", "exponential", "--grid", "mu=1:2:3",
          "--out", str(out)])
    paths.append(out / "metric.json")
    out = tmp_path / "jac"
    main(["jacobi", "--manifold", "gaussian", "--out", str(out)])
    paths.append(out / "jacobi.json")

    rep_dir = tmp_path / "rep"
    rc = main(["report", *[str(p) for p in paths], "--out", str(rep_dir)])
    assert rc == 0
    rep = read_json(rep_dir / "report.json")
    assert rep["manifolds"]["integrable"]["ige"] == "logarithmic"
    assert rep["manifolds"]["chaotic"]["ige"] == "linear"
    assert rep["manifolds"]["chaotic"]["scalar_sign"] == "negative"
    assert rep["chain"]["(0,2)"] == "poisson_like"
    assert rep["chain"]["(1,1)"] == "wigner_like"
    assert rep["missing"] == []


def test_report_empty_inputs(tmp_path, capsys):
    rc, err = run(["report", "--out", str(tmp_path / "r")], capsys)
    assert rc == 2


def test_report_missing_path(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    rc, err = run(["report", str(missing), "--out", str(tmp_path / "r")], capsys)
    assert rc == 2
    assert str(missing) in err


@pytest.mark.parametrize("payload, key", [
    ([1, 2], None),
    ({"kind": "chain_verdict", "h_y": 2.0, "verdict": "poisson_like"}, "h_x"),
    ({"kind": "ige_fit", "selected": "linear", "linear": 3}, "manifold"),
    ({"kind": "ige_fit", "manifold": "chaotic", "selected": "linear",
      "linear": 3}, "linear.slope"),
], ids=["array", "chain_without_h_x", "ige_without_manifold",
        "ige_selected_not_object"])
def test_report_rejects_a_malformed_input(tmp_path, capsys, payload, key):
    # Each field is checked where report reads it: the run exits 2 naming
    # the input file and key, before any output is written.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    out = tmp_path / "r"
    rc, err = run(["report", str(bad), "--out", str(out)], capsys)
    assert rc == 2
    error = json.loads(err.strip().splitlines()[-1])
    assert error["error"] == "validation"
    assert str(bad) in error["message"]
    assert key is None or repr(key) in error["message"]
    assert not out.exists()


def test_report_partial_inputs_marks_missing(tmp_path):
    out = tmp_path / "chain"
    main(["chain", "--n", "10", "--hx", "1", "--hy", "1", "--out", str(out)])
    rep_dir = tmp_path / "rep"
    rc = main(["report", str(out / "chain.json"), "--out", str(rep_dir)])
    assert rc == 0
    rep = read_json(rep_dir / "report.json")
    assert "metric_check" in rep["missing"]
    assert "ige_fit" in rep["missing"]


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["ige", "--manifold", "integrable", "--tau-max", "40", "--plot"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("ige_series.csv", "ige.json", "ige.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_run_config_echo_and_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_max": 40.0, "samples": 256}))
    out = tmp_path / "o"
    rc = main(["ige", "--manifold", "integrable", "--config", str(cfg),
               "--tau-max", "50", "--out", str(out)])
    assert rc == 0
    echoed = read_json(out / "run_config.json")
    assert echoed["tau_max"] == 50.0      # flag overrides config value
    assert echoed["samples"] == 256       # config value overrides default
    assert echoed["command"] == "ige"


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc, err = run(["ige", "--manifold", "integrable", "--config", str(cfg),
                   "--out", str(tmp_path / "o")], capsys)
    assert rc == 2
    assert json.loads(err.strip().splitlines()[-1])["field"] == "bogus"


IGE_RUN = ["ige", "--manifold", "integrable"]


@pytest.mark.parametrize("argv, config", [
    (IGE_RUN, {"samples": "abc"}),
    (["chain", "--n", "8"], {"n": 10.7}),
    (IGE_RUN, {"plot": "no"}),
    (IGE_RUN, {"format": "xml"}),
    (["geodesic", "--manifold", "gaussian"], {"theta0": ["a", "b"]}),
    (["jacobi", "--manifold", "gaussian"], {"j0": [0, 0]}),
    (["jacobi", "--manifold", "gaussian"], {"window": [1, 2]}),
    (["curvature", "--manifold", "gaussian"], {"point": [1, 2]}),
    (["metric", "--family", "gaussian"], {"point": [1, 2]}),
    (["report"], {"inputs": [1, 2]}),
], ids=["samples_text", "n_fraction", "plot_text", "format_choice",
        "theta0_list", "j0_list", "window_list", "curvature_point_list",
        "metric_point_list", "inputs_numbers"])
def test_config_values_are_checked_like_flags(tmp_path, capsys, argv, config):
    # A config value passes the type and choices of its flag, as the
    # flag's own text would, and a text flag takes a string (report's
    # inputs a list of strings); the flag given on the command line does
    # not mask it.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    rc, err = run(argv + ["--config", str(cfg), "--out", str(out)], capsys)
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "validation"
    assert payload["field"] == next(iter(config))
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["metric", "--family", "gaussian", "--point", "mu=0,sigma=1"],
    ["curvature", "--manifold", "gaussian", "--sample", "3"],
    ["jacobi", "--manifold", "gaussian", "--tau-max", "5"],
    ["chain", "--n", "10"],
], ids=lambda argv: argv[0])
def test_echoed_config_reproduces_the_run_config(tmp_path, argv):
    # run_config.json holds every key, defaults included; as a config file
    # on its own it gives back the same run_config.json.
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 0
    echoed = (out / "run_config.json").read_bytes()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in json.loads(echoed).items()
                               if k != "command"}))
    assert main([argv[0], "--config", str(cfg)]) == 0
    assert (out / "run_config.json").read_bytes() == echoed


def test_config_int_for_float_flag_is_accepted(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau_max": 50}))
    out = tmp_path / "o"
    assert main(IGE_RUN + ["--config", str(cfg), "--out", str(out)]) == 0
    assert read_json(out / "run_config.json")["tau_max"] == 50.0


def counting_build_parser(monkeypatch) -> list:
    """Empty the shared parser's cache and count build_parser calls from
    now on, one list entry per call."""
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    return built


def test_main_calls_share_one_parser(tmp_path, monkeypatch):
    built = counting_build_parser(monkeypatch)
    for name in ("a", "b"):
        assert main(["metric", "--family", "exponential", "--point", "mu=1",
                     "--out", str(tmp_path / name)]) == 0
    assert len(built) == 1


def test_a_config_run_leaves_the_shared_parser_as_built(tmp_path, monkeypatch):
    # The config values become defaults of a parser of that call's own, so
    # the next plain call in the process runs with the built-in defaults.
    built = counting_build_parser(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 64}))
    argv = IGE_RUN + ["--tau-max", "10", "--out", str(tmp_path / "o")]
    assert main(argv + ["--config", str(cfg)]) == 0
    assert read_json(tmp_path / "o" / "run_config.json")["samples"] == 64
    assert len(built) == 2
    assert main(argv) == 0
    assert read_json(tmp_path / "o" / "run_config.json")["samples"] == 1024
    assert len(built) == 2


def test_a_call_that_exits_2_leaves_the_next_call_alone(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 64, "format": "xml"}))
    argv = IGE_RUN + ["--tau-max", "10", "--out", str(tmp_path / "o")]
    cli._parser.cache_clear()
    assert run(argv, capsys)[0] == 0
    echoed = (tmp_path / "o" / "run_config.json").read_bytes()
    for bad in (["ige", "--samples", "many"], ["ige", "--bogus"],
                ["frobnicate"], argv + ["--config", str(cfg)]):
        assert run(bad, capsys)[0] == 2
        assert run(argv, capsys)[0] == 0
        assert (tmp_path / "o" / "run_config.json").read_bytes() == echoed


@pytest.mark.parametrize("samples", ["0", "-5", "1"])
def test_too_few_samples_is_a_validation_error(tmp_path, capsys, samples):
    rc, err = run(["geodesic", "--manifold", "gaussian", "--samples", samples,
                   "--out", str(tmp_path / "o")], capsys)
    assert rc == 2
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "validation"
    assert payload["field"] == "samples"


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # Rules of 4 and 8 nodes disagree, so the quadrature raises AccuracyError.
    monkeypatch.setattr(igac.manifold, "_NODES", (4, 8))
    rc, err = run(["metric", "--family", "wigner_dyson", "--point", "mu=0.7",
                   "--out", str(tmp_path / "m")], capsys)
    assert rc == 4
    assert json.loads(err.strip().splitlines()[-1])["error"] == "numerical"
    assert not (tmp_path / "m" / "metric.json").exists()


def test_metric_far_out_point_exits_0(tmp_path):
    # The scores at mu = 1e150 underflow when squared, so a quadrature at mu
    # exited 4 there; the block at the reference point gives the metric.
    out = tmp_path / "m"
    assert main(["metric", "--family", "exponential", "--point", "mu=1e150",
                 "--out", str(out)]) == 0
    summary = read_json(out / "metric.json")
    assert summary["max_rel_error"] < 1e-13
    assert read_json(out / "run_config.json").keys().isdisjoint(
        {"nodes", "quad_tol"})


def test_metric_outside_float64_exits_4(tmp_path, capsys):
    # At sigma = 1e-300 the metric, 1/sigma^2, overflows; at 1e300 it
    # underflows to the zero matrix, which a positive-definite metric never
    # is.  At 1e-100 it is a float64, and so is the relative error, though
    # its squares are not.
    out = tmp_path / "m"
    for sigma in ("1e-300", "1e+300"):
        rc, err = run(["metric", "--family", "gaussian", "--point",
                       f"mu=0,sigma={sigma}", "--out", str(out)], capsys)
        assert rc == 4
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "numerical"
        assert f"sigma={sigma}" in payload["message"]
        assert not (out / "metric.json").exists()
    assert main(["metric", "--family", "gaussian", "--point",
                 "mu=0,sigma=1e-100", "--out", str(out)]) == 0
    text = (out / "metric.json").read_text(encoding="utf-8")
    assert json.loads(text, parse_constant=pytest.fail)["max_rel_error"] < 1e-13


@pytest.mark.parametrize("sigma", ["1e-300", "1e300"])
def test_metric_outside_float64_writes_only_the_json_error(tmp_path, sigma):
    # No numpy warning reaches standard error ahead of the error object.
    src = str(Path(igac.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-m", "igac.cli", "metric", "--family", "gaussian",
         "--point", f"mu=0,sigma={sigma}", "--out", str(tmp_path / "m")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 4
    assert json.loads(out.stderr)["error"] == "numerical"
    assert not (tmp_path / "m").exists()


def test_stationary_ige_is_a_numerical_failure(tmp_path, capsys):
    # Every input is valid; a start at rest explores no volume, so there
    # is no entropy growth to fit.
    rc, err = run(["ige", "--manifold", "integrable", "--v0", "0,0",
                   "--out", str(tmp_path / "o")], capsys)
    assert rc == 4
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload["error"] == "numerical"
    assert "degenerate" in payload["message"]


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency: neither the import nor the
    # Gaussian sampler and CDF (erfc from the standard library) load scipy.
    code = ("import sys, igac, igac.cli; "
            "g = igac.family('gaussian'); "
            "igac.cdf(g, (0.0, 1.0), igac.sample(g, (0.0, 1.0), 10, 0)); "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    src = str(Path(igac.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_json_format_output(tmp_path):
    out = tmp_path / "m"
    rc = main(["metric", "--family", "exponential", "--point", "mu=2",
               "--format", "json", "--out", str(out)])
    assert rc == 0
    data = read_json(out / "metric_grid.json")
    assert data["rows"][0][1] == pytest.approx(0.25)


def _igac_errors(cls=IgacError):
    for sub in cls.__subclasses__():
        yield sub
        yield from _igac_errors(sub)


# The built-in base class of an IgacError is its category and exit code.
CATEGORIES = {ValueError: ("validation", 2), RuntimeError: ("resource", 3),
              ArithmeticError: ("numerical", 4)}


@pytest.mark.parametrize("error", sorted(set(_igac_errors()),
                                         key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_every_error_exits_with_the_category_of_its_builtin_base(
        monkeypatch, capsys, error):
    (base,) = [b for b in CATEGORIES if issubclass(error, b)]
    category, code = CATEGORIES[base]

    def fail(cfg):
        raise error("raised by the command")

    monkeypatch.setitem(cli._DISPATCH, "report", fail)
    rc, err = run(["report"], capsys)
    assert rc == code
    payload = json.loads(err.strip().splitlines()[-1])
    assert payload == {"error": category, "message": "raised by the command"}


def test_an_error_outside_igac_is_not_caught(monkeypatch):
    # No catch-all: a bug surfaces as its own traceback, not as exit 4.
    def fail(cfg):
        raise RuntimeError("a bug")

    monkeypatch.setitem(cli._DISPATCH, "report", fail)
    with pytest.raises(RuntimeError, match="a bug"):
        main(["report"])


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2
