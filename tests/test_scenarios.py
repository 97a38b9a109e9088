"""Scenario registry, report schema, determinism, and the CLI surface."""
import json
import subprocess
import sys

import numpy as np
import pytest

from multipot import sample_sphere, write_measure_csv, write_points_csv
from multipot.geometry import DiscreteMeasure, basis_vector
from multipot.scenarios import (
    UnknownScenario,
    list_scenarios,
    report_to_json,
    run_scenario,
)

def test_list_scenarios_sorted_and_stable():
    names = list_scenarios()
    assert names == sorted(names)
    assert "area2-sigma" in names
    assert names == list_scenarios()


def test_unknown_scenario_raises_with_listing():
    with pytest.raises(UnknownScenario) as err:
        run_scenario("no-such-thing")
    assert "area2-sigma" in str(err.value)


def test_reports_are_deterministic():
    for name in ("s011-counterexample", "bcr-shift"):
        a = report_to_json(run_scenario(name))
        b = report_to_json(run_scenario(name))
        assert a == b


def test_single_dimension_override():
    report = run_scenario("area2-sigma", {"d": 3, "tuples": 20_000,
                                          "surrogate_size": 2000})
    assert report["parameters"]["dims"] == [3]
    assert report["passed"]


def test_report_schema():
    report = run_scenario("s011-counterexample")
    assert report["scenario"] == "s011-counterexample"
    assert isinstance(report["passed"], bool)
    for entry in report["assertions"]:
        assert entry["source"] in ("closed-form", "oracle", "definition")
        if entry["source"] == "closed-form":
            assert entry["formula"]
        assert isinstance(entry["passed"], bool)


def test_every_scenario_passes_at_reduced_budget():
    for name in list_scenarios():
        overrides = dict(tuples=20_000)
        if name in ("area2-sigma", "s100-nonconvex"):
            overrides["surrogate_size"] = 2000
        report = run_scenario(name, overrides)
        failed = [a["description"] for a in report["assertions"] if not a["passed"]]
        assert report["passed"], f"{name}: {failed}"


# --- CLI ------------------------------------------------------------------------------


def _run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "multipot.cli", *args],
                          capture_output=True, text=True, **kwargs)


def test_package_all_names_what_it_imports():
    # every public name of the package, once, and each one resolves
    import types

    import multipot
    namespace = {}
    exec("from multipot import *", namespace)
    assert len(set(multipot.__all__)) == len(multipot.__all__)
    assert all(namespace[name] is getattr(multipot, name) for name in multipot.__all__)
    public = {name for name, value in vars(multipot).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(multipot.__all__) == public


def test_package_runs_as_a_module():
    # python -m multipot is the multipot command, with no install
    out = subprocess.run([sys.executable, "-m", "multipot", "scenarios"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == _run_cli("scenarios").stdout
    assert "area2-sigma" in out.stdout.split()


def test_cli_energy_json(tmp_path):
    path = tmp_path / "pts.csv"
    write_points_csv(path, sample_sphere(3, 3, 1))
    out = _run_cli("energy", "--kernel", "area2", "--points", str(path))
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert set(payload) == {"value", "stderr", "samples_used"}
    assert payload["stderr"] == 0.0


def test_cli_mutual_counterexample(tmp_path):
    e1, e2 = basis_vector(0, 3), basis_vector(1, 3)
    dirac = tmp_path / "dirac.csv"
    write_measure_csv(dirac, DiscreteMeasure(e1[None, :], np.array([1.0])))
    mu = tmp_path / "mu.csv"
    write_measure_csv(mu, DiscreteMeasure(np.stack([e2, -e1]), np.array([1.0, -1.0])))
    out = _run_cli("mutual", "--kernel", "s011", "--measure", str(dirac),
                   "--measure", str(mu), "--measure", str(mu))
    assert out.returncode == 0
    assert json.loads(out.stdout)["value"] == pytest.approx(-1.0, abs=1e-12)


def test_cli_pdtest_embeds_witness_csv():
    out = _run_cli("pdtest", "--kernel", "neg_area2", "--d", "3", "--conditional",
                   "--trials", "2", "--set-size", "10", "--seed", "1")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["outcome"] == "fail"
    assert payload["witness"]["measure_csv"].startswith("w,x1,x2,x3")
    assert payload["witness"]["energy"] < 0


def test_cli_minimize_writes_trace_and_points(tmp_path):
    prefix = tmp_path / "run"
    out = _run_cli("minimize", "--kernel", "s011", "--n", "2", "--d", "3",
                   "--steps", "200", "--lr", "0.5", "--seed", "2",
                   "--out", str(prefix))
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["final_energy"] <= 1e-4
    trace = (tmp_path / "run_trace.csv").read_text().splitlines()
    assert trace[0] == "iteration,energy"
    # the header, then one line per recorded energy: the start and each iteration
    assert len(trace) == payload["iterations_run"] + 2
    assert (tmp_path / "run_points.csv").read_text().startswith("w,x1,x2,x3")


def test_cli_verify_single_scenario_deterministic_bytes():
    args = ("verify", "--scenario", "s011-counterexample", "--seed", "5")
    a = _run_cli(*args)
    b = _run_cli(*args)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    payload = json.loads(a.stdout)
    assert payload["scenario"] == "s011-counterexample"
    assert payload["passed"] is True


def test_cli_verify_unknown_scenario_usage_error():
    out = _run_cli("verify", "--scenario", "nope")
    assert out.returncode == 64
    assert "unknown scenario" in out.stderr


def test_cli_verify_failure_exit_code():
    # shrinking every tolerance to nothing forces an assertion failure
    out = _run_cli("verify", "--scenario", "area2-sigma", "--tuples", "20000",
                   "--tol-scale", "1e-12")
    assert out.returncode == 2
    assert json.loads(out.stdout)["passed"] is False


def test_cli_verify_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("scenario=area2-sigma\ntuples=20000\nseed=9\n")
    from_file = _run_cli("verify", "--config", str(cfg))
    assert from_file.returncode == 0
    assert json.loads(from_file.stdout)["scenario"] == "area2-sigma"
    flag_wins = _run_cli("verify", "--config", str(cfg), "--scenario",
                         "s011-counterexample")
    assert json.loads(flag_wins.stdout)["scenario"] == "s011-counterexample"


@pytest.mark.parametrize("line", ["seeed=3", "jobs=4"])
def test_cli_verify_config_rejects_unknown_keys(tmp_path, capsys, line):
    from multipot.cli import main

    cfg = tmp_path / "verify.cfg"
    cfg.write_text(f"scenario=bcr-shift\n{line}\n")
    with pytest.raises(SystemExit) as exit_info:
        main(["verify", "--config", str(cfg)])
    assert exit_info.value.code == 64
    err = capsys.readouterr().err
    assert f"multipot: error: {cfg}: unknown key(s) {line.split('=')[0]}" in err
    assert "allowed: scenario, seed, out, tuples, tol-scale" in err


def test_cli_verify_out_file_matches_stdout(tmp_path):
    target = tmp_path / "report.json"
    out = _run_cli("verify", "--scenario", "bcr-shift", "--out", str(target))
    assert out.returncode == 0
    assert target.read_text() == out.stdout


def test_cli_scenarios_listing():
    out = _run_cli("scenarios")
    names = out.stdout.split()
    assert names == sorted(names)
    assert "vol2-sigma" in names


def test_cli_usage_error_codes():
    assert _run_cli("energy", "--kernel", "vol2").returncode == 64
    assert _run_cli("energy-int", "--kernel", "nope", "--d", "3").returncode == 64


def test_cli_usage_errors_say_why(tmp_path, capsys):
    # (arguments, the text after "multipot: error: " on stderr); each exits with 64
    from multipot.cli import main

    measure = tmp_path / "mu.csv"
    write_measure_csv(measure, DiscreteMeasure.dirac(basis_vector(0, 3)))
    pairs, triples = tmp_path / "pairs.csv", tmp_path / "triples.csv"
    write_points_csv(pairs, sample_sphere(3, 2, 1))
    write_points_csv(triples, sample_sphere(3, 3, 1))
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("seed=3\nscenario bcr-shift\n")
    uvt_potential = ["potential", "--kernel", "uvt", "--measure", str(measure), "--order", "1"]
    convexity = ["convexity", "--kernel", "area2", "--nu", "uniform:50"]
    table = [
        (uvt_potential + ["--measure", str(measure), "--at", str(pairs)], "--order 1"),
        (uvt_potential + ["--at", str(triples)], "--at rows must group into tuples of 2"),
        (convexity + ["--mu", "uniform:50"], "uniform:M measures need --d"),
        (convexity + ["--mu", "uniform:abc", "--d", "3"],
         "measure 'uniform:abc': M in uniform:M must be an integer"),
        (["verify", "--scenario", "nope"], "unknown scenario 'nope'"),
        (["verify", "--config", str(cfg)], f"{cfg}:2: expected key=value"),
        (["energy-int", "--kernel", "sum_lift:base=riesz,n=3", "--d", "3"],
         "bad parameters for kernel 'riesz'"),
    ]
    for argv, text in table:
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 64, argv
        assert "multipot: error: " + text in capsys.readouterr().err, argv
