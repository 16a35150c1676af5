import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import gset_text
import oscising
from oscising.cli import main
from oscising.dynamics import _spins_batch
from oscising.graphs import random_graph


@pytest.fixture
def gset_file(tmp_path):
    g = random_graph(12, 40, "pm_one", seed=21)
    path = tmp_path / "r12.txt"
    path.write_text(gset_text(g))
    return path


def test_solve_maxcut_stats_json(gset_file, tmp_path, capsys):
    out = tmp_path / "stats.json"
    code = main(["solve-maxcut", str(gset_file), "--trials", "6", "--seed", "3",
                 "--t-end", "5", "--dt", "0.02", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n_trials"] == 6
    assert doc["best_cut"] is not None
    assert len(doc["best_spins"]) == 12


def test_solve_maxcut_writes_trajectory(gset_file, tmp_path):
    out = tmp_path / "stats.json"
    traj = tmp_path / "traj.csv"
    code = main(["solve-maxcut", str(gset_file), "--trials", "4", "--seed", "1",
                 "--t-end", "5", "--dt", "0.02",
                 "--out", str(out), "--traj", str(traj)])
    assert code == 0
    lines = traj.read_text().splitlines()
    assert lines[0].startswith("t,phi_0")
    assert lines[0].endswith(",K,Ks,Kn,E")
    assert len(lines) > 2
    # energy column populated
    assert lines[1].split(",")[-1] != ""
    # the trajectory is the best trial's: its last row reads out to best_spins
    phi = np.array([float(c) for c in lines[-1].split(",")[1:13]])
    assert _spins_batch(phi).tolist() == json.loads(out.read_text())["best_spins"]


def test_solve_maxcut_seed_changes_results(gset_file, capsys):
    def run(seed):
        main(["solve-maxcut", str(gset_file), "--trials", "3", "--seed", seed,
              "--t-end", "5"])
        doc = json.loads(capsys.readouterr().out)
        doc.pop("wall_time_total"), doc.pop("wall_time_per_trial")
        return doc
    assert run("1") == run("1")
    assert run("1") != run("2")


def test_solve_maxcut_rejects_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n1 1 1\n")
    assert main(["solve-maxcut", str(bad)]) == 2
    assert main(["solve-maxcut", str(tmp_path / "missing.txt")]) == 2


def test_unreadable_input_paths_exit_2(gset_file, tmp_path, capsys):
    """A directory where a file is read (the G-set file, --schedule or the
    colouring's adjacency file) is bad input: exit 2 and an error line."""
    for argv in (["solve-maxcut", str(tmp_path)],
                 ["solve-maxcut", str(gset_file), "--schedule", str(tmp_path)],
                 ["solve-coloring", str(tmp_path)]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text", ["99999999999999999999 0\n",
                                  "3 1\n1 99999999999999999999 1\n"])
def test_solve_maxcut_rejects_oversized_integers(tmp_path, capsys, text):
    """An integer beyond int64 in the header or an edge line is a format
    error (exit 2), not an OverflowError traceback."""
    bad = tmp_path / "huge.txt"
    bad.write_text(text)
    assert main(["solve-maxcut", str(bad)]) == 2
    assert "error: bad" in capsys.readouterr().err


@pytest.mark.parametrize("command, seed", [
    pytest.param("solve-maxcut", "-1", id="-1"),
    pytest.param("solve-maxcut", str(2 ** 64), id=str(2 ** 64)),
    pytest.param("boltzmann", "-1", id="boltzmann--1"),
    pytest.param("boltzmann", str(2 ** 64), id=f"boltzmann-{2 ** 64}"),
])
def test_solve_maxcut_rejects_out_of_range_seed(gset_file, capsys, command, seed):
    argv = ([command, str(gset_file), "--trials", "1", "--t-end", "1"]
            if command == "solve-maxcut" else [command, "--steps", "20"])
    assert main(argv + ["--seed", seed]) == 2
    assert "[0, 2**64)" in capsys.readouterr().err


def test_solve_maxcut_exits_3_when_every_trial_fails(tmp_path, capsys):
    # enormous noise with long steps overflows every trial's phases,
    # whatever form the drift kernel takes
    path = tmp_path / "pair.txt"
    path.write_text("2 1\n1 2 1\n")
    assert main(["solve-maxcut", str(path), "--trials", "2", "--kn-high", "1e308",
                 "--dt", "0.5", "--t-end", "20"]) == 3
    assert "all trials failed" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["solve-maxcut"], ["ablate"], ["solve-coloring"],
                                  ["solve-coloring", "--format", "pairs"]],
                         ids=["solve-maxcut", "ablate", "solve-coloring", "pairs"])
def test_problems_with_no_spins_exit_0(tmp_path, capsys, argv):
    """A '0 0' G-set file, or an empty pairs file, used to raise
    ZeroDivisionError in every run; now each run ends with no spins."""
    path = tmp_path / "none.txt"
    path.write_text("" if "pairs" in argv else "0 0\n")
    assert main([argv[0], str(path), *argv[1:], "--trials", "2", "--t-end", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    runs = list(doc["stats"].values()) if argv[0] == "ablate" else [doc.get("stats", doc)]
    assert all(s["best_spins"] == [] and s["n_failed"] == 0 for s in runs)


def test_solve_maxcut_custom_schedule(gset_file, tmp_path, capsys):
    sfile = tmp_path / "sched.json"
    sfile.write_text(json.dumps({
        "t_end": 5.0, "K": [[0.0, 0.0], [5.0, 1.0]],
        "Ks": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [4.0, 2.0]],
        "Kn": [[0.0, 0.0], [0.5, 0.0], [0.5000001, 1.0], [4.5, 0.0]]}))
    code = main(["solve-maxcut", str(gset_file), "--trials", "2", "--seed", "0",
                 "--schedule", str(sfile)])
    assert code == 0


@pytest.mark.parametrize("doc, message", [
    ('{"t_end": 5, "K": [[0, 0]], "Ks": [[0, 0]]}', "lacks field 'Kn'"),
    ('{"t_end": 5, "K": 1, "Ks": [[0, 0]], "Kn": [[0, 0]]}', "field 'K' must be"),
    ('[[0, 0]]', "must be an object"),
    ('{"t_end": null, "K": [[0, 0]], "Ks": [[0, 0]], "Kn": [[0, 0]]}',
     "field 't_end' must be"),
    ('{"t_end": 5, "K": [[0, 0]], "Ks": [[0, null]], "Kn": [[0, 0]]}',
     "field 'Ks' must be"),
    ('{"t_end": 5, "K": [[0, 0]], "Ks": [[0, 0]], "Kn": [[0, 0, 1]]}',
     "field 'Kn' must be"),
])
def test_solve_maxcut_rejects_malformed_schedule(gset_file, tmp_path, capsys,
                                                 doc, message):
    sfile = tmp_path / "bad.json"
    sfile.write_text(doc)
    assert main(["solve-maxcut", str(gset_file), "--schedule", str(sfile)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--kn-high", "nan", "Kn control points must be finite"),
    ("--k-max", "inf", "K control points must be finite"),
    ("--t-end", "inf", "t_end must be positive and finite"),
    ("--dt", "nan", "dt must be positive and finite"),
    ("--coupling", "sqsmooth:nan", "finite beta > 0"),
])
def test_solve_maxcut_rejects_nonfinite_numbers(gset_file, capsys, monkeypatch,
                                                flag, value, message):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr("oscising.harness._integrate", no_trials)
    assert main(["solve-maxcut", str(gset_file), flag, value]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    pytest.param(["solve-maxcut", "GSET", "--target", "nan"],
                 "target must be finite", id="solve-maxcut-target-nan"),
    pytest.param(["ablate", "GSET", "--target", "nan"],
                 "target must be finite", id="ablate-target-nan"),
    pytest.param(["ablate", "GSET", "--target=-inf"],
                 "target must be finite", id="ablate-target-minus-inf"),
    pytest.param(["ablate", "GSET", "--variants", "variability:nan"],
                 "sigma must be finite and >= 0", id="ablate-sigma-nan"),
    pytest.param(["solve-maxcut", "GSET", "--workers", "0"],
                 "need workers >= 1, got 0", id="solve-maxcut-workers-0"),
    pytest.param(["ablate", "GSET", "--workers", "-2"],
                 "need workers >= 1, got -2", id="ablate-workers-minus-2"),
    pytest.param(["genadler", "--detuning-min", "nan"], "must be finite",
                 id="genadler-min-nan"),
    pytest.param(["genadler", "--detuning-max", "nan"], "must be finite",
                 id="genadler-max-nan"),
    pytest.param(["genadler", "--detuning-max", "inf"], "must be finite",
                 id="genadler-max-inf"),
    pytest.param(["genadler", "--phi-in", "nan"], "must be finite",
                 id="genadler-phi-in-nan"),
    pytest.param(["genadler", "--phi-in=-inf"], "must be finite",
                 id="genadler-phi-in-minus-inf"),
    pytest.param(["solve-maxcut", "GSET", "--coupling", "sqsmoothX"],
                 "unknown coupling name 'sqsmoothX'", id="coupling-sqsmoothX"),
    pytest.param(["solve-maxcut", "GSET", "--coupling", "sqsmooth_8"],
                 "unknown coupling name 'sqsmooth_8'", id="coupling-sqsmooth_8"),
    pytest.param(["solve-coloring", "us-states", "--coupling", "sqsmooth:"],
                 "coupling name 'sqsmooth:'", id="coupling-sqsmooth-colon"),
    pytest.param(["boltzmann", "--coupling", "sqsmooth:abc"],
                 "coupling name 'sqsmooth:abc'", id="coupling-sqsmooth-abc"),
])
def test_rejects_nonfinite_target_detuning_and_sigma(gset_file, capsys, monkeypatch,
                                                     argv, message):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")
    monkeypatch.setattr("oscising.harness._integrate", no_trials)
    argv = [str(gset_file) if a == "GSET" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_solve_coloring_us_states(tmp_path):
    out = tmp_path / "col.json"
    code = main(["solve-coloring", "us-states", "--colors", "4",
                 "--trials", "2", "--seed", "1", "--t-end", "5",
                 "--dt", "0.05", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "assignment" in doc
    assert len(doc["assignment"]["colors"]) == 51


def test_solve_coloring_finds_no_valid_3_coloring(tmp_path):
    """The US map is not 3-colourable (Nevada's odd wheel), so a short run
    reports valid: false with a positive best H and no colours by label."""
    out = tmp_path / "col3.json"
    code = main(["solve-coloring", "us-states", "--colors", "3", "--trials", "4",
                 "--seed", "1", "--t-end", "2", "--dt", "0.05", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["assignment"]["valid"] is False
    assert doc["stats"]["best_H"] > 0
    assert "colors_by_label" not in doc


def test_solve_coloring_gset_format(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("3 3\n1 2 1\n2 3 1\n1 3 1\n")
    out = tmp_path / "col.json"
    code = main(["solve-coloring", str(path), "--colors", "3", "--trials", "4",
                 "--seed", "5", "--t-end", "10", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["stats"]["n_trials"] == 4


def test_ablate_cli(gset_file, tmp_path):
    out = tmp_path / "ablate.json"
    code = main(["ablate", str(gset_file), "--trials", "4", "--seed", "2",
                 "--t-end", "5", "--dt", "0.05",
                 "--variants", "baseline,no_noise", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [r["variant"] for r in doc["table"]] == ["baseline", "no_noise"]


@pytest.mark.parametrize("flag, value", [("--coupling", "sine"),
                                         ("--traj", "best.csv")])
def test_ablate_rejects_single_machine_flags(gset_file, tmp_path, capsys,
                                             monkeypatch, flag, value):
    """ablate's variants choose the coupling and it has no single best
    trial, so it does not take --coupling or --traj."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["ablate", str(gset_file), "--variants", "baseline", flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "best.csv").exists()


def test_boltzmann_cli(tmp_path):
    out = tmp_path / "boltz.json"
    code = main(["boltzmann", "--steps", "2000", "--seed", "4",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc["empirical"]) == {"00", "01", "10", "11"}
    assert doc["tv_distance"] >= 0.0


def test_boltzmann_cli_rejects_underflowing_noise(capsys):
    """--kn 1e-320 squares to 0: an argument error naming Kn (exit 2), not a
    NaN report that JSON refuses to write."""
    assert main(["boltzmann", "--kn", "1e-320", "--steps", "20"]) == 2
    assert "got Kn=1e-320" in capsys.readouterr().err


def test_genadler_cli(tmp_path):
    out = tmp_path / "locks.json"
    code = main(["genadler", "--ppv", "cos", "--perturbation", "sin",
                 "--detuning-min", "-2", "--detuning-max", "2",
                 "--detuning-steps", "5", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 5
    mid = rows[2]
    assert mid["detuning"] == 0.0 and len(mid["locks"]) == 1


def test_genadler_cli_second_harmonic(tmp_path):
    out = tmp_path / "locks2.json"
    code = main(["genadler", "--ppv", "cos", "--perturbation", "sin",
                 "--second-harmonic", "--detuning-min", "0",
                 "--detuning-max", "0", "--detuning-steps", "1",
                 "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    locks = rows[0]["locks"]
    assert len(locks) == 2
    assert abs(abs(locks[1] - locks[0]) - np.pi) < 1e-6


@pytest.mark.parametrize("argv, message", [
    pytest.param(["--samples", "0"], "M must be a power of two >= 64, got 0",
                 id="samples-0"),
    pytest.param(["--samples", "100"], "M must be a power of two >= 64, got 100",
                 id="samples-100"),
    pytest.param(["--ppv", "CSV", "--samples", "0"],
                 "M must be a power of two >= 64, got 0", id="csv-samples-0"),
    pytest.param(["--detuning-steps", "0"], "--detuning-steps must be >= 1, got 0",
                 id="detuning-steps-0"),
])
def test_genadler_rejects_bad_sample_and_step_counts(tmp_path, capsys, argv, message):
    csv = tmp_path / "wave.csv"
    csv.write_text("0,0\n0.5,1\n1,0\n")
    argv = [str(csv) if a == "CSV" else a for a in argv]
    assert main(["genadler", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_module_entry_point_exits_with_main_code():
    """python -m oscising.cli passes main()'s exit code to the shell."""
    src = str(Path(oscising.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "oscising.cli", "genadler",
                           "--samples", "0"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 2
    assert "M must be a power of two >= 64, got 0" in proc.stderr
    assert proc.stdout == ""


def test_scaling_cli(tmp_path):
    out = tmp_path / "scaling.json"
    code = main(["scaling", "--sizes", "16,24", "--trials", "2", "--seed", "0",
                 "--t-end", "4", "--dt", "0.05", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert [r["n"] for r in rows] == [16, 24]
    assert all("settling_time" in r for r in rows)


def test_scaling_cli_rejects_zero_trials(capsys):
    assert main(["scaling", "--sizes", "16,24", "--trials", "0"]) == 2
    assert "need n_trials >= 1" in capsys.readouterr().err
