"""Command-line surface: subcommands, exit codes, file formats, seeding."""

import argparse
import hashlib
import importlib.util
import json
import math
import os
import re
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hermite_markets import cli, pde, processes, strategies
from hermite_markets.cli import main
from hermite_markets.pathio import (
    PathFormatError,
    read_path_csv,
    read_sidecar,
    write_path_csv,
    write_sidecar,
)
from hermite_markets import (HermiteSpec, SamplePath, TerminalClaim, gen_fbm, grid_for_spot,
                             solve_tax_bsm, theoretical_cov)
from _oracles import black_scholes, power_claim_value


def _simulate(tmp_path, name="paths.csv", **overrides):
    args = {"process": "fbm", "hurst": "0.7", "steps": "128", "paths": "30",
            "seed": "5"}
    args.update(overrides)
    out = tmp_path / name
    argv = ["simulate", "--out", str(out)]
    for key, val in args.items():
        argv += [f"--{key}", val]
    assert main(argv) == 0
    return out


# ---------------------------------------------------------------------------
# simulate

def test_simulate_writes_csv_and_sidecar(tmp_path):
    out = _simulate(tmp_path)
    assert out.exists()
    meta = read_sidecar(str(out))
    assert meta["process"] == "fbm"
    assert meta["hurst"] == 0.7
    assert meta["seed"] == 5


def test_simulate_reruns_byte_identical(tmp_path):
    a = _simulate(tmp_path, "a.csv")
    b = _simulate(tmp_path, "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_simulate_worker_count_irrelevant(tmp_path):
    a = _simulate(tmp_path, "w1.csv", workers="1", paths="17")
    b = _simulate(tmp_path, "w4.csv", workers="4", paths="17")
    assert a.read_bytes() == b.read_bytes()


# One small simulate call per process, several flags off their defaults,
# and the fields its sidecar must hold, each a simulate flag's value.  The
# sidecar adds its process's provenance (path_offset, component,
# history_truncation) and nothing else.
_PROCESS_ARGV = {
    "fbm": ["--process", "fbm", "--hurst", "0.7", "--steps", "32", "--paths", "5",
            "--seed", "5"],
    "hermite": ["--process", "hermite", "--hurst", "0.72", "--rank", "2",
                "--steps", "32", "--paths", "5", "--seed", "5", "--approx-factor", "4"],
    "mixed": ["--process", "mixed", "--hurst", "0.75", "--weights", "0.6,0.8",
              "--ranks", "1,2", "--steps", "32", "--paths", "5", "--seed", "5",
              "--approx-factor", "4"],
    "hou": ["--process", "hou", "--hurst", "0.75", "--ou-lambda", "2.0",
            "--ou-sigma", "0.5", "--steps", "32", "--paths", "5", "--seed", "5",
            "--horizon", "2.0", "--approx-factor", "4"],
}
_PROCESS_SIDECAR = {
    "fbm": {"approx_factor": 32, "horizon": 1.0, "hurst": 0.7, "paths": 5,
            "process": "fbm", "rank": 1, "seed": 5, "steps": 32},
    "hermite": {"approx_factor": 4, "horizon": 1.0, "hurst": 0.72, "paths": 5,
                "process": "hermite", "rank": 2, "seed": 5, "steps": 32},
    "mixed": {"approx_factor": 4, "horizon": 1.0, "hurst": 0.75, "paths": 5,
              "process": "mixed", "ranks": [1, 2], "seed": 5, "steps": 32,
              "weights": [0.6, 0.8]},
    "hou": {"approx_factor": 4, "horizon": 2.0, "hurst": 0.75, "ou_lambda": 2.0,
            "ou_sigma": 0.5, "paths": 5, "process": "hou", "rank": 1, "seed": 5,
            "steps": 32},
}
_PROVENANCE = {"path_offset", "component", "history_truncation"}
_PROCESS_PROVENANCE = {"fbm": {"path_offset", "component"}, "hermite": {"path_offset"},
                       "mixed": {"path_offset"}, "hou": {"path_offset", "history_truncation"}}


def _simulate_process(tmp_path, process, name, *extra):
    out = tmp_path / name
    assert main(["simulate", "--out", str(out), *_PROCESS_ARGV[process], *extra]) == 0
    return out


@pytest.mark.parametrize("process", sorted(_PROCESS_ARGV))
def test_simulate_sidecar_fields(tmp_path, process):
    meta = read_sidecar(str(_simulate_process(tmp_path, process, "s.csv")))
    want = _PROCESS_SIDECAR[process]
    assert {key: meta.get(key) for key in want} == want
    assert set(meta) == set(want) | _PROCESS_PROVENANCE[process]
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert set(want) <= {action.dest for action in sub.choices["simulate"]._actions}


@pytest.mark.parametrize("process", sorted(_PROCESS_ARGV))
def test_simulate_workers_write_same_files(tmp_path, process):
    # Five paths: 3 workers split them unevenly, 7 outnumber them.
    one = _simulate_process(tmp_path, process, "w1.csv", "--workers", "1")
    for workers in ("2", "3", "7"):
        many = _simulate_process(tmp_path, process, f"w{workers}.csv", "--workers", workers)
        assert many.read_bytes() == one.read_bytes()
        assert (tmp_path / f"w{workers}.csv.json").read_bytes() == \
            (tmp_path / "w1.csv.json").read_bytes()


def test_simulate_from_sidecar_reproduces_file(tmp_path):
    # A sidecar holds everything needed to regenerate its CSV exactly: each
    # field but the provenance is the value of the flag of the same name.
    for process in sorted(_PROCESS_ARGV):
        first = _simulate_process(tmp_path, process, f"{process}.csv")
        meta = read_sidecar(str(first))
        argv = ["simulate", "--out", str(tmp_path / "again.csv")]
        for key, value in meta.items():
            if key not in _PROVENANCE:
                text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
                argv += ["--" + key.replace("_", "-"), text]
        assert main(argv) == 0
        assert (tmp_path / "again.csv").read_bytes() == first.read_bytes()


def test_simulate_rejects_low_hurst(tmp_path):
    code = main(["simulate", "--process", "fbm", "--hurst", "0.4",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_simulate_mixed_needs_weights(tmp_path):
    code = main(["simulate", "--process", "mixed", "--hurst", "0.7",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("process", ["fbm", "hermite", "mixed", "hou"])
def test_simulate_exits_two_when_ensemble_exceeds_memory(monkeypatch, capsys, tmp_path,
                                                         process):
    # One byte short of 100 paths of 65 points, the parts and their stacked
    # copy: nothing is generated or written.  hou takes the same check;
    # gen_hou checks its history's block and eigenvalues itself.
    monkeypatch.setattr(processes, "_physical_memory", lambda: 16 * 100 * 65 - 1)
    for gen in ("gen_fbm", "gen_hermite", "gen_mixed", "gen_hou"):
        monkeypatch.setattr(cli, gen, pytest.fail)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--process", process, "--hurst", "0.7", "--weights", "0.8,0.6",
                 "--ranks", "1,2", "--paths", "100", "--steps", "64", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "lower --paths or --steps" in err
    assert not out.exists()


def test_simulate_exits_two_when_the_lattice_exceeds_memory(monkeypatch, capsys, tmp_path):
    # The ensemble, 16 bytes a path and grid point, is 64 KiB, but a
    # rank-2 draw over 4,096 steps runs a 131,072-point lattice: gen_hermite
    # refuses it before the driver is allocated, and nothing is written.
    def never(*args, **kwargs):
        raise AssertionError("the driver was allocated")

    monkeypatch.setattr(processes, "_physical_memory", lambda: 2**20)
    monkeypatch.setattr(processes, "_draw_blocks", never)
    out = tmp_path / "x.csv"
    assert main(["simulate", "--process", "hermite", "--rank", "2", "--hurst", "0.75",
                 "--steps", "4096", "--paths", "1", "--out", str(out)]) == 2
    assert "lower steps or paths" in capsys.readouterr().err
    assert not out.exists()


# Inputs that once ended in a traceback, a numpy warning, a message naming
# no parameter, or a report that ignored them; at most 8 paths of 16 steps.
# Each row: argv, exit code, the words an exit-2 message must hold.
_EXTREME_INPUTS = [
    (["simulate", "--process", "mixed", "--hurst", "0.75", "--weights", "1e200,1",
      "--ranks", "1,2"], 2, ["weights", "inf"]),
    (["simulate", "--process", "hou", "--hurst", "0.75", "--ou-lambda", "1.2e-307"],
     2, ["ou_lambda", "history_truncation"]),
    (["simulate", "--process", "hou", "--hurst", "0.75", "--ou-lambda", "1e-300"],
     2, ["ou_lambda", "history_truncation", "3.2e+302 steps"]),
    (["simulate", "--process", "hou", "--hurst", "0.75", "--ou-sigma", "1e308",
      "--paths", "2"], 0, []),
    (["simulate", "--process", "hou", "--hurst", "0.75", "--ou-sigma", "1e308",
      "--paths", "8"], 2, ["ou_lambda", "ou_sigma"]),
    (["simulate", "--process", "hou", "--hurst", "0.75", "--ou-sigma", "nan"],
     2, ["sigma must be finite, got nan"]),
    (["simulate", "--process", "hou", "--hurst", "0.75", "--ou-lambda", "nan"],
     2, ["lam must be finite, got nan"]),
    (["simulate", "--process", "hou", "--hurst", "0.75", "--ou-lambda", "1e-310"],
     2, ["lam must make the default history_truncation, 20 / lam, finite, got 1e-310"]),
    (["arb-demo", "--case", "shiryaev", "--tax", "0.3", "--paths", "8"],
     2, ["--tax", "--case fsquare"]),
    # a 3.2e302-step history (the suffix's --steps 16 wins) from horizon / steps once
    # blamed only ou_lambda
    (["simulate", "--process", "hou", "--hurst", "0.7", "--horizon", "1e-300", "--steps", "8",
      "--paths", "2"], 2, ["ou_lambda", "history_truncation", "horizon (1e-300)", "steps (16)"]),
    # spot**2 underflows to 0, which once read as a fault of --power-exp and --grid
    (["price", "--payoff", "power", "--spot", "1e-300", "--sigma", "0.2"],
     2, ["--spot 1e-300 to the power 2 underflows to 0"]),
]


@pytest.mark.parametrize("argv, code, named", _EXTREME_INPUTS,
                         ids=[" ".join(row[0][1:]) for row in _EXTREME_INPUTS])
def test_extreme_inputs_exit_cleanly(tmp_path, capsys, argv, code, named):
    if argv[0] == "simulate":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    if argv[0] != "price":  # price takes no --steps or --seed
        argv = argv + ["--steps", "16", "--seed", "1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == code
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not re.search(r"\d{20}", err)
    for word in named:
        assert word in err
    assert err.startswith("error: ") == (code == 2)


def test_simulate_hou(tmp_path):
    out = _simulate(tmp_path, "hou.csv", process="hou", hurst="0.75",
                    paths="3", steps="64")
    path = read_path_csv(str(out))
    assert path.values.shape == (3, 65)


# ---------------------------------------------------------------------------
# seed precedence

def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("HERMITE_SEED", "99")
    out = tmp_path / "env.csv"
    main(["simulate", "--process", "fbm", "--hurst", "0.7",
          "--steps", "32", "--out", str(out)])
    assert read_sidecar(str(out))["seed"] == 99


def test_seed_flag_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("HERMITE_SEED", "99")
    out = tmp_path / "flag.csv"
    main(["simulate", "--process", "fbm", "--hurst", "0.7",
          "--steps", "32", "--seed", "7", "--out", str(out)])
    assert read_sidecar(str(out))["seed"] == 7


def test_seed_default_without_env(tmp_path, monkeypatch):
    monkeypatch.delenv("HERMITE_SEED", raising=False)
    out = tmp_path / "def.csv"
    main(["simulate", "--process", "fbm", "--hurst", "0.7",
          "--steps", "32", "--out", str(out)])
    assert read_sidecar(str(out))["seed"] == 42


@pytest.mark.parametrize("argv, env", [(["--seed", "-1"], None), ([], "-1")])
def test_mixed_arb_demo_names_a_negative_seed(monkeypatch, capsys, argv, env):
    # Its two drivers' seeds are split from the one given, which takes the
    # same rule as every other seed; numpy's own message named nothing.
    if env is None:
        monkeypatch.delenv("HERMITE_SEED", raising=False)
    else:
        monkeypatch.setenv("HERMITE_SEED", env)
    assert main(["arb-demo", "--case", "mixed", "--paths", "8", "--steps", "16"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be an integer >= 0, got -1\n"


# ---------------------------------------------------------------------------
# file formats

def test_csv_round_trip(tmp_path):
    path = gen_fbm(HermiteSpec(0.8), 2.0, 64, paths=4, seed=3)
    target = tmp_path / "rt.csv"
    write_path_csv(path, str(target))
    back = read_path_csv(str(target))
    assert back.horizon == path.horizon
    assert back.steps == path.steps
    assert np.allclose(back.values, path.values, rtol=0, atol=0)


@settings(max_examples=60, deadline=None)
@given(values=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(2, 9)),
                     elements=st.floats(allow_nan=False, allow_infinity=False)),
       horizon=st.floats(1e-3, 1e3))
@example(values=np.array([[0.0, -0.0, 5e-324, -2.5e-310, 1.7976931348623157e308]]),
         horizon=1.0)
def test_csv_round_trip_is_bitwise(values, horizon):
    path = SamplePath(horizon, values.shape[1] - 1, values)
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "rt.csv")
        write_path_csv(path, target)
        back = read_path_csv(target)
    assert back.values.tobytes() == values.tobytes()
    assert back.times.tobytes() == path.times.tobytes()


def test_csv_malformed_field_is_located(tmp_path):
    bad = tmp_path / "bad.csv"
    for text, message in [
            ("t,p0\n0.0,0.0\n0.5,not-a-number\n1.0,0.2\n",
             "line 3: could not convert string to float: 'not-a-number'"),
            # Blank lines are skipped but still counted.
            ("t,p0\n0.0,0.0\n\n0.5,0.1,0.2\n", "line 4: expected 2 columns, found 3"),
            ("", "line 1: empty file"),
            # Non-finite cells are refused as they are parsed, before the grid check.
            ("t,p0\n0.0,0.0\n0.5,nan\n1.0,0.2\n", "line 3: p0 is not finite: 'nan'"),
            ("t,p0\n0.0,0.0\n0.5,1e400\n1.0,0.2\n", "line 3: p0 is not finite: '1e400'"),
            ("t,p0\n0,0.0\ninf,0.1\n", "line 3: t is not finite: 'inf'")]:
        bad.write_text(text)
        with pytest.raises(PathFormatError, match=re.escape(message)):
            read_path_csv(str(bad))


@pytest.mark.parametrize("text, message", [
    ("t,p0\n0.0,0.0\n", "line 2: need at least two time rows"),
    ("t,p0\n0.5,0.0\n1.0,0.1\n", "line 2: time grid must start at 0"),
    ("t,p0\n0.0,0.0\n0.0,0.1\n", "line 3: time grid must increase"),
])
def test_csv_time_grid_faults_are_located(tmp_path, text, message):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    with pytest.raises(PathFormatError) as err:
        read_path_csv(str(bad))
    assert str(err.value) == message


def test_csv_read_holds_about_two_arrays(tmp_path):
    # The parsed rows and the assembled array; holding the text and a
    # Python float per cell instead peaked at about 7.7x.
    values = np.random.default_rng(0).standard_normal((100, 513))
    target = str(tmp_path / "big.csv")
    write_path_csv(SamplePath(1.0, 512, values), target)
    tracemalloc.start()
    try:
        back = read_path_csv(target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.values.tobytes() == values.tobytes()
    assert peak <= 3 * values.nbytes


def test_csv_rejects_nonuniform_grid(tmp_path):
    bad = tmp_path / "grid.csv"
    bad.write_text("t,p0\n0.0,0.0\n0.4,0.1\n1.0,0.2\n")
    with pytest.raises(PathFormatError):
        read_path_csv(str(bad))


def test_csv_rejects_header(tmp_path):
    bad = tmp_path / "h.csv"
    bad.write_text("time,value\n0.0,0.0\n1.0,0.1\n")
    with pytest.raises(PathFormatError):
        read_path_csv(str(bad))


# ---------------------------------------------------------------------------
# stats

def _run_stats(capsys, infile, check):
    capsys.readouterr()  # drop any earlier subcommand chatter
    code = main(["stats", "--in", str(infile), "--check", check])
    report = json.loads(capsys.readouterr().out)
    return code, report


@pytest.mark.parametrize("check", ["cov", "selfsim", "lrd", "qv", "hurst"])
def test_stats_checks_pass_on_fbm(tmp_path, capsys, check):
    out = _simulate(tmp_path, hurst="0.6", paths="300", steps="512", seed="31")
    code, report = _run_stats(capsys, out, check)
    assert code == 0
    assert report["pass"] is True
    assert report["check"] == check
    for key in ("statistic", "target", "tolerance", "detail"):
        assert key in report


def _cov_worst_by_pairs(path, hurst):
    """The cov check's statistic pair by pair: the largest z-score over times i <= j."""
    picks = np.unique(np.linspace(path.steps // 4, path.steps, 4, dtype=int))
    times = path.times[picks]
    sample = path.values[:, picks]
    sample = sample - sample.mean(axis=0)
    worst = 0.0
    for i in range(len(picks)):
        for j in range(i, len(picks)):
            emp = float((sample[:, i] * sample[:, j]).mean())
            theo = theoretical_cov(hurst, times[i], times[j])
            var_i = theoretical_cov(hurst, times[i], times[i])
            var_j = theoretical_cov(hurst, times[j], times[j])
            stderr = math.sqrt((var_i * var_j + theo ** 2) / path.n_paths)
            worst = max(worst, abs(emp - theo) / stderr)
    return worst


@pytest.mark.parametrize("paths", [50, 200])
@pytest.mark.parametrize("hurst", [0.6, 0.85])
def test_cov_check_is_the_per_pair_z_score(hurst, paths):
    path = gen_fbm(HermiteSpec(hurst), 1.0, 256, paths=paths, seed=paths)
    statistic = cli._check_cov(path, hurst, [1])["statistic"]
    assert statistic == pytest.approx(_cov_worst_by_pairs(path, hurst), rel=1e-12)


def test_stats_qv_detects_nongaussian_regime(tmp_path, capsys):
    out = _simulate(tmp_path, hurst="0.85", paths="300", steps="512", seed="31")
    code, report = _run_stats(capsys, out, "qv")
    assert code == 0
    assert report["pass"] is True
    assert report["target"] == "non_gaussian_limit"


def test_stats_fails_cleanly_on_constant_paths(tmp_path, capsys):
    flat = tmp_path / "flat.csv"
    rows = ["t,p0"] + [f"{k / 16},1.0" for k in range(17)]
    flat.write_text("\n".join(rows) + "\n")
    (tmp_path / "flat.csv.json").write_text(json.dumps({"hurst": 0.7}))
    code, report = _run_stats(capsys, flat, "hurst")
    assert code == 1
    assert report["pass"] is False


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


@pytest.mark.parametrize("check", ["cov", "selfsim"])
def test_stats_needs_four_steps(tmp_path, capsys, check):
    # With steps // 4 == 0 both checks would use t = 0, where the variance is 0.
    out = _simulate(tmp_path, steps="3", paths="120")
    capsys.readouterr()
    code = main(["stats", "--in", str(out), "--check", check])
    report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert code == 1
    assert report["pass"] is False
    assert report["detail"] == f"{check} check needs at least 4 steps"


def test_stats_needs_hurst_metadata(tmp_path):
    bare = tmp_path / "bare.csv"
    path = gen_fbm(HermiteSpec(0.7), 1.0, 64, seed=1)
    write_path_csv(path, str(bare))  # no sidecar written
    assert main(["stats", "--in", str(bare), "--check", "lrd"]) == 2


def _stats_file(tmp_path, paths, flat):
    """``paths`` fbm paths of 16 steps, or all zero when ``flat``, with a hurst 0.75 sidecar."""
    path = gen_fbm(HermiteSpec(0.75), 1.0, 16, paths=paths, seed=3)
    if flat:
        path.values[:] = 0.0
    target = str(tmp_path / "x.csv")
    write_path_csv(path, target)
    write_sidecar(target, dict(path.meta, seed=3))
    return target


# Each row: HERMITE_SEED, argv, the (paths, flat) of the file stats reads,
# exit code, and the message: an error line's words, or a report's detail.
_CLI_FAULTS = [
    ("abc", ["simulate", "--process", "fbm", "--hurst", "0.7"], None, 2,
     "error: HERMITE_SEED must be an integer, got 'abc'"),
    (None, ["simulate", "--process", "mixed", "--hurst", "0.7", "--weights", "0.5,x",
            "--ranks", "1,2"], None, 2,
     "argument --weights: not a comma-separated float list: '0.5,x'"),
    (None, ["simulate", "--process", "fbm", "--hurst", "0.7", "--paths", "0"], None, 2,
     "error: --paths must be >= 1"),
    (None, ["simulate", "--process", "fbm", "--hurst", "0.7", "--workers", "0"], None, 2,
     "error: --workers must be >= 1"),
    (None, ["stats", "--check", "cov"], (49, False), 1, "cov check needs at least 50 paths"),
    (None, ["stats", "--check", "selfsim"], (99, False), 1,
     "selfsim check needs at least 100 paths"),
    (None, ["stats", "--check", "qv"], (19, False), 1, "qv check needs at least 20 paths"),
    # every path's statistic is -16 (1/16)^1.5 = -1/4, exactly
    (None, ["stats", "--check", "qv"], (20, True), 1,
     "centered quadratic variation has no scatter"),
]


@pytest.mark.parametrize("env, argv, infile, code, message", _CLI_FAULTS,
                         ids=[" ".join(row[1]) + (f" {row[2]}" if row[2] else "")
                              for row in _CLI_FAULTS])
def test_cli_names_each_fault(monkeypatch, capsys, tmp_path, env, argv, infile, code, message):
    if env is None:
        monkeypatch.delenv("HERMITE_SEED", raising=False)
    else:
        monkeypatch.setenv("HERMITE_SEED", env)
    if infile is None:
        argv = argv + ["--steps", "16", "--out", str(tmp_path / "out.csv")]
    else:
        argv = argv + ["--in", _stats_file(tmp_path, *infile)]
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 1:
        assert json.loads(captured.out)["detail"] == message
    else:
        assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("sidecar, message", [
    ("[1]", "must hold a JSON object, got list"),
    ('{"hurst": 0.7,', "not valid JSON"),
    ('{"hurst": 0.7, "seed": [1]}', "seed must be an integer, got [1]"),
    ('{"hurst": "abc"}', "hurst must be a number, got 'abc'"),
    ('{"hurst": NaN}', "hurst must lie in (1/2, 1), got nan"),
    ('{"hurst": 0.3}', "hurst must lie in (1/2, 1), got 0.3"),
    ('{"hurst": 1e400}', "hurst must lie in (1/2, 1), got inf"),
    ('{"hurst": 0.7, "ranks": 5}', "ranks must be a non-empty list of integers >= 1, got 5"),
    ('{"hurst": 0.7, "ranks": []}', "ranks must be a non-empty list of integers >= 1, got []"),
    ('{"hurst": 0.7, "ranks": [1, 0]}',
     "ranks must be a non-empty list of integers >= 1, got [1, 0]"),
    ('{"hurst": 0.7, "rank": null}', "rank must be an integer >= 1, got None"),
    ('{"hurst": 0.7, "rank": "x"}', "rank must be an integer >= 1, got 'x'"),
    ('{"hurst": 0.7, "rank": 2.0}', "rank must be an integer >= 1, got 2.0"),
])
def test_stats_malformed_sidecar_exits_two(tmp_path, capsys, sidecar, message):
    target = tmp_path / "p.csv"
    write_path_csv(gen_fbm(HermiteSpec(0.7), 1.0, 64, seed=1), str(target))
    (tmp_path / "p.csv.json").write_text(sidecar)
    assert main(["stats", "--in", str(target), "--check", "lrd"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {target}.json: {message}")


def test_stats_reads_a_sidecar_with_a_normalization_key(tmp_path, capsys):
    # Files written while simulate had --normalization carry the key; stats
    # reads only hurst, seed and the rank fields.
    target = tmp_path / "p.csv"
    write_path_csv(gen_fbm(HermiteSpec(0.7), 1.0, 64, seed=1), str(target))
    (tmp_path / "p.csv.json").write_text('{"hurst": 0.7, "seed": 1, "rank": 1, '
                                         '"normalization": "empirical"}')
    assert main(["stats", "--in", str(target), "--check", "lrd"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["check"] == "lrd"


def test_simulate_has_no_normalization_flag(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--process", "hermite", "--rank", "2", "--hurst", "0.75",
                 "--steps", "16", "--normalization", "analytic", "--out", str(out)]) == 2
    assert "unrecognized arguments: --normalization analytic" in capsys.readouterr().err
    assert not out.exists()


def test_stats_missing_file(tmp_path):
    assert main(["stats", "--in", str(tmp_path / "nope.csv"), "--check", "cov"]) == 2


# ---------------------------------------------------------------------------
# arbitrage demos

def test_arb_demo_shiryaev(capsys):
    code = main(["arb-demo", "--case", "shiryaev", "--paths", "200",
                 "--steps", "512", "--seed", "8"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True
    assert report["statistics"]["fraction_positive"] == 1.0


def test_arb_demo_fsquare_zero_tax(capsys):
    code = main(["arb-demo", "--case", "fsquare", "--tax", "0",
                 "--paths", "300", "--steps", "512", "--seed", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["statistics"]["probability"] == 1.0


def test_arb_demo_fsquare_taxed(capsys):
    code = main(["arb-demo", "--case", "fsquare", "--tax", "0.5",
                 "--paths", "500", "--steps", "512", "--seed", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True
    assert report["ci_high"] < 1.0
    assert report["statistics"]["probability"] < 1.0


def test_arb_demo_diffusion(capsys):
    code = main(["arb-demo", "--case", "diffusion", "--tax", "0.3",
                 "--paths", "800", "--steps", "256", "--seed", "9"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["statistics"]["fraction_negative_net"] > 0.0


def test_arb_demo_mixed(capsys):
    code = main(["arb-demo", "--case", "mixed", "--paths", "300",
                 "--steps", "256", "--seed", "12", "--hurst", "0.75"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True


# (case, --tax, --paths, exit code, sha256 of stdout) at 64 steps, seed 21:
# pins every arb-demo report byte for byte, a failing one included.
_GOLDEN_ARB_STDOUT = [
    ("shiryaev", "0", "300", 0,
     "ec81bc3dd9b2967be481540d2815253e66c5a3a4bbe0b29aadd69dc40186148a"),
    # shiryaev takes no tax: a nonzero --tax exits 2 and prints nothing
    ("shiryaev", "0.3", "300", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("fsquare", "0", "300", 0,
     "468508ac483e52903525191425b71d831d76353451f7851911d6438f95ed70a5"),
    ("fsquare", "0.3", "300", 0,
     "efbc476fbb677a266cd75e076656f49421aec38d91461bd114442c7a52ad704b"),
    ("diffusion", "0", "300", 0,
     "6836a1b418d311ce19ed2c142895c0c022c70e80a2cb2b481a74a5e247f66ad0"),
    ("diffusion", "0.3", "300", 0,
     "20bc76c517f16fe3f0637dc333271937409a28640f0029ea6ff8d04ac9aef011"),
    ("mixed", "0", "300", 0,
     "44f2701c939644fbcdc62971fdd7a2b0d7f34956c301406a26592c72c2f0303f"),
    ("mixed", "0.3", "300", 0,
     "869f9786b6422ed10d85a10a25cc287f0b1efbd5f8e885c68d546b5d726522d9"),
    ("mixed", "0.02", "40", 1,
     "2f9bf7918e2bfb103fc63e7aecb41a3750736df2c7eab7180f66d0e4f2a66379"),
]


@pytest.mark.parametrize("case, tax, paths, code, digest", _GOLDEN_ARB_STDOUT,
                         ids=["-".join(map(str, row[:-1])) for row in _GOLDEN_ARB_STDOUT])
def test_arb_demo_golden_stdout(capsys, case, tax, paths, code, digest):
    capsys.readouterr()
    assert main(["arb-demo", "--case", case, "--tax", tax, "--paths", paths,
                 "--steps", "64", "--seed", "21"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_arb_demo_rejects_huge_tax():
    assert main(["arb-demo", "--case", "fsquare", "--tax", "1.5",
                 "--paths", "10", "--steps", "64"]) == 2


@pytest.mark.parametrize("tax", ["nan", "inf", "-0.3"])
@pytest.mark.parametrize("case", ["shiryaev", "fsquare", "diffusion", "mixed"])
def test_arb_demo_rejects_bad_tax(capsys, case, tax):
    assert main(["arb-demo", "--case", case, "--tax", tax,
                 "--paths", "10", "--steps", "16"]) == 2
    assert "--tax" in capsys.readouterr().err


# At horizon 1e300 every demo's prices overflow.  Each printed numpy
# warnings and JSON holding Infinity or NaN, and the untaxed diffusion and
# the taxed fsquare demo passed on those values.
@pytest.mark.parametrize("case, tax", [("shiryaev", "0"), ("fsquare", "0"), ("fsquare", "0.3"),
                                       ("diffusion", "0"), ("diffusion", "0.3"),
                                       ("mixed", "0"), ("mixed", "0.3")])
def test_arb_demo_refuses_non_finite_results(capsys, case, tax):
    assert main(["arb-demo", "--case", case, "--tax", tax, "--horizon", "1e300",
                 "--paths", "100", "--steps", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: \w+: terminal values, costs or statistics are not finite "
                        r"at .*, horizon = 1e\+300\n", captured.err)


@pytest.mark.parametrize("case", ["shiryaev", "fsquare", "diffusion", "mixed"])
def test_arb_demo_exits_two_when_driver_exceeds_memory(monkeypatch, capsys, case):
    # One byte short of what the demo would hold: the demo refuses before
    # it draws a path.
    monkeypatch.setattr(processes, "_physical_memory",
                        lambda: strategies._demo_bytes(100, 64) - 1)
    monkeypatch.setattr(strategies, "_draw_blocks", pytest.fail)
    assert main(["arb-demo", "--case", case, "--paths", "100", "--steps", "64"]) == 2
    err = capsys.readouterr().err
    assert "of 100 paths of 64 steps" in err and "lower paths or steps" in err


# ---------------------------------------------------------------------------
# pricing

def _price_argv(**overrides):
    args = {"payoff": "call", "strike": "100", "spot": "100", "rate": "0.05",
            "sigma": "0.2", "maturity": "1.0"}
    args.update(overrides)
    argv = ["price"]
    for key, val in args.items():
        argv += [f"--{key}", val]
    return argv


def _parse_price(capsys):
    out = capsys.readouterr().out
    for token in out.split():
        try:
            return float(token)
        except ValueError:
            continue
    raise AssertionError(f"no numeric value in output: {out!r}")


def test_price_canonical_call(capsys):
    assert main(_price_argv()) == 0
    value = _parse_price(capsys)
    assert abs(value - 10.450584) / 10.450584 < 1e-3


@pytest.mark.parametrize("payoff", ["put", "power"])
def test_price_put_and_power_match_closed_forms(capsys, payoff):
    # The tax enters only through sigma_eff^2 = sigma^2 + r c^2.
    assert main(_price_argv(payoff=payoff, spot="90", tax="0.3",
                            **{"power-exp": "2"})) == 0
    value = _parse_price(capsys)
    sig_eff = math.sqrt(0.2 ** 2 + 0.05 * 0.3 ** 2)
    if payoff == "put":
        want = black_scholes(90.0, 100.0, 0.05, sig_eff, 1.0, put=True)
    else:
        want = power_claim_value(90.0, 0.05, sig_eff, 2.0, 1.0)
    assert abs(value - want) / want < 1e-3


def test_price_monotone_in_tax(capsys):
    values = []
    for tax in ("0", "0.3", "0.6"):
        assert main(_price_argv(tax=tax, grid="257", **{"time-steps": "128"})) == 0
        values.append(_parse_price(capsys))
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["strike", "power-exp", "spot", "rate", "sigma", "tax",
                                  "maturity", "grid", "time-steps"])
def test_price_rejects_non_finite_flag(capsys, flag, value):
    # Each flag on a claim that reads it; the message names the parameter.
    payoff = "power" if flag == "power-exp" else "call"
    assert main(_price_argv(payoff=payoff, **{flag: value})) == 2
    named = {"power-exp": "exponent", "grid": "--grid", "time-steps": "--time-steps"}
    assert named.get(flag, flag) in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [({"sigma": "1e200"}, "sigma^2 overflows"),
                                          ({"tax": "1e200"}, "tax^2 overflows"),
                                          ({"rate": "1e300", "tax": "1e10"},
                                           "sigma^2 + r c^2 overflows")],
                         ids=["sigma", "tax", "sum"])
def test_price_overflowing_effective_variance_exits_two(capsys, flags, named):
    assert main(_price_argv(**flags)) == 2
    assert named in capsys.readouterr().err


# Each grid's log half-width put an end past the float range, and
# math.exp ended the command in an OverflowError traceback.
@pytest.mark.parametrize("flag, value", [("rate", "800"), ("rate", "-900"), ("rate", "1e300"),
                                         ("maturity", "1e300"), ("sigma", "1e10")])
def test_price_grid_outside_the_float_range_exits_two(capsys, flag, value):
    assert main(_price_argv(**{flag: value})) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the grid around spot 100 leaves the float range")
    assert f"{flag} = {float(value):g}" in err


def test_price_overflowing_payoff_exits_two(capsys):
    # The finite checks report the overflow alone, with no numpy warning.
    code = main(["price", "--payoff", "power", "--power-exp", "400",
                 "--spot", "100", "--sigma", "0.2"])
    assert code == 2
    assert capsys.readouterr().err == "error: power claim: non-finite payoff values\n"


def test_price_refuses_a_power_claim_the_grid_cannot_resolve(capsys):
    # x**50 grows 1.37-fold from one default-grid node to the next; the
    # scheme printed -1.247e+124 +/- 1.3e+124 for a value of 100**50 e**49.
    code = main(["price", "--payoff", "power", "--power-exp", "50",
                 "--spot", "100", "--sigma", "0.2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--power-exp" in captured.err and "--grid" in captured.err


def test_power_sweep_prints_within_the_estimate_or_refuses(capsys):
    # Exponents -40 to 60 on the default grid: every printed price is
    # positive beyond its estimate and holds the exact value within it, and
    # every other claim exits 2.  Without the refusal, 382 of these 1,206
    # claims at steps of 0.5 printed a negative price with exit 0.
    printed = refused = 0
    for sigma in ("0.1", "0.2", "0.5"):
        for rate in ("0", "0.05"):
            for power in np.arange(-40.0, 60.0 + 1e-9, 2.5):
                code = main(["price", "--payoff", "power", "--power-exp", repr(float(power)),
                             "--spot", "100", "--sigma", sigma, "--rate", rate])
                captured = capsys.readouterr()
                if code == 2:
                    refused += "--power-exp" in captured.err and "--grid" in captured.err
                    continue
                assert code == 0, captured.err
                found = re.search(r"value at spot \S+: (\S+) \+/- (\S+)", captured.out)
                price, estimate = float(found.group(1)), float(found.group(2))
                want = power_claim_value(100.0, float(rate), float(sigma), float(power), 1.0)
                assert estimate < price and abs(price - want) <= estimate, \
                    (sigma, rate, power, price, estimate, want)
                printed += 1
    assert printed > 100 and refused > 50, (printed, refused)


def test_price_rejects_negative_tax(capsys):
    assert main(_price_argv(tax="-0.3")) == 2
    assert "tax" in capsys.readouterr().err


def test_price_ill_posed_exits_one(capsys):
    code = main(_price_argv(rate="-0.1", sigma="0.1", tax="0.5"))
    assert code == 1


def test_price_surface_output(tmp_path, capsys):
    out = tmp_path / "surface.csv"
    assert main(_price_argv(out=str(out), grid="65", **{"time-steps": "32"})) == 0
    assert out.exists()
    meta = read_sidecar(str(out))
    assert meta["kind"] == "call"
    # surface.meta's eleven fields, the claim flags and the price nodes
    assert set(meta) == {
        "error_estimate", "extrapolated_value", "kind", "maturity", "nodes", "payoff",
        "power_exp", "prices", "rate", "sigma", "sigma_eff_sq", "spot", "strike", "tax_hat",
        "theta", "time_steps"}


_PRICE_LINE = re.compile(r"call value at spot 100: (\S+) \+/- (\S+) \(effective vol 0\.2\)\n")


def test_price_line_and_sidecar_carry_the_error_estimate(tmp_path, capsys):
    # The estimate sits between the value and the parenthetical, so the
    # value is still the first number after "value at spot <spot>:".
    assert main(_price_argv()) == 0
    value, estimate = map(float, _PRICE_LINE.fullmatch(capsys.readouterr().out).groups())
    assert estimate >= 0.8 * abs(value - black_scholes(100.0, 100.0, 0.05, 0.2, 1.0))
    out = tmp_path / "surface.csv"
    assert main(_price_argv(out=str(out), grid="65", **{"time-steps": "32"})) == 0
    line = capsys.readouterr().out.splitlines()[0] + "\n"
    assert float(_PRICE_LINE.fullmatch(line).group(2)) == pytest.approx(
        read_sidecar(str(out))["error_estimate"], rel=0.05)


@pytest.mark.parametrize("payoff", ["call", "put", "power"])
def test_price_line_prints_the_extrapolated_value(tmp_path, capsys, payoff):
    # The line prints meta["extrapolated_value"]; the surface, and so
    # value_at, stays second order, one error estimate away from it.
    out = tmp_path / "surface.csv"
    assert main(_price_argv(payoff=payoff, tax="0.3", out=str(out),
                            **{"power-exp": "2"})) == 0
    value = _parse_price(capsys)
    meta = read_sidecar(str(out))
    assert value == float(f"{meta['extrapolated_value']:.10g}")
    sig_eff = math.sqrt(0.2 ** 2 + 0.05 * 0.3 ** 2)
    claim = (TerminalClaim.power_claim(2.0, 1.0) if payoff == "power"
             else getattr(TerminalClaim, payoff)(100.0, 1.0))
    surface = solve_tax_bsm(claim, 0.05, 0.2, 0.3, grid_for_spot(100.0, sig_eff, 1.0, 0.05))
    assert surface.meta["extrapolated_value"] == meta["extrapolated_value"]
    assert abs(meta["extrapolated_value"] - surface.value_at(100.0)) == pytest.approx(
        meta["error_estimate"], rel=1e-12, abs=math.ulp(meta["extrapolated_value"]))


# The half grid needs 16 nodes and one step, so 31 nodes and --time-steps 2
# are the least; an even --grid is rounded up, so --grid 30 is the least.
# Nothing is sized or solved below them.
@pytest.mark.parametrize("flag, value, named, got", [
    ("grid", "29", "--grid's odd node count", "29"),
    ("grid", "28", "--grid's odd node count", "29"),
    ("grid", "-3", "--grid's odd node count", "-3"),
    ("time-steps", "1", "--time-steps", "1"), ("time-steps", "0", "--time-steps", "0")])
def test_price_refuses_a_grid_without_a_half_grid(monkeypatch, capsys, flag, value, named, got):
    for name in ("grid_for_spot", "solve_tax_bsm"):
        monkeypatch.setattr(cli, name, pytest.fail)
    assert main(_price_argv(**{flag: value})) == 2
    captured = capsys.readouterr()
    least = 2 if flag == "time-steps" else 31
    assert captured.out == ""
    assert captured.err == (f"error: {named} must be at least {least} for the error "
                            f"estimate, got {got}\n")


def test_price_rounds_grid_30_up_to_the_least_half_grid(capsys):
    assert main(_price_argv(grid="30")) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(r"call value at spot 100: \S+ \+/- \S+ \(effective vol 0\.2\)\n",
                        captured.out)
    assert "unvalidated on 31 x 64" in captured.err


@pytest.mark.parametrize("grid, steps, noted", [("385", "48", True), ("513", "48", True),
                                                 ("513", "64", False), ("31", "2", True)])
def test_price_notes_a_grid_where_the_estimate_is_unvalidated(capsys, grid, steps, noted):
    # The estimate was validated on the default 513 x 64 only: at 385 x 48
    # it read 0.12x the true error, and at 513 x 48, 2^k + 1 nodes, 0.66x.
    # The note is one stderr line; the price line and the exit code stay
    # the same.
    assert main(_price_argv(grid=grid, **{"time-steps": steps})) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(r"call value at spot 100: \S+ \+/- \S+ \(effective vol 0\.2\)\n",
                        captured.out)
    if noted:
        assert captured.err == (f"note: the error estimate is unvalidated on {grid} x {steps}; "
                                "it was validated on the default 513 x 64 only "
                                "(at 385 x 48 it read 0.12x the true error)\n")
    else:
        assert captured.err == ""


def test_price_exits_two_when_surfaces_exceed_memory(monkeypatch, capsys):
    # 513 x 513 and 257 x 257 surfaces of 8 bytes; nothing is marched.
    monkeypatch.setattr(processes, "_physical_memory", lambda: 8 * (513 * 513 + 257 * 257) - 1)
    monkeypatch.setattr(pde, "_march", pytest.fail)
    assert main(_price_argv(grid="513", **{"time-steps": "512"})) == 2
    err = capsys.readouterr().err
    assert "513 nodes and 512 time steps" in err and "lower nodes or time_steps" in err


def test_price_rejects_bad_payoff():
    assert main(_price_argv(payoff="butterfly")) == 2


def test_usage_error_exit_code():
    assert main(["simulate", "--process", "fbm"]) == 2


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2


def test_each_subcommand_keeps_its_own_defaults(capsys):
    # The parser is built once per process; a flag given to one call must
    # not become the default of the next, on the same or another subcommand.
    for argv in (_price_argv(tax="0.5", grid="65", **{"time-steps": "8"}),
                 ["arb-demo", "--case", "diffusion", "--tax", "0.3", "--paths", "10",
                  "--steps", "16"],
                 _price_argv(grid="65", **{"time-steps": "8"})):
        assert main(argv) == 0
    assert capsys.readouterr().out.rstrip().endswith("(effective vol 0.2)")


# ---------------------------------------------------------------------------
# the benchmark's argv

def _bench_workloads():
    """bench/workloads.py, standard library only, loaded by path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(root, "bench", "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_BENCH = _bench_workloads()


@pytest.mark.parametrize("size", ["FULL", "TINY"])
@pytest.mark.parametrize("workload", _BENCH.WORKLOADS)
def test_bench_argv_parses(workload, size):
    # Only parses: a flag the benchmark passes and the CLI lost fails here.
    argvs = _BENCH.commands(workload, 7, getattr(_BENCH, size), "/nonexistent")
    assert argvs
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        assert args.func is not None, argv


def test_bench_prices_meet_their_references(capsys):
    # The benchmark refuses a price only beyond 1e-3 of its reference; the
    # default grid's worst case over these 27 claims is 3.5e-6.
    spot, rate, sigma = _BENCH.PRICE_SPOT, _BENCH.PRICE_RATE, _BENCH.PRICE_SIGMA
    claims = _BENCH.FULL["prices"]
    argvs = _BENCH.commands("tax-pricing", 0, _BENCH.FULL, "/nonexistent")
    assert len(argvs) == len(claims) == 27
    for argv, (payoff, tax, strike) in zip(argvs, claims):
        sig_eff = math.sqrt(sigma ** 2 + rate * tax ** 2)
        if payoff == "power":
            exact = power_claim_value(spot, rate, sig_eff, _BENCH.POWER_EXP,
                                      _BENCH.PRICE_MATURITY)
        else:
            exact = black_scholes(spot, strike, rate, sig_eff, _BENCH.PRICE_MATURITY,
                                  put=payoff == "put")
        reference = _BENCH.reference_price(payoff, tax, strike)
        assert reference == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert main(argv) == 0
        price = float(re.search(r"value at spot \S+: (\S+)", capsys.readouterr().out).group(1))
        assert abs(price - reference) <= 1e-5 * reference, argv


# Claims whose spread over the horizon is far below one log unit: a grid
# one log unit wide printed 0.0326 +/- 0.016, -0.0133 +/- 0.0072 and
# 0.119 +/- 0.0059 for these.
@pytest.mark.parametrize("payoff, sigma, rate, maturity", [
    ("call", 0.2, 0.0, 1e-9),
    ("put", 0.01, 0.05, 0.1),
    ("call", 0.1, 0.0, 0.001),
])
def test_narrow_claims_print_the_closed_form_within_their_estimate(capsys, payoff, sigma, rate,
                                                                   maturity):
    argv = ["price", "--payoff", payoff, "--spot", "100", "--sigma", str(sigma), "--rate",
            str(rate), "--maturity", str(maturity)]
    assert main(argv) == 0
    found = re.search(r"value at spot \S+: (\S+) \+/- (\S+)", capsys.readouterr().out)
    price, estimate = float(found.group(1)), float(found.group(2))
    want = black_scholes(100.0, 100.0, rate, sigma, maturity, put=payoff == "put")
    assert abs(price - want) <= max(estimate, 2e-5), (price, estimate, want)
    assert price >= -estimate


# sha256 of the 27 benchmark price lines, joined as the CLI prints them.  A
# change that moves a benchmark price (or its printed estimate) moves this
# digest; re-record it only with the change that does so, and say so.
_BENCH_PRICES_SHA256 = "dd2abf322d7f7f57327a2bcd6b2665712bf62d8df4f5721e418a4f7d3312ba3e"


def test_bench_price_lines_are_pinned(capsys):
    argvs = _BENCH.commands("tax-pricing", 0, _BENCH.FULL, "/nonexistent")
    assert len(argvs) == 27
    out = []
    for argv in argvs:
        assert main(argv) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == _BENCH_PRICES_SHA256
