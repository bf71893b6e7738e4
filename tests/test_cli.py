"""Command-line surface: subcommands, exit codes, file formats, seeding."""

import hashlib
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hermite_markets.cli import main
from hermite_markets.pathio import (
    PathFormatError,
    read_path_csv,
    read_sidecar,
    write_path_csv,
)
from hermite_markets import HermiteSpec, SamplePath, gen_fbm
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
# and the fields its sidecar must hold.  The sidecar may add provenance
# (path_offset, component, history_truncation) and nothing else.
_PROCESS_ARGV = {
    "fbm": ["--process", "fbm", "--hurst", "0.7", "--steps", "32", "--paths", "5",
            "--seed", "5"],
    "hermite": ["--process", "hermite", "--hurst", "0.72", "--rank", "2",
                "--steps", "32", "--paths", "5", "--seed", "5", "--approx-factor", "4"],
    "mixed": ["--process", "mixed", "--hurst", "0.75", "--weights", "0.6,0.8",
              "--ranks", "1,2", "--steps", "32", "--paths", "5", "--seed", "5",
              "--approx-factor", "4", "--normalization", "analytic"],
    "hou": ["--process", "hou", "--hurst", "0.75", "--ou-lambda", "2.0",
            "--ou-sigma", "0.5", "--steps", "32", "--paths", "5", "--seed", "5",
            "--horizon", "2.0", "--approx-factor", "4"],
}
_PROCESS_SIDECAR = {
    "fbm": {"approx_factor": 32, "horizon": 1.0, "hurst": 0.7,
            "normalization": "empirical", "paths": 5, "process": "fbm", "rank": 1,
            "seed": 5, "steps": 32},
    "hermite": {"approx_factor": 4, "horizon": 1.0, "hurst": 0.72,
                "normalization": "empirical", "paths": 5, "process": "hermite",
                "rank": 2, "seed": 5, "steps": 32},
    "mixed": {"approx_factor": 4, "horizon": 1.0, "hurst": 0.75,
              "normalization": "analytic", "paths": 5, "process": "mixed",
              "ranks": [1, 2], "seed": 5, "steps": 32, "weights": [0.6, 0.8]},
    "hou": {"approx_factor": 4, "horizon": 2.0, "hurst": 0.75,
            "normalization": "empirical", "ou_lambda": 2.0, "ou_sigma": 0.5,
            "paths": 5, "process": "hou", "rank": 1, "seed": 5, "steps": 32},
}
_PROVENANCE = {"path_offset", "component", "history_truncation"}


def _simulate_process(tmp_path, process, name, *extra):
    out = tmp_path / name
    assert main(["simulate", "--out", str(out), *_PROCESS_ARGV[process], *extra]) == 0
    return out


@pytest.mark.parametrize("process", sorted(_PROCESS_ARGV))
def test_simulate_sidecar_fields(tmp_path, process):
    meta = read_sidecar(str(_simulate_process(tmp_path, process, "s.csv")))
    want = _PROCESS_SIDECAR[process]
    assert {key: meta.get(key) for key in want} == want
    assert set(meta) - set(want) <= _PROVENANCE


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
    bad.write_text("t,p0\n0.0,0.0\n0.5,not-a-number\n1.0,0.2\n")
    with pytest.raises(PathFormatError, match="line 3"):
        read_path_csv(str(bad))


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
    ("shiryaev", "0.3", "300", 0,
     "ec81bc3dd9b2967be481540d2815253e66c5a3a4bbe0b29aadd69dc40186148a"),
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
     "1e04c11bf9220da1c940ed04afa8fb5a2df6a35f28b765d39a999a443bbfb6f0"),
    ("mixed", "0.02", "40", 1,
     "64bf45efd153fbf5254fe5ab9344d9ee05f602845285693c416c7e30b6ea4db0"),
]


@pytest.mark.parametrize("case, tax, paths, code, digest", _GOLDEN_ARB_STDOUT)
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


def test_price_rejects_bad_payoff():
    assert main(_price_argv(payoff="butterfly")) == 2


def test_usage_error_exit_code():
    assert main(["simulate", "--process", "fbm"]) == 2


def test_unknown_subcommand():
    assert main(["frobnicate"]) == 2
