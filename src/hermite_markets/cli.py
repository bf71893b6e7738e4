"""Command line front end.

Four subcommands: ``simulate`` writes path ensembles as CSV plus a JSON
sidecar, ``stats`` runs diagnostic checks against a previously written
file, ``arb-demo`` runs one of the Monte Carlo arbitrage demonstrations,
and ``price`` solves the tax-adjusted pricing equation for a terminal
claim.

Exit codes: 0 when the command succeeded (for checks and demos: the
expected property held), 1 when a check, demo claim, or pricing problem
failed on valid inputs, 2 for usage and parameter errors, malformed
files included.  Seeds resolve as --seed, then the HERMITE_SEED
environment variable, then 42.
"""

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import stats as sps

from .markets import MixedMarket, TwoAssetDiffusion
from .pathio import PathFormatError, read_path_csv, write_path_csv, write_sidecar, \
    write_surface_csv
from .pde import _DEFAULT_NODES, _DEFAULT_TIME_STEPS, IllPosedProblemError, TerminalClaim, \
    _effective_variance, _require_half_grid, grid_for_spot, solve_tax_bsm
from .processes import HermiteSpec, HouSpec, MixedHermiteSpec, SamplePath, \
    _check_memory, gen_fbm, gen_hermite, gen_hou, gen_mixed
from .stats import autocov_slope, centered_qv, estimate_hurst, theoretical_cov
from .strategies import diffusion_arb_demo, f_strategy_demo, mixed_arb_demo, shiryaev_demo

__all__ = ["main"]

_DEFAULT_SEED = 42


def _resolve_seed(value):
    if value is not None:
        return value
    env = os.environ.get("HERMITE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"HERMITE_SEED must be an integer, got {env!r}") from None
    return _DEFAULT_SEED


def _list_of(convert):
    """Argparse type for a comma-separated list of ``convert`` values."""
    def parse(text):
        try:
            return [convert(part) for part in text.split(",") if part.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {convert.__name__} list: {text!r}")
    return parse


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="hermite-markets",
        description="Hermite-driven market simulation, arbitrage demos and pricing")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a path ensemble into a CSV file")
    sim.add_argument("--process", required=True,
                     choices=["fbm", "hermite", "mixed", "hou"])
    sim.add_argument("--hurst", type=float, required=True)
    sim.add_argument("--rank", type=int, default=1)
    sim.add_argument("--steps", type=int, default=256)
    sim.add_argument("--horizon", type=float, default=1.0)
    sim.add_argument("--paths", type=int, default=1)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--approx-factor", type=int, default=HermiteSpec.approx_factor)
    sim.add_argument("--weights", type=_list_of(float), default=None,
                     help="mixed process component weights, e.g. 0.8,0.6")
    sim.add_argument("--ranks", type=_list_of(int), default=None,
                     help="mixed process component ranks, e.g. 1,2")
    sim.add_argument("--ou-lambda", type=float, default=1.0)
    sim.add_argument("--ou-sigma", type=float, default=1.0)
    sim.add_argument("--workers", type=int, default=1)
    sim.add_argument("--out", required=True)
    sim.set_defaults(func=_cmd_simulate)

    stc = sub.add_parser("stats", help="diagnostic checks on a simulated ensemble")
    stc.add_argument("--in", dest="infile", required=True)
    stc.add_argument("--check", required=True, choices=list(_CHECKS))
    stc.set_defaults(func=_cmd_stats)

    arb = sub.add_parser("arb-demo", help="run one arbitrage / tax demonstration")
    arb.add_argument("--case", required=True,
                     choices=["shiryaev", "fsquare", "diffusion", "mixed"])
    arb.add_argument("--tax", type=float, default=0.0)
    arb.add_argument("--paths", type=int, default=2000)
    arb.add_argument("--steps", type=int, default=2048)
    arb.add_argument("--horizon", type=float, default=1.0)
    arb.add_argument("--hurst", type=float, default=0.7)
    arb.add_argument("--seed", type=int, default=None)
    arb.set_defaults(func=_cmd_arb_demo)

    prc = sub.add_parser("price", help="price a terminal claim with a tax adjustment")
    prc.add_argument("--payoff", required=True, choices=["call", "put", "power"])
    prc.add_argument("--strike", type=float, default=100.0)
    prc.add_argument("--power-exp", type=float, default=2.0)
    prc.add_argument("--spot", type=float, required=True)
    prc.add_argument("--rate", type=float, default=0.0)
    prc.add_argument("--sigma", type=float, required=True)
    prc.add_argument("--tax", type=float, default=0.0)
    prc.add_argument("--maturity", type=float, default=1.0)
    prc.add_argument("--grid", type=int, default=_DEFAULT_NODES,
                     help="price nodes (default %(default)s); the error estimate was "
                          f"validated on the default {_DEFAULT_NODES} x "
                          f"{_DEFAULT_TIME_STEPS} grid only: at 385 x 48 it read 0.12x "
                          "the true error, at 513 x 48 0.66x")
    prc.add_argument("--time-steps", type=int, default=_DEFAULT_TIME_STEPS)
    prc.add_argument("--out", default=None)
    prc.set_defaults(func=_cmd_price)

    return parser


# ---------------------------------------------------------------------------
# simulate

def _make_generator(args, seed):
    """Return callable(paths, path_offset) -> SamplePath for the chosen process."""
    if args.process == "mixed":
        if not args.weights or not args.ranks or len(args.weights) != len(args.ranks):
            raise ValueError("mixed process needs matching --weights and --ranks")
        generate, specs = gen_mixed, (MixedHermiteSpec(
            args.hurst, tuple(zip(args.weights, args.ranks)), args.approx_factor),)
    else:
        rank = 1 if args.process == "fbm" else args.rank
        spec = HermiteSpec(args.hurst, rank, args.approx_factor)
        if args.process == "hou":
            generate, specs = gen_hou, (HouSpec(args.ou_lambda, args.ou_sigma), spec)
        else:
            generate, specs = gen_fbm if args.process == "fbm" else gen_hermite, (spec,)
    return lambda paths, offset: generate(*specs, args.horizon, args.steps,
                                          paths, seed, path_offset=offset)


def _cmd_simulate(args):
    seed = _resolve_seed(args.seed)
    if args.paths < 1:
        raise ValueError("--paths must be >= 1")
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    # 16 bytes a path and grid point: the parts and their np.vstack copy
    _check_memory(f"simulate --process {args.process}", 16 * args.paths * (args.steps + 1),
                  "lower --paths or --steps")
    generate = _make_generator(args, seed)
    workers = min(args.workers, args.paths)
    chunks = np.array_split(np.arange(args.paths), workers)
    # The calling thread draws the first chunk, so one worker starts no
    # thread, whose own allocator arena would raise the process's peak memory.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        rest = [pool.submit(generate, len(idx), int(idx[0])) for idx in chunks[1:]]
        parts = [generate(len(chunks[0]), 0)] + [future.result() for future in rest]
    ensemble = SamplePath(horizon=args.horizon, steps=args.steps,
                          values=np.vstack([p.values for p in parts]),
                          seed=seed, meta=dict(parts[0].meta, paths=args.paths))
    write_path_csv(ensemble, args.out)
    write_sidecar(args.out, dict(ensemble.meta, seed=seed, horizon=args.horizon,
                                 steps=args.steps))
    print(f"wrote {args.paths} path(s) x {args.steps} steps to {args.out} "
          f"(seed {seed})")
    return 0


# ---------------------------------------------------------------------------
# stats

def _is_rank(value):
    return type(value) is int and value >= 1


def _sidecar_law(path, filename):
    """The sidecar's Hurst index and Hermite ranks; a file with no rank field is rank 1.

    A field that is present but malformed raises PathFormatError naming it.
    """
    meta = path.meta
    hurst = meta.get("hurst")
    if hurst is None:
        raise ValueError("no hurst in the sidecar; cannot run this check")
    try:
        value = float(hurst)
    except (TypeError, ValueError, OverflowError):
        raise PathFormatError(f"{filename}.json: hurst must be a number, got {hurst!r}") from None
    if not 0.5 < value < 1.0:
        raise PathFormatError(f"{filename}.json: hurst must lie in (1/2, 1), got {hurst!r}")
    if "rank" in meta and not _is_rank(meta["rank"]):
        raise PathFormatError(
            f"{filename}.json: rank must be an integer >= 1, got {meta['rank']!r}")
    ranks = meta.get("ranks", [meta.get("rank", 1)])
    if not (isinstance(ranks, list) and ranks and all(map(_is_rank, ranks))):
        raise PathFormatError(
            f"{filename}.json: ranks must be a non-empty list of integers >= 1, got {ranks!r}")
    return value, ranks


def _check_cov(path, hurst, ranks):
    if path.n_paths < 50:
        raise ValueError("cov check needs at least 50 paths")
    if path.steps < 4:
        raise ValueError("cov check needs at least 4 steps")
    picks = np.unique(np.linspace(path.steps // 4, path.steps, 4, dtype=int))
    times = path.times[picks]
    sample = path.values[:, picks]
    sample = (sample - sample.mean(axis=0)).T
    emp = (sample[:, None] * sample[None, :]).mean(axis=2)
    theo = theoretical_cov(hurst, times[:, None], times[None, :])
    var = np.diag(theo)
    stderr = np.sqrt((var[:, None] * var[None, :] + theo ** 2) / path.n_paths)
    worst = float(np.max(np.abs(emp - theo) / stderr))
    return {"statistic": worst, "target": 0.0, "tolerance": 4.0,
            "pass": worst < 4.0,
            "detail": "worst z-score of sample covariance against the "
                      "stationary-increment form, over a 4x4 time grid"}


def _check_selfsim(path, hurst, ranks):
    if path.n_paths < 100:
        raise ValueError("selfsim check needs at least 100 paths")
    if path.steps < 4:
        raise ValueError("selfsim check needs at least 4 steps")
    early = path.steps // 4
    ratio = path.times[-1] / path.times[early]
    rescaled = path.values[:, early] * ratio ** hurst
    pvalue = float(sps.ks_2samp(rescaled, path.values[:, -1]).pvalue)
    return {"statistic": pvalue, "target": "p > 0.01", "tolerance": 0.01,
            "pass": pvalue > 0.01,
            "detail": f"KS test of c^{hurst} scaling between interior and "
                      f"terminal marginals, c = {ratio:.4g}"}


def _check_lrd(path, hurst, ranks):
    """Increment autocovariance slope over lags 2..10, by stats.autocov_slope.

    Like the library, it does not remove the sample mean: the increments
    are centred by construction.
    """
    slope = autocov_slope(path.values, np.arange(2, 11))
    target = 2.0 * hurst - 2.0
    return {"statistic": slope, "target": target, "tolerance": 0.3,
            "pass": abs(slope - target) < 0.3,
            "detail": "log-log slope of the increment autocovariance, lags 2..10"}


def _check_qv(path, hurst, ranks):
    if path.n_paths < 20:
        raise ValueError("qv check needs at least 20 paths")
    per_path, delta = centered_qv(path, hurst=hurst)
    spread = float(np.std(per_path))
    if spread == 0.0:
        raise ValueError("centered quadratic variation has no scatter")
    pvalue = float(sps.normaltest(per_path / spread).pvalue)
    gaussian_regime = all(r == 1 for r in ranks) and hurst < 0.75
    ok = (pvalue > 0.01) if gaussian_regime else (pvalue < 0.01)
    return {"statistic": pvalue,
            "target": "gaussian_limit" if gaussian_regime else "non_gaussian_limit",
            "tolerance": 0.01, "pass": ok,
            "detail": f"normality p-value of per-path centered quadratic "
                      f"variation; ensemble mean {float(np.mean(per_path)):.3e}, "
                      f"delta {delta:.3e}"}


def _check_hurst(path, hurst, ranks):
    estimate = estimate_hurst(path)
    tol = max(4.0 * estimate.stderr, 0.05)
    return {"statistic": estimate.value, "target": hurst, "tolerance": tol,
            "pass": abs(estimate.value - hurst) < tol,
            "detail": f"dyadic block-variance regression, stderr {estimate.stderr:.4f}"}


_CHECKS = {
    "cov": _check_cov,
    "selfsim": _check_selfsim,
    "lrd": _check_lrd,
    "qv": _check_qv,
    "hurst": _check_hurst,
}


def _cmd_stats(args):
    path = read_path_csv(args.infile)
    hurst, ranks = _sidecar_law(path, args.infile)
    report = {"check": args.check, "file": args.infile}
    try:
        report.update(_CHECKS[args.check](path, hurst, ranks))
    except ValueError as exc:
        report.update({"pass": False, "detail": str(exc)})
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["pass"] else 1


# ---------------------------------------------------------------------------
# arbitrage demos

# Prices that overflow, or underflow to zero, reach the demos' finite checks,
# which name the demo's parameters; numpy's warnings would only repeat it.
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _cmd_arb_demo(args):
    seed = _resolve_seed(args.seed)
    if not 0 <= args.tax < math.inf:
        raise ValueError(f"--tax must be finite and nonnegative, got {args.tax}")
    if args.case == "shiryaev" and args.tax != 0:
        raise ValueError(f"--tax {args.tax:g} taxes nothing in the shiryaev case; "
                         "its taxed form, (S - 1)^2, is --case fsquare")
    grid = (args.paths, args.steps, args.horizon, seed)
    if args.case == "shiryaev":
        report = shiryaev_demo(HermiteSpec(args.hurst), *grid)
    elif args.case == "fsquare":
        report = f_strategy_demo(lambda x: (x - 1.0) ** 2, lambda x: 2.0 * (x - 1.0),
                                 HermiteSpec(args.hurst), args.tax, *grid,
                                 threshold_check=True)
    elif args.case == "diffusion":
        report = diffusion_arb_demo(TwoAssetDiffusion.shared_vol(0.05, 0.02, 0.2), *grid,
                                    args.tax)
    else:
        market = MixedMarket(r=0.01, b=0.2, rho=0.2, mu=0.05, sigma=0.2,
                             sigma_h=0.3, hurst=args.hurst)
        report = mixed_arb_demo(market, *grid, args.tax)
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# pricing

# An overflowing payoff or boundary reaches the solver's finite checks,
# which name it; numpy's warnings would only repeat it, with source lines.
@np.errstate(over="ignore", invalid="ignore")
def _cmd_price(args):
    # grid_for_spot rounds an even --grid up: --grid 30 prices on 31 nodes
    _require_half_grid(args.grid | 1, args.time_steps, ("--grid's odd node count", "--time-steps"))
    if args.payoff == "call":
        claim = TerminalClaim.call(args.strike, args.maturity)
    elif args.payoff == "put":
        claim = TerminalClaim.put(args.strike, args.maturity)
    else:
        claim = TerminalClaim.power_claim(args.power_exp, args.maturity)
    try:
        sig_eff_sq = _effective_variance(args.rate, args.sigma, args.tax)
        grid = grid_for_spot(args.spot, math.sqrt(sig_eff_sq), args.maturity,
                             args.rate, args.grid, args.time_steps)
        surface = solve_tax_bsm(claim, args.rate, args.sigma, args.tax, grid)
    except IllPosedProblemError as exc:
        print(f"pricing failed: {exc}", file=sys.stderr)
        return 1
    value, estimate = surface.meta["extrapolated_value"], surface.meta["error_estimate"]
    # x**p is positive, so a value at or below zero, or within its estimate of it, is the
    # scheme failing on a payoff it cannot resolve; a deep call or put may be that small.
    if args.payoff == "power" and not estimate < value:
        raise ValueError(f"the grid cannot resolve the power claim: it priced x**{args.power_exp:g} "
                         f"at {value:.4g} +/- {estimate:.2g}; "
                         "lower the size of --power-exp or raise --grid")
    if (grid.nodes, grid.time_steps) != (_DEFAULT_NODES, _DEFAULT_TIME_STEPS):
        print(f"note: the error estimate is unvalidated on {grid.nodes} x {grid.time_steps}; "
              f"it was validated on the default {_DEFAULT_NODES} x {_DEFAULT_TIME_STEPS} only "
              "(at 385 x 48 it read 0.12x the true error)", file=sys.stderr)
    print(f"{args.payoff} value at spot {args.spot:g}: {value:.10g} +/- {estimate:.2g} "
          f"(effective vol {math.sqrt(sig_eff_sq):.6g})")
    if args.out:
        write_surface_csv(surface, args.out)
        write_sidecar(args.out, dict(surface.meta, prices=surface.prices.tolist(),
                                     payoff=args.payoff, strike=args.strike,
                                     power_exp=args.power_exp, spot=args.spot))
        print(f"wrote surface to {args.out}")
    return 0


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
