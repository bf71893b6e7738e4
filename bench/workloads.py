"""The benchmark's three workloads: job sizes, the argv of each job, the
per-job seeds, and the closed-form prices the pricing checks compare to.

Standard library only, so that the orchestrator can import it without
paying for numpy, and a worker can import it before timing the package
import.
"""

import hashlib
import math

WORKLOADS = ("mixture-csv", "taxed-arbitrage", "tax-pricing")

MIX_WEIGHT = "0.7071067811865476"
MIX_RANKS = (1, 2)
APPROX_FACTOR = 32  # the CLI default; the argv does not pass it
PRICE_SPOT, PRICE_SIGMA, PRICE_RATE, PRICE_MATURITY, POWER_EXP = 100.0, 0.2, 0.05, 1.0, 2.0
PRICE_GRID, PRICE_TIME_STEPS = 513, 512  # the CLI defaults; the argv does not pass them

FULL = {
    "mixture_paths": 200, "mixture_steps": 1024,
    "arb_paths": 10000, "arb_steps": 512,
    "prices": [(payoff, tax, strike)
               for payoff in ("call", "put", "power")
               for tax in (0.0, 0.2, 0.5)
               for strike in (80.0, 100.0, 120.0)],
}

# Sizes for the benchmark's own smoke test. The statistical checks have
# no power at these sizes and may fail; only the report format is tested.
TINY = {
    "mixture_paths": 8, "mixture_steps": 64,
    "arb_paths": 8, "arb_steps": 64,
    "prices": [("call", 0.2, 100.0), ("put", 0.2, 100.0), ("power", 0.2, 100.0)],
}


def job_seed(base_seed, process, job):
    """Seed of one job, derived from the workload seed.

    Distinct (process, job) pairs give distinct seeds, so no timed job
    repeats an earlier one's input.
    """
    digest = hashlib.sha256(f"{base_seed}/{process}/{job}".encode()).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFFFFFF


def fmt(value):
    return f"{value:g}"


def commands(workload, seed, sizes, workdir):
    """The argv of each CLI call one job makes, in order."""
    if workload == "mixture-csv":
        out = csv_path(seed, workdir)
        simulate = ["simulate", "--process", "mixed", "--hurst", "0.75",
                    "--weights", f"{MIX_WEIGHT},{MIX_WEIGHT}",
                    "--ranks", ",".join(str(r) for r in MIX_RANKS),
                    "--steps", str(sizes["mixture_steps"]),
                    "--paths", str(sizes["mixture_paths"]),
                    "--seed", str(seed), "--out", out]
        return [simulate,
                ["stats", "--in", out, "--check", "hurst"],
                ["stats", "--in", out, "--check", "qv"]]
    if workload == "taxed-arbitrage":
        return [["arb-demo", "--case", case, "--tax", "0.3",
                 "--paths", str(sizes["arb_paths"]), "--steps", str(sizes["arb_steps"]),
                 "--seed", str(seed)]
                for case in ("diffusion", "mixed")]
    if workload == "tax-pricing":
        return [["price", "--payoff", payoff, "--strike", fmt(strike),
                 "--spot", fmt(PRICE_SPOT), "--sigma", fmt(PRICE_SIGMA),
                 "--rate", fmt(PRICE_RATE), "--tax", fmt(tax)]
                for payoff, tax, strike in sizes["prices"]]
    raise ValueError(f"unknown workload {workload!r}")


def csv_path(seed, workdir):
    return f"{workdir}/mix-{seed}.csv"


def _norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def reference_price(payoff, tax, strike):
    """Exact value under the tax-adjusted lognormal operator.

    Calls and puts are Black-Scholes at sigma_eff^2 = sigma^2 + r c^2;
    x^p grows at exp((r (p - 1) + sigma_eff^2 p (p - 1) / 2) T).
    """
    var = PRICE_SIGMA ** 2 + PRICE_RATE * tax ** 2
    spot, rate, mat = PRICE_SPOT, PRICE_RATE, PRICE_MATURITY
    if payoff == "power":
        p = POWER_EXP
        return spot ** p * math.exp((rate * (p - 1.0) + 0.5 * var * p * (p - 1.0)) * mat)
    sd = math.sqrt(var * mat)
    d1 = (math.log(spot / strike) + (rate + 0.5 * var) * mat) / sd
    d2 = d1 - sd
    discounted = strike * math.exp(-rate * mat)
    call = spot * _norm_cdf(d1) - discounted * _norm_cdf(d2)
    return call if payoff == "call" else call - spot + discounted


def work_counts(workload, sizes):
    """Work one job does, computed from its argv: the bases of the ratios."""
    counts = {"seed_streams": 0, "inner_points": 0, "fft_points": 0,
              "running_cost_path_steps": 0, "pde_node_steps": 0}
    if workload == "mixture-csv":
        paths, steps = sizes["mixture_paths"], sizes["mixture_steps"]
        inner = APPROX_FACTOR * steps
        counts["seed_streams"] = paths * len(MIX_RANKS)
        counts["inner_points"] = paths * len(MIX_RANKS) * inner
        counts["fft_points"] = paths * len(MIX_RANKS) * 2 * inner
    elif workload == "taxed-arbitrage":
        paths, steps = sizes["arb_paths"], sizes["arb_steps"]
        # diffusion: one Brownian stream per path; mixed: a Brownian and
        # an FBM stream per path, the FBM by a 2 * steps point FFT.
        counts["seed_streams"] = 3 * paths
        counts["fft_points"] = paths * 2 * steps
        # two running_cost calls, each over two assets
        counts["running_cost_path_steps"] = 2 * 2 * paths * steps
    elif workload == "tax-pricing":
        counts["pde_node_steps"] = len(sizes["prices"]) * PRICE_GRID * PRICE_TIME_STEPS
    return counts
