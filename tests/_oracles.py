"""Closed-form reference values, a reference solver and a peak-memory probe
used by several test modules."""

import math
import os
import subprocess
import sys

import numpy as np
from scipy.linalg import solve_banded

import hermite_markets
from hermite_markets.pde import _boundary_values, _effective_variance, _start_row


def _norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def black_scholes(spot, strike, rate, sigma, maturity, put=False):
    """European option value under constant volatility and rate."""
    if maturity <= 0:
        intrinsic = max(spot - strike, 0.0)
        return max(strike - spot, 0.0) if put else intrinsic
    vol = sigma * math.sqrt(maturity)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma**2) * maturity) / vol
    d2 = d1 - vol
    call = spot * _norm_cdf(d1) - strike * math.exp(-rate * maturity) * _norm_cdf(d2)
    if put:
        return call - spot + strike * math.exp(-rate * maturity)
    return call


def power_claim_value(spot, rate, sigma, power, tau):
    """Exact value of the payoff x**p under the same dynamics.

    The claim x**p solves the pricing equation with growth rate
    r (p - 1) + sigma^2 p (p - 1) / 2, so discounting back over tau
    multiplies the payoff by exp of that rate times tau.
    """
    growth = rate * (power - 1.0) + 0.5 * sigma**2 * power * (power - 1.0)
    return spot**power * math.exp(growth * tau)


def banded_step_surface(claim, rate, sigma, tax_hat, grid):
    """``solve_tax_bsm(...).values`` by one ``solve_banded`` call per step.

    The solver's step loop as it was before the step systems were factored
    once; its surfaces are the bit-for-bit reference for the factored loop.
    It marches from the solver's own start row, so a surface differs only
    if the step loop does.
    """
    sig_eff_sq = _effective_variance(rate, sigma, tax_hat)
    y = grid.log_nodes
    x = np.exp(y)
    dy = y[1] - y[0]
    d_tau = claim.maturity / grid.time_steps
    diffusion = 0.5 * sig_eff_sq
    drift = rate - 0.5 * sig_eff_sq

    lower = diffusion / dy ** 2 - drift / (2.0 * dy)
    diag = -2.0 * diffusion / dy ** 2 - rate
    upper = diffusion / dy ** 2 + drift / (2.0 * dy)

    payoff_vals = np.asarray(claim.payoff(x), dtype=float)
    steps = grid.time_steps
    taus = np.linspace(0.0, claim.maturity, steps + 1)
    bound_l, bound_r = _boundary_values(claim, x, payoff_vals, rate, sig_eff_sq, taus)

    def step_system(theta):
        ab = np.zeros((3, grid.nodes - 2))
        ab[0, 1:] = -theta * d_tau * upper
        ab[1, :] = 1.0 - theta * d_tau * diag
        ab[2, :-1] = -theta * d_tau * lower
        return ab

    implicit, crank_nicolson = step_system(1.0), step_system(0.5)
    surface = np.empty((steps + 1, grid.nodes))
    surface[:-1, 0] = bound_l[:0:-1]
    surface[:-1, -1] = bound_r[:0:-1]
    surface[-1] = _start_row(claim, y, payoff_vals)
    for m in range(steps):
        theta, system = (1.0, implicit) if m < 2 else (0.5, crank_nicolson)
        known, new = surface[steps - m], surface[steps - m - 1]
        stencil = lower * known[:-2] + diag * known[1:-1] + upper * known[2:]
        rhs = known[1:-1] + (1.0 - theta) * d_tau * stencil
        rhs[0] += theta * d_tau * lower * new[0]
        rhs[-1] += theta * d_tau * upper * new[-1]
        new[1:-1] = solve_banded((1, 1), system, rhs)
    surface[-1] = payoff_vals
    return surface


# The peak is VmHWM, not ru_maxrss: Linux carries ru_maxrss across fork
# and exec, so a child started from a large test process would report
# the parent's peak from its first line.
_PEAK_PRELUDE = """
def print_peak():
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def subprocess_numbers(script, *args):
    """The integers ``script`` prints, run with ``args`` in a fresh interpreter.

    The interpreter imports this package's sources.
    """
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(hermite_markets.__file__)))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         check=True, capture_output=True, text=True).stdout.split()
    return [int(word) for word in out]


def subprocess_peaks_mib(script, *args):
    """Peak resident memory, in MiB, at each ``print_peak()`` call of ``script``.

    VmHWM is the peak of the whole process, so each measurement needs its
    own process.
    """
    return [kib / 1024 for kib in subprocess_numbers(_PEAK_PRELUDE + script, *args)]
