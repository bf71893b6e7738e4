"""Closed-form reference values, reference solvers and recursions, and a
peak-memory probe used by several test modules."""

import math
import os
import subprocess
import sys

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigvalsh, solve_banded, toeplitz

import hermite_markets
from hermite_markets.pde import _boundary_values, _effective_variance, _start_row
from hermite_markets.processes import _fgn_autocov


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


def sqrt_spread_cost_weights(mu1, mu2, tax, times):
    """Weights a, b with the diffusion demo's terminal tax of a path equal to a @ s + b @ v.

    On the shared-volatility market v/s = e^{(mu2 - mu1) t}, so the tax
    densities 1/2 sqrt(v/s) and 1/2 sqrt(s/v) do not depend on the path,
    and sum_k c^2/2 D(t_k) (x_{k+1} - x_k) is linear in the prices.
    """
    times = np.asarray(times, dtype=float)
    half_gap = 0.5 * (mu2 - mu1) * times[:-1]
    weights = []
    for c, density in zip(np.broadcast_to(tax, (2,)),
                          (0.5 * np.exp(half_gap), 0.5 * np.exp(-half_gap))):
        w = np.zeros(len(times))
        w[1:] += density
        w[:-1] -= density
        weights.append(0.5 * c ** 2 * w)
    return weights


def sqrt_spread_cost_law(mu1, mu2, sigma, tax, times):
    """Exact mean and standard deviation of that terminal tax.

    s and v start at 1 on one Brownian driver, so E s_k = e^{mu1 t_k},
    E v_k = e^{mu2 t_k} and Cov(x_i, y_j) = E x_i E y_j (e^{sigma^2 min(t_i, t_j)} - 1)
    for x, y either asset.  With g = a E s + b E v, the mean is sum g and
    the variance g' (e^{sigma^2 min(t_i, t_j)} - 1) g.
    """
    times = np.asarray(times, dtype=float)
    a, b = sqrt_spread_cost_weights(mu1, mu2, tax, times)
    g = a * np.exp(mu1 * times) + b * np.exp(mu2 * times)
    cov = np.expm1(sigma ** 2 * np.minimum.outer(times, times))
    return float(g.sum()), math.sqrt(g @ cov @ g)


def fsquare_law(intensity, hurst, t):
    """Exact win probability, mean cost and cost sd of the f(S) = (S - 1)^2 demo.

    S = exp(B_H(t)) with B_H(t) ~ N(0, t^{2H}).  The tax is
    c^2/2 (f'(S) S - f(S) - f'(1)) = c^2/2 (S^2 - 1), so the strategy wins
    where S < 1 or S > theta = (1 + c^2/2) / (1 - c^2/2), with probability
    1/2 + erfc(ln theta / (t^H sqrt 2)) / 2, and E S^2 = e^{2 t^{2H}}.
    """
    half_sq = 0.5 * intensity ** 2
    theta = (1.0 + half_sq) / (1.0 - half_sq)
    var = t ** (2.0 * hurst)
    win = 0.5 + 0.5 * math.erfc(math.log(theta) / math.sqrt(2.0 * var))
    cost_sd = half_sq * math.sqrt(math.exp(8.0 * var) - math.exp(4.0 * var))
    return win, half_sq * math.expm1(2.0 * var), cost_sd


def hou_step_loop(driver, decay, sigma):
    """OU values over ``driver`` rows (paths, total + 1), one time step at a time.

    The left-point recursion ou[k + 1] = decay (ou[k] + sigma (driver[k + 1]
    - driver[k])) from ou[0] = 0, over the whole history.  gen_hou runs it
    in time blocks, one ``cumsum`` each, so the two agree to roundoff.
    """
    ou = np.zeros_like(driver)
    increments = np.diff(driver, axis=1)
    for k in range(driver.shape[1] - 1):
        ou[:, k + 1] = decay * (ou[:, k] + sigma * increments[:, k])
    return ou


def fgn_qv_eigenvalues(hurst, steps, horizon=1.0):
    """Eigenvalues of the covariance of ``steps`` FBM increments on [0, horizon].

    The increments over spacing g are N(0, g^{2H} Gamma), Gamma the
    Toeplitz FGN autocovariance, so ``centered_qv``'s statistic of an exact
    FBM path is sum_k lambda_k (Z_k^2 - 1) with these lambda_k.
    """
    spacing = horizon / steps
    return spacing ** (2.0 * hurst) * eigvalsh(toeplitz(_fgn_autocov(hurst, np.arange(steps))))


def quadratic_form_cumulants(eigs, orders):
    """Cumulants of sum_k lambda_k (Z_k^2 - 1), Z_k independent standard normals.

    Order 1 is 0 (the form is centered); order m >= 2 is
    2^{m-1} (m-1)! sum_k lambda_k^m, the chi-square cumulants weighted.
    """
    eigs = np.asarray(eigs, dtype=float)
    return [0.0 if m == 1 else 2.0 ** (m - 1) * math.factorial(m - 1) * float(np.sum(eigs ** m))
            for m in orders]


def quadratic_form_cdf(eigs, x):
    """P(sum_k lambda_k Z_k^2 <= x), Z_k independent standard normals, lambda_k > 0.

    Imhof's (1961) inversion of the characteristic function:
    1/2 - 1/pi int_0^inf sin(theta(u)) / (u rho(u)) du, with
    theta(u) = sum_k arctan(lambda_k u)/2 - x u/2 and
    rho(u) = prod_k (1 + lambda_k^2 u^2)^(1/4).  The integral stops at the
    first power of 2 where rho passes e^30: rho grows at least like
    (u/upper)^(1/2) beyond it, so the tail is below 2 e^-30.  That stop
    suits forms of eight terms or more; with fewer, rho grows so slowly that
    quad meets too many oscillations before it.
    """
    eigs = np.asarray(eigs, dtype=float)

    def log_rho(u):
        return 0.25 * np.log1p((eigs * u) ** 2).sum()

    def integrand(u):
        if u == 0.0:
            return 0.5 * (eigs.sum() - x)
        theta = 0.5 * (np.arctan(eigs * u).sum() - x * u)
        return math.sin(theta) / u * math.exp(-log_rho(u))

    upper = 1.0
    while log_rho(upper) < 30.0:
        upper *= 2.0
    integral, _ = quad(integrand, 0.0, upper, limit=2000, epsabs=1e-11, epsrel=1e-10)
    return 0.5 - integral / math.pi


def banded_step_surface(claim, rate, sigma, tax_hat, grid):
    """``solve_tax_bsm(...).values`` by one ``solve_banded`` call per step.

    The textbook step loop: each step forms the explicit stencil
    L known and solves for the new row.  The solver takes its
    Crank-Nicolson steps in sum form instead, so the two agree to
    roundoff, not bit for bit.  It marches from the solver's own start
    row, so a surface differs only as far as the step loop does.
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
