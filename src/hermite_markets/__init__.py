"""Rough-market toolkit: Hermite-process simulation, pathwise calculus,
synthetic riskless assets, a strategy-specific transaction tax, and
tax-adjusted claim pricing."""

from .processes import (
    CirculantEmbeddingError,
    HermiteSpec,
    HouSpec,
    MixedHermiteSpec,
    SamplePath,
    derive_seeds,
    gen_bm,
    gen_fbm,
    gen_fgn,
    gen_hermite,
    gen_hou,
    gen_mixed,
    hermite_poly,
    path_rng,
)
from .stats import (
    HurstEstimate,
    autocov_slope,
    centered_qv,
    estimate_hurst,
    increment_autocov,
    norm_const,
    theoretical_cov,
)
from .calculus import GridFunction, chain_rule_residual, gain_process, pathwise_integral
from .markets import (
    InfeasibleMarketError,
    MixedMarket,
    MixedMarketPaths,
    PureHermiteMarket,
    RisklessSynthesis,
    TwoAssetDiffusion,
    bsm_synthetic_rate,
    load_market,
    price_mixed_market,
    price_pure_hermite,
    pure_hermite_price_matrix,
    sde_residual,
    singular_square_term,
    synth_riskless,
    synth_riskless_taxed,
)
from .strategies import (
    PortfolioFunction,
    TaxReport,
    diffusion_arb_demo,
    f_strategy_demo,
    mixed_arb_demo,
    mixed_arbitrage_portfolio,
    mixed_market_residual,
    pair_curvature_residual,
    pair_value_residual,
    power_pair_exponents,
    power_pair_frictionless,
    power_portfolio,
    running_cost,
    self_financing_residual,
    shiryaev_demo,
    sqrt_spread_portfolio,
    sqrt_spread_portfolio_fn,
    taxed_bsm_residual,
    taxed_self_financing_residual,
    wilson_ci,
)
from .pde import (
    HeatReduction,
    IllPosedProblemError,
    PdeGrid,
    PdeSurface,
    TerminalClaim,
    grid_for_spot,
    heat_kernel,
    reduce_to_heat,
    solve_tax_bsm,
)
from .pathio import (
    PathFormatError,
    read_path_csv,
    read_sidecar,
    write_path_csv,
    write_sidecar,
    write_surface_csv,
)

__version__ = "0.1.0"
