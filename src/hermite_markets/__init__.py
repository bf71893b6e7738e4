"""Rough-market toolkit: Hermite-process simulation, pathwise calculus,
synthetic riskless assets, a strategy-specific transaction tax, and
tax-adjusted claim pricing."""

from .processes import *
from .stats import *
from .calculus import *
from .markets import *
from .strategies import *
from .pde import *
from .pathio import *

__version__ = "0.1.0"
