"""Wavefunction-style stock price/ownership states on a cyclic lattice.

Each module lists its public names in its own ``__all__``; the package
re-exports them, and its ``__all__`` is their sorted union.
"""

from . import errors, lattice, fourier, states, operators, evolution, scenario, reference
from .errors import *
from .lattice import *
from .fourier import *
from .states import *
from .operators import *
from .evolution import *
from .scenario import *
from .reference import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (errors, lattice, fourier, states, operators, evolution, scenario, reference)
    for name in module.__all__
)
