"""Stored-energy simulator for double-quench charging of integrable spin chains.

The dimerized XY battery is solved in momentum space (``xy``, ``quench``),
the transverse-field Ising battery in closed form (``ising``), charging
regimes and sweeps live in ``regimes``, and ``ed`` provides the momentum-sector
spin-space oracle used to verify everything at small sizes.  Each of these
five modules' ``__all__`` is its only list of public names; the package
republishes them all, and its own ``__all__`` is their concatenation.
"""

from . import ed, ising, quench, regimes, xy
from .ed import *
from .ising import *
from .quench import *
from .regimes import *
from .xy import *

__all__ = ed.__all__ + ising.__all__ + quench.__all__ + regimes.__all__ + xy.__all__

__version__ = "0.1.0"
