"""Magnetic quantum walks on the subset hypercube.

Builds the walk's position space from subset-indexed basis vectors and
bit-flip ladder operators, attaches direction phases from a magnetic
potential to form commuting shift involutions, combines them with a coin
operator system into the unitary evolution operator, simulates the
discrete-time dynamics, and verifies numerically that the spectrum equals
the union of the per-vertex signed coin-sum spectra and does not depend on
the potential.

The package re-exports the ``__all__`` of each layer module.
"""

from . import coin, fock, magnetic, spectra, walk
from .coin import *  # noqa: F403
from .fock import *  # noqa: F403
from .magnetic import *  # noqa: F403
from .spectra import *  # noqa: F403
from .walk import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for layer in (coin, fock, magnetic, spectra, walk) for name in layer.__all__]
