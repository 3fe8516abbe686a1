"""Arithmetic of [x]_q = (q^x - 1)/(q - 1) over ramified p-adic fields.

The package computes the q-deformed bracket on the closed unit disk,
locates its nontrivial fixed points by Newton polygon counting plus
Hensel lifting, and ships a harness that re-verifies the structural
facts the solver relies on (``qbracket.harness``, or ``qbracket verify``
from the shell).

Layers, lowest first:

- ``core``:     exact arithmetic in Q_p(pi), pi^e = p, and in its
                unramified extensions of degree f, with explicit
                precision bookkeeping on every value
- ``analytic``: exp/log/q-power, the bracket, and truncated series with
                certified tail bounds
- ``polygon``:  Newton polygons and unit-disk zero counting
- ``solver``:   fixed points for a given q, parameters q for a given x,
                local inverse maps, multiplicities
- ``harness``:  seeded re-verification suites with JSON reports
- ``cli``:      the ``qbracket`` command
"""

# republishing the layers' public interfaces is the use of wildcard
# imports that PEP 8 allows; each layer's __all__ is the one list of its names
from .errors import *
from .core import *
from .analytic import *
from .polygon import *
from .solver import *
from .harness import *
from . import analytic, core, errors, harness, polygon, solver

__version__ = "0.1.0"

__all__ = sorted(errors.__all__ + core.__all__ + analytic.__all__
                 + polygon.__all__ + solver.__all__ + harness.__all__)
