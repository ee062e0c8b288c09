"""Critical temperatures of the BCS model on the line and half-line.

The package discretizes the momentum-space Birman-Schwinger operator of
the model with a delta interaction, solves the implicit equations for
the bulk and half-line critical temperatures (Dirichlet or Neumann
boundary), and ships a verification harness for the kernel inequalities
and asymptotics the construction rests on.
"""

from . import bs_operator, critical_temperature, errors, kernels
from . import lemma_suite, quadrature, variational
from .errors import *
from .bs_operator import *
from .critical_temperature import *
from .kernels import *
from .lemma_suite import *
from .quadrature import *
from .variational import *

__version__ = "0.7.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *kernels.__all__,
    *quadrature.__all__,
    *bs_operator.__all__,
    *critical_temperature.__all__,
    *variational.__all__,
    *lemma_suite.__all__,
]
