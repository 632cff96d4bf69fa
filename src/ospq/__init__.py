"""Exact symbolic verification of a quantum deformation of the
orthosymplectic supergroup: classical r-matrices, the 9x9 R-matrix and braid
identities, the deformed function algebra with its Hopf structure, and the
dual Borel series side.  Everything is exact over Q(sqrt2)[p]; there is no
floating point anywhere.
"""

from .scalars import Scalar, rat, P, HALF, SQRT2
from .freealg import GradedAlphabet, SuperPoly, TensorElement
from .rewrite import RewriteSystem, complete, orient, span_equal, span_contains
from .supermatrix import (SuperMatrix, kron, exp_nilpotent, invert_unipotent,
                          partial_transpose_first, supertranspose3, desuperize,
                          ybe_check)
from .borel import (BorelSeries, ExactBorel, ExactBorelTensor, AnsatzFunctions,
                    DEFAULT_TRUNCATION)

__version__ = "0.1.0"

__all__ = [
    "Scalar", "rat", "P", "HALF", "SQRT2",
    "GradedAlphabet", "SuperPoly", "TensorElement",
    "RewriteSystem", "complete", "orient", "span_equal", "span_contains",
    "SuperMatrix", "kron", "exp_nilpotent", "invert_unipotent",
    "partial_transpose_first", "supertranspose3", "desuperize", "ybe_check",
    "BorelSeries", "ExactBorel", "ExactBorelTensor", "AnsatzFunctions",
    "DEFAULT_TRUNCATION",
]
