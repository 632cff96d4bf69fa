"""Exact symbolic verification of a quantum deformation of the
orthosymplectic supergroup: classical r-matrices, the 9x9 R-matrix and braid
identities, the deformed function algebra with its Hopf structure, and the
dual Borel series side.  Everything is exact over Q(sqrt2)[p]; there is no
floating point anywhere.

The names below resolve from their modules on first access (PEP 562), so
importing the package loads none of its modules until one of them is used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "scalars": ("Scalar", "rat", "P", "HALF", "SQRT2"),
    "freealg": ("GradedAlphabet", "SuperPoly", "TensorElement"),
    "rewrite": ("RewriteSystem", "complete", "orient", "span_equal", "span_contains"),
    "supermatrix": ("SuperMatrix", "kron", "exp_nilpotent", "invert_unipotent",
                    "partial_transpose_first", "supertranspose3", "desuperize",
                    "ybe_check"),
    "borel": ("BorelSeries", "AnsatzFunctions", "DEFAULT_TRUNCATION"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
