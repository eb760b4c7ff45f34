"""Exact approximant tables and p-adic irrationality certificates.

The package computes, in exact rational arithmetic, the Apery-style
approximant sequences attached to the 2-, 3- and 5-adic zeta values and to
the 2-adic Catalan constant, evaluates the target limits independently
as values of p-adic L-functions (Washington's series, cross-checked by
p-adic interpolation of classical L-values), and checks a finite-range
irrationality criterion that compares the two.
"""

from .curves import FAMILIES, IdentityError, catalog
from .diophantine import criterion_check
from .expansion import sequences
from .oracle import OracleInconsistency, catalan_2adic_oracle, zeta_p_oracle

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "IdentityError",
    "OracleInconsistency",
    "catalan_2adic_oracle",
    "catalog",
    "criterion_check",
    "sequences",
    "zeta_p_oracle",
]
