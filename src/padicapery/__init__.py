"""Exact approximant tables and p-adic irrationality certificates.

The package computes, in exact rational arithmetic, the Apery-style
approximant sequences attached to 2-adic and 3-adic zeta values and to
the 2-adic Catalan constant, evaluates the target limits independently
as values of p-adic L-functions (Washington's series, cross-checked by
p-adic interpolation of classical L-values), and checks a finite-range
irrationality criterion that compares the two.
"""

from .curves import CaseConfig, FAMILIES, IdentityError, catalog, run_canaries
from .diophantine import (
    Certificate,
    CertificationReport,
    criterion_check,
    slope_empirical,
    theta_closed,
)
from .exactnum import INFINITY, log_size, padic_digits, vp
from .expansion import (
    SequenceRow,
    SequenceTable,
    reexpand,
    sequences,
)
from .oracle import (
    OracleInconsistency,
    PadicValue,
    catalan_2adic_oracle,
    zeta_p_oracle,
)
from .qseries import ProductRecipe, QSeries, expand_product
from .recurrence import (
    RecurrenceSpec,
    catalan_recurrence,
    extend_integers,
    fit_recurrence,
    verify_recurrence,
)

__version__ = "0.1.0"

__all__ = [
    "CaseConfig",
    "Certificate",
    "CertificationReport",
    "FAMILIES",
    "INFINITY",
    "IdentityError",
    "OracleInconsistency",
    "PadicValue",
    "ProductRecipe",
    "QSeries",
    "RecurrenceSpec",
    "SequenceRow",
    "SequenceTable",
    "catalan_2adic_oracle",
    "catalan_recurrence",
    "catalog",
    "criterion_check",
    "expand_product",
    "extend_integers",
    "fit_recurrence",
    "log_size",
    "padic_digits",
    "reexpand",
    "run_canaries",
    "sequences",
    "slope_empirical",
    "theta_closed",
    "verify_recurrence",
    "vp",
    "zeta_p_oracle",
]
