"""Exact approximant tables and p-adic irrationality certificates.

The package computes, in exact rational arithmetic, the Apery-style
approximant sequences attached to the 2-, 3- and 5-adic zeta values and to
the 2-adic Catalan constant, evaluates the target limits independently
as values of p-adic L-functions (Washington's series, cross-checked by
p-adic interpolation of classical L-values), and checks a finite-range
irrationality criterion that compares the two.

The eight names in ``__all__`` resolve on first use, as do the submodules,
so ``import padicapery.<module>`` loads only that module and its imports.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the submodule that defines it, imported on first
# access (PEP 562) and then cached here; other names try a submodule.
_HOMES = {
    "FAMILIES": "curves", "IdentityError": "curves",
    "OracleInconsistency": "oracle", "catalan_2adic_oracle": "oracle",
    "catalog": "curves", "criterion_check": "diophantine",
    "sequences": "expansion", "zeta_p_oracle": "oracle",
}
__all__ = list(_HOMES)


def __getattr__(name):
    try:
        module = importlib.import_module(f"{__name__}.{_HOMES.get(name, name)}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":
            raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value = getattr(module, name) if name in _HOMES else module
    return value
