"""Run one traced padicapery CLI op in this process.

    python perfbench/launcher.py SPANS_OUT SPAWNED_AT CLI_ARG...

Wraps the pipeline's public functions from outside, calls
``padicapery.cli.main(argv)``, writes the spans and counters as JSON to
SPANS_OUT and exits with the CLI's exit code.  SPAWNED_AT is the monotonic
time at which the benchmark spawned this process, so interpreter start-up is
a span too.  The package itself is not modified.
"""

from __future__ import annotations

import sys

from spans import Tracer, now

# importlib, inspect and json are imported only after the "setup.import" span,
# so that span costs what importing padicapery.cli costs a plain CLI run.


def _on_reexpand(tracer, arguments, result):
    h, f = arguments["h"], arguments["f"]
    tracer.count("expansion.reexpand_calls")
    tracer.count("expansion.reexpand_prec", min(h.prec, f.prec))
    tracer.count("expansion.reexpand_rows", len(result))
    bits = max(
        max(abs(c.numerator).bit_length(), c.denominator.bit_length())
        for c in h.coeffs + f.coeffs
    )
    tracer.peak("expansion.operand_bits_max", bits)


def _on_oracle(tracer, arguments, result):
    tracer.count("oracle.bits_requested", arguments["target_bits"])
    tracer.count("oracle.bits_achieved", result.agreement_exponent)


def _on_criterion(tracer, arguments, result):
    certs = result.certificates
    tracer.count("diophantine.certified_rows", sum(c.certified for c in certs))
    # With an oracle present, a row is uncertified only when its gap reached
    # the oracle's agreement exponent.
    tracer.count(
        "diophantine.oracle_bound_rows",
        sum(not c.certified and c.oracle_exponent is not None for c in certs),
    )


_CLI = "padicapery.cli"
_QSERIES = "padicapery.qseries:QSeries"

# (span name, or None for a counter only; [(module, attribute), ...]; hook).
# A name imported with ``from .x import name`` is bound at import, so its
# wrapper goes on the importing module; a name looked up through its module at
# call time is wrapped where it is defined.
WRAPS = (
    ("expansion.sequences", [(_CLI, "sequences")], None),
    ("expansion.reexpand", [("padicapery.expansion", "reexpand")], _on_reexpand),
    ("curves.canary", [("padicapery.curves", "run_canaries")], None),
    ("curves.uniformizer", [("padicapery.curves", "uniformizer_series")], None),
    (
        "eisenstein.series",
        [
            ("padicapery.eisenstein", name)
            for name in ("series_e_star", "series_e_prime", "series_f", "series_f_prime")
        ]
        + [("padicapery.curves", "series_e_star"), ("padicapery.curves", "series_f")]
        + [
            (_CLI, name)
            for name in ("series_e", "series_e_star", "series_e_prime", "series_evil", "series_f", "series_f_prime")
        ],
        None,
    ),
    ("qseries.mul", [(_QSERIES, "__mul__"), (_QSERIES, "__rmul__")], None),
    ("oracle.eval", [(_CLI, "zeta_p_oracle"), (_CLI, "catalan_2adic_oracle")], _on_oracle),
    (
        "oracle.node",
        [("padicapery.oracle", "zeta_star"), ("padicapery.oracle", "l_chi4_neg")],
        lambda tracer, arguments, result: tracer.count("oracle.nodes"),
    ),
    (
        None,
        [("padicapery.eisenstein", "bernoulli")],
        lambda tracer, arguments, result: tracer.peak("eisenstein.bernoulli_max_index", arguments["n"]),
    ),
    (
        None,
        [("padicapery.eisenstein", "euler_number")],
        lambda tracer, arguments, result: tracer.peak("eisenstein.euler_max_index", arguments["n"]),
    ),
    ("diophantine.criterion", [(_CLI, "criterion_check")], _on_criterion),
    ("recurrence.verify", [("padicapery.recurrence", "verify_recurrence")], None),
    ("recurrence.fit", [("padicapery.recurrence", "fit_recurrence")], None),
)


def _wrap(tracer: Tracer, owner, attr: str, span, hook) -> None:
    import inspect

    original = getattr(owner, attr)
    signature = inspect.signature(original) if hook is not None else None

    def wrapper(*args, **kwargs):
        index = tracer.open(span) if span else None
        try:
            result = original(*args, **kwargs)
        finally:
            if index is not None:
                tracer.close(index)
        if hook is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(tracer, bound.arguments, result)
        return result

    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every site in WRAPS.  A site the package no longer has is counted
    in ``trace.missing_sites`` rather than failing the op."""
    import importlib

    for span, sites, hook in WRAPS:
        for path, attr in sites:
            module, _, cls = path.partition(":")
            owner = importlib.import_module(module)
            owner = getattr(owner, cls, None) if cls else owner
            if callable(getattr(owner, attr, None)):
                _wrap(tracer, owner, attr, span, hook)
            else:
                tracer.count("trace.missing_sites")


def main() -> int:
    entered = now()
    out_path, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.add("setup.start", spawned, entered)
    index = tracer.open("setup.import")
    import padicapery.cli as cli

    tracer.close(index)
    install(tracer)
    index = tracer.open("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.close(index)
        import json

        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, handle)


if __name__ == "__main__":
    sys.exit(main())
