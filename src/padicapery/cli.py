"""Command-line interface.

Subcommands:

* ``series``: print q-expansion coefficients of an Eisenstein-type series
  (by form and weight) or of a case uniformizer.
* ``sequences``: compute the approximant table of a case and write it as
  CSV, JSON, or plain text.
* ``certify``: run the finite-range irrationality criterion for a case
  against the p-adic oracle and emit JSONL certificates plus a summary.
* ``oracle``: evaluate a p-adic limit directly and print its certified
  representative and leading digits.
* ``recurrence``: verify a case's built-in recurrence against tables
  computed by re-expansion alone, or refit it from scratch.

All JSON output is emitted with sorted keys so repeated runs are byte
identical.  Big integers are serialized as decimal strings; real numbers
are fixed to ten decimal places.
"""

from __future__ import annotations

# The package's own modules load before the standard library's, `oracle`
# first.  Without a bytecode cache every run compiles each module, and a
# module compiled after argparse and the dataclasses -> inspect chain (pulled
# in by `recurrence`) have loaded leaves its compiler memory resident, while
# one compiled right after this module reuses the space this module's own
# compile freed: each run peaks 0.11-0.13 MB lower.  With a cache the order
# makes no difference.
from .oracle import OracleInconsistency, catalan_2adic_oracle, zeta_p_oracle
from . import curves, recurrence
from .diophantine import DEFAULT_WINDOW, THETA_REQUIRED, criterion_check
from .eisenstein import (
    series_e,
    series_e_prime,
    series_e_star,
    series_evil,
    series_f,
    series_f_prime,
)
from .expansion import reexpanded_columns, sequences

import argparse
import gc
import os
import sys

_ORACLE_FAMILIES = {family.oracle: family for family in curves.FAMILY_TABLE.values()}
# form -> (takes --p, takes --weight, builder(p, weight, prec))
_FORMS = {
    "e": (False, True, lambda p, weight, prec: series_e(weight, prec)),
    "e-star": (True, True, lambda p, weight, prec: series_e_star(p, weight, prec)),
    "e-prime": (True, True, lambda p, weight, prec: series_e_prime(p, weight, prec)),
    "evil": (True, True, lambda p, weight, prec: series_evil(p, weight, prec)),
    "f": (False, True, lambda p, weight, prec: series_f(weight, prec)),
    "f-prime": (False, False, lambda p, weight, prec: series_f_prime(prec)),
}
# Caps on the size arguments.  The slowest op inside all of them is `certify
# --case zeta-p5 -k 10 -n 256 --window 3 255 --bits 2048`, 2.5-3.3 s in fresh
# processes on a 2-vCPU Xeon (2.7-3.4 s at k = 13 and k = 16): the two p = 5
# series at 2048 digits (at F = 25 and F = 125) take about 1.8 s, the table
# 0.8 s and the Newton check at n = 10 (M = 100, nodes to weight 1580) 0.2 s.
# Terms cost less: at 256 of them, `certify --case zeta-p2 -k 16 --window 3 255
# --bits 2048` and `sequences --case zeta-p2 -k 16` take about 1 s, both by
# re-expansion (k >= 3 has no recurrence), and `recurrence fit --case zeta-p2
# -k 2` about 0.5 s, mostly re-expansion: its 253 equations in 33 unknowns cut
# the solutions, fraction-free in integers, one equation at a time (50 ms).
# `series --form e-prime --p 65521 --weight 32 --prec 256` takes 0.1 s, as at
# p = 2; checking p by trial division takes 10 us there, about a minute at 10**18.
_MAX_BITS = 2048
_MAX_INDEX = 16
_MAX_PRIME = 2**16
_MAX_TERMS = 256
# --weight reaches the even weights 2k and the odd weights 2k + 1 of the -k cap.
_MAX_WEIGHT = 2 * _MAX_INDEX + 1


def _real(value: float) -> str:
    return format(value, ".10f")


def _json(value, indent=2) -> str:
    """value as sorted-key JSON and a newline."""
    # Imported here, so CSV, plain and series runs do not pay for it.
    import json

    return json.dumps(value, sort_keys=True, indent=indent) + "\n"


def _resolve_case(parser: argparse.ArgumentParser, family: str, k: int):
    if k > _MAX_INDEX:
        parser.error(f"-k {k} exceeds the cap of {_MAX_INDEX}")
    try:
        return curves.catalog(family, k)
    except ValueError as exc:
        parser.error(str(exc))


def _check_size(parser: argparse.ArgumentParser, flag: str, value: int, cap: int) -> None:
    if value < 1:
        parser.error(f"{flag} must be positive")
    if value > cap:
        parser.error(f"{flag} {value} exceeds the cap of {cap}")


def _cmd_series(parser, args) -> tuple[str, int]:
    if (args.form is None) == (args.case is None):
        parser.error("exactly one of --form and --case is required")
    prec = args.prec
    _check_size(parser, "--prec", prec, _MAX_TERMS)
    if args.case is not None:
        if args.p is not None or args.weight is not None:
            parser.error("--p and --weight do not apply to --case")
        series = curves.uniformizer_series(curves.catalog(args.case), prec)
    else:
        takes_p, takes_weight, build = _FORMS[args.form]
        for flag, value, takes in (
            ("--p", args.p, takes_p),
            ("--weight", args.weight, takes_weight),
        ):
            if takes and value is None:
                parser.error(f"{flag} is required for form {args.form}")
            if not takes and value is not None:
                parser.error(f"{flag} does not apply to form {args.form}")
        # Only the upper bound: the builder rejects p < 2 and composite p.
        if takes_p and args.p > _MAX_PRIME:
            parser.error(f"--p {args.p} exceeds the cap of {_MAX_PRIME}")
        if takes_weight:
            _check_size(parser, "--weight", args.weight, _MAX_WEIGHT)
        try:
            series = build(args.p, args.weight, prec)
        except ValueError as exc:
            parser.error(str(exc))
    lines = [f"{n} {series[n]}" for n in range(series.prec)]
    return "\n".join(lines) + "\n", 0


_TABLE_HEADER = ("n", "a_num", "a_den", "b", "p_n", "q_n")


def _table_rows(table):
    """One tuple per row in _TABLE_HEADER order; p_n and q_n are None where
    b_n = 0."""
    ratios = (None if b == 0 else table.ratio(n) for n, b in enumerate(table.b))
    return [
        (n, str(a.numerator), str(a.denominator), str(b))
        + ((None, None) if ratio is None else (str(ratio.numerator), str(ratio.denominator)))
        for n, (a, b, ratio) in enumerate(zip(table.a, table.b, ratios))
    ]


def _cmd_sequences(parser, args) -> tuple[str, int]:
    _check_size(parser, "-n", args.count, _MAX_TERMS)
    config = _resolve_case(parser, args.case, args.k)
    rows = _table_rows(sequences(config, args.count))
    if args.format == "json":
        text = _json([dict(zip(_TABLE_HEADER, row)) for row in rows])
    elif args.format == "csv":
        # Every field is a decimal integer or empty, so nothing needs quoting.
        lines = [",".join(_TABLE_HEADER)]
        lines += [",".join("" if f is None else str(f) for f in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = "".join(
            f"{n} a={a_num}/{a_den} b={b} p/q={p_n or ''}/{q_n or ''}\n"
            for n, a_num, a_den, b, p_n, q_n in rows
        )
    return text, 0


def _evaluate_oracle(family: curves.Family, n: int, bits: int):
    """The family's p-adic limit at index n, through its oracle target."""
    if family.oracle == "catalan":
        return catalan_2adic_oracle(bits)
    return zeta_p_oracle(family.p, n, bits)


def _cmd_certify(parser, args) -> tuple[str, int]:
    window = tuple(args.window)
    if window[0] < 0 or window[1] < window[0]:
        parser.error("--window needs 0 <= LO <= HI")
    # -n is checked but not read: the report needs rows 0..HI only.
    _check_size(parser, "-n", args.count, _MAX_TERMS)
    _check_size(parser, "--window rows", window[1] + 1, _MAX_TERMS)
    _check_size(parser, "--bits", args.bits, _MAX_BITS)
    config = _resolve_case(parser, args.case, args.k)
    table = sequences(config, window[1] + 1)
    eta = _evaluate_oracle(config.family, config.k, args.bits)
    report = criterion_check(table, eta, window=window)
    shared = {
        "case": report.case_id,
        "sign": report.sign,
        "theta_closed": _real(report.theta_closed),
    }
    records = [
        {
            **shared,
            "certified": cert.certified,
            "implied_exponent": _real(cert.implied_exponent),
            "log_max_size": _real(cert.log_max_size),
            "n": cert.n,
            "p_n": str(cert.p_n),
            "q_n": str(cert.q_n),
            "valuation_gap": cert.valuation_gap,
        }
        for cert in report.certificates
    ]
    records.append(
        {
            **shared,
            "certified_rows": report.certified_rows,
            "oracle_bits": eta.agreement_exponent,
            "rows": len(report.certificates),
            "theta_required": _real(THETA_REQUIRED),
            "verdict": report.verdict,
        }
    )
    return "".join(_json(record, indent=None) for record in records), 0


def _cmd_oracle(parser, args) -> tuple[str, int]:
    _check_size(parser, "--bits", args.bits, _MAX_BITS)
    _check_size(parser, "--digits", args.digits, _MAX_BITS)
    family = _ORACLE_FAMILIES[args.target]
    if family.fixed_k and args.n != 1:
        parser.error("the Catalan oracle is defined for n = 1 only")
    _check_size(parser, "-n", args.n, _MAX_INDEX)
    value = _evaluate_oracle(family, args.n, args.bits)
    payload = {
        "agreement_exponent": value.agreement_exponent,
        "digits": [[exponent, digit] for exponent, digit in value.digits(args.digits)],
        "p": value.p,
        "representative": {
            "den": str(value.representative.denominator),
            "num": str(value.representative.numerator),
        },
        "target": args.target,
    }
    return _json(payload), 0


def _cmd_recurrence(parser, args) -> tuple[str, int]:
    _check_size(parser, "-n", args.count, _MAX_TERMS)
    if args.count < 6:
        parser.error("-n must be at least 6 for a meaningful check")
    config = _resolve_case(parser, args.case, args.k)
    spec = config.family.recurrence.get(config.k)
    if spec is None:
        parser.error(f"{config.case_id} has no built-in recurrence")
    # The reference path: a relation is never checked against its own output.
    table = reexpanded_columns(config, args.count)
    if args.action == "verify":
        reported = spec
        checked = recurrence.column_violations(spec, table.b, table.a)
        payload = {}
        for column, (start, violations) in checked.items():
            payload[f"range_{column}"] = [start, args.count - 2]
            payload[f"violations_{column}"] = len(violations)
        code = 1 if any(violations for _, violations in checked.values()) else 0
    else:
        try:
            reported = recurrence.fit_recurrence(table.b, spec.order, spec.degree)
        except ValueError as exc:
            parser.error(f"-n {args.count}: {exc}")
        payload = {"matches_builtin": reported == spec, "source": "b"}
        code = 0 if reported == spec else 1
    payload.update(
        case=config.case_id,
        coeff_polys=[list(poly) for poly in reported.coeff_polys],
        degree=reported.degree,
        order=reported.order,
    )
    return _json(payload), code


class _Parser(argparse.ArgumentParser):
    """argparse drops an OSError raised while it writes help; this writes
    help itself, so a help text that stdout cannot take reaches main."""

    def print_help(self, file=None):
        (file or sys.stdout).write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padicapery",
        description="Exact approximant tables and p-adic irrationality "
        "certificates for zeta and Catalan limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_series = sub.add_parser("series", help="print q-expansion coefficients")
    p_series.add_argument("--form", choices=_FORMS)
    p_series.add_argument("--case", choices=curves.FAMILIES)
    p_series.add_argument("--weight", type=int)
    p_series.add_argument("--p", type=int)
    p_series.add_argument("--prec", type=int, default=8)

    p_seq = sub.add_parser("sequences", help="compute an approximant table")
    p_seq.add_argument("--case", choices=curves.FAMILIES, required=True)
    p_seq.add_argument("-k", type=int, default=1)
    p_seq.add_argument("-n", "--count", type=int, default=8)
    p_seq.add_argument("--format", choices=("csv", "json", "plain"), default="csv")

    p_cert = sub.add_parser("certify", help="run the irrationality criterion")
    p_cert.add_argument("--case", choices=curves.FAMILIES, required=True)
    p_cert.add_argument("-k", type=int, default=1)
    p_cert.add_argument("-n", "--count", type=int, default=12)
    p_cert.add_argument("--bits", type=int, default=40)
    p_cert.add_argument(
        "--window", type=int, nargs=2, default=list(DEFAULT_WINDOW), metavar=("LO", "HI")
    )

    p_oracle = sub.add_parser("oracle", help="evaluate a p-adic limit")
    p_oracle.add_argument("--target", choices=tuple(_ORACLE_FAMILIES), required=True)
    p_oracle.add_argument("-n", type=int, default=1)
    p_oracle.add_argument("--bits", type=int, default=40)
    p_oracle.add_argument("--digits", type=int, default=10)

    p_rec = sub.add_parser("recurrence", help="verify or refit the recurrence")
    p_rec.add_argument("action", choices=("verify", "fit"))
    p_rec.add_argument("--case", choices=curves.FAMILIES, default="catalan-p2")
    p_rec.add_argument("-k", type=int, default=1)
    p_rec.add_argument("-n", "--count", type=int, default=26)

    # -o comes last in every subcommand, so its usage and help end with it.
    for command, handler in zip(
        (p_series, p_seq, p_cert, p_oracle, p_rec),
        (_cmd_series, _cmd_sequences, _cmd_certify, _cmd_oracle, _cmd_recurrence),
    ):
        command.add_argument("-o", "--output")
        command.set_defaults(func=handler, parser=command)
    return parser


def main(argv=None) -> int:
    # Table entries and oracle representatives outgrow Python's default
    # 4300-digit limit on int -> str (3.11+, backported to 3.10.7), which
    # would end a finished computation in a traceback when printed.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        try:
            args = build_parser().parse_args(argv)
            # Handlers report usage errors through their own subcommand's parser.
            text, code = args.func(args.parser, args)
            if args.output is None:
                sys.stdout.write(text)
            else:
                with open(args.output, "w", encoding="utf-8") as handle:
                    handle.write(text)
            return code
        finally:
            # Flushed here, --help's output too, so a full stdout takes the
            # i/o error branch.  What it cannot take is dropped (the SIGPIPE
            # recipe of the signal module's docs), so exit does not fail on
            # it a second time.
            try:
                sys.stdout.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                raise
    except curves.IdentityError as exc:
        print(f"identity check failed: {exc}", file=sys.stderr)
        return 1
    except OracleInconsistency as exc:
        print(f"oracle inconsistency: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    finally:
        # At exit CPython clears sys.modules and runs full collections that
        # free the import-time graph (classes, functions and module dicts sit
        # in cycles) one object at a time: `sequences -n 64` took 84 ms, and
        # 72 ms frozen (medians of 30 fresh-process pairs, 2-vCPU host, Python
        # 3.11).  The collector skips frozen objects; process exit frees them.
        gc.freeze()
