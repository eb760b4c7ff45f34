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

import argparse
import gc
import sys

# json is imported inside the writers that emit it, so CSV, plain and series
# runs do not pay for its import.

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
from .oracle import OracleInconsistency, catalan_2adic_oracle, zeta_p_oracle

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
# --case zeta-p5 -k 10 -n 256 --window 3 255 --bits 2048`, about 9 s in a fresh
# process on a 2-vCPU Xeon (8.2 s at -n 64 --window 3 63), nearly all of it
# the oracle: its Newton check at n = 10, where t = 1 would put -20 in the pole
# class, so M = 100 and the nodes reach weight 3680, takes about 6 s, and the
# p = 5 series at 2048 digits (100 units at F = 125 modulo 5^2068) about 2.5 s.
# Terms cost less: at 256 of them, `certify --case zeta-p2 -k 16 --bits 2048`
# takes 2.3-3.9 s and `sequences --case zeta-p2 -k 16` 1.4-1.9 s, both by
# re-expansion (k >= 3 has no recurrence), and `recurrence fit --case zeta-p2
# -k 2` 1.6-2.1 s, mostly re-expansion: exact elimination on the first 36 of
# its 253 equations in 33 unknowns, then a check of the rest.
_MAX_BITS = 2048
_MAX_INDEX = 16
_MAX_TERMS = 256
# --weight reaches the even weights 2k and the odd weights 2k + 1 of the -k cap.
_MAX_WEIGHT = 2 * _MAX_INDEX + 1


def _real(value: float) -> str:
    return format(value, ".10f")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


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


def _cmd_series(parser, args) -> int:
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
        if takes_weight:
            _check_size(parser, "--weight", args.weight, _MAX_WEIGHT)
        try:
            series = build(args.p, args.weight, prec)
        except ValueError as exc:
            parser.error(str(exc))
    lines = [f"{n} {series[n]}" for n in range(series.prec)]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


_TABLE_HEADER = ("n", "a_num", "a_den", "b", "p_n", "q_n")


def _table_rows(table):
    """One tuple per row in _TABLE_HEADER order; p_n and q_n are None where
    b_n = 0."""
    return [
        (row.n, str(row.a.numerator), str(row.a.denominator), str(row.b))
        + ((None, None) if row.degenerate else (str(row.p_n), str(row.q_n)))
        for row in table.rows
    ]


def _cmd_sequences(parser, args) -> int:
    _check_size(parser, "-n", args.count, _MAX_TERMS)
    config = _resolve_case(parser, args.case, args.k)
    rows = _table_rows(sequences(config, args.count))
    if args.format == "json":
        import json

        records = [dict(zip(_TABLE_HEADER, row)) for row in rows]
        text = json.dumps(records, sort_keys=True, indent=2) + "\n"
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
    _emit(text, args.output)
    return 0


def _evaluate_oracle(family: curves.Family, n: int, bits: int):
    """The family's p-adic limit at index n, through its oracle target.

    A limit certified to fewer p-adic digits than requested is reported on
    stderr; stdout is unchanged.
    """
    if family.oracle == "catalan":
        value = catalan_2adic_oracle(bits)
    else:
        value = zeta_p_oracle(family.p, n, bits)
    if value.agreement_exponent < bits:
        print(
            f"oracle: certified {value.agreement_exponent} of {bits} "
            f"requested digits (p = {value.p})",
            file=sys.stderr,
        )
    return value


def _cmd_certify(parser, args) -> int:
    window = tuple(args.window)
    if window[0] < 0 or window[1] < window[0]:
        parser.error("--window needs 0 <= LO <= HI")
    _check_size(parser, "-n", args.count, _MAX_TERMS)
    _check_size(parser, "--window rows", window[1] + 1, _MAX_TERMS)
    count = max(args.count, window[1] + 1)
    _check_size(parser, "--bits", args.bits, _MAX_BITS)
    config = _resolve_case(parser, args.case, args.k)
    # theta needs the growth exponent of the family's k = 1 relation; a
    # relation that fixes none fails here, before the table and the oracle.
    config.family.e
    table = sequences(config, count)
    eta = _evaluate_oracle(config.family, config.k, args.bits)
    report = criterion_check(config, table, eta, window=window)
    import json

    lines = []
    for cert in report.certificates:
        lines.append(
            json.dumps(
                {
                    "case": cert.case_id,
                    "certified": cert.certified,
                    "implied_exponent": _real(cert.implied_exponent),
                    "log_max_size": _real(cert.log_max_size),
                    "n": cert.n,
                    "p_n": str(cert.p_n),
                    "q_n": str(cert.q_n),
                    "sign": cert.sign,
                    "theta_closed": _real(report.theta_closed),
                    "valuation_gap": cert.valuation_gap,
                },
                sort_keys=True,
            )
        )
    lines.append(
        json.dumps(
            {
                "case": report.case_id,
                "certified_rows": report.certified_rows,
                "oracle_bits": eta.agreement_exponent,
                "rows": len(report.certificates),
                "sign": report.sign,
                "theta_closed": _real(report.theta_closed),
                "theta_required": _real(THETA_REQUIRED),
                "verdict": report.verdict,
            },
            sort_keys=True,
        )
    )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_oracle(parser, args) -> int:
    _check_size(parser, "--bits", args.bits, _MAX_BITS)
    _check_size(parser, "--digits", args.digits, _MAX_BITS)
    family = _ORACLE_FAMILIES[args.target]
    if family.fixed_k and args.n != 1:
        parser.error("the Catalan oracle is defined for n = 1 only")
    _check_size(parser, "-n", args.n, _MAX_INDEX)
    value = _evaluate_oracle(family, args.n, args.bits)
    import json

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
    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return 0


def _cmd_recurrence(parser, args) -> int:
    _check_size(parser, "-n", args.count, _MAX_TERMS)
    if args.count < 6:
        parser.error("-n must be at least 6 for a meaningful check")
    config = _resolve_case(parser, args.case, args.k)
    spec = config.family.recurrence.get(config.k)
    if spec is None:
        parser.error(f"{config.case_id} has no built-in recurrence")
    # The reference path: a relation is never checked against its own output.
    b_list, a_list = reexpanded_columns(config, args.count)
    if args.action == "verify":
        checked = recurrence.column_violations(spec, b_list, a_list)
        payload = {
            "case": config.case_id,
            "coeff_polys": [list(poly) for poly in spec.coeff_polys],
            "degree": spec.degree,
            "order": spec.order,
        }
        for column, (start, violations) in checked.items():
            payload[f"range_{column}"] = [start, args.count - 2]
            payload[f"violations_{column}"] = len(violations)
        code = 1 if any(violations for _, violations in checked.values()) else 0
    else:
        try:
            fitted = recurrence.fit_recurrence(b_list, spec.order, spec.degree)
        except ValueError as exc:
            parser.error(f"-n {args.count}: {exc}")
        payload = {
            "case": config.case_id,
            "coeff_polys": [list(poly) for poly in fitted.coeff_polys],
            "degree": fitted.degree,
            "matches_builtin": fitted == spec,
            "order": fitted.order,
            "source": "b",
        }
        code = 0 if fitted == spec else 1
    import json

    _emit(json.dumps(payload, sort_keys=True, indent=2) + "\n", args.output)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_series.add_argument("-o", "--output")
    p_series.set_defaults(func=_cmd_series)

    p_seq = sub.add_parser("sequences", help="compute an approximant table")
    p_seq.add_argument("--case", choices=curves.FAMILIES, required=True)
    p_seq.add_argument("-k", type=int, default=1)
    p_seq.add_argument("-n", "--count", type=int, default=8)
    p_seq.add_argument("--format", choices=("csv", "json", "plain"), default="csv")
    p_seq.add_argument("-o", "--output")
    p_seq.set_defaults(func=_cmd_sequences)

    p_cert = sub.add_parser("certify", help="run the irrationality criterion")
    p_cert.add_argument("--case", choices=curves.FAMILIES, required=True)
    p_cert.add_argument("-k", type=int, default=1)
    p_cert.add_argument("-n", "--count", type=int, default=12)
    p_cert.add_argument("--bits", type=int, default=40)
    p_cert.add_argument(
        "--window", type=int, nargs=2, default=list(DEFAULT_WINDOW), metavar=("LO", "HI")
    )
    p_cert.add_argument("-o", "--output")
    p_cert.set_defaults(func=_cmd_certify)

    p_oracle = sub.add_parser("oracle", help="evaluate a p-adic limit")
    p_oracle.add_argument("--target", choices=tuple(_ORACLE_FAMILIES), required=True)
    p_oracle.add_argument("-n", type=int, default=1)
    p_oracle.add_argument("--bits", type=int, default=40)
    p_oracle.add_argument("--digits", type=int, default=10)
    p_oracle.add_argument("-o", "--output")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_rec = sub.add_parser("recurrence", help="verify or refit the recurrence")
    p_rec.add_argument("action", choices=("verify", "fit"))
    p_rec.add_argument("--case", choices=curves.FAMILIES, default="catalan-p2")
    p_rec.add_argument("-k", type=int, default=1)
    p_rec.add_argument("-n", "--count", type=int, default=26)
    p_rec.add_argument("-o", "--output")
    p_rec.set_defaults(func=_cmd_recurrence)
    return parser


def main(argv=None) -> int:
    # Table entries and oracle representatives outgrow Python's default
    # 4300-digit limit on int -> str (3.11+, backported to 3.10.7), which
    # would end a finished computation in a traceback when printed.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(parser, args)
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
        # free the import-time object graph (classes, functions and module
        # dicts sit in cycles) one object at a time: about 12 ms, more than a
        # small table costs.  The collector skips frozen objects, which the
        # operating system reclaims with the process.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
