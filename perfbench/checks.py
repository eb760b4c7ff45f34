"""Output checks for the benchmark's ops, against references recorded once at
commit a04f217 (the first commit the benchmark measured).

- ``series`` and ``sequences``: the output bytes must hash to the recorded
  sha256.
- ``certify``: the summary verdict must be the expected one and the summary
  must agree with its certificate lines.  Checked by meaning, not bytes, so
  that additive summary keys do not count as failures.
- ``oracle``: the representative must agree p-adically with the recorded one
  to min(achieved, recorded achieved) digits, so another strategy may return
  another representative but may not contradict the recorded one.
- ``recurrence``: no violations, and a refit that matches the built-in
  recurrence.

Any op also fails on a nonzero exit code or a traceback on stderr.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text(encoding="utf-8"))


def vp(x: Fraction, p: int) -> float:
    """p-adic valuation of a rational, infinite at zero."""
    if x == 0:
        return float("inf")
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def check(op: str, code: int, stdout: bytes, stderr: bytes, written: bytes | None = None) -> tuple[str | None, int]:
    """Return (failure reason or None, rows delivered) for one op run.

    ``written`` is the content of the op's ``-o`` file, when it has one.
    Rows delivered are table rows for ``sequences`` and certified rows for
    ``certify``.
    """
    if code != 0:
        return f"exit code {code}", 0
    if b"Traceback" in stderr:
        return "traceback on stderr", 0
    command = op.split()[0]
    expected = EXPECTED[op]
    try:
        if command in ("series", "sequences"):
            data = stdout if written is None else written
            if hashlib.sha256(data).hexdigest() != expected["sha256"]:
                return "output differs from the recorded bytes", 0
            return None, expected["rows"]
        if command == "certify":
            return _check_certify(stdout, expected)
        payload = json.loads(stdout)
        if command == "oracle":
            return _check_oracle(payload, expected), 0
        if command == "recurrence":
            if payload.get("violations_a", 0) or payload.get("violations_b", 0):
                return "recurrence violations", 0
            if payload.get("matches_builtin") is False:
                return "refit does not match the built-in recurrence", 0
            return None, 0
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}", 0
    raise ValueError(f"no check for {op!r}")


def _check_certify(stdout: bytes, expected: dict) -> tuple[str | None, int]:
    *certs, summary = [json.loads(line) for line in stdout.splitlines()]
    certified = sum(cert["certified"] for cert in certs)
    if summary["verdict"] != expected["verdict"]:
        return f"verdict {summary['verdict']}, expected {expected['verdict']}", 0
    if summary["rows"] != len(certs) or summary["certified_rows"] != certified:
        return "summary disagrees with its certificate lines", 0
    return None, certified


def _check_oracle(payload: dict, expected: dict) -> str | None:
    rep = Fraction(int(payload["representative"]["num"]), int(payload["representative"]["den"]))
    ref = Fraction(int(expected["num"]), int(expected["den"]))
    need = min(payload["agreement_exponent"], expected["agreement_exponent"])
    if payload["p"] != expected["p"] or vp(rep - ref, expected["p"]) < need:
        return "representative contradicts the recorded reference"
    return None
