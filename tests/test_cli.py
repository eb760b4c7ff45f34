"""Command-line behavior: formats, determinism, and exit codes."""

import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest

from padicapery import cli, curves
from padicapery.cli import main
from padicapery.curves import catalog
from padicapery.oracle import OracleInconsistency
from padicapery.recurrence import RecurrenceSpec


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_series_evil_example(capsys):
    code, out, _ = run_cli(
        capsys, "series", "--form", "evil", "--weight", "4", "--p", "2", "--prec", "3"
    )
    assert code == 0
    assert out == "0 0\n1 1\n2 8\n"


def test_series_uniformizer_case(capsys):
    code, out, _ = run_cli(capsys, "series", "--case", "zeta-p2", "--prec", "4")
    assert code == 0
    assert out.splitlines() == ["0 0", "1 1", "2 24", "3 300"]


def test_series_fractional_output(capsys):
    code, out, _ = run_cli(capsys, "series", "--form", "f", "--weight", "1", "--prec", "2")
    assert code == 0
    assert out.splitlines()[0] == "0 1/4"


@pytest.mark.parametrize(
    "argv,size_flag",
    [
        ("series --case zeta-p2", "--prec"),
        ("series --form e --weight 4", "--prec"),
        ("sequences --case zeta-p2", "-n"),
    ],
)
def test_default_sizes_are_eight_rows(argv, size_flag, capsys):
    """Without a size flag, series prints 8 coefficients and sequences 8
    table rows under its CSV header, the bytes of an explicit size of 8."""
    default = run_cli(capsys, *argv.split())
    explicit = run_cli(capsys, *argv.split(), size_flag, "8")
    assert default == explicit
    code, out, err = default
    assert (code, err) == (0, "")
    header = argv.startswith("sequences")
    assert len(out.splitlines()) == 8 + header


def test_series_requires_exactly_one_source():
    with pytest.raises(SystemExit) as err:
        main(["series", "--prec", "3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["series", "--form", "e", "--case", "zeta-p2"])
    assert err.value.code == 2


def test_series_p_validation():
    with pytest.raises(SystemExit) as err:
        main(["series", "--form", "evil", "--weight", "4", "--prec", "3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["series", "--form", "f", "--weight", "1", "--p", "2", "--prec", "3"])
    assert err.value.code == 2
    for p in ("0", "1", "4", "-2"):
        for form, weight in (("e-star", "2"), ("e-prime", "2"), ("evil", "4")):
            argv = ["series", "--form", form, "--weight", weight, "--p", p, "--prec", "5"]
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2


# sha256 of `series --form FORM ... --prec 64` stdout, recorded with the
# trial-division divisor sums that the series sieve replaced.
SERIES_DIGESTS = {
    "e --weight 4": "354dcea6f54a46251174ab0932788340271c5e4285f4905aaaa140c3e66f191b",
    "e-star --weight 2 --p 2": "2d2f5de0204944044e9e05a3cad7c9cd7273cb2661486b6b987f887b229246de",
    "e-star --weight 6 --p 5": "dbbf3f5282aa7b513fd2564edd8e5ac22f78acab23525e7f91b179700e983381",
    "evil --weight 4 --p 3": "8d61e7d98d65ac16c22729d891d8779c222294533d508e7c8fa8be86ce1fba23",
    "e-prime --weight 2 --p 2": "daba2526fc17dbd957beab5209c1e42956e1f23365cbc0d2df40c6b8090a5e44",
    "e-prime --weight 4 --p 3": "61ce216394cda6ae98027623e539179d0ee142bba5d05c15b200a4ab21ba5447",
    "f --weight 1": "60fcf822e248fe4055b6c30bdd34915788828160a8a6e71414de9f4cf05f24dc",
    "f --weight 5": "27e5f4a2614d289804a53b8e941fa7c283e129cfbf3b670aad67a7da36b80309",
    "f-prime": "c79aff08591c0f51bade27544aa6de16be41361f8ff872cb40bc5b643e9f2c84",
}


@pytest.mark.parametrize("form", sorted(SERIES_DIGESTS))
def test_series_bytes_match_reference(form, capsys):
    code, out, err = run_cli(capsys, "series", "--form", *form.split(), "--prec", "64")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SERIES_DIGESTS[form]


# sha256 of `series --case FAMILY --prec 256` stdout, recorded with the
# factor-by-factor binomial product that the logarithmic-derivative build
# replaced.
UNIFORMIZER_DIGESTS = {
    "zeta-p2": "21b61854a21796f265af4629225d37823139a5a501212863afbc76916a0676d5",
    "zeta-p3": "e193759b270133f7ae2cbfa2e92075bfb5b2fa1405a656095629197b032f99d8",
    "zeta-p5": "049699bbc9108fb0d5658cb3eb0f2a60309a41f3bcd7d97dbdfa3c2a04898805",
    "catalan-p2": "d0261f1c297e4addb591625a722cc545238ccbfaf3fba0bbd4748bec752616e0",
}


@pytest.mark.parametrize("family", sorted(UNIFORMIZER_DIGESTS))
def test_uniformizer_bytes_match_reference(family, capsys):
    code, out, err = run_cli(capsys, "series", "--case", family, "--prec", "256")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == UNIFORMIZER_DIGESTS[family]


def test_series_prec_is_capped(monkeypatch):
    def refuse(*args):
        raise AssertionError("a capped request must not compute anything")

    monkeypatch.setattr(cli, "series_evil", refuse)
    monkeypatch.setattr(cli.curves, "uniformizer_series", refuse)
    for argv in (
        ["series", "--form", "evil", "--weight", "4", "--p", "2", "--prec", str(10**11)],
        ["series", "--case", "zeta-p2", "--prec", "257"],
    ):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


def test_sequences_csv(capsys):
    code, out, _ = run_cli(capsys, "sequences", "--case", "zeta-p2", "-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,a_num,a_den,b,p_n,q_n"
    assert lines[1] == "0,0,1,1,0,1"
    assert lines[2] == "1,1,1,24,1,12"


def test_sequences_json_sorted_keys(capsys):
    code, out, _ = run_cli(
        capsys, "sequences", "--case", "catalan-p2", "-n", "3", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["b"] for row in rows] == ["-1", "-4", "28"]
    dumped = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    assert out == dumped


def test_sequences_cap_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["sequences", "--case", "zeta-p2", "-n", "257"])
    assert err.value.code == 2


def test_sequences_env_cap(capsys):
    """The term cap is a constant, not an environment setting: 65 rows print
    without one."""
    code, out, _ = run_cli(capsys, "sequences", "--case", "zeta-p2", "-n", "65")
    assert code == 0
    assert len(out.splitlines()) == 66


def test_sequences_plain(capsys):
    code, out, err = run_cli(
        capsys, "sequences", "--case", "zeta-p2", "-n", "4", "--format", "plain"
    )
    assert (code, err) == (0, "")
    assert out == (
        "0 a=0/1 b=1 p/q=0/1\n"
        "1 a=1/1 b=24 p/q=1/12\n"
        "2 a=1/1 b=-552 p/q=-1/276\n"
        "3 a=-8072/27 b=19392 p/q=-1009/32724\n"
    )


def test_degenerate_row_prints_null_and_empty_fields(capsys, monkeypatch):
    """A row with b_n = 0 has no ratio: JSON shows null, CSV and plain empty
    fields."""
    table = cli.sequences(catalog("zeta-p2"), 3)
    degenerate = table._replace(b=(table.b[0], 0, table.b[2]))
    monkeypatch.setattr(cli, "sequences", lambda config, count: degenerate)
    code, out, _ = run_cli(
        capsys, "sequences", "--case", "zeta-p2", "-n", "3", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)[1] == {
        "n": 1, "a_num": "1", "a_den": "1", "b": "0", "p_n": None, "q_n": None
    }
    code, out, _ = run_cli(capsys, "sequences", "--case", "zeta-p2", "-n", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["0,0,1,1,0,1", "1,1,1,0,,", "2,1,1,-552,-1,276"]
    code, out, _ = run_cli(
        capsys, "sequences", "--case", "zeta-p2", "-n", "3", "--format", "plain"
    )
    assert code == 0
    assert out.splitlines()[1] == "1 a=1/1 b=0 p/q=/"


def test_sequences_output_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "sequences", "--case", "zeta-p2", "-n", "3", "-o", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[1] == "0,0,1,1,0,1"


def test_certify_jsonl_schema_and_verdict(capsys):
    code, out, _ = run_cli(capsys, "certify", "--case", "zeta-p2", "--bits", "30")
    assert code == 0
    lines = out.splitlines()
    rows = [json.loads(line) for line in lines]
    summary = rows[-1]
    assert summary["verdict"] == "WITNESS_PASS"
    assert summary["sign"] == -1
    assert summary["theta_closed"] == "1.1618804316"
    for row in rows[:-1]:
        assert list(row) == sorted(row)
        assert set(row) == {
            "case",
            "certified",
            "implied_exponent",
            "log_max_size",
            "n",
            "p_n",
            "q_n",
            "sign",
            "theta_closed",
            "valuation_gap",
        }
    certified = [row for row in rows[:-1] if row["certified"]]
    assert certified
    for row in certified:
        assert float(row["implied_exponent"]) > 1.01


def test_certify_window_rows(capsys):
    code, out, _ = run_cli(
        capsys, "certify", "--case", "catalan-p2", "--bits", "30",
        "--window", "4", "6",
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["n"] for row in rows[:-1]] == [4, 5, 6]


def test_certify_rejects_window_before_evaluating_oracle(capsys, monkeypatch):
    def oracle_must_not_run(*args):
        raise AssertionError("the oracle ran for an unusable window")

    monkeypatch.setattr(cli, "zeta_p_oracle", oracle_must_not_run)
    with pytest.raises(SystemExit) as err:
        main(["certify", "--case", "zeta-p2", "--bits", "200", "--window", "5", "3"])
    assert err.value.code == 2
    assert "--window needs 0 <= LO <= HI" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family,k",
    [("zeta-p2", 1), ("zeta-p2", 2), ("zeta-p3", 1), ("zeta-p5", 1), ("catalan-p2", 1)],
)
def test_certify_accepts_one_row_window(family, k, capsys):
    """The sign comes from the construction, so one row is enough; row 0
    (p_0/q_0 = 0) fails the criterion wherever an oracle certifies it."""
    code, out, _ = run_cli(
        capsys, "certify", "--case", family, "-k", str(k), "--window", "0", "0"
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    summary = rows[-1]
    assert summary["verdict"] == "WITNESS_FAIL"
    assert summary["rows"] == 1
    assert summary["certified_rows"] == 1
    assert summary["sign"] == -cli.curves.FAMILY_TABLE[family].sign_b


# sha256 of `certify --case FAMILY -n 40 --window 3 39 --bits 200` stdout,
# recorded with the series oracle (216 certified digits, so stderr is empty).
# The zeta-p5 entry postdates its oracle, so it was recorded with the code it
# pins; test_diophantine checks its gaps against an earlier, independent
# Fraction prototype of the p = 5 series.
CERTIFY_DEEP = {
    "zeta-p2": ("b02175d5fae3408053580a08a35c15811a54f21f51dd409a8236cb991bb3f8dc", ""),
    "zeta-p3": ("b195d07fb7b79781765cd1ff460d63dea7368628ce72afb8be4a0fbad41b38ca", ""),
    "zeta-p5": ("c11718620bcd26e4955d9d7375f21eed61b75a1ebdd7367ed77752e02336dae1", ""),
    "catalan-p2": ("4b4babdec5c733287fa50fbbda197c5e0d2a5f931331187635e9bdb94b84a999", ""),
}


@pytest.mark.parametrize("family", sorted(CERTIFY_DEEP))
def test_certify_deep_bytes_match_reference(family, capsys):
    code, out, err = run_cli(
        capsys, "certify", "--case", family, "-n", "40", "--window", "3", "39",
        "--bits", "200",
    )
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest(), err) == CERTIFY_DEEP[family]


# sha256 of `certify --case FAMILY --window 3 255 --bits 2048` stdout: every
# row the term cap allows, with heights past 512 bits, where exactnum.log_size
# and math.log differ in the printed tenth decimal on some rows.
CERTIFY_WINDOW_255 = {
    "zeta-p2": "b02cd273f26bd4c5766f5b1099c8e0151f8f5ceeaf25f836393c31bc9bb1e997",
    "zeta-p3": "8b9e5f55a8312137afdd4c29a7e97da2fc0e64d775f9d5c463f8c1f0e58aab5d",
    "catalan-p2": "38826c81235ad8e54e492e202930b137f397857fc36ef35fc263e4020d5d5338",
}


@pytest.mark.parametrize("family", sorted(CERTIFY_WINDOW_255))
def test_certify_window_255_bytes_match_reference(family, capsys):
    code, out, err = run_cli(
        capsys, "certify", "--case", family, "--window", "3", "255", "--bits", "2048"
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_WINDOW_255[family]


# sha256 of `certify --case zeta-p3` stdout at the default window.
CERTIFY_ZETA_P3 = "e4d5a204bab27018439c1f067d951119f95a44ead917788e972826a1cd389c26"


@pytest.mark.parametrize(
    "op,digest",
    [(f"certify --case zeta-p3 -n {count}", CERTIFY_ZETA_P3) for count in (1, 11, 12, 40, 256)]
    + [("certify --case zeta-p2 -n 1 --window 3 39 --bits 200", CERTIFY_DEEP["zeta-p2"][0])],
)
def test_certify_row_count_changes_nothing(op, digest, capsys, monkeypatch):
    """certify builds rows 0..HI of its window whatever -n says, and the
    criterion reads only the window's rows, so -n changes no byte of the
    output."""
    counts = []
    build = cli.sequences

    def recording(config, count):
        counts.append(count)
        return build(config, count)

    monkeypatch.setattr(cli, "sequences", recording)
    argv = op.split()
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    hi = int(argv[argv.index("--window") + 2]) if "--window" in argv else cli.DEFAULT_WINDOW[1]
    assert counts == [hi + 1]


# What the Newton-interpolation oracle certified on the benchmark's certify
# ops: (verdict, certified_rows, valuation gaps of the certified rows n = 3,
# 4, ...).  A deeper oracle may certify more rows, but none of these may lose
# its certificate or change its gap, and no verdict may change.
CERTIFY_BEFORE_SERIES_ORACLE = {
    "certify --case zeta-p2 -n 40 --window 3 39 --bits 200": (
        "WITNESS_PASS", 16,
        [19, 31, 43, 52, 61, 76, 91, 100, 109, 121, 133, 142, 151, 169, 187, 196],
    ),
    "certify --case zeta-p3 -n 40 --window 3 39 --bits 200": (
        "WITNESS_PASS", 25,
        [10, 17, 16, 24, 31, 33, 43, 53, 55, 62, 68, 68, 74, 81, 83, 93, 103, 105,
         112, 120, 119, 126, 133, 135, 148],
    ),
    "certify --case catalan-p2 -n 40 --window 3 39 --bits 200": (
        "WITNESS_PASS", 25,
        [13, 21, 29, 35, 41, 51, 61, 67, 73, 81, 89, 95, 101, 113, 125, 131, 137,
         145, 153, 159, 165, 175, 185, 191, 197],
    ),
    "certify --case zeta-p2": ("WITNESS_PASS", 3, [19, 31, 43]),
    "certify --case zeta-p2 -k 2": ("WITNESS_FAIL", 4, [12, 26, 38, 43]),
    "certify --case zeta-p3": ("WITNESS_PASS", 6, [10, 17, 16, 24, 31, 33]),
    "certify --case zeta-p5": ("WITNESS_FAIL", 0, []),
    "certify --case catalan-p2": ("WITNESS_PASS", 5, [13, 21, 29, 35, 41]),
}


@pytest.mark.parametrize("op", sorted(CERTIFY_BEFORE_SERIES_ORACLE))
def test_certified_rows_keep_their_gaps(op, capsys):
    verdict, count, gaps = CERTIFY_BEFORE_SERIES_ORACLE[op]
    code, out, _ = run_cli(capsys, *op.split())
    assert code == 0
    *rows, summary = [json.loads(line) for line in out.splitlines()]
    assert summary["verdict"] == verdict
    assert summary["certified_rows"] >= count
    certified = {row["n"]: row["valuation_gap"] for row in rows if row["certified"]}
    for n, gap in enumerate(gaps, start=3):
        assert certified.get(n) == gap, n


@pytest.mark.parametrize(
    "argv",
    [
        ("certify", "--case", "zeta-p2"),
        ("certify", "--case", "zeta-p3", "--bits", "30", "--window", "3", "8"),
        ("certify", "--case", "catalan-p2"),
        ("oracle", "--target", "catalan", "--bits", "40"),
        ("oracle", "--target", "zeta-p2", "-n", "1", "--bits", "40"),
        ("oracle", "--target", "zeta-p3", "--bits", "40"),
        ("certify", "--case", "zeta-p5"),
        ("oracle", "--target", "zeta-p5", "--bits", "40"),
    ],
)
def test_default_sizes_leave_stderr_empty(argv, capsys):
    code, _, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""


def test_certify_p5_certified_rows(capsys):
    """Every default zeta-p5 row is certified; the verdict fails because
    the closed-form exponent 0.89 is below 1."""
    code, out, _ = run_cli(capsys, "certify", "--case", "zeta-p5")
    assert code == 0
    *rows, summary = [json.loads(line) for line in out.splitlines()]
    assert summary["verdict"] == "WITNESS_FAIL"
    assert summary["oracle_bits"] == 56
    assert summary["sign"] == -1
    assert summary["certified_rows"] == len(rows) == 8
    for row in rows:
        assert row["certified"] is True
        assert row["valuation_gap"] < 56


def test_certify_runs_are_byte_identical(capsys):
    first = run_cli(capsys, "certify", "--case", "zeta-p3", "--bits", "25")
    second = run_cli(capsys, "certify", "--case", "zeta-p3", "--bits", "25")
    assert first == second
    assert first[0] == 0


def test_oracle_json(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--target", "catalan", "--bits", "36")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 2
    assert payload["agreement_exponent"] >= 35
    assert payload["digits"][:4] == [[-1, 1], [0, 1], [2, 1], [3, 1]]
    assert payload["representative"]["den"].isdigit()
    assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out


def test_oracle_deep_digits_match_reference(capsys):
    """2048 trits of zeta_3, read off as digits; recorded with the Fraction
    digit loop that padic_digits replaced."""
    code, out, err = run_cli(
        capsys, "oracle", "--target", "zeta-p3", "--bits", "2048", "--digits", "2048"
    )
    assert (code, err) == (0, "")
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "2f861e8639cf02eda3f0c6167428baf2a9c4e20df8954de33c0e14521b351cef"
    )


def test_oracle_inconsistency_exits_one(capsys, monkeypatch):
    def inconsistent(*args):
        raise OracleInconsistency("strategies disagree")

    monkeypatch.setattr(cli, "zeta_p_oracle", inconsistent)
    code, out, err = run_cli(capsys, "oracle", "--target", "zeta-p2", "--bits", "20")
    assert code == 1
    assert out == ""
    assert err == "oracle inconsistency: strategies disagree\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("oracle --target zeta-p3 --bits 2049", "--bits 2049 exceeds the cap of 2048"),
        ("oracle --target zeta-p2 -n 200", "-n 200 exceeds the cap of 16"),
        ("oracle --target catalan --digits 2049", "--digits 2049 exceeds the cap of 2048"),
        ("certify --case zeta-p2 --bits 100000", "--bits 100000 exceeds the cap of 2048"),
        ("certify --case zeta-p2 -k 17", "-k 17 exceeds the cap of 16"),
        ("sequences --case zeta-p2 -k 17", "-k 17 exceeds the cap of 16"),
        ("series --case zeta-p2 -k 1000000", "unrecognized arguments: -k 1000000"),
        ("series --form e --weight 34", "--weight 34 exceeds the cap of 33"),
        ("series --case zeta-p2 --prec 257", "--prec 257 exceeds the cap of 256"),
        (
            "series --form e-star --p 1000000000000000003 --weight 2 --prec 3",
            "--p 1000000000000000003 exceeds the cap of 65536",
        ),
        ("series --form evil --p 65537 --weight 4", "--p 65537 exceeds the cap of 65536"),
        ("sequences --case zeta-p2 -n 257", "-n 257 exceeds the cap of 256"),
        ("certify --case zeta-p2 -n 257", "-n 257 exceeds the cap of 256"),
        ("certify --case zeta-p2 --window 3 256", "--window rows 257 exceeds the cap of 256"),
        ("recurrence verify -n 257", "-n 257 exceeds the cap of 256"),
    ],
)
def test_size_caps_are_usage_errors(argv, message, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a capped request must not compute anything")

    for name in (
        "zeta_p_oracle",
        "catalan_2adic_oracle",
        "sequences",
        "series_e_star",
        "series_evil",
    ):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(cli.curves, "catalog", refuse)
    monkeypatch.setattr(cli.curves, "uniformizer_series", refuse)
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_oracle_at_the_bits_cap_meets_the_request(capsys):
    code, out, err = run_cli(capsys, "oracle", "--target", "zeta-p2", "--bits", "2048")
    assert code == 0
    assert err == ""
    assert json.loads(out)["agreement_exponent"] >= 2048


def test_oracle_rejects_catalan_with_n():
    with pytest.raises(SystemExit) as err:
        main(["oracle", "--target", "catalan", "-n", "2"])
    assert err.value.code == 2


def test_recurrence_verify_and_fit(capsys):
    code, out, _ = run_cli(capsys, "recurrence", "verify", "-n", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations_a"] == 0
    assert payload["violations_b"] == 0
    assert payload["coeff_polys"] == [[1, 2, 1], [-4, 0, 32], [256, -512, 256]]

    code, out, _ = run_cli(capsys, "recurrence", "fit", "-n", "12")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches_builtin"] is True


def test_recurrence_verify_exits_one_on_a_wrong_spec(capsys, monkeypatch):
    family = curves.FAMILY_TABLE["catalan-p2"]
    wrong = RecurrenceSpec(((1, 2, 1), (-4, 0, 32), (256, -512, 257)))
    monkeypatch.setitem(curves.FAMILY_TABLE, "catalan-p2", family._replace(recurrence={1: wrong}))
    code, out, err = run_cli(capsys, "recurrence", "verify", "-n", "12")
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["violations_b"] > 0
    assert payload["coeff_polys"] == [[1, 2, 1], [-4, 0, 32], [256, -512, 257]]


# sha256 of `recurrence verify` and `recurrence fit` stdout with no --case,
# recorded when catalan-p2 was the only case with a recurrence.
RECURRENCE_DEFAULT_SHA256 = {
    "verify": "08b942d4e5f1c7835864193da7ff02c9dd5f950ec48e451c5e219696dbe50096",
    "fit": "67a04f5ad9fc1b231dd1b840e6d555b1e903c8a76d409e2171a8beb65222ab4b",
}


@pytest.mark.parametrize("action", ["verify", "fit"])
def test_recurrence_defaults_to_catalan(capsys, action):
    code, out, err = run_cli(capsys, "recurrence", action)
    assert (code, err) == (0, "")
    assert json.loads(out)["case"] == "catalan-p2"
    assert hashlib.sha256(out.encode()).hexdigest() == RECURRENCE_DEFAULT_SHA256[action]


@pytest.mark.parametrize(
    "family,k,order",
    [("zeta-p2", 1, 2), ("zeta-p2", 2, 2), ("zeta-p3", 1, 2), ("zeta-p5", 1, 4)],
)
def test_recurrence_verify_every_case(capsys, family, k, order):
    code, out, err = run_cli(
        capsys, "recurrence", "verify", "--case", family, "-k", str(k), "-n", "48"
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["violations_a"], payload["violations_b"]) == (0, 0)
    assert (payload["range_b"], payload["range_a"]) == ([order - 1, 46], [order, 46])


@pytest.mark.parametrize(
    "family,k",
    [(name, k) for name, family in curves.FAMILY_TABLE.items() for k in family.recurrence],
)
def test_recurrence_verify_needs_order_plus_two_rows(capsys, family, k):
    """The a-column is checked from n = order, so -n order + 2 gives each
    column one residual, and -n order + 1 is a usage error, not an empty check."""
    order = curves.FAMILY_TABLE[family].recurrence[k].order
    argv = ["recurrence", "verify", "--case", family, "-k", str(k), "-n"]
    code, out, err = run_cli(capsys, *argv, str(order + 2))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["violations_a"], payload["violations_b"]) == (0, 0)
    assert (payload["range_b"], payload["range_a"]) == ([order - 1, order], [order, order])
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(order + 1)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"padicapery recurrence: error: -n {order + 1}: "
        f"not enough rows for a residual in each column (need {order + 2})\n"
    )


def test_wrong_recurrence_fails_the_table(capsys, monkeypatch):
    """Past its prefix a table comes from the relation, checked on the prefix
    first; a wrong relation ends the run with no output."""
    family = curves.FAMILY_TABLE["zeta-p2"]
    polys = family.recurrence[1].coeff_polys
    wrong = RecurrenceSpec((polys[0], polys[1], polys[2][:-1] + (polys[2][-1] + 1,)))
    monkeypatch.setitem(curves.FAMILY_TABLE, "zeta-p2", family._replace(recurrence={1: wrong}))
    code, out, err = run_cli(capsys, "sequences", "--case", "zeta-p2", "-n", "19")
    assert (code, out) == (1, "")
    assert err == (
        "identity check failed: recurrence fails for zeta-p2:k=1: "
        "nonzero residual at n = 1\n"
    )
    # Up to the prefix, the table is re-expansion alone.
    code, _, err = run_cli(capsys, "sequences", "--case", "zeta-p2", "-n", "18")
    assert (code, err) == (0, "")


def test_bad_growth_ratio_fails_certify(capsys, monkeypatch):
    """theta's v and e are read off the curve, not the relation; a relation
    whose leading ratio disagrees with the curve fails the prefix residual
    check, and certify ends with no output."""
    family = curves.FAMILY_TABLE["zeta-p2"]
    polys = family.recurrence[1].coeff_polys
    tripled = RecurrenceSpec((polys[0], polys[1], tuple(3 * c for c in polys[2])))
    monkeypatch.setitem(curves.FAMILY_TABLE, "zeta-p2", family._replace(recurrence={1: tripled}))
    code, out, err = run_cli(capsys, "certify", "--case", "zeta-p2", "--window", "3", "39")
    assert (code, out) == (1, "")
    assert err == (
        "identity check failed: recurrence fails for zeta-p2:k=1: "
        "nonzero residual at n = 2\n"
    )


def test_bad_growth_ratio_fails_certify_before_the_oracle(capsys, monkeypatch):
    family = curves.FAMILY_TABLE["zeta-p2"]
    polys = family.recurrence[1].coeff_polys
    tripled = RecurrenceSpec((polys[0], polys[1], tuple(3 * c for c in polys[2])))
    monkeypatch.setitem(curves.FAMILY_TABLE, "zeta-p2", family._replace(recurrence={1: tripled}))

    def oracle_must_not_run(*args):
        raise AssertionError("the oracle ran for a case whose relation fails")

    monkeypatch.setattr(cli, "zeta_p_oracle", oracle_must_not_run)
    code, out, err = run_cli(
        capsys, "certify", "--case", "zeta-p2", "--window", "3", "39", "--bits", "200"
    )
    assert (code, out) == (1, "")
    assert err.startswith("identity check failed: recurrence fails for zeta-p2:k=1")


def test_failing_elliptic_canary_exits_one(capsys, monkeypatch):
    """The curve canary is the only one that builds an eta quotient of q-power
    0 (f/Delta); doubling it breaks that identity alone, for every family."""
    build = curves.expand_product

    def doubled_quotient(eta, prec):
        series = build(eta, prec)
        return 2 * series if sum(delta * r for delta, r in eta) == 0 else series

    monkeypatch.setattr(curves, "expand_product", doubled_quotient)
    for family in ("zeta-p2", "zeta-p3", "zeta-p5", "catalan-p2"):
        case_id = curves.catalog(family).case_id
        code, out, err = run_cli(capsys, "sequences", "--case", family, "-n", "3")
        assert (code, out) == (1, "")
        assert err == (
            f"identity check failed: G^6 f/Delta is not Q(f), Q(0) = 1 on the curve of {case_id}\n"
        )


def test_wrong_curve_fails_the_table(capsys, monkeypatch):
    """One eta exponent off, and with it the curve, ends the run before any
    output."""
    family = curves.FAMILY_TABLE["zeta-p3"]
    monkeypatch.setitem(curves.FAMILY_TABLE, "zeta-p3", family._replace(eta=((1, -12), (3, 4))))
    code, out, err = run_cli(capsys, "sequences", "--case", "zeta-p3")
    assert (code, out) == (1, "")
    assert err.startswith("identity check failed:")


def test_certify_derives_the_curve_twice(capsys, monkeypatch):
    """Once in the table's canary pass and once in theta_closed: nothing
    else derives it again."""
    derive = curves.run_canaries
    calls = []

    def counted(config, *args):
        calls.append(config.case_id)
        return derive(config, *args)

    monkeypatch.setattr(curves, "run_canaries", counted)
    code, _, _ = run_cli(capsys, "certify", "--case", "zeta-p2")
    assert code == 0
    assert calls == ["zeta-p2:k=1", "zeta-p2:k=1"]


@pytest.mark.parametrize(
    "argv",
    [
        "series --prec 0",
        "sequences --case zeta-p2 -k 17",
        "certify --case zeta-p2 --window 5 3",
        "oracle --target catalan -n 2",
        "recurrence fit -n 5",
    ],
)
def test_usage_errors_name_their_subcommand(argv, capsys):
    """A handler's usage error prints its subcommand's usage line and name,
    as argparse does for that subcommand's own errors."""
    command = argv.split()[0]
    with pytest.raises(SystemExit) as err:
        main(argv.split())
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith(f"usage: padicapery {command} [-h]")
    assert f"\npadicapery {command}: error: " in stderr


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "padicapery", "oracle", "--target", "zeta-p2",
         "--bits", "20", "--digits", "3"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["target"] == "zeta-p2"


def test_cli_import_leaves_out_statistics_and_csv():
    """Nor json, which only the JSON handlers import: not at import, and not
    after a CSV table and a series run through main in the same process."""
    script = (
        "import sys\n"
        "from padicapery.cli import main\n"
        "def loaded(): return sorted({'statistics', 'csv', 'json'} & set(sys.modules))\n"
        "seen = [loaded()]\n"
        "for argv in ('sequences --case zeta-p2 -n 12', 'series --case zeta-p2'):\n"
        "    assert main(argv.split()) == 0\n"
        "    seen.append(loaded())\n"
        "print(seen, file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("n,a_num,a_den,b,p_n,q_n\n")
    assert result.stderr == "[[], [], []]\n"


def test_main_freezes_the_heap(capsys):
    gc.unfreeze()
    assert gc.get_freeze_count() == 0
    try:
        code, _, _ = run_cli(capsys, "series", "--case", "zeta-p2", "--prec", "3")
        assert code == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


def test_output_file_holds_the_printed_bytes(tmp_path, capsys):
    argv = ["sequences", "--case", "zeta-p2", "-n", "12", "--format", "json"]
    _, printed, _ = run_cli(capsys, *argv)
    target = tmp_path / "table.json"
    result = subprocess.run(
        [sys.executable, "-m", "padicapery", *argv, "-o", str(target)],
        capture_output=True,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, b"", b"")
    assert target.read_bytes() == printed.encode()


def test_unwritable_output_exits_one_without_traceback(tmp_path):
    target = tmp_path / "no-such-dir" / "x.csv"
    result = subprocess.run(
        [sys.executable, "-m", "padicapery", "sequences", "--case", "zeta-p2",
         "-o", str(target)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("i/o error: ")
    assert "Traceback" not in result.stderr


_FULL_STDOUT_ARGV = (
    "series --case zeta-p2 --prec 5",
    "sequences --case catalan-p2 -n 7",
    "certify --case zeta-p2",
    "oracle --target catalan --bits 40",
    "recurrence verify",
    "--help",
)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full here")
@pytest.mark.parametrize(
    "flags,argv",
    [pytest.param((), argv, id=argv) for argv in _FULL_STDOUT_ARGV]
    + [pytest.param(("-u",), argv, id=f"-u {argv}") for argv in _FULL_STDOUT_ARGV],
)
def test_full_stdout_exits_one_with_one_io_error(flags, argv):
    """A small output that stdout cannot take fails when main flushes it, not
    at interpreter exit (exit 120 and "Exception ignored in: ...").  With a
    write-through stdout (python -u, or PYTHONUNBUFFERED) it fails at the
    write itself, --help's too: argparse would drop that error and exit 0."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, *flags, "-m", "padicapery", *argv.split()],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    assert result.returncode == 1
    assert result.stderr == "i/o error: [Errno 28] No space left on device\n"


# sha256 of each --help at 80 columns.  argparse lays help out differently
# from one Python version to the next, so the digests hold on 3.11 only.
_HELP_SHA256 = {
    "padicapery": "2c4d2870973105768d0c50b2af6b51d69cbcd140da5f65c5467f40f5e1fe05b8",
    "padicapery series": "2877316ed2804c1f3d716db4521776a21fd5f62dbea337927fd21d1a0b5165f0",
    "padicapery sequences": "d7226bdb04f33656a873f8b586915c1db520362ddaad3f186a5c144a0d5adee3",
    "padicapery certify": "5d8131738fdecfaf0d3dee0b252be152e3ffdc3929d2901c90d3f449003ab34f",
    "padicapery oracle": "1ac23044666bee96edf624413cc5072ba888a42cf2a9e41c29c8909a11f77ae2",
    "padicapery recurrence": "dc6baa14d6d151d9c4f2f78fed641e404c33529d47efba9cf78b73f42d805999",
}


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="help digests are recorded on Python 3.11"
)
@pytest.mark.parametrize("command", _HELP_SHA256)
def test_help_text_is_pinned(command, capsys, monkeypatch):
    """Every usage and help byte, so no option is reordered or dropped."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as err:
        main([*command.split()[1:], "--help"])
    assert err.value.code == 0
    help_text = capsys.readouterr().out
    assert hashlib.sha256(help_text.encode()).hexdigest() == _HELP_SHA256[command]


@pytest.mark.parametrize(
    "env, argv, message",
    [
        ({"PADICAPERY_MAX_TERMS": "100000"}, "sequences --case zeta-p2 -n 257",
         "-n 257 exceeds the cap of 256"),
        ({}, "recurrence fit -n 10",
         "-n 10: not enough sequence values for this order and degree (need 12)"),
        ({}, "series --form e --weight 34 --prec 2", "--weight 34 exceeds the cap of 33"),
        ({}, "series --case zeta-p2 --p 3 --weight 99",
         "--p and --weight do not apply to --case"),
        ({}, "series --case catalan-p2 --weight 1", "--p and --weight do not apply to --case"),
        ({}, "series --form f-prime --weight 7", "--weight does not apply to form f-prime"),
        ({}, "certify --case zeta-p2 -n -5", "-n must be positive"),
        ({}, "certify --case catalan-p2 -n 0", "-n must be positive"),
        ({}, "recurrence verify --case zeta-p2 -k 3",
         "zeta-p2:k=3 has no built-in recurrence"),
        ({}, "sequences --case zeta-p2 -k 0", "k must be >= 1"),
        ({}, "sequences --case catalan-p2 -k 2", "the Catalan case has no weight parameter"),
        ({}, "series --form f --weight 2", "weight must be odd and >= 1, got 2"),
    ],
    ids=[
        "old-cap-variable-ignored", "fit-n10", "weight-34", "series-case-p-weight",
        "series-case-weight", "f-prime-weight", "certify-n-negative", "certify-n-0",
        "recurrence-k3", "k-0", "catalan-k2", "f-even-weight",
    ],
)
def test_usage_errors_exit_two_without_traceback(env, argv, message):
    result = subprocess.run(
        [sys.executable, "-m", "padicapery", *argv.split()],
        capture_output=True,
        text=True,
        env={**os.environ, **env},
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert result.stderr.endswith(f"error: {message}\n")


def test_integers_past_the_str_digit_limit_print(capsys):
    """Entries of zeta-p2 k=16 reach 964 digits by n = 64; the CLI lifts
    Python's int -> str digit limit instead of dying after the computation."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int -> str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(
            capsys, "sequences", "--case", "zeta-p2", "-k", "16", "-n", "64"
        )
    finally:
        sys.set_int_max_str_digits(saved)
    assert (code, err) == (0, "")
    assert max(len(field) for field in out.replace("\n", ",").split(",")) > 640
