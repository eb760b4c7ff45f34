"""Command-line behavior: formats, determinism, and exit codes."""

import gc
import hashlib
import json
import os
import sys

import pytest

from padicapery import cli, curves
from padicapery.cli import main
from padicapery.curves import catalog
from padicapery.oracle import OracleInconsistency
from padicapery.recurrence import RecurrenceSpec
from test_cli_bytes import CLI_SHA256, readme_invocations, without_output_file
from test_package import run_fresh


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


@pytest.mark.parametrize(
    "op,digest",
    [
        (f"certify --case zeta-p3 -n {count}", CLI_SHA256["certify --case zeta-p3"])
        for count in (1, 11, 12, 40, 256)
    ]
    + [("certify --case zeta-p2 -n 1 --window 3 39 --bits 200",
        CLI_SHA256["certify --case zeta-p2 -n 40 --window 3 39 --bits 200"])],
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
        ("sequences --case zeta-p2 -k 17", "-k 17 exceeds the cap of 16"),
        ("sequences --case zeta-p2 -n 257", "-n 257 exceeds the cap of 256"),
    ],
)
def test_size_caps_are_usage_errors(argv, message, capsys, monkeypatch):
    """The sequences caps refuse before the table is built; the caps of
    every subcommand are rows of test_cli_bytes.CLI_REFUSED."""

    def refuse(*args):
        raise AssertionError("a capped request must not compute anything")

    monkeypatch.setattr(cli, "sequences", refuse)
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


@pytest.mark.parametrize("action", ["verify", "fit"])
def test_recurrence_defaults_to_catalan(capsys, action):
    code, out, err = run_cli(capsys, "recurrence", action)
    assert (code, err) == (0, "")
    assert json.loads(out)["case"] == "catalan-p2"


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
        "sequences --case zeta-p2 -k 17",
        "oracle --target catalan -n 2",
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


def test_unknown_command_is_usage_error(capsys):
    """Apart from test_cli_bytes.CLI_REFUSED, since argparse words the end of
    this error differently across Python versions."""
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    out, stderr = capsys.readouterr()
    assert (err.value.code, out) == (2, "")
    assert stderr.splitlines()[-1].startswith(
        "padicapery: error: argument command: invalid choice: 'frobnicate'"
    )


def test_module_entry_point():
    result = run_fresh(
        "-m", "padicapery", "oracle", "--target", "zeta-p2", "--bits", "20", "--digits", "3"
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
    result = run_fresh("-c", script)
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
    result = run_fresh("-m", "padicapery", *argv, "-o", str(target))
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
    assert target.read_bytes() == printed.encode()


def test_unwritable_output_exits_one_without_traceback(tmp_path):
    target = tmp_path / "no-such-dir" / "x.csv"
    result = run_fresh("-m", "padicapery", "sequences", "--case", "zeta-p2", "-o", str(target))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("i/o error: ")
    assert "Traceback" not in result.stderr


_README_ARGV = [*readme_invocations(), "--help"]
# The README's invocations that write their output to an -o file.
_TO_FILE = [argv for argv in _README_ARGV if argv != without_output_file(argv)]
_TO_STDOUT = [argv for argv in _README_ARGV if argv not in _TO_FILE]
_HAS_DEV_FULL = os.path.exists("/dev/full")


def _output_file_digest(argv: str, directory) -> str:
    words = argv.split()
    output = (directory / words[words.index("-o") + 1]).read_bytes()
    return hashlib.sha256(output).hexdigest()


def _run_on_full_stdout(flags, argv, cwd=None):
    """Run argv with stdout on /dev/full, buffered unless flags hold -u."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        return run_fresh(*flags, "-m", "padicapery", *argv.split(), stdout=full, cwd=cwd, env=env)


@pytest.mark.parametrize("argv", _README_ARGV)
def test_readme_invocation_runs_clean(argv, tmp_path):
    """Each README invocation and --help, fresh in an empty directory: exit 0
    and an empty stderr, which is where a ResourceWarning raised in a
    finalizer lands, and the pinned bytes on stdout or in the -o file."""
    result = run_fresh("-m", "padicapery", *argv.split(), cwd=tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    if argv == "--help":
        assert result.stdout.startswith("usage: padicapery [-h]")
    elif argv in _TO_FILE:
        assert result.stdout == ""
        assert _output_file_digest(argv, tmp_path) == CLI_SHA256[without_output_file(argv)]
    else:
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == CLI_SHA256[argv]


@pytest.mark.skipif(not _HAS_DEV_FULL, reason="no /dev/full here")
@pytest.mark.parametrize("flags", [(), ("-u",)], ids=["buffered", "-u"])
@pytest.mark.parametrize("argv", _TO_FILE)
def test_output_file_run_ignores_a_full_stdout(argv, flags, tmp_path):
    result = _run_on_full_stdout(flags, argv, cwd=tmp_path)
    assert (result.returncode, result.stderr) == (0, "")
    assert _output_file_digest(argv, tmp_path) == CLI_SHA256[without_output_file(argv)]


@pytest.mark.skipif(not _HAS_DEV_FULL, reason="no /dev/full here")
@pytest.mark.parametrize(
    "flags,argv",
    [pytest.param((), argv, id=argv) for argv in _TO_STDOUT]
    + [pytest.param(("-u",), argv, id=f"-u {argv}") for argv in _TO_STDOUT],
)
def test_full_stdout_exits_one_with_one_io_error(flags, argv):
    """A small output that stdout cannot take fails when main flushes it, not
    at interpreter exit (exit 120 and "Exception ignored in: ...").  With a
    write-through stdout (python -u, or PYTHONUNBUFFERED) it fails at the
    write itself, --help's too: argparse would drop that error and exit 0."""
    result = _run_on_full_stdout(flags, argv)
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
