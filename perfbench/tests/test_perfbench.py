"""Tests of the benchmark itself.  Run with ``python -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SMALL_OPS = ["series --form evil --weight 4 --p 2 --prec 3", "sequences --case catalan-p2 -n 7"]


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setattr(run, "OUT", out)
    return out


def test_self_time_subtracts_the_union_of_children():
    span_list = [
        ["main", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 3.5, 6.0, 0],  # overlaps a: the overlap is subtracted once
        ["tail", 9.0, 12.0, 0],  # runs past its parent: clipped at 10
        ["exit", 10.0, 11.0, None],
    ]
    assert spans.self_times(span_list) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0, 1.0])
    assert spans.covered(span_list) == pytest.approx(11.0)
    inclusive = spans.inclusive_times(span_list + [["a", 2.5, 3.5, 1]])
    assert inclusive["a"] == pytest.approx(3.0)  # a nested repeat counts once


def test_tracer_records_parents():
    tracer = spans.Tracer()
    outer = tracer.open("outer")
    inner = tracer.open("inner")
    tracer.close(inner)
    tracer.close(outer)
    tracer.add("after", 0.0, 1.0)
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", None), ("inner", 0), ("after", None)]


def test_smoke_pass_at_tiny_sizes():
    measured = run.measure(SMALL_OPS, seconds=0.1, seed=3, trace=True)
    assert sorted(s.op for s in measured.samples) == sorted(SMALL_OPS)
    assert len(measured.setup) >= run.MIN_PROBES
    report = run.result(measured, trace=True)
    assert report["correct"] and report["failed"] == 0
    assert report["attempted"] == 2 * len(SMALL_OPS)
    layers = {name: m["value"] for name, m in report["metrics"].items()}
    assert set(layers) == set(run.PER_LAYER)
    assert layers["trace.coverage"] >= run.MIN_COVERAGE
    assert layers["trace.missing_sites"] == 0
    assert layers["expansion.reexpand_calls"] == 2
    assert layers["expansion.prec_per_row"] == pytest.approx((2 * 7 + 8) / 7)
    assert layers["eisenstein.series_s"] > 0
    e2e = run.end_to_end(measured)
    assert set(e2e) == set(run.END_TO_END)
    assert e2e["rows_delivered"] == 7 and e2e["ok_ratio"] == 1.0
    assert all(value > 0 for value in e2e.values())


def test_corrupted_output_byte_counts_as_failed(monkeypatch):
    original = checks.check

    def corrupt(op, code, stdout, stderr, written=None):
        return original(op, code, bytes([stdout[0] ^ 1]) + stdout[1:], stderr, written)

    monkeypatch.setattr(checks, "check", corrupt)
    measured = run.measure(SMALL_OPS[:1], seconds=0.1, seed=0, trace=False)
    report = run.result(measured, trace=False)
    assert not report["correct"]
    assert report["failed"] == report["attempted"] == 1
    assert report["metrics"]["ok_ratio"]["value"] == 0.0


def test_certify_and_oracle_are_checked_by_meaning():
    op = "certify --case zeta-p2 -k 2"
    summary = {"certified_rows": 1, "rows": 1, "verdict": "WITNESS_FAIL", "new_key": 0}
    lines = [json.dumps({"certified": True}), json.dumps(summary)]
    assert checks.check(op, 0, "\n".join(lines).encode(), b"") == (None, 1)
    lines[-1] = json.dumps(dict(summary, verdict="WITNESS_PASS"))
    assert checks.check(op, 0, "\n".join(lines).encode(), b"")[0]
    assert checks.check(op, 0, b"", b"Traceback (most recent call last):\n")[0]

    op = "oracle --target zeta-p2 -n 1 --bits 40"
    ref = checks.EXPECTED[op]
    rep = int(ref["num"]), int(ref["den"])

    def payload(num, achieved):
        body = {"agreement_exponent": achieved, "p": 2, "representative": {"num": str(num), "den": str(rep[1])}}
        return json.dumps(body).encode()

    shifted = rep[0] + 2**40 * rep[1]  # agrees with the reference to 40 bits
    assert checks.check(op, 0, payload(shifted, 40), b"") == (None, 0)
    assert checks.check(op, 0, payload(shifted, 41), b"")[0]


def test_ops_import_the_measured_checkout(tmp_path, monkeypatch):
    decoy = tmp_path / "installed" / "padicapery"
    decoy.mkdir(parents=True)
    (decoy / "__init__.py").write_text("")
    (decoy / "cli.py").write_text("def build_parser():\n    pass\n")
    monkeypatch.setenv("PYTHONPATH", str(decoy.parent))
    env = run.op_env(run.ROOT)
    assert env["PYTHONPATH"].split(os.pathsep) == [str(run.ROOT / "src"), str(decoy.parent)]
    run.OUT.mkdir()
    with run.Spawner(env) as spawner:
        assert run.setup_probe(spawner, run.ROOT) > 0
        with pytest.raises(run.BenchError):
            run.setup_probe(spawner, tmp_path)
    with run.Spawner(dict(os.environ)) as spawner:
        with pytest.raises(run.BenchError):
            run.setup_probe(spawner, run.ROOT)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "cli-defaults", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for op in {op for ops in run.WORKLOADS.values() for op in ops}:
        assert op in checks.EXPECTED
