"""padicapery benchmark: drives the real CLI, one fresh interpreter per op.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout measured is the one this file sits in, and
every op imports that checkout's ``src/``.  A workload is a fixed list of CLI
invocations run as a closed loop with one client: the next op starts when the
previous one has exited.  The seed only permutes the op order within a pass.
Passes repeat until the next op would end after S seconds; the first pass
always completes.  Each op's output is checked (see checks.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` every op also runs under launcher.py, which times the package's
layers from outside, and the line reports the per-layer metrics.  See
README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = {
    # Re-expansion is ~90% of the pass; the oracle is unused.  k=2 has the
    # largest operands, zeta-p3 the negative-exponent uniformizer.
    "tables-n64": [
        "sequences --case zeta-p2 -n 64",
        "sequences --case zeta-p2 -k 2 -n 64",
        "sequences --case zeta-p3 -n 64",
    ],
    # The oracle's node evaluation dominates; zeta-p3 falls short of the
    # requested digits, so oracle depth shows in the certified rows.
    "certify-deep": [
        f"certify --case {case} -n 40 --window 3 39 --bits 200"
        for case in ("zeta-p2", "zeta-p3", "catalan-p2")
    ],
    # The README's invocations at default sizes: start-up, import, canaries,
    # small tables and 40-bit oracles.
    "cli-defaults": [
        "series --form evil --weight 4 --p 2 --prec 3",
        "series --case zeta-p2 --prec 5",
        "sequences --case catalan-p2 -n 7",
        "sequences --case zeta-p2 -n 12 --format json -o {out}",
        "certify --case zeta-p2",
        "certify --case zeta-p2 -k 2",
        "certify --case zeta-p3",
        "certify --case zeta-p5",
        "certify --case catalan-p2",
        "oracle --target zeta-p2 -n 1 --bits 40",
        "oracle --target zeta-p3 --bits 40",
        "oracle --target catalan --bits 40",
        "recurrence verify",
        "recurrence fit",
    ],
}

# Every op is killed after this many seconds from the start of the run, so a
# run always ends well inside three minutes.
HARD_LIMIT_S = 165.0
# A set-up probe runs before an op when this long has passed since the last
# one, so set-up is sampled across the whole run; at least MIN_PROBES run.
PROBE_EVERY_S = 1.0
MIN_PROBES = 7
MIN_COVERAGE = 0.95
# The reference computation is timed when this long has passed since its last
# timing, and once at each end of the run.
REFERENCE_EVERY_S = 2.0
# Reported times are seconds on a host where the reference takes this long.
REFERENCE_S = 0.2

END_TO_END = {
    "run_s": "s",
    "op_s_max": "s",
    "rows_delivered": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

# Per-layer metric -> unit.  Times are inclusive span time summed over a
# pass, except cli.self_s; counts are summed over a pass except *_max_*.
PER_LAYER = {
    "setup.start_s": "s",
    "setup.import_s": "s",
    "setup.exit_s": "s",
    "cli.self_s": "s",
    "curves.canary_s": "s",
    "curves.uniformizer_s": "s",
    "eisenstein.series_s": "s",
    "qseries.mul_s": "s",
    "expansion.sequences_s": "s",
    "expansion.reexpand_s": "s",
    "expansion.reexpand_calls": "count",
    "expansion.prec_per_row": "terms/row",
    "expansion.operand_bits_max": "bits",
    "oracle.eval_s": "s",
    "oracle.node_s": "s",
    "oracle.extrapolate_s": "s",
    "oracle.nodes": "count",
    "eisenstein.bernoulli_max_index": "index",
    "eisenstein.euler_max_index": "index",
    "oracle.bits_requested": "bits",
    "oracle.bits_achieved": "bits",
    "oracle.bits_ratio": "ratio",
    "diophantine.criterion_s": "s",
    "diophantine.certified_rows": "count",
    "diophantine.oracle_bound_rows": "count",
    "recurrence.verify_s": "s",
    "recurrence.fit_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
    "trace.missing_sites": "count",
    "host.reference_s": "s",
}

_PEAKS = ("expansion.operand_bits_max", "eisenstein.bernoulli_max_index", "eisenstein.euler_max_index")


class BenchError(Exception):
    """The benchmark cannot run here (not a checkout, wrong import path)."""


@dataclass
class Sample:
    """One op process: its wall time, max RSS and checked output."""

    op: str
    wall: float
    rss_mb: float
    failure: str | None
    rows: int
    layers: dict = field(default_factory=dict)  # traced ops only
    trace: dict | None = None
    epoch: int = 0  # index of the last reference timing before this sample


@dataclass
class Run:
    samples: list[Sample] = field(default_factory=list)  # untraced ops
    traced: list[Sample] = field(default_factory=list)
    setup: list[Sample] = field(default_factory=list)  # set-up probes
    references: list[float] = field(default_factory=list)

    def scale(self, sample: Sample) -> float:
        """Factor from the sample's seconds to seconds at reference speed,
        from the reference timings just before and just after it."""
        around = self.references[sample.epoch : sample.epoch + 2]
        return REFERENCE_S / statistics.mean(around)


def reference_s() -> float:
    """Wall time of a fixed exact computation in this process.

    The host's speed drifts by up to a factor of two over tens of seconds
    (other tenants; CPU time follows wall time).  The computation is the two
    kinds of work the ops do: products of truncated power series with small
    Fraction coefficients (tables), and the even Bernoulli recurrence with
    thousand-bit Fractions (oracle).  Timing it between ops measures the
    speed the ops ran at.
    """
    start = spans.now()
    b = [Fraction(k % 11 + 1, k % 7 + 2) for k in range(110)]
    a = b
    for _ in range(3):
        out = [Fraction(0)] * len(b)
        for i, ai in enumerate(a):
            for j in range(len(b) - i):
                out[i + j] += ai * b[j]
        a = out
    bernoulli = [Fraction(1)]
    while len(bernoulli) < 160:
        m = 2 * len(bernoulli)
        total = Fraction(-(m + 1), 2)
        for j, bj in enumerate(bernoulli):
            total += comb(m + 1, 2 * j) * bj
        bernoulli.append(-total / (m + 1))
    return spans.now() - start


def op_env(root: Path) -> dict:
    """Environment for op processes: the checkout's src/ first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    env.pop("PADICAPERY_MAX_TERMS", None)
    return env


class Spawner:
    """The spawner.py helper, which runs and times every process of a run."""

    def __init__(self, env: dict) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )

    def run(self, argv: list[str], stdout: Path, stderr: Path, timeout: float) -> tuple[int, float, float]:
        """Return (exit code, wall s, max RSS MB) of one process."""
        self._proc.stdin.write(json.dumps([argv, str(stdout), str(stderr), timeout]) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError("the spawner helper exited")
        code, wall, rss_kib = json.loads(line)
        return code, wall, rss_kib / 1024

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, kind, value, tb) -> None:
        if kind is None:
            self._proc.stdin.close()
        else:
            self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def setup_probe(spawner: Spawner, root: Path, timeout: float = 60.0) -> float:
    """Time a fresh interpreter importing padicapery.cli and building its
    parser; fail unless the import came from ``root``'s src/."""
    code = "import padicapery.cli as c; c.build_parser(); print(c.__file__)"
    out, err = OUT / "probe.stdout", OUT / "probe.stderr"
    status, wall, _ = spawner.run([sys.executable, "-c", code], out, err, timeout)
    imported = Path(out.read_text(encoding="utf-8").strip() or ".").resolve()
    expected = (root / "src" / "padicapery" / "cli.py").resolve()
    if status != 0 or imported != expected:
        raise BenchError(
            f"set-up probe imported {imported} (exit {status}), expected {expected}: "
            + err.read_text(encoding="utf-8", errors="replace")[-500:]
        )
    return wall


def run_op(spawner: Spawner, op: str, timeout: float, traced: bool) -> Sample:
    """Run one op, untraced (``python -m padicapery``) or under launcher.py."""
    written, trace_path = OUT / "op.written", OUT / "op.spans.json"
    written.unlink(missing_ok=True)
    trace_path.unlink(missing_ok=True)
    if traced:
        prefix = [sys.executable, str(HERE / "launcher.py"), str(trace_path), "{spawned}"]
    else:
        prefix = [sys.executable, "-m", "padicapery"]
    out, err = OUT / "op.stdout", OUT / "op.stderr"
    argv = prefix + op.replace("{out}", str(written)).split()
    code, wall, rss = spawner.run(argv, out, err, timeout)
    failure, rows = checks.check(
        op,
        code,
        out.read_bytes(),
        err.read_bytes(),
        written.read_bytes() if written.exists() else None,
    )
    sample = Sample(op, wall, rss, failure, rows)
    if traced:
        if trace_path.exists():
            sample.trace = json.loads(trace_path.read_text(encoding="utf-8"))
            _add_exit_span(sample.trace["spans"], wall)
            sample.layers = layer_values(sample.trace, wall)
        elif failure is None:
            sample.failure = "no trace written"
    return sample


def _add_exit_span(span_list: list, wall: float) -> None:
    """Close the trace with interpreter shutdown: from the end of cli.main to
    the process's exit as the spawner saw it.  This includes the launcher
    writing its trace, well under a millisecond."""
    spawned = next(s[1] for s in span_list if s[0] == "setup.start")
    main_end = max(s[2] for s in span_list if s[0] == "cli.main")
    span_list.append(["setup.exit", main_end, spawned + wall, None])


def layer_values(trace: dict, wall: float) -> dict:
    """Per-layer numbers of one traced op, from its spans and counters."""
    span_list = trace["spans"]
    values = {f"{name}_s": t for name, t in spans.inclusive_times(span_list).items()}
    selfs = spans.self_times(span_list)
    values["cli.self_s"] = sum(t for span, t in zip(span_list, selfs) if span[0] == "cli.main")
    values.update(trace["counters"])
    values["trace.covered_s"] = spans.covered(span_list)
    values["trace.wall_s"] = wall
    return values


def measure(ops: list[str], seconds: float, seed: int, trace: bool) -> Run:
    """Closed loop over passes of ``ops`` for about ``seconds`` seconds."""
    rng = random.Random(seed)
    start = spans.now()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    run = Run()
    cost: dict[str, float] = {}
    OUT.mkdir(exist_ok=True)
    with Spawner(op_env(ROOT)) as spawner:
        setup_probe(spawner, ROOT)  # untimed: writes the bytecode cache
        run.references.append(reference_s())
        last_reference, last_probe = spans.now(), -float("inf")

        def probe() -> None:
            wall = setup_probe(spawner, ROOT, hard - spans.now())
            run.setup.append(Sample("setup", wall, 0.0, None, 0, epoch=len(run.references) - 1))

        for index in itertools.count():
            if index % len(ops) == 0:
                order = rng.sample(ops, len(ops))
            op = order[index % len(ops)]
            now = spans.now()
            if now >= hard or (index >= len(ops) and now + cost[op] > deadline):
                break
            if now - last_reference >= REFERENCE_EVERY_S:
                run.references.append(reference_s())
                last_reference = spans.now()
            if spans.now() - last_probe >= PROBE_EVERY_S:
                probe()
                last_probe = spans.now()
            began = spans.now()
            # A traced run also runs each op traced, alternating per pass
            # which side goes first, so both see the same host on average.
            sides = [False, True] if trace else [False]
            if (index // len(ops)) % 2:
                sides.reverse()
            for traced in sides:
                sample = run_op(spawner, op, hard - spans.now(), traced)
                sample.epoch = len(run.references) - 1
                (run.traced if traced else run.samples).append(sample)
            cost[op] = spans.now() - began
        while len(run.setup) < MIN_PROBES and spans.now() < hard:
            probe()
        run.references.append(reference_s())
    return run


def _mean_by_op(samples: list[Sample], key) -> dict[str, float]:
    by_op: dict[str, list[float]] = {}
    for sample in samples:
        by_op.setdefault(sample.op, []).append(key(sample))
    return {op: statistics.fmean(values) for op, values in by_op.items()}


def end_to_end(run: Run) -> dict[str, float]:
    """A pass is estimated by each op's mean over the run; times are at
    reference speed."""
    walls = _mean_by_op(run.samples, lambda s: s.wall * run.scale(s))
    rows = _mean_by_op(run.samples, lambda s: s.rows)
    everything = run.samples + run.traced
    return {
        "run_s": sum(walls.values()),
        "op_s_max": max(walls.values()),
        "rows_delivered": round(sum(rows.values())),
        "setup_s": statistics.median(s.wall * run.scale(s) for s in run.setup),
        "peak_rss_mb": max(s.rss_mb for s in run.samples),
        "ok_ratio": sum(s.failure is None for s in everything) / len(everything),
    }


def per_layer(run: Run) -> dict[str, float]:
    """Per-op means of each traced number, combined into one pass; times
    are at reference speed."""

    def scaled(sample: Sample) -> dict:
        factor = run.scale(sample)
        return {k: v * factor if k.endswith("_s") else v for k, v in sample.layers.items()}

    layers = {id(s): scaled(s) for s in run.traced}
    keys = {key for values in layers.values() for key in values}
    per_op = {key: _mean_by_op(run.traced, lambda s: layers[id(s)].get(key, 0.0)) for key in keys}
    total = {key: sum(v.values()) for key, v in per_op.items()}
    values = {metric: 0.0 for metric in PER_LAYER}
    values.update({key: v for key, v in total.items() if key in PER_LAYER})
    for key in _PEAKS:
        if key in per_op:
            values[key] = max(per_op[key].values())
    values["oracle.extrapolate_s"] = values["oracle.eval_s"] - values["oracle.node_s"]
    rows = total.get("expansion.reexpand_rows", 0)
    values["expansion.prec_per_row"] = total.get("expansion.reexpand_prec", 0) / rows if rows else 0.0
    requested = values["oracle.bits_requested"]
    values["oracle.bits_ratio"] = values["oracle.bits_achieved"] / requested if requested else 0.0
    wall = total.get("trace.wall_s", 0.0)
    values["trace.coverage"] = total.get("trace.covered_s", 0.0) / wall if wall else 0.0
    values["trace.overhead_s"] = wall - end_to_end(run)["run_s"]
    values["host.reference_s"] = statistics.median(run.references)
    return values


def write_spans(run: Run, path: Path) -> None:
    records = [{"op": s.op, "wall": s.wall, **(s.trace or {})} for s in run.traced]
    path.write_text(json.dumps(records), encoding="utf-8")


def result(run: Run, trace: bool) -> dict:
    everything = run.samples + run.traced
    failed = sum(s.failure is not None for s in everything)
    if trace:
        metrics, units = per_layer(run), PER_LAYER
        correct = failed == 0 and metrics["trace.coverage"] >= MIN_COVERAGE
    else:
        metrics, units = end_to_end(run), END_TO_END
        correct = failed == 0
    return {
        "correct": correct,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so the spawner and its op are stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "padicapery" / "cli.py").is_file():
        print(f"error: {ROOT} is not a padicapery checkout (no src/padicapery)", file=sys.stderr)
        return 2
    try:
        run = measure(WORKLOADS[args.workload], args.seconds, args.seed, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for sample in run.samples + run.traced:
        if sample.failure is not None:
            print(f"FAILED {sample.op}: {sample.failure}", file=sys.stderr)
    report = result(run, bool(args.trace))
    unscaled = sum(_mean_by_op(run.samples, lambda s: s.wall).values())
    print(
        f"pass wall {unscaled:.3f} s unscaled; reference computation {statistics.median(run.references):.4f} s "
        f"(times are reported at {REFERENCE_S} s)",
        file=sys.stderr,
    )
    if args.trace:
        write_spans(run, OUT / f"spans-{args.workload}-seed{args.seed}.json")
        if report["metrics"]["trace.coverage"]["value"] < MIN_COVERAGE:
            print(f"trace coverage below {MIN_COVERAGE}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
