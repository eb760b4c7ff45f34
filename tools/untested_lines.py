"""List the lines of src/padicapery that the test suite never runs.

    python tools/untested_lines.py

Runs ``python -m pytest -q`` from the repository root with a ``sys.settrace``
line collector in every Python process: a ``sitecustomize`` module on
PYTHONPATH starts it, so CLI subprocesses started by the tests are traced
too.  Then prints ``path:line: source`` for every executable line of
src/padicapery that no process ran.  Exits 0 when there is none, 1 when there
is one, and with pytest's status, after its output, when the suite fails.

Standard library only.  This module is imported inside every traced process,
so at import it loads nothing past os and sys: in particular not json, csv or
statistics, whose absence from sys.modules the suite checks.
"""

import os
import sys

# Set in the traced processes' environment: where each writes the lines it
# ran, and the directory whose files are traced.
_OUT = "UNTESTED_LINES_OUT"
_SRC = "UNTESTED_LINES_SRC"


def collect() -> None:
    """Trace this process's lines under $UNTESTED_LINES_SRC and append them
    to a file in $UNTESTED_LINES_OUT at exit; do nothing without both."""
    out, prefix = os.environ.get(_OUT), os.environ.get(_SRC)
    if not (out and prefix):
        return
    import atexit

    ran: dict[str, set[int]] = {}
    tracers: dict[str, object] = {}

    def tracer_for(filename: str):
        if not filename.startswith(prefix):
            return None
        lines = ran[filename] = set()

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    def trace_calls(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return tracers[filename]
        except KeyError:
            tracer = tracers[filename] = tracer_for(filename)
            return tracer

    def save() -> None:
        sys.settrace(None)
        with open(os.path.join(out, f"{os.getpid()}.lines"), "a", encoding="utf-8") as handle:
            for filename, lines in ran.items():
                handle.write(f"{filename}\t{' '.join(map(str, sorted(lines)))}\n")

    atexit.register(save)
    sys.settrace(trace_calls)


def _executable(code) -> set[int]:
    """Every line that code or a code object nested in it runs."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, type(code)):
            lines |= _executable(const)
    return lines


def main() -> int:
    import subprocess
    import tempfile
    from pathlib import Path

    repo = Path(__file__).parent.parent
    package = repo / "src" / "padicapery"
    ran: dict[str, set[int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "sitecustomize.py").write_text(
            "import untested_lines\nuntested_lines.collect()\n", encoding="utf-8"
        )
        inherited = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                [tmp, str(Path(__file__).parent), str(repo / "src")]
                + ([inherited] if inherited else [])
            ),
            _OUT: tmp,
            _SRC: str(package) + os.sep,
        }
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q"],
            cwd=repo,
            env=env,
            capture_output=True,
            text=True,
        )
        if result.returncode:
            sys.stdout.write(result.stdout)
            sys.stderr.write(result.stderr)
            return result.returncode
        for record in Path(tmp).glob("*.lines"):
            for entry in record.read_text(encoding="utf-8").splitlines():
                filename, lines = entry.split("\t")
                ran.setdefault(filename, set()).update(map(int, lines.split()))
    untested = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        missed = _executable(compile(source, str(path), "exec")) - ran.get(str(path), set())
        untested += [
            f"{path.relative_to(repo)}:{line}: {text[line - 1].strip()}" for line in sorted(missed)
        ]
    for line in untested:
        print(line)
    return 1 if untested else 0


if __name__ == "__main__":
    sys.exit(main())
