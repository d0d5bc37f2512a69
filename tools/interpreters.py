"""Check the package on each of several Python interpreters.

    python3 tools/interpreters.py [--pytest-path DIR] PYTHON [PYTHON ...]

For each interpreter, in the checkout that holds this tool, it runs:

* ``PYTHON -m realize check``, which must exit 0;
* every CLI call that ``tests/test_cli_bytes.py`` pins, in one process of
  that interpreter, each compared with its pinned sha256 of
  ``b"<exit code>\\n" + stdout``.  The digests and the scenario file they use
  are read from that module's source, so this needs no pytest;
* the tier-1 suite, ``PYTHON -m pytest -q -p no:cacheprovider``, where
  pytest and hypothesis import.

``--pytest-path DIR`` puts ``DIR`` on ``PYTHONPATH`` after ``src``, for an
interpreter with no pytest of its own: pytest and hypothesis are pure
Python, so one interpreter's ``site-packages`` can serve another.  Children
run with ``PYTHONDONTWRITEBYTECODE=1``, so no bytecode lands in the
checkout.  It prints one line per check and exits 1 if a check that ran
failed.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = ROOT / "tests" / "test_cli_bytes.py"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("pythons", nargs="*", metavar="PYTHON", help="interpreter to check")
    p.add_argument("--pytest-path", metavar="DIR", help="directory that holds pytest and hypothesis")
    p.add_argument("--digests", action="store_true", help=argparse.SUPPRESS)  # the child's part
    args = p.parse_args(argv)
    if not args.pythons and not args.digests:
        p.error("name at least one interpreter")
    return args


def pinned() -> tuple[str, dict[str, str]]:
    """The scenario text and the {argv joined by spaces: digest} table that ``test_cli_bytes.py`` pins."""
    values = {}
    for node in ast.parse(PINS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in ("CENTAVO_TEXT", "DIGESTS"):
                values[node.targets[0].id] = ast.literal_eval(node.value)
    return values["CENTAVO_TEXT"], values["DIGESTS"]


def digests() -> int:
    """Run every pinned CLI call in this interpreter; print the count that match and each that does not."""
    from realize import cli

    text, pins = pinned()
    misses = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "centavos.scn").write_text(text, encoding="utf-8")
        os.chdir(tmp)
        try:
            for argv, digest in pins.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(argv.split())
                if hashlib.sha256(f"{code}\n{out.getvalue()}".encode("utf-8")).hexdigest() != digest:
                    misses.append(argv)
        finally:
            os.chdir(here)
    print(f"{len(pins) - len(misses)} of {len(pins)} match")
    for argv in misses:
        print(f"  differs: {argv}")
    return 1 if misses else 0


def child(python: str, args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([python, *args], cwd=ROOT, env=env, capture_output=True, text=True)


def last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def check(python: str, pytest_path: str | None) -> bool:
    """Print the checks of one interpreter; whether every one that ran passed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), pytest_path]))
    version = child(python, ["-c", "import platform; print(platform.python_version())"], env)
    if version.returncode:
        print(f"{python}: does not start ({last_line(version.stderr)})")
        return False
    print(f"{python} ({version.stdout.strip()})")
    done = child(python, ["-m", "realize", "check"], env)
    ok = done.returncode == 0
    print(f"  realize check: exit {done.returncode}")
    done = child(python, [str(Path(__file__).resolve()), "--digests"], env)
    ok &= done.returncode == 0
    print(f"  CLI digests: {done.stdout.strip() or last_line(done.stderr)}")
    if child(python, ["-c", "import pytest, hypothesis"], env).returncode:
        print("  tier-1: not run, pytest or hypothesis does not import")
        return ok
    done = child(python, ["-m", "pytest", "-q", "-p", "no:cacheprovider"], env)
    print(f"  tier-1: {last_line(done.stdout)}")
    return ok and done.returncode == 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.digests:
        return digests()
    results = [check(python, args.pytest_path) for python in args.pythons]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
