"""The survey script, run from a checkout as a separate process, and the
shipped code's independence from ``assert``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import padicmetrics

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    # the child imports the package from where this session found it, which
    # pytest's pythonpath setting may have put on sys.path without the env
    src = str(Path(padicmetrics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_shipped_code_has_no_assert():
    # python -O strips assert statements, so shipped checks must raise or exit
    found = []
    for path in sorted([*(ROOT / "src").rglob("*.py"), *SCRIPTS.glob("*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.relative_to(ROOT)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def test_survey_random_classes_counts():
    proc = run_script("survey_random_classes.py", "--trials", "300")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "trials                     300",
        "total distance orders      180",
        "random tabulation passes   174",
        "extensions built + passed  156",
        "counterexamples verified   120",
    ]
