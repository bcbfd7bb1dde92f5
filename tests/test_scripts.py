"""The two scripts in scripts/, run from a checkout as separate processes."""

import os
import subprocess
import sys
from pathlib import Path

import padicmetrics

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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


def test_reproduce_examples_names_the_known_failure():
    proc = run_script("reproduce_examples.py")
    assert proc.returncode == 1, proc.stderr
    lines = proc.stdout.splitlines()
    failures = [line.split(":")[0] for line in lines if line.startswith("FAIL ")]
    assert failures == ["FAIL zigzag-euclid-grid"]
    assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} fixtures reproduce"


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
