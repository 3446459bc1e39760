"""The survey scripts, end to end: stdout must match the recorded text
byte for byte."""

import os
import subprocess
import sys

import pytest

import nihobent

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nihobent.__file__)))
ROOT = os.path.dirname(SRC)
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# recorded stdout file name -> script and arguments
CASES = {
    "hyperoval_survey_m3": ["hyperoval_survey.py", "--m", "3",
                            "--report", "both"],
    "hyperoval_survey_m4": ["hyperoval_survey.py", "--m", "4",
                            "--report", "both"],
    "hyperoval_survey_m5_catalog": ["hyperoval_survey.py", "--m", "5",
                                    "--report", "catalog"],
    "family_survey_m2_4": ["family_survey.py", "--m-min", "2",
                           "--m-max", "4", "--samples", "8"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_survey_output_frozen(name):
    script, *args = CASES[name]
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
        check=True).stdout
    with open(os.path.join(DATA, f"{name}.txt"), encoding="ascii") as fh:
        assert out == fh.read()
