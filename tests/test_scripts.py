"""Smoke runs of the scripts the README documents, at small sizes."""

import os
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"

# the warnings that pyproject's filterwarnings turns into errors in-process;
# a child process does not inherit them
WARNINGS_AS_ERRORS = [
    "-W", "error::RuntimeWarning",
    "-W", "error::DeprecationWarning",
    "-W", "error::PendingDeprecationWarning",
]

# at length 60 the demo's fit stalls numerically
RUNS = {
    "parameter_counts": [],
    "lrt_calibration": ["--replicates", "2", "--length", "120", "--restarts", "1", "--max-iter", "10"],
    "selection_demo": ["--length", "120"],
}


@pytest.mark.parametrize("name", RUNS)
def test_script_runs(name):
    proc = subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, str(SCRIPTS / f"{name}.py"), *RUNS[name]],
        capture_output=True,
        text=True,
        # the child imports mhmm from wherever this test process found it
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
