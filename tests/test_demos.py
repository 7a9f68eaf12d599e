import os
import pathlib
import subprocess
import sys

import pytest

import mahashot

DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))
# The package root, absolute, so demos run from a scratch directory still
# import the code under test.
PACKAGE_ROOT = str(pathlib.Path(mahashot.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,  # demos write demo_out/ relative to the working directory
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_demos_found():
    # an empty glob would silently parametrize zero demo runs
    assert DEMOS
