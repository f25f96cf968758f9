"""Guard on what importing the package loads."""
import os
import subprocess
import sys
from pathlib import Path

import nlunmix


def test_package_does_not_load_scipy_optimize():
    # scipy.optimize costs every process ~11 MB of resident memory and
    # ~0.1 s of start-up; the simplex fit carries its own BFGS instead
    src = str(Path(nlunmix.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))
    code = (
        "import sys\n"
        "import nlunmix, nlunmix.cli, nlunmix.pipeline\n"
        "print('scipy.optimize' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
