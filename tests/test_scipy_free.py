"""rootfield starts and runs without scipy.

Importing `rootfield` and `rootfield.cli` loads no scipy module, and
neither does a theorem run with its component census, nor the
supercharge search, `search.optimize_charges`.  scipy serves the tests
only, as an oracle.  Each check runs in a fresh interpreter, since this
test session has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a small run whose census has components, so labeling and moats run
CONFIG = {"domain": {"kind": "disk", "center": [0.0, 0.0], "radius": 1.0},
          "epsilon": 0.25, "n": 6, "m": 2, "delta_sweep": [1e-2],
          "resolution": 40, "seed": 1}

THEOREM = """
import json, sys
def scipy_modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy")
import rootfield, rootfield.cli
at_import = scipy_modules()
code = rootfield.cli.main(["theorem", "--config", sys.argv[1],
                           "--out", sys.argv[2]])
print(json.dumps([code, at_import, scipy_modules()]))
"""

SEARCH = """
import json, sys
def scipy_modules():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "scipy")
from rootfield import Curve, SearchConfig, optimize_charges
optimize_charges(SearchConfig(Curve([0.0, 1.0]), 1, restarts=1, budget=40))
after_search = scipy_modules()
import scipy.optimize
print(json.dumps([after_search, "scipy.optimize" in scipy_modules()]))
"""


def _run(script, *args, cwd):
    src = str(ROOT / "src")
    path_env = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + path_env if path_env else src)
    done = subprocess.run([sys.executable, "-c", script, *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_theorem_run_loads_no_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    code, at_import, after_run = _run(THEOREM, str(config), str(out),
                                      cwd=tmp_path)
    assert code == 0
    assert at_import == []
    assert after_run == []
    report = json.loads((out / "report.json").read_text())
    assert report["deltas"][0]["components"]


def test_the_supercharge_search_loads_no_scipy(tmp_path):
    # the probe sees scipy once it is loaded
    assert _run(SEARCH, cwd=tmp_path) == [[], True]
