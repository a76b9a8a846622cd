"""``import repro`` loads numpy and the standard library, nothing else.

Every pass child, pool worker and server process pays the package import
before its first answer, and a numpy-only install must be able to import
it at all.  The check runs in a fresh interpreter (this process already
holds pytest, hypothesis and whatever earlier tests pulled in); reprolint
REP091 is the static twin.  Also runnable as a plain script — the CI
``minimal-install`` job has no pytest::

    PYTHONPATH=src python tests/test_import_weight.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
before = set(sys.modules)
import repro, repro.serving
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
# (__mp_main__ is multiprocessing's alias of __main__, not a package.)
foreign = sorted(
    loaded - set(sys.stdlib_module_names) - {"numpy", "repro", "__mp_main__"}
)
print(json.dumps(foreign))
"""


def test_import_loads_only_numpy_and_the_stdlib():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    output = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, check=True, capture_output=True, text=True
    ).stdout
    foreign = json.loads(output)
    for heavy in ("scipy", "networkx", "hypothesis", "pytest"):
        assert heavy not in foreign, "import repro loads {}".format(heavy)
    assert foreign == []


if __name__ == "__main__":
    test_import_loads_only_numpy_and_the_stdlib()
    print("ok: import repro, repro.serving loads numpy and the stdlib only")
