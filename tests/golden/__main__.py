"""Rewrite the answer ledger: ``PYTHONPATH=src python -m tests.golden --write``.

Only a change that means to move answers runs this; review the row diff
of ``answers.json`` before committing it.
"""

import argparse

from tests.golden import PATH, dumps, run

parser = argparse.ArgumentParser(prog="python -m tests.golden")
parser.add_argument("--write", action="store_true", required=True, help="rewrite " + PATH)
parser.parse_args()
ledger = run()
with open(PATH, "w") as handle:
    handle.write(dumps(ledger))
print("wrote {} rows to {}".format(len(ledger["rows"]), PATH))
