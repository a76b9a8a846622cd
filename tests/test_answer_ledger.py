"""Every plan still returns the answers pinned in ``tests/golden/answers.json``.

The ledger holds one sha256 per (suite, query, plan) ranking; see
:mod:`tests.golden`.  A change that means to move answers rewrites the
file with ``python -m tests.golden --write`` and reviews the row diff;
any other change must leave every row as it is.
"""

import numpy as np

from tests.golden import load, run


def test_answers_match_the_ledger():
    pinned = load()
    fresh = run()
    old = {row["id"]: row for row in pinned["rows"]}
    new = {row["id"]: row for row in fresh["rows"]}
    assert list(new) == list(old), "the ledger's plans changed; rewrite it"
    moved = [
        "{}\n  ledger: {}\n  now:    {}".format(row_id, old[row_id]["top"], new[row_id]["top"])
        for row_id in old
        if old[row_id]["sha256"] != new[row_id]["sha256"]
    ]
    assert not moved, "{} of {} answers differ (ledger written with numpy {}, " \
        "this run numpy {}):\n{}".format(
            len(moved), len(old), pinned["numpy"], np.__version__, "\n".join(moved)
        )
