"""reprolint: repo-specific AST invariant checker for the repro engine.

Six PRs of exactness claims — byte-identical parallel merges, bitwise
kernel parity, leak-proof shared-memory lifecycle, rerun-safe
cancellation — are enforced at runtime by the test suites.  This tool
enforces the *idioms those claims rely on* at lint time, so a future PR
cannot quietly introduce an unordered-set iteration into a top-k merge,
an unguarded ``SharedMemory`` attach, or a Score dispatcher that skips
the ``ExecutionControl`` seam, and only find out when a flaky failure
surfaces under one worker count.

Run it the way CI does::

    python -m tools.reprolint src tests benchmarks

Rule families (see ``tools/reprolint/RULES.md`` for the catalog and the
runtime suite that backs each one):

* **REP01x determinism** — unordered iteration, unstable numpy sorts,
  key-less sorts in merge/rank paths, wall-clock/randomness in scoring.
* **REP02x shm lifecycle** — every segment reaches an owner or a
  close/finalize registration; no raw ``.buf`` escapes; no leak on
  raise paths between attach and ownership transfer.
* **REP03x cancellation seam** — Score operators route dispatch through
  ``_run_tasks``/``run_cancellable`` or checkpoint the control; pool
  construction is confined to ``WorkerPool``.
* **REP04x** — retired: the call shims its one rule guarded are gone.
* **REP05x kernel parity** — ``CompiledUnit`` subclasses overriding a
  matrix kernel keep a consistent scalar path and declare
  ``slope_based``.

Suppressions are either inline (``# reprolint: disable=REP011 -- why``)
or entries in ``tools/reprolint/baseline.json``; both require a written
rationale, and stale baseline entries are themselves errors.
"""

from tools.reprolint.findings import Finding  # noqa: F401
from tools.reprolint.driver import run_paths, main  # noqa: F401

__version__ = "1.0.0"
