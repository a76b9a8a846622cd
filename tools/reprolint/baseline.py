"""The reviewed-suppression store: grandfathered findings with rationale.

The baseline is a JSON list, one entry per grandfathered finding::

    {
      "rule": "REP013",
      "path": "benchmarks/paper/pruning.py",
      "context": "prune_and_rank",
      "snippet": "floor = sorted(sampled_scores, reverse=True)[k - 1]",
      "justification": "sorts bare floats only to read the k-th value; ..."
    }

Entries match findings on ``(rule, path, context, snippet)`` — no line
numbers, so edits elsewhere in the file cannot invalidate a suppression,
while any change to the suppressed line itself (or moving it to another
function) *does*, forcing a fresh review.  Two invariants keep the file
honest, both enforced as errors by the driver:

* every entry carries a non-empty ``justification`` — the baseline is a
  reviewed document, not a mute button; and
* every entry must match a current finding — stale entries (the code
  was fixed, or drifted) must be deleted, so the file never overstates
  what is suppressed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from tools.reprolint.findings import Finding

_FIELDS = ("rule", "path", "context", "snippet")


class BaselineError(ValueError):
    """The baseline file itself is malformed (not a findings problem)."""


class Baseline:
    """In-memory view of the baseline file, with match bookkeeping."""

    def __init__(self, entries: List[Dict[str, str]], path: Optional[str] = None):
        self.path = path
        self.entries = entries
        self._matched = [False] * len(entries)
        self._index: Dict[Tuple[str, str, str, str], List[int]] = {}
        for position, entry in enumerate(entries):
            missing = [name for name in _FIELDS if not isinstance(entry.get(name), str)]
            if missing:
                raise BaselineError(
                    "baseline entry {} is missing field(s) {}: {!r}".format(
                        position, missing, entry
                    )
                )
            key = tuple(entry[name] for name in _FIELDS)
            self._index.setdefault(key, []).append(position)

    @classmethod
    def load(cls, path) -> "Baseline":
        path = Path(path)
        if not path.exists():
            return cls([], path=str(path))
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise BaselineError(
                "baseline {} is not valid JSON: {}".format(path, exc)
            ) from exc
        if not isinstance(data, list):
            raise BaselineError("baseline {} must hold a JSON list".format(path))
        return cls(data, path=str(path))

    def save(self, path=None) -> None:
        target = Path(path if path is not None else self.path)
        target.write_text(json.dumps(self.entries, indent=2, sort_keys=True) + "\n")

    # -- matching ----------------------------------------------------------
    def suppresses(self, finding: Finding) -> bool:
        """True (and mark the entry used) when ``finding`` is grandfathered."""
        positions = self._index.get(finding.key())
        if not positions:
            return False
        for position in positions:
            self._matched[position] = True
        return True

    def justification_errors(self) -> List[str]:
        """Entries whose justification is empty/missing — always errors."""
        problems = []
        for entry in self.entries:
            justification = entry.get("justification", "")
            if not isinstance(justification, str) or not justification.strip():
                problems.append(
                    "baseline entry for {rule} at {path} [{context}] has no "
                    "justification; every grandfathered suppression must say why "
                    "it is acceptable".format(
                        rule=entry["rule"], path=entry["path"], context=entry["context"]
                    )
                )
        return problems

    def stale_entries(self) -> List[str]:
        """Entries that matched nothing this run — the code moved on."""
        problems = []
        for position, entry in enumerate(self.entries):
            if not self._matched[position]:
                problems.append(
                    "stale baseline entry: {rule} at {path} [{context}] no longer "
                    "matches any finding (snippet {snippet!r}); delete it — the "
                    "baseline must not overstate what is suppressed".format(
                        rule=entry["rule"],
                        path=entry["path"],
                        context=entry["context"],
                        snippet=entry["snippet"],
                    )
                )
        return problems


def entries_for(findings, justification: str = "") -> List[Dict[str, str]]:
    """Baseline skeleton entries for ``findings`` (round-trip helper)."""
    entries = []
    for finding in findings:
        entries.append(
            {
                "rule": finding.rule,
                "path": finding.path,
                "context": finding.context,
                "snippet": finding.snippet,
                "justification": justification,
            }
        )
    return entries
