"""File discovery, rule orchestration, suppression, reporting, exit codes.

The contract with CI is three exit codes: 0 — every rule clean over the
scanned tree (inline and baseline suppressions applied, every one of
them justified, no stale baseline entries); 1 — findings or suppression
bookkeeping errors; 2 — reprolint itself failed (unreadable baseline,
usage error).  Syntax errors in scanned files are findings-level errors
(exit 1), not crashes: a tree that does not parse cannot be certified.

Fixture trees under ``tests/fixtures/reprolint`` are skipped during
directory discovery — they exist to *violate* the rules — but a fixture
passed as an explicit file argument is scanned, which is how the test
suite exercises each rule against its bad/good pair.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from tools.reprolint.baseline import Baseline, BaselineError, entries_for
from tools.reprolint.findings import Report
from tools.reprolint.rules import ALL_RULES
from tools.reprolint.visitor import FileContext

_DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"
#: Subtrees never scanned via directory discovery (explicit files win).
_SKIP_PARTS = {"__pycache__", ".git", ".venv"}
_FIXTURE_SUBTREE = ("tests", "fixtures", "reprolint")


def _is_fixture(parts: Sequence[str]) -> bool:
    for start in range(len(parts) - len(_FIXTURE_SUBTREE) + 1):
        if tuple(parts[start : start + len(_FIXTURE_SUBTREE)]) == _FIXTURE_SUBTREE:
            return True
    return False


def discover(paths: Iterable[str], root: Path) -> List[Path]:
    """Expand path arguments into the sorted list of files to scan."""
    files: List[Path] = []
    for raw in paths:
        path = (root / raw).resolve() if not Path(raw).is_absolute() else Path(raw)
        if path.is_file():
            files.append(path)  # explicit file: no exclusions apply
            continue
        if not path.is_dir():
            raise FileNotFoundError("no such file or directory: {}".format(raw))
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.relative_to(root).parts if root in candidate.parents else candidate.parts
            if _SKIP_PARTS.intersection(parts):
                continue
            if _is_fixture(parts):
                continue
            files.append(candidate)
    # De-duplicate while keeping deterministic (sorted) order.
    unique = sorted(set(files))
    return unique


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _inline_suppressed(ctx: FileContext, finding) -> Optional[str]:
    """The rationale when an inline disable covers ``finding``, else None.

    A disable comment applies to its own line and, when it stands alone
    on a comment line, to the line directly below it.
    """
    for line in (finding.line, finding.line - 1):
        suppression = ctx.suppressions.get(line)
        if suppression is None:
            continue
        if line == finding.line - 1:
            if not ctx.source_line(line).startswith("#"):
                continue  # trailing comment on the previous statement
        if finding.rule in suppression.rules:
            return suppression.rationale
    return None


def run_paths(
    paths: Sequence[str],
    root: Optional[Path] = None,
    baseline_path: Optional[str] = None,
    rules=None,
):
    """Scan ``paths``; returns ``(Report, Baseline)`` (baseline has match state)."""
    root = (root or Path.cwd()).resolve()
    rules = list(ALL_RULES if rules is None else rules)
    baseline = Baseline.load(baseline_path or _DEFAULT_BASELINE)

    report = Report()
    scanned_prefixes = tuple(
        _relpath(
            (root / p).resolve() if not Path(p).is_absolute() else Path(p), root
        )
        for p in paths
    )
    for path in discover(paths, root):
        relpath = _relpath(path, root)
        applicable = [rule for rule in rules if rule.applies(relpath)]
        if not applicable:
            continue
        try:
            source = path.read_text()
            ctx = FileContext(relpath, source)
        except (OSError, SyntaxError, ValueError) as exc:
            report.errors.append("{}: cannot analyze: {}".format(relpath, exc))
            continue
        report.files_checked += 1
        for line in ctx.bad_suppressions:
            report.errors.append(
                "{}:{}: reprolint: disable without a '-- rationale'; every "
                "inline suppression must say why".format(relpath, line)
            )
        for rule in applicable:
            for finding in rule.check(ctx):
                rationale = _inline_suppressed(ctx, finding)
                if rationale is not None:
                    report.suppressed.append((finding, "inline: " + rationale))
                elif baseline.suppresses(finding):
                    report.suppressed.append((finding, "baseline"))
                else:
                    report.findings.append(finding)

    report.errors.extend(baseline.justification_errors())
    # Only treat unmatched entries as stale when their file was inside
    # this run's scan scope — a partial run must not invalidate the rest
    # of the baseline.
    for problem, entry in zip(baseline.stale_entries(), _unmatched(baseline)):
        in_scope = any(
            prefix in ("", ".") or entry["path"].startswith(prefix)
            for prefix in scanned_prefixes
        )
        if in_scope:
            report.errors.append(problem)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return report, baseline


def _unmatched(baseline: Baseline):
    return [
        entry
        for position, entry in enumerate(baseline.entries)
        if not baseline._matched[position]
    ]


def _write_updated_baseline(report: Report, baseline: Baseline, target: Path) -> None:
    """Regenerate the baseline: current findings, old justifications kept."""
    existing = {
        (e["rule"], e["path"], e["context"], e["snippet"]): e.get("justification", "")
        for e in baseline.entries
    }
    entries = entries_for(report.findings)
    kept = [entry for f, how in report.suppressed if how == "baseline" for entry in entries_for([f])]
    merged = {}
    for entry in entries + kept:
        key = (entry["rule"], entry["path"], entry["context"], entry["snippet"])
        entry["justification"] = existing.get(key, "")
        merged[key] = entry
    Baseline(list(merged.values()), path=str(target)).save()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m tools.reprolint",
        description="AST-based invariant checker for the repro engine "
        "(determinism, shm lifecycle, cancellation seams, kernel parity).",
    )
    parser.add_argument("paths", nargs="+", help="files or directories to scan")
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON (default: tools/reprolint/baseline.json)",
    )
    parser.add_argument(
        "--report", default=None, help="also write the full report as JSON here"
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from current findings (justifications for "
        "unchanged entries are preserved; new entries start unjustified and "
        "must be reviewed before the next run passes)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            scope = ", ".join(rule.scope) if rule.scope else "all scanned files"
            print("{}  {:<28} scope: {}".format(rule.id, rule.name, scope))
            print("        {}".format(rule.rationale))
        return 0

    try:
        report, baseline = run_paths(args.paths, baseline_path=args.baseline)
    except (BaselineError, FileNotFoundError) as exc:
        print("reprolint: error: {}".format(exc), file=sys.stderr)
        return 2

    if args.update_baseline:
        target = Path(args.baseline) if args.baseline else _DEFAULT_BASELINE
        _write_updated_baseline(report, baseline, target)
        print(
            "reprolint: wrote {} entries to {} (review and add justifications)".format(
                len(report.findings)
                + sum(1 for _, how in report.suppressed if how == "baseline"),
                target,
            )
        )
        return 0

    for finding in report.findings:
        print(finding.render())
        if finding.rationale:
            print("    why: {}".format(finding.rationale))
    for problem in report.errors:
        print("error: {}".format(problem))
    print(
        "reprolint: {} file(s) checked, {} finding(s), {} suppressed "
        "({} inline, {} baseline), {} error(s)".format(
            report.files_checked,
            len(report.findings),
            len(report.suppressed),
            sum(1 for _, how in report.suppressed if how.startswith("inline")),
            sum(1 for _, how in report.suppressed if how == "baseline"),
            len(report.errors),
        )
    )

    if args.report:
        Path(args.report).write_text(json.dumps(report.to_json(), indent=2) + "\n")

    return 0 if report.clean else 1
