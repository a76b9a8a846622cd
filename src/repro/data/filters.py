"""Filter constraints (the ``f`` of the paper's visual parameters, §5.1).

Users apply on-the-fly filters while exploring ("luminosity < 90 &&
luminosity > 10", Figure 1c); a :class:`Filter` is one such predicate,
compiled to a boolean mask over a :class:`~repro.data.table.Table`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.table import Table
from repro.errors import DataError

_OPS = ("==", "!=", ">=", "<=", ">", "<", "in", "between")


@dataclass(frozen=True)
class Filter:
    """One predicate: ``column <op> value``.

    ``in`` takes a tuple of allowed values; ``between`` a (low, high)
    inclusive pair; the comparison operators take a scalar.
    """

    column: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in _OPS:
            raise DataError("unknown filter operator {!r}".format(self.op))

    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask of rows satisfying this filter."""
        values = table.column(self.column)
        if self.op == "==":
            return values == self.value
        if self.op == "!=":
            return values != self.value
        if self.op == ">":
            return values > self.value
        if self.op == ">=":
            return values >= self.value
        if self.op == "<":
            return values < self.value
        if self.op == "<=":
            return values <= self.value
        if self.op == "in":
            allowed = set(self.value)
            return np.array([value in allowed for value in values.tolist()])
        low, high = self.value
        return (values >= low) & (values <= high)


_FILTER_RE = re.compile(
    r"^\s*(?P<column>[A-Za-z_][\w .-]*?)\s*(?P<op>==|!=|>=|<=|>|<|=)\s*(?P<value>.+?)\s*$"
)


def parse_filter(text: str) -> Filter:
    """Parse ``"column < 90"`` style filter strings (a single ``=`` is ``==``)."""
    match = _FILTER_RE.match(text)
    if match is None:
        raise DataError("cannot parse filter {!r}".format(text))
    op = match.group("op")
    if op == "=":
        op = "=="
    raw = match.group("value")
    try:
        value: object = float(raw)
    except ValueError:
        value = raw.strip("\"'")
    return Filter(column=match.group("column").strip(), op=op, value=value)


def filter_mask(table: Table, filters: Sequence[Filter]) -> np.ndarray:
    """Rows satisfying every filter — the conjunction ``&&`` in the paper's UI."""
    mask = np.ones(len(table), dtype=bool)
    for item in filters:
        mask &= item.mask(table)
    return mask


def apply_filters(table: Table, filters: Sequence[Filter]) -> Table:
    """The rows of ``table`` that satisfy every filter."""
    if not filters:
        return table
    return table.where(filter_mask(table, filters))
