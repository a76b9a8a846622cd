"""Generative check of the streaming tail against a cold re-run.

Random append schedules — rows for existing and for new groups, x values
that repeat ones already in the table, one to sixteen rows per append —
under random chains of two to five units and any k from 1 to 10: after
every append the tail's live top-k must equal a cold
``ShapeSearch(tail.table).prepare(...).run(k)`` over the grown table,
keys, score bits and placements alike.
"""

from hypothesis import given, strategies as st

from repro.algebra import builder as q
from repro.api import ShapeSearch
from repro.data.table import Table

#: Unit kinds the generated chains draw from.
UNITS = {"up": q.up, "down": q.down, "flat": q.flat}


def _bits(results):
    """Everything a match reports, floats as hex (so -0.0 != 0.0)."""
    return [
        (
            m.key,
            m.score.hex(),
            tuple(
                (p.seg_index, p.start, p.end, p.score.hex(), p.slope.hex())
                for p in m.placements
            ),
        )
        for m in results
    ]


@st.composite
def rows(draw, groups, size):
    """``size`` rows over ``groups``; x on a small grid, so they repeat."""
    return [
        {
            "z": draw(st.sampled_from(groups)),
            "x": float(draw(st.integers(0, 40))),
            "y": float(draw(st.integers(-20, 20))),
        }
        for _ in range(size)
    ]


@st.composite
def schedules(draw):
    """A starting table, then one to four appends of 1–16 rows each that
    mix the table's groups with groups it has not seen."""
    start = ["g{}".format(i) for i in range(draw(st.integers(1, 4)))]
    table = draw(rows(start, draw(st.integers(8, 60))))
    appends = []
    for n in range(draw(st.integers(1, 4))):
        groups = start + ["new{}".format(n), "new{}".format(n + 1)]
        appends.append(draw(rows(groups, draw(st.integers(1, 16)))))
    return table, appends


class TestTailAgainstColdRuns:
    @given(
        schedule=schedules(),
        kinds=st.lists(st.sampled_from(sorted(UNITS)), min_size=2, max_size=5),
        k=st.integers(1, 10),
    )
    def test_every_append_equals_a_cold_run(self, schedule, kinds, k):
        table, appends = schedule
        query = q.concat(*[UNITS[kind]() for kind in kinds])
        with ShapeSearch(Table.from_records(table)) as session:
            tail = session.tail(query, z="z", x="x", y="y", k=k)
            for batch in appends:
                live = tail.append_rows(batch)
                with ShapeSearch(tail.table) as cold:
                    want = cold.prepare(query, z="z", x="x", y="y").run(k)
                assert _bits(live) == _bits(want)
