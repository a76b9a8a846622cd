"""The genomics case study of paper §8, end to end.

Reproduces the bioinformatics researchers' exploration session: genes
suppressed or activated by a treatment, stem-cell differentiation
plateaus (gbx2 / klf5 / spry4), and the pvt1 double-peak outlier —
each found with a one-line ShapeSearch query over a synthetic
mouse-gene table that stands in for the MGD dataset.

Run with::

    python examples/genomics_case_study.py
"""

from repro import ShapeSearch
from repro.datasets import gene_expression_dataset
from repro.render import render_matches


def main() -> None:
    table, planted = gene_expression_dataset(n_genes=60, length=48)
    session = ShapeSearch(table)

    print("§8-II — treatment response: sudden expression, gradual decline")
    matches = session.prepare(
        "[p=flat][p=up,m=>>][p=down,m=<]",
        z="gene", x="time", y="expression",
    ).run(k=4)
    print(render_matches(matches))
    print("   planted treatment genes:", ", ".join(planted["treatment"]))

    print()
    print("§8-III — stem-cell self-renewal: rise then high stable plateau")
    matches = session.prepare(
        "[p=up][p=flat]", z="gene", x="time", y="expression"
    ).run(k=4)
    print(render_matches(matches))
    print("   planted stem-cell genes:", ", ".join(planted["stem-up"]))

    print()
    print("§8-III inverse — differentiation: decline to a low stable level")
    matches = session.prepare(
        "start high and then gradually decreasing and then flat",
        z="gene", x="time", y="expression",
    ).run(k=3)
    print(render_matches(matches))

    print()
    print("§8-IV — the outlier hunt: two peaks within a short window (pvt1)")
    matches = session.prepare(
        "[p=up,m=2]", z="gene", x="time", y="expression"
    ).run(k=3)
    print(render_matches(matches))
    print("   planted double-peak gene:", ", ".join(planted["double-peak"]))


if __name__ == "__main__":
    main()
