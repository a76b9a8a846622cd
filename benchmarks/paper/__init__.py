"""The paper's evaluation apparatus, kept beside the benches that use it.

``pruning`` is the two-stage collective pruning driver of §6.3 and its
dict SegmentTree, ``bounds`` the Table 7 level bounds of the same
section; ``study`` the simulated user study of §7 (Tables 8 and
10, Fig 9a); ``baselines`` the DTW, Euclidean and VQS comparators of
§7–9.  None of it ships in ``repro``: the benches and the tests import
the modules directly.
"""
