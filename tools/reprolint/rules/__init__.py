"""Rule registry: every shipped rule family, in id order."""

from tools.reprolint.rules.determinism import (
    SetIterationRule,
    UnstableNumpySortRule,
    KeylessMergeSortRule,
    WallClockInScoringRule,
)
from tools.reprolint.rules.shm import (
    SegmentOwnershipRule,
    BufEscapeRule,
    RaiseAfterAttachRule,
)
from tools.reprolint.rules.cancellation import (
    ScoreSeamRule,
    DispatchFunnelRule,
    ExecutorConfinementRule,
    BatchScoreFunnelRule,
    CollectionFunnelRule,
)
from tools.reprolint.rules.kernel import MatrixParityRule, SlopeBasedDeclarationRule
from tools.reprolint.rules.index import FloorSeamRule
from tools.reprolint.rules.artifacts import MappingLifecycleRule
from tools.reprolint.rules.serving import AsyncBlockingCallRule
from tools.reprolint.rules.imports import (
    ImportWeightRule,
    UnusedImportRule,
    ApparatusImportRule,
)
from tools.reprolint.rules.citations import DanglingCitationRule

ALL_RULES = [
    SetIterationRule(),
    UnstableNumpySortRule(),
    KeylessMergeSortRule(),
    WallClockInScoringRule(),
    SegmentOwnershipRule(),
    BufEscapeRule(),
    RaiseAfterAttachRule(),
    ScoreSeamRule(),
    DispatchFunnelRule(),
    ExecutorConfinementRule(),
    BatchScoreFunnelRule(),
    CollectionFunnelRule(),
    MatrixParityRule(),
    SlopeBasedDeclarationRule(),
    FloorSeamRule(),
    MappingLifecycleRule(),
    AsyncBlockingCallRule(),
    ImportWeightRule(),
    UnusedImportRule(),
    DanglingCitationRule(),
    ApparatusImportRule(),
]

RULES_BY_ID = {rule.id: rule for rule in ALL_RULES}
