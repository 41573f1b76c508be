"""Additional heap-reachability clients beyond the Android leak detector —
the applications the paper's introduction sketches: downcast safety,
lifetime/escape assertions, and field-encapsulation checking.

Every client answers through the shared
:class:`~repro.clients.result.AnalysisResult` protocol via its normalized
``analyze_*`` entry point (or the :func:`repro.api.analyze` facade).
"""

from .casts import (
    POSSIBLY_UNSAFE,
    SAFE,
    UNKNOWN,
    CastReport,
    analyze_casts,
)
from .encapsulation import (
    ExposureResult,
    analyze_encapsulation,
)
from .immutability import (
    IMMUTABLE,
    MUTATED,
    ImmutabilityReport,
    MutationSite,
    analyze_immutability,
)
from .reachability import (
    HOLDS,
    INCONCLUSIVE,
    VIOLATED,
    ReachabilityResult,
    analyze_reachability,
    assert_not_leaked,
    assert_unreachable,
    verified,
)
from .result import AnalysisResult, AnalysisStats

__all__ = [
    "AnalysisResult",
    "AnalysisStats",
    "POSSIBLY_UNSAFE",
    "SAFE",
    "UNKNOWN",
    "CastReport",
    "analyze_casts",
    "ExposureResult",
    "analyze_encapsulation",
    "IMMUTABLE",
    "MUTATED",
    "ImmutabilityReport",
    "MutationSite",
    "analyze_immutability",
    "HOLDS",
    "INCONCLUSIVE",
    "VIOLATED",
    "ReachabilityResult",
    "analyze_reachability",
    "assert_not_leaked",
    "assert_unreachable",
    "verified",
]
