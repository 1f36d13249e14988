"""Interval partitions certifying the Stanley depth of squarefree
Veronese ideals: block structures, constructive certificates, and an exact
exhaustive solver."""

from .blocks import (
    BlockStructure,
    CircBlock,
    Density,
    block_structure,
    block_structure_violation,
    f_delta,
    verify_block_structure,
)
from .construct import (
    Bounds,
    bounds,
    construct_c2,
    construct_c3,
    construct_c4,
    construct_general,
)
from .intervals import (
    Certificate,
    VerifyReport,
    format_certificate,
    parse_certificate,
    render_stanley,
    verify_certificate,
)
from .setcore import PointSet, make_set
from .solver import (
    SearchBudget,
    SolveResult,
    certify_at_least,
    conjecture_scan,
    exact_sdepth,
)

__all__ = [
    "BlockStructure",
    "Bounds",
    "Certificate",
    "CircBlock",
    "Density",
    "PointSet",
    "SearchBudget",
    "SolveResult",
    "VerifyReport",
    "block_structure",
    "block_structure_violation",
    "bounds",
    "certify_at_least",
    "conjecture_scan",
    "construct_c2",
    "construct_c3",
    "construct_c4",
    "construct_general",
    "exact_sdepth",
    "f_delta",
    "format_certificate",
    "make_set",
    "parse_certificate",
    "render_stanley",
    "verify_block_structure",
    "verify_certificate",
]
