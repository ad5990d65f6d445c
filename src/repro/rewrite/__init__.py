"""Program rewriting: extracted SQL insertion and dead-code elimination."""

from .consolidate import Consolidation, consolidate_loops
from .emit import EmitError, Emitter
from .rewriter import (
    LoopMaps,
    eliminate_dead_code,
    insert_extractions,
    loop_extractions,
)

__all__ = [
    "Consolidation",
    "EmitError",
    "Emitter",
    "LoopMaps",
    "consolidate_loops",
    "eliminate_dead_code",
    "insert_extractions",
    "loop_extractions",
]
