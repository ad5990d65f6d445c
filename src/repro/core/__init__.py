"""EqSQL core: the end-to-end extraction and rewriting pipeline."""

from .extractor import (
    STATUS_CAPABLE,
    STATUS_FAILED,
    STATUS_SUCCESS,
    ExtractionReport,
    VariableExtraction,
    extract_sql,
    optimize_program,
)
from .options import DIALECTS, ExtractOptions

__all__ = [
    "DIALECTS",
    "ExtractOptions",
    "ExtractionReport",
    "STATUS_CAPABLE",
    "STATUS_FAILED",
    "STATUS_SUCCESS",
    "VariableExtraction",
    "extract_sql",
    "optimize_program",
]
