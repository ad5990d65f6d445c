"""SQL/HQL query-string parsing into relational algebra."""

from .parser import (
    SqlParseError,
    bind_slots,
    combine_conjunctive,
    parse_query,
    register_aggregate_name,
    template_params,
)

__all__ = [
    "SqlParseError",
    "bind_slots",
    "combine_conjunctive",
    "parse_query",
    "register_aggregate_name",
    "template_params",
]
