"""The method matrix's names and defaults, which the CLI offers as choices
and defaults. They live apart from `pipeline`, `providers` and `retrieval`,
which import numpy, so that a command that needs none of those can start
without it; each of those modules imports its own from here."""

from enum import Enum

DEFAULT_ALPHA = 0.75
DEFAULT_POOL = 100
DEFAULT_VOTE_K = 10
DEFAULT_RAG_K = 5
DEFAULT_OFFLINE_DIM = 256
MIN_OFFLINE_DIM = 16


class QueryKind(str, Enum):
    IMAGE = "image"
    KEYWORD = "keyword"
    VECTOR = "vector"
    HYBRID = "hybrid"
    RAG_VECTOR = "rag-vector"
    RAG_HYBRID = "rag-hybrid"


class DescriptionMode(str, Enum):
    FULL_PAGE = "page"
    ILLUSTRATION = "illustration"
