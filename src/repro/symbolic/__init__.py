"""The witness-refutation analysis: mixed symbolic-explicit queries,
backwards transfer functions, loop-invariant inference, and the
interprocedural path-program search engine."""

from .config import LoopInference, Representation, SearchConfig
from .executor import Engine, SearchTimeout
from .query import ArrayCell, Frame, Query
from .replay import ReplayResult, replay_witness
from .simplification import QueryHistory, query_entails
from .stats import REFUTED, TIMEOUT, WITNESSED, EdgeResult
from .symvar import DATA, REF, SymVar, fresh_data, fresh_ref
from .transfer import TransferContext, apply_assume, transfer_command
from .witness import render_witness, witness_steps

__all__ = [
    "LoopInference",
    "Representation",
    "SearchConfig",
    "Engine",
    "SearchTimeout",
    "ArrayCell",
    "Frame",
    "Query",
    "QueryHistory",
    "query_entails",
    "ReplayResult",
    "replay_witness",
    "REFUTED",
    "TIMEOUT",
    "WITNESSED",
    "EdgeResult",
    "DATA",
    "REF",
    "SymVar",
    "fresh_data",
    "fresh_ref",
    "TransferContext",
    "apply_assume",
    "transfer_command",
    "render_witness",
    "witness_steps",
]
