"""Conclave's core: the query compiler and multi-party execution layer.

The sub-modules follow the paper's structure:

================  =======================================================
``party``          parties and their roles
``types``          frontend column specifications / trust annotations
``lang``           LINQ-style query frontend (builds the operator DAG)
``relation``       intermediate-relation metadata (ownership, trust, order)
``operators``      DAG node types, including the hybrid operators
``dag``            DAG container and traversals
``propagation``    ownership and trust-set propagation (§5.1)
``frontier``       MPC-frontier push-down / push-up (§5.2)
``hybrid_rewrite`` hybrid-operator insertion (§5.3)
``sort_opt``       oblivious-operation reduction (§5.4)
``partition``      per-backend sub-plan partitioning (§6)
``codegen``        per-backend code generation (§6)
``compiler``       the six-stage pipeline tying the passes together
``dispatch``       multi-party execution of compiled queries
``config``         compilation switches (optimizations, consent, backends)
================  =======================================================
"""

from repro.core.compiler import CompiledQuery, CompilationReport, compile_query, run_query
from repro.core.config import CompilationConfig, GatewayConfig, RestartPolicy, RetryPolicy
from repro.core.dispatch import QueryResult, QueryRunner, SecurityError
from repro.core.expr import Expr, col, lit
from repro.core.lang import COMPOSITE_KEY_BASE, QueryContext, RelationHandle, concat, new_table
from repro.core.party import Party
from repro.core.types import (
    AggFunc,
    AggSpec,
    COUNT,
    FLOAT,
    INT,
    MAX,
    MEAN,
    MIN,
    SUM,
    Column,
)

__all__ = [
    "AggFunc",
    "AggSpec",
    "COMPOSITE_KEY_BASE",
    "Expr",
    "col",
    "lit",
    "CompiledQuery",
    "CompilationReport",
    "CompilationConfig",
    "GatewayConfig",
    "RestartPolicy",
    "RetryPolicy",
    "compile_query",
    "run_query",
    "QueryResult",
    "QueryRunner",
    "SecurityError",
    "QueryContext",
    "RelationHandle",
    "concat",
    "new_table",
    "Party",
    "Column",
    "INT",
    "FLOAT",
    "SUM",
    "COUNT",
    "MIN",
    "MAX",
    "MEAN",
]
