"""Pass-based graph compiler: fusion, constant folding, backend
selection, and a lowered execution plan.

Entry points:

- :func:`compile_graph` / :func:`default_pipeline` — run the standard
  byte-identity pipeline (chain + sibling fusion, constant folding) over
  a graph in place; returns a :class:`CompileReport`.
- :class:`CompiledPlan` — the repo's one executor, re-exported from
  :mod:`repro.graph.executor`: runs a (compiled or plain) graph with
  precomputed dispatch, slots, free plan, and seeds.
- ``default_pipeline(select_backends=True)`` — additionally run the
  per-shape conv backend selector (opt-in: FFT results are not bitwise
  identical to direct).
"""

from ..graph.executor import CompiledPlan
from .backends import SELECT_BACKENDS, conv_backend_costs, select_conv_backends
from .pipeline import (
    CompileContext, CompileError, CompileReport, Pass, PassResult, Pipeline,
    compile_graph, default_pipeline,
)
from .rewrites import FOLD_CONSTANTS, FUSE_OPS, fold_constants, fuse_ops

__all__ = [
    "CompileContext", "CompileError", "CompileReport", "CompiledPlan",
    "FOLD_CONSTANTS", "FUSE_OPS", "Pass", "PassResult", "Pipeline",
    "SELECT_BACKENDS", "compile_graph", "conv_backend_costs",
    "default_pipeline", "fold_constants", "fuse_ops",
    "select_conv_backends",
]
