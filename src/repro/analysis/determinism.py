"""Determinism audit: the graph must pin every source of run-to-run drift.

The wavefront executor promises bit-identical results for any worker
count.  Two structural properties carry that promise:

1. **Frozen reductions** — when several ops contribute gradients for the
   same parameter, the contributions must merge through a single chain
   of ``grad_acc`` ops baked into the graph.  Any other topology (two
   chain tails, a gradient feeding several accumulators) leaves the
   floating-point summation order to scheduler timing (``SCA201``).
2. **Per-op seeds** — every stochastic op (``OpDef.stochastic``) must
   carry its own unique ``seed`` attribute so mask streams are a pure
   function of the graph, not of execution order (``SCA202``).
"""

from __future__ import annotations

from typing import Dict, List

from ..graph.executor import resolve_final_gradients
from ..graph.ir import Graph
from ..graph.registry import op_def
from .diagnostics import Diagnostic

__all__ = ["audit_determinism"]


def audit_determinism(graph: Graph) -> List[Diagnostic]:
    findings: List[Diagnostic] = []
    position = graph.op_positions()

    # SCA201 — gradient reduction chains must be frozen.
    try:
        resolve_final_gradients(graph)
    except ValueError as exc:
        findings.append(Diagnostic("SCA201", str(exc)))
    for tensor in graph.tensors.values():
        if tensor.kind != "gradient":
            continue
        accumulators = sorted(
            op_id for op_id in set(tensor.consumers)
            if op_id in position
            and graph.op_by_id(op_id).op_type == "grad_acc")
        if len(accumulators) > 1:
            findings.append(Diagnostic(
                "SCA201",
                f"gradient tensor {tensor.name!r} feeds "
                f"{len(accumulators)} grad_acc ops {accumulators} — the "
                "reduction is a tree whose summation order depends on "
                "scheduling, not a frozen chain",
                op_ids=tuple(accumulators), tensor_id=tensor.id))

    # SCA202 — stochastic ops need unique per-op seeds.
    seed_owner: Dict[object, int] = {}
    for op in graph.ops:
        if not op_def(op.op_type).stochastic:
            continue
        seed = op.attrs.get("seed")
        if seed is None:
            findings.append(Diagnostic(
                "SCA202",
                f"stochastic op {op.name!r} (id {op.id}) has no 'seed' "
                "attribute — its mask stream would depend on execution "
                "order",
                op_ids=(op.id,)))
        elif seed in seed_owner:
            findings.append(Diagnostic(
                "SCA202",
                f"stochastic ops {seed_owner[seed]} and {op.id} share "
                f"seed {seed!r} — their mask streams would be correlated "
                "and replay could not tell them apart",
                op_ids=(seed_owner[seed], op.id)))
        else:
            seed_owner[seed] = op.id
    return findings
