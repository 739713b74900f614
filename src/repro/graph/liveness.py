"""Tensor lifetime analysis over the serialized graph.

Positions are indices into ``graph.ops`` (the serialized execution order).
The HMMS uses lifetimes for reference counting (§4.2), offload/prefetch
eligibility (§4.3) and static pool allocation (§4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from .ir import Graph

__all__ = ["Lifetime", "compute_lifetimes", "compute_free_plan"]


@dataclass
class Lifetime:
    """Where a tensor is produced and consumed in the serialized order."""

    tensor_id: int
    produce_index: int                 # -1 for graph inputs / parameters
    use_indices: List[int] = field(default_factory=list)

    @property
    def last_use(self) -> int:
        return max(self.use_indices) if self.use_indices else self.produce_index

    @property
    def last_forward_use(self) -> Optional[int]:
        forward_uses = [i for i in self.use_indices if i <= self.boundary]
        return max(forward_uses) if forward_uses else None

    @property
    def first_backward_use(self) -> Optional[int]:
        backward_uses = [i for i in self.use_indices if i > self.boundary]
        return min(backward_uses) if backward_uses else None

    # Set by compute_lifetimes: index of the last forward op.
    boundary: int = -1

    def crosses_boundary(self) -> bool:
        """True when the tensor lives from the forward into the backward pass
        — exactly the tensors worth offloading."""
        return (
            self.produce_index <= self.boundary
            and self.first_backward_use is not None
        )


def compute_lifetimes(graph: Graph) -> Dict[int, Lifetime]:
    """Lifetime for every tensor, keyed by tensor id."""
    boundary = -1
    for index, op in enumerate(graph.ops):
        if op.phase == "forward":
            boundary = index
    lifetimes: Dict[int, Lifetime] = {}
    position = graph.op_positions()
    for tensor in graph.tensors.values():
        produce = position[tensor.producer] if tensor.producer is not None else -1
        lifetime = Lifetime(tensor_id=tensor.id, produce_index=produce)
        lifetime.boundary = boundary
        lifetime.use_indices = sorted(position[op_id] for op_id in tensor.consumers)
        lifetimes[tensor.id] = lifetime
    return lifetimes


def compute_free_plan(
    graph: Graph, pinned: FrozenSet[int] = frozenset(),
) -> Tuple[Dict[int, int], Dict[int, List[int]]]:
    """Refcount schedule for freeing tensor values as soon as they are dead.

    Derived from :func:`compute_lifetimes`: a tensor's value may be dropped
    once every op that consumes it has executed.  Counting *ops left to
    run* instead of serialized positions makes the plan valid for any
    execution order that respects :meth:`Graph.op_dependencies` — the
    wavefront executor retires consumers out of serialized order.

    Returns ``(counts, consumed_by_op)``: ``counts[tensor_id]`` is the
    number of distinct consumer ops, ``consumed_by_op[op_id]`` the tensors
    whose count an op's completion decrements.  Tensors in ``pinned`` and
    tensors with no consumers (run outputs, dead ends) are excluded — they
    stay live until :meth:`CompiledPlan.release_intermediates`.
    """
    lifetimes = compute_lifetimes(graph)
    position_to_op = [op.id for op in graph.ops]
    counts: Dict[int, int] = {}
    consumed_by_op: Dict[int, List[int]] = {}
    for tensor in graph.tensors.values():
        if tensor.id in pinned:
            continue
        uses = lifetimes[tensor.id].use_indices
        if not uses:
            continue
        consumer_ops = {position_to_op[index] for index in uses}
        counts[tensor.id] = len(consumer_ops)
        for op_id in consumer_ops:
            consumed_by_op.setdefault(op_id, []).append(tensor.id)
    return counts, consumed_by_op
