"""The numeric executor for the serialized computation-graph IR.

:class:`CompiledPlan` executes a training graph (forward + backward ops)
or an inference graph directly on numpy arrays, independently of the
autograd engine that normally runs the models.  It is the repo's only
executor: a plan over a graph no compile pass has touched is "the
interpreter", and a plan over a :func:`repro.compile.compile_graph`
output is "the compiled plan".  Uses:

1. **Cross-validation** — running the same training step through (a) the
   autograd engine and (b) the IR executor must produce identical losses
   and parameter gradients; this pins down the graph builder and the
   backward generator end to end (``tests/test_executor.py``).
2. **Measured profiling** — the paper's §4.3 obtains per-layer times by
   timing 20 repeated executions; :class:`repro.profile.measured.
   MeasuredCostModel` drives :meth:`CompiledPlan.execute_op` to do
   exactly that.
3. **Serving and patch inference** — the numeric path of
   :mod:`repro.serve`, :mod:`repro.infer`, and :mod:`repro.mesh`.

Kernels live in :mod:`repro.graph.registry` — one per op type, dispatched
through the same :class:`~repro.graph.registry.OpDef` record the builder,
backward generator, cost model, and HMMS storage pass consume.  Lowering
precomputes all per-op bookkeeping into flat arrays indexed by op/tensor
id: kernel callables are bound once (``_steps``), values live in a dense
list, and the eager-free refcounts, wavefront dependency counts, dropout
seed pairs, and forward-op references are dense tables copied per run.
:func:`repro.analysis.verify_lowering` re-derives every table from the
graph (``SCA401``-``SCA405``).

Backward ops run against the *saved context* of their forward op: each
fused :class:`~repro.tensor.autograd.Function` instantiated during the
forward pass is cached (keyed by forward op id) and its ``backward`` is
invoked directly — bit-identical gradient semantics with the autograd
engine, without re-running the forward kernel inside every backward
handler.

**Wavefront parallelism** — ``workers=N`` replaces the serialized walk of
``graph.ops`` with a ready-queue scheduler over the op dependency DAG
(:meth:`Graph.op_dependencies`): every op whose producers have retired is
submitted to a ``ThreadPoolExecutor``, so the independent patch chains a
Split-CNN transform creates (paper §3.2: no inter-patch communication in
the first-``d`` layers) execute concurrently.  numpy's BLAS-backed
kernels release the GIL, so the threads genuinely overlap on multicore
hosts.  Results are bit-identical to serial execution for any worker
count because

- every op reads and writes *fixed* tensors — in particular the
  ``grad_acc`` accumulation chains emitted by the backward generator fix
  the gradient reduction order structurally, independent of the order in
  which contributions complete;
- dropout masks are drawn from per-op seeded streams
  (``(dropout_seed, op.id)``), not from shared RNG state;
- the final gradient of a multiply-consumed parameter is selected by
  following the ``grad_acc`` chain to its structural end, never by
  tensor-id ordering.

**Eager value release** — with ``eager_free`` (the default) each
intermediate value is dropped as soon as its last consumer retires, using
the refcount schedule of :func:`~repro.graph.liveness.compute_free_plan`;
saved forward contexts are likewise dropped once every backward op of
their forward op has run.  Peak executor memory then tracks the graph's
true liveness profile instead of holding one whole step.  The same
schedule lets gradient accumulation run in place: a ``grad_acc`` op whose
input 0 is a parameter gradient (kind ``"gradient"``) retired by that
very op adds into it (``np.add(acc, grad, out=acc)``) and publishes it as
its output, so each weight shared by split patches keeps one accumulator
instead of allocating a new sum per link.  The IEEE additions and their
chain order are unchanged, so the bytes are too.  Parameter-gradient
partials come only from ``*_bwd_weight``, ``batchnorm_bwd`` and
``grad_acc``, which return arrays no other value slot holds; activation
gradients may alias (``add_bwd`` publishes one array twice, ``flatten``
returns a view) and keep the allocating add.  The decision is lowered
into the per-op ``_in_place`` table, which the registry kernel reads.
Pass ``eager_free=False`` to keep every value and context until the next
run (the §4.3 profiling loop re-times individual ops after a run and
needs them all); such a plan always allocates.
"""

from __future__ import annotations

import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .ir import Graph, OpNode
from .liveness import compute_free_plan
from .registry import op_def

__all__ = ["CompiledPlan", "GraphExecutor", "resolve_final_gradients",
           "OUTPUT_NAMES"]

#: Tensor names whose values are run outputs (never freed eagerly).
OUTPUT_NAMES = ("loss", "logits")


def resolve_final_gradients(graph: Graph) -> Dict[str, int]:
    """Map each parameter name to the tensor id of its total gradient.

    A parameter consumed by several forward ops (split patches, weight
    sharing) accumulates through a chain of ``grad_acc`` ops.  The total
    is the chain's *structural* end: the gradient tensor that no further
    ``grad_acc`` op folds into another gradient of the same parameter.
    Selecting by tensor id (the historical ``max(finals, key=id)``)
    silently breaks whenever a transform or re-serialization renumbers
    tensors — ids carry no semantics.

    Shared between :class:`CompiledPlan` (run outputs, pinning) and the
    determinism audit of :mod:`repro.analysis` (which reports an
    un-frozen reduction instead of raising).
    """
    param_names = [t.name for t in graph.tensors.values()
                   if t.kind == "parameter"]
    finals: Dict[str, int] = {}
    for param_name in param_names:
        names = (f"grad({param_name})", f"grad_acc({param_name})")
        candidates = [t for t in graph.tensors.values()
                      if t.kind == "gradient" and t.name in names]
        if not candidates:
            continue
        candidate_ids = {t.id for t in candidates}
        merged = set()
        for tensor in candidates:
            for op_id in set(tensor.consumers):
                op = graph.op_by_id(op_id)
                if op.op_type == "grad_acc" and any(
                        out_id in candidate_ids for out_id in op.outputs):
                    merged.add(tensor.id)
        tails = [t for t in candidates if t.id not in merged]
        if len(tails) != 1:
            raise ValueError(
                f"gradient accumulation chain for {param_name!r} has "
                f"{len(tails)} tails, expected exactly one"
            )
        finals[param_name] = tails[0].id
    return finals


class CompiledPlan:
    """A graph lowered to flat arrays, executable serially or wavefront.

    Parameters
    ----------
    graph: a graph produced by :func:`repro.graph.build_training_graph` /
        :func:`~repro.graph.build_inference_graph`, optionally rewritten
        by :func:`repro.compile.compile_graph`.
    parameters: mapping from parameter tensor *name* to its array; use
        :meth:`parameters_from_model` to extract them in builder order.
    dropout_seed: base seed for dropout masks; each dropout op derives its
        own stream from ``(dropout_seed, op.id)`` so distinct layers draw
        distinct masks while staying replayable.
    workers: number of threads for wavefront execution.  ``1`` (default)
        walks ``graph.ops`` serially; ``N > 1`` executes every
        dependency-satisfied op concurrently with bit-identical results.
    eager_free: drop each intermediate value after its last consumer op
        retires (and each saved context after its last backward twin).
        ``False`` keeps everything live until the next :meth:`run` or
        :meth:`release_intermediates`.
    """

    def __init__(self, graph: Graph, parameters: Dict[str, np.ndarray],
                 dropout_seed: int = 0, workers: int = 1,
                 eager_free: bool = True) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.graph = graph
        self.dropout_seed = dropout_seed
        self.workers = workers
        self.eager_free = eager_free
        self.targets: Optional[np.ndarray] = None

        num_tensors = 1 + max((t.id for t in graph.tensors.values()),
                              default=0)
        num_ops = 1 + max((op.id for op in graph.ops), default=0)
        self._num_ops = num_ops

        # -- persistent values (parameters + constants), seeded once ----
        base: List[Optional[np.ndarray]] = [None] * num_tensors
        persistent = set()
        for tensor in graph.tensors.values():
            if tensor.kind == "parameter":
                if tensor.name not in parameters:
                    raise KeyError(f"missing parameter array {tensor.name!r}")
                array = parameters[tensor.name]
                if tuple(array.shape) != tensor.shape:
                    raise ValueError(
                        f"parameter {tensor.name!r}: expected {tensor.shape},"
                        f" got {array.shape}"
                    )
                base[tensor.id] = array
                persistent.add(tensor.id)
            elif tensor.kind == "constant":
                try:
                    base[tensor.id] = graph.constants[tensor.id]
                except KeyError:
                    raise KeyError(
                        f"constant tensor {tensor.name!r} (id {tensor.id}) "
                        "has no value in graph.constants"
                    ) from None
                persistent.add(tensor.id)
        self._base_values = base
        self.values: List[Optional[np.ndarray]] = list(base)
        self._contexts: List[Any] = [None] * num_ops

        self._input_ids = [t.id for t in graph.tensors.values()
                           if t.kind == "input"]
        self._outputs_by_name = {
            t.name: t.id for t in graph.tensors.values()
            if t.name in OUTPUT_NAMES
        }
        self._final_grads = resolve_final_gradients(graph)
        pinned = frozenset(persistent
                           | set(self._outputs_by_name.values())
                           | set(self._final_grads.values()))

        # -- lowered step list: kernels bound once ----------------------
        self._steps: List[Tuple[Any, OpNode]] = [
            (op_def(op.op_type).kernel, op) for op in graph.ops
        ]
        self._fwd: List[Optional[OpNode]] = [None] * num_ops
        self._seeds: List[Optional[Tuple[int, int]]] = [None] * num_ops
        for op in graph.ops:
            self._seeds[op.id] = (dropout_seed, op.attrs.get("seed", op.id))
            if op.forward_of is not None:
                self._fwd[op.id] = graph.op_by_id(op.forward_of)

        # -- dense eager-free schedule ----------------------------------
        counts, consumed_by_op = compute_free_plan(graph, pinned=pinned)
        self._counts_template: List[int] = [0] * num_tensors
        for tensor_id, count in counts.items():
            self._counts_template[tensor_id] = count
        self._consumed: List[Tuple[int, ...]] = [()] * num_ops
        for op_id, tensor_ids in consumed_by_op.items():
            self._consumed[op_id] = tuple(tensor_ids)
        # A grad_acc op retiring its parameter-gradient input 0 adds into
        # that array instead of allocating a new sum (see the module
        # docstring).  Activation gradients may alias (add_bwd, flatten),
        # so only kind "gradient" qualifies.
        self._in_place: List[bool] = [False] * num_ops
        if eager_free:
            for op in graph.ops:
                if op.op_type != "grad_acc":
                    continue
                acc = op.inputs[0]
                self._in_place[op.id] = (
                    graph.tensors[acc].kind == "gradient"
                    and acc in self._consumed[op.id]
                    and self._counts_template[acc] == 1)
        twin_counts = Counter(op.forward_of for op in graph.ops
                              if op.forward_of is not None)
        self._ctx_template: List[int] = [0] * num_ops
        for op_id, count in twin_counts.items():
            self._ctx_template[op_id] = count

        # -- dense wavefront schedule -----------------------------------
        deps = graph.op_dependencies()
        self._remaining_template: List[int] = [0] * num_ops
        self._dependents: List[Tuple[int, ...]] = [()] * num_ops
        dependents: Dict[int, List[int]] = {}
        for op_id, op_deps in deps.items():
            self._remaining_template[op_id] = len(op_deps)
            for dep in op_deps:
                dependents.setdefault(dep, []).append(op_id)
        for op_id, dep_list in dependents.items():
            self._dependents[op_id] = tuple(dep_list)
        self._by_id: List[Optional[OpNode]] = [None] * num_ops
        for op in graph.ops:
            self._by_id[op.id] = op
        self._initial = [op for op in graph.ops
                         if self._remaining_template[op.id] == 0]

    # ------------------------------------------------------------------
    @staticmethod
    def parameters_from_model(graph: Graph, model: Any
                              ) -> Dict[str, np.ndarray]:
        """Match the graph's parameter tensors to the model's arrays.

        The builder caches one parameter tensor per (module, attribute) and
        emits them in first-use order, which equals ``named_parameters``
        traversal order for our sequential models.
        """
        graph_params = [t for t in sorted(graph.tensors.values(),
                                          key=lambda t: t.id)
                        if t.kind == "parameter"]
        model_params = [p for _, p in model.named_parameters()]
        if len(graph_params) != len(model_params):
            raise ValueError(
                f"graph has {len(graph_params)} parameters, model has "
                f"{len(model_params)}"
            )
        mapping: Dict[str, np.ndarray] = {}
        for tensor, param in zip(graph_params, model_params):
            if tuple(param.data.shape) != tensor.shape:
                raise ValueError(
                    f"parameter order mismatch at {tensor.name!r}: "
                    f"{tensor.shape} vs {param.data.shape}"
                )
            mapping[tensor.name] = param.data
        return mapping

    # ------------------------------------------------------------------
    def release_intermediates(self) -> None:
        """Reset to the persistent (parameter + constant) values only.

        Repeated :meth:`run` calls (the §4.3 profiling loop) would
        otherwise keep every activation, gradient, and forward context of
        every step live.  With ``eager_free`` most of this already
        happened during the run; this clears the run outputs too.
        """
        self.values = list(self._base_values)
        self._contexts = [None] * self._num_ops

    def run(self, input_array: np.ndarray,
            targets: Optional[np.ndarray] = None) -> Dict[str, np.ndarray]:
        """Execute every op; returns ``{'loss': ..., 'grad(<param>)': ...}``
        for training graphs, ``{'logits': ...}`` for inference graphs.

        The single-input case of :meth:`run_with_inputs`: ``input_array``
        binds the graph's first input tensor.
        """
        return self.run_with_inputs({self._input_ids[0]: input_array},
                                    targets=targets)

    def run_with_inputs(self, inputs: Dict[int, np.ndarray],
                        targets: Optional[np.ndarray] = None,
                        ) -> Dict[str, np.ndarray]:
        """Execute with every ``kind == "input"`` tensor bound explicitly.

        Partitioned graphs (mesh patch chains, pipeline stages) carry
        several input tensors — the per-patch slices and the remote patch
        results arriving from other devices.  Raises on missing, unknown,
        mis-shaped, or mis-typed bindings.

        Every kernel computes in float64, so graph inputs must arrive as
        float64.  A wrong-dtype array (say a float32 patch) raises
        ``TypeError`` instead of being upcast silently, which would hide
        the producer's dtype bug; lossless conversion is the *caller's*
        explicit decision.  Plain Python nested lists still convert
        (``np.asarray`` yields float64 for float data).
        """
        missing = [i for i in self._input_ids if i not in inputs]
        if missing:
            names = sorted(self.graph.tensors[i].name for i in missing)
            raise ValueError(f"unbound graph inputs: {names}")
        unknown = set(inputs) - set(self._input_ids)
        if unknown:
            raise ValueError(
                f"tensor ids {sorted(unknown)} are not graph inputs")
        self.release_intermediates()
        for tensor_id, array in inputs.items():
            tensor = self.graph.tensors[tensor_id]
            array = np.asarray(array)
            if tuple(array.shape) != tensor.shape:
                raise ValueError(
                    f"input {tensor.name!r} shape {array.shape} != "
                    f"graph input {tensor.shape}")
            if array.dtype != np.float64:
                raise TypeError(
                    f"input {tensor.name!r} dtype {array.dtype} != the "
                    f"graph input dtype float64; convert explicitly")
            self.values[tensor_id] = array
        self.targets = targets
        if self.workers > 1:
            self._run_wavefront()
        else:
            self._run_serial()
        outputs: Dict[str, np.ndarray] = {}
        for name, tensor_id in self._outputs_by_name.items():
            value = self.values[tensor_id]
            assert value is not None
            outputs[name] = value
        for param_name, tensor_id in self._final_grads.items():
            grad = self.values[tensor_id]
            assert grad is not None
            outputs[f"grad({param_name})"] = grad
        return outputs

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _retire(self, op: OpNode, counts: List[int],
                ctx_left: List[int]) -> None:
        """Free the values and the context made dead by ``op`` completing.

        The wavefront calls this under its scheduler lock, so plain list
        updates are safe.
        """
        values = self.values
        for tensor_id in self._consumed[op.id]:
            left = counts[tensor_id] - 1
            counts[tensor_id] = left
            if left == 0:
                values[tensor_id] = None
        forward_id = op.forward_of
        if forward_id is not None:
            left = ctx_left[forward_id] - 1
            ctx_left[forward_id] = left
            if left == 0:
                self._contexts[forward_id] = None

    def _run_serial(self) -> None:
        if not self.eager_free:
            for kernel, op in self._steps:
                kernel(self, op)
            return
        counts = list(self._counts_template)
        ctx_left = list(self._ctx_template)
        retire = self._retire
        for kernel, op in self._steps:
            kernel(self, op)
            retire(op, counts, ctx_left)

    def _run_wavefront(self) -> None:
        """Ready-queue execution of the op DAG on a thread pool.

        Every op whose dependencies have retired is submitted immediately;
        completion retires it under one scheduler lock, releasing dead
        values and newly-ready successors.  Kernels themselves run outside
        the lock — that is where the BLAS time goes and where the GIL is
        released.  The first kernel exception stops further submissions,
        and the pool is drained before it is re-raised.
        """
        remaining = list(self._remaining_template)
        counts = list(self._counts_template)
        ctx_left = list(self._ctx_template)
        dependents = self._dependents
        by_id = self._by_id
        lock = threading.Lock()
        done = threading.Event()
        failures: List[BaseException] = []
        ops_left = len(self._steps)
        kernels = {op.id: kernel for kernel, op in self._steps}

        def finish(op: OpNode) -> None:
            nonlocal ops_left
            ready_next: List[OpNode] = []
            with lock:
                if self.eager_free:
                    self._retire(op, counts, ctx_left)
                for dep_id in dependents[op.id]:
                    remaining[dep_id] -= 1
                    if remaining[dep_id] == 0:
                        dep_op = by_id[dep_id]
                        assert dep_op is not None
                        ready_next.append(dep_op)
                ops_left -= 1
                if ops_left == 0:
                    done.set()
            for next_op in ready_next:
                pool.submit(task, next_op)

        def task(op: OpNode) -> None:
            if failures:
                return
            try:
                kernels[op.id](self, op)
            except BaseException as exc:  # surfaced to the caller below
                failures.append(exc)
                done.set()
                return
            finish(op)

        pool = ThreadPoolExecutor(max_workers=self.workers)
        try:
            for op in self._initial:
                pool.submit(task, op)
            done.wait()
        finally:
            pool.shutdown(wait=True)
        if failures:
            raise failures[0]

    # ------------------------------------------------------------------
    def execute_op(self, op: OpNode) -> None:
        """Run one op's kernel against the current values — the §4.3
        per-op timing loop re-executes ops of a finished run."""
        op_def(op.op_type).kernel(self, op)

    # -- kernel-facing API (the registry kernels' executor contract) -----
    def input(self, op: OpNode, index: int) -> np.ndarray:
        value = self.values[op.inputs[index]]
        assert value is not None
        return value

    def set_output(self, op: OpNode, index: int, value: np.ndarray) -> None:
        self.values[op.outputs[index]] = value

    def forward_op(self, op: OpNode) -> OpNode:
        forward = self._fwd[op.id]
        assert forward is not None
        return forward

    def save_context(self, op: OpNode, fn: Any) -> None:
        """Cache a forward op's ``Function`` for its backward twin."""
        self._contexts[op.id] = fn

    def forward_context(self, op: OpNode) -> Any:
        """The ``Function`` context saved when ``op``'s forward op ran;
        replays the forward kernel if the context was already freed."""
        forward = self.forward_op(op)
        ctx = self._contexts[forward.id]
        if ctx is None:
            self.execute_op(forward)
            ctx = self._contexts[forward.id]
        return ctx

    def in_place(self, op: OpNode) -> bool:
        """True when ``op`` may overwrite its input 0: the lowered table
        marks a ``grad_acc`` whose partial dies at this op."""
        return self._in_place[op.id]

    def dropout_op_seed(self, op: OpNode) -> Tuple[int, int]:
        """Per-op dropout seed: distinct layers draw distinct masks.

        The builder stamps ``attrs["seed"] = op.id`` on every stochastic
        op (audited by ``repro.analysis``); graphs constructed by hand
        fall back to the op id, which is the same stream.
        """
        seed = self._seeds[op.id]
        assert seed is not None
        return seed


#: The former interpreter's name, kept for ``perfbench/``, which imports it.
GraphExecutor = CompiledPlan
