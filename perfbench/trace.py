"""In-memory span tracer that wraps the program's public entry points.

The tracer lives entirely in the benchmark: it replaces public functions,
methods and registry kernels with timing wrappers, records one span per
call (name, start, end, parent, arguments), and puts every original back
on :meth:`Tracer.restore`.  Nothing under ``src/`` knows it exists.

Registry kernels are wrapped by swapping each ``OpDef`` in
``repro.graph.registry.REGISTRY`` for a copy whose ``kernel`` is the
wrapper.  ``CompiledPlan`` binds ``op_def(op_type).kernel`` when it is
lowered, so plans lowered while the tracer is installed record kernel
spans and plans lowered before it do not.

Spans are written as Chrome Trace Event JSON (loadable in Perfetto).
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

KERNEL_PREFIX = "tensor."

_PATCH_SUFFIX = re.compile(r"\.p\d+|\.bwd\w*|\+.*$")


def source_layer(op_name: str) -> str:
    """Source layer of an op: its name without patch index, fused tail
    and backward suffix (``conv.p01#2+relu(x4)`` -> ``conv#2``)."""
    return _PATCH_SUFFIX.sub("", op_name)


@dataclasses.dataclass
class Span:
    name: str
    start: int                  # perf_counter_ns
    end: int
    parent: int                 # index into Tracer.spans, -1 at the root
    args: Optional[Tuple[Any, ...]] = None   # kernels: (op id, op type, layer)

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records nested spans; single-threaded (the benchmark runs
    ``workers=1``), so a plain stack gives each span its parent."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []
        self._checks: List[Callable[[], bool]] = []

    # -- recording -------------------------------------------------------
    def _open(self) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span("", 0, 0, parent))
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: int,
               args: Optional[Tuple[Any, ...]] = None) -> None:
        end = time.perf_counter_ns()
        self._stack.pop()
        span = self.spans[index]
        span.name, span.start, span.end, span.args = name, start, end, args

    def call(self, name: str, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        index = self._open()
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index, name, start)

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        def traced(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, fn, *args, **kwargs)
        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_kernel(self, name: str,
                    kernel: Callable[[Any, Any], None]) -> Callable:
        def traced(executor: Any, op: Any) -> None:
            index = self._open()
            start = time.perf_counter_ns()
            try:
                kernel(executor, op)
            finally:
                self._close(index, name, start,
                            (op.id, op.op_type, source_layer(op.name)))
        traced.__wrapped__ = kernel  # type: ignore[attr-defined]
        return traced

    # -- installing wrappers ---------------------------------------------
    def patch_attribute(self, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (a class method or module function)."""
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(name, original))
        self._undo.append(lambda: setattr(owner, attr, original))
        self._checks.append(lambda: owner.__dict__[attr] is original)

    def patch_function(self, fn: Callable[..., Any], name: str) -> None:
        """Wrap every ``repro`` module binding of ``fn``: a function
        imported by name into several modules is wrapped in each."""
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch_attribute(module, attr, name)

    def patch_kernels(self, registry: Dict[str, Any]) -> None:
        originals = dict(registry)
        for op_type, opdef in originals.items():
            registry[op_type] = dataclasses.replace(
                opdef, kernel=self.wrap_kernel(KERNEL_PREFIX + op_type,
                                               opdef.kernel))

        def undo() -> None:
            registry.clear()
            registry.update(originals)
        self._undo.append(undo)
        self._checks.append(lambda: all(registry.get(key) is value
                                        for key, value in originals.items())
                            and len(registry) == len(originals))

    def restore(self) -> None:
        """Put every original back, last wrapped first."""
        while self._undo:
            self._undo.pop()()

    def restored(self) -> bool:
        """True when every wrapped attribute holds its original again."""
        return not self._undo and all(check() for check in self._checks)

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> List[int]:
        """Each span's duration minus the time its direct children cover."""
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.duration
        return own

    def roots(self) -> List[int]:
        """Index of each span's outermost ancestor (itself at the root).
        Parents are opened before their children, so one pass suffices."""
        top: List[int] = []
        for index, span in enumerate(self.spans):
            top.append(index if span.parent < 0 else top[span.parent])
        return top

    # -- export ------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, Any]:
        origin = min((span.start for span in self.spans), default=0)
        events = []
        for index, span in enumerate(self.spans):
            event: Dict[str, Any] = {
                "name": span.name, "cat": span.name.split(".")[0],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": (span.start - origin) / 1e3,
                "dur": span.duration / 1e3,
                "args": {"span": index, "parent": span.parent},
            }
            if span.args is not None:
                op_id, op_type, layer = span.args
                event["args"].update(op_id=op_id, op_type=op_type,
                                     layer=layer)
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Any) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
