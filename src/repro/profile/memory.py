"""Where a training step's bytes go: ``tracemalloc`` at every backward node.

:func:`step_memory` runs one step of a model (zero the gradients, forward,
backward, optimizer) and reads ``tracemalloc`` around each node of the
backward walk.  Every figure is in MiB above what was live when the step
started, the way ``perfbench`` weighs its ``train_short`` step: the
forward's peak, what the graph holds once the forward returned, and for each
node, in the order the walk runs them, what was live when its backward
started, its peak inside the backward and what was live when it returned
(before the walk released the node's gradient and saved arrays).

``python -m repro.profile memory`` prints the table for the ``train_short``
encoder by default; README.md's "Where the training step's bytes go" is its
output.
"""

from __future__ import annotations

import gc
import tracemalloc
from dataclasses import dataclass
from typing import Callable, List, Tuple

MIB = float(1 << 20)


@dataclass(frozen=True)
class NodeMemory:
    """One backward node: its op name, output shape and MiB above the step's start."""

    name: str
    shape: Tuple[int, ...]
    start_mib: float
    peak_mib: float
    end_mib: float


@dataclass(frozen=True)
class StepMemory:
    """The MiB above the step's start at each stage of one training step."""

    forward_peak_mib: float
    graph_mib: float
    nodes: Tuple[NodeMemory, ...]
    optimizer_peak_mib: float

    @property
    def backward_peak_mib(self) -> float:
        return max((n.peak_mib for n in self.nodes), default=self.graph_mib)

    @property
    def peak_mib(self) -> float:
        return max(self.forward_peak_mib, self.backward_peak_mib, self.optimizer_peak_mib)


def _interior_nodes(root):
    """Every node reachable from ``root`` that has a backward closure."""
    seen, stack, found = {id(root)}, [root], []
    while stack:
        node = stack.pop()
        if node.backward is not None:
            found.append(node)
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return found


def _watched(fn: Callable, name: str, shape, base: int, rows: List[NodeMemory]) -> Callable:
    """``fn`` reading ``tracemalloc`` around each call; it holds no node."""

    def backward(grad):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(grad)
        end, peak = tracemalloc.get_traced_memory()
        rows.append(NodeMemory(
            name, shape, (start - base) / MIB, (peak - base) / MIB, (end - base) / MIB
        ))

    return backward


def step_memory(loss_fn: Callable, optimizer) -> StepMemory:
    """Weigh one step: ``optimizer.zero_grad()``, ``loss_fn().backward()``,
    ``optimizer.step()``, under ``tracemalloc`` (started here if it is off).

    The walk runs the node closures it would run anyway, each wrapped to
    read ``tracemalloc``; the wrappers hold no node and die with the
    closures they wrap, so the walk frees memory where it always does.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        optimizer.zero_grad()
        loss = loss_fn()
        graph, forward_peak = tracemalloc.get_traced_memory()
        rows: List[NodeMemory] = []
        for node in _interior_nodes(loss.node):
            node.backward = _watched(node.backward, node.name, node.shape, base, rows)
        loss.backward()
        del loss
        tracemalloc.reset_peak()
        optimizer.step()
        optimizer_peak = tracemalloc.get_traced_memory()[1]
    finally:
        if started:
            tracemalloc.stop()
    return StepMemory(
        (forward_peak - base) / MIB, (graph - base) / MIB, tuple(rows),
        (optimizer_peak - base) / MIB,
    )


#: ``perfbench``'s ``train_short`` model and batch: a two-class sequence
#: classifier over a 1000-token vocabulary, a B4·L512 batch and seed 1.
TRAIN_SHORT_BATCH, TRAIN_SHORT_SEQ, TRAIN_SHORT_VOCAB, TRAIN_SHORT_CLASSES = 4, 512, 1000, 2
TRAIN_SHORT_MODEL = dict(model_dim=256, num_heads=4, num_layers=2, ffn_dim=512)
TRAIN_SHORT_SEED = 1


def encoder_step_memory(mechanism: str = "dfss_2:4") -> StepMemory:
    """:func:`step_memory` of the ``train_short`` classifier trained with Adam.

    Two warm-up steps run first, so the optimizer's moments and the plan
    caches exist before the measured step.  As in ``perfbench``, the cycle
    collector is off and each step ends with one full collection.
    """
    import numpy as np

    from repro.nn import Adam, SequenceClassifier, TransformerEncoder

    rng = np.random.default_rng(TRAIN_SHORT_SEED)
    tokens = rng.integers(0, TRAIN_SHORT_VOCAB, (TRAIN_SHORT_BATCH, TRAIN_SHORT_SEQ))
    labels = rng.integers(0, TRAIN_SHORT_CLASSES, TRAIN_SHORT_BATCH)
    encoder = TransformerEncoder(
        TRAIN_SHORT_VOCAB, TRAIN_SHORT_SEQ, mechanism=mechanism, seed=TRAIN_SHORT_SEED,
        **TRAIN_SHORT_MODEL,
    )
    model = SequenceClassifier(encoder, TRAIN_SHORT_CLASSES, seed=TRAIN_SHORT_SEED + 1)
    optimizer = Adam(model.parameters(), lr=1e-4)

    def loss_fn():
        return model.loss(tokens, labels)

    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            optimizer.zero_grad()
            loss_fn().backward()
            optimizer.step()
            gc.collect()
        return step_memory(loss_fn, optimizer)
    finally:
        gc.collect()
        if enabled:
            gc.enable()


def format_step_memory(memory: StepMemory) -> str:
    """A Markdown table of the backward nodes and the step's totals."""
    peak = memory.backward_peak_mib
    lines = [
        "| # | node (backward order) | output shape | start | peak | end |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for i, node in enumerate(memory.nodes):
        high = f"**{node.peak_mib:.2f}**" if node.peak_mib == peak else f"{node.peak_mib:.2f}"
        shape = "·".join(map(str, node.shape)) or "scalar"
        lines.append(
            f"| {i} | `{node.name}` | {shape} | {node.start_mib:.2f} | {high} | {node.end_mib:.2f} |"
        )
    lines += [
        "",
        f"forward peak {memory.forward_peak_mib:.2f} MiB; "
        f"graph after the forward {memory.graph_mib:.2f} MiB; "
        f"backward peak {peak:.2f} MiB ({len(memory.nodes)} nodes); "
        f"optimizer peak {memory.optimizer_peak_mib:.2f} MiB; "
        f"step peak {memory.peak_mib:.2f} MiB (MiB above the step's start)",
    ]
    return "\n".join(lines)
