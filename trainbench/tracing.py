"""Spans recorded from outside the program, around its public calls.

The traced run installs a wrapper on each call the benchmark wants to see
into: ``model.forward``/``backward``, every layer object's
``forward``/``backward``, ``trainer.step``/``zero_grad``,
``engine.step`` and ``dp.sync_gradients``.  The wrappers are instance
attributes, so the program's own calls (``model.forward`` calling
``layer.forward``) go through them, and removing them restores the class
methods untouched.  Each wrapper appends one span (name, start, end,
parent) to an in-memory list; nothing is written until the run ends.

A span's self time is its duration minus the durations of its direct
children.  Children nest inside their parent and never overlap one
another (one thread), so the self times of a tree add up to the root's
duration exactly: the root's own self time is the part of the step no
wrapper covered.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

from repro.layers.attention import MultiHeadAttention
from repro.layers.base import Layer
from repro.layers.criterion import LSCrossEntropyLayer
from repro.layers.decoder import LSTransformerDecoderLayer
from repro.layers.embedding import LSEmbeddingLayer
from repro.layers.encoder import LSTransformerEncoderLayer
from repro.layers.ffn import FeedForward
from repro.layers.projection import OutputProjection

#: layer class -> the name its spans report under.  GPT blocks are
#: encoder-layer objects driven with a causal mask, so they count as
#: ``encoder``.
LAYER_KINDS = (
    (MultiHeadAttention, "attention"),
    (FeedForward, "ffn"),
    (LSTransformerEncoderLayer, "encoder"),
    (LSTransformerDecoderLayer, "decoder"),
    (LSEmbeddingLayer, "embedding"),
    (OutputProjection, "projection"),
    (LSCrossEntropyLayer, "criterion"),
)
LAYER_NAMES = tuple(name for _, name in LAYER_KINDS)


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._installed: List[Tuple[object, str]] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else -1
        sp = Span(name, time.perf_counter(), parent)
        self.spans.append(sp)
        self._open.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    # -- wrappers -----------------------------------------------------------

    def wrap(self, obj: object, attr: str, name: str) -> None:
        inner = getattr(obj, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, traced)
        self._installed.append((obj, attr))

    def install(self, workload) -> None:
        """Wrap every public call of a built workload."""
        for model in workload.models():
            self.wrap(model, "forward", "models.fwd")
            self.wrap(model, "backward", "models.bwd")
            for layer, kind in layers_of(model):
                self.wrap(layer, "forward", f"layers.{kind}.fwd")
                self.wrap(layer, "backward", f"layers.{kind}.bwd")
        for trainer in workload.trainers():
            self.wrap(trainer, "step", "trainer.update")
            self.wrap(trainer, "zero_grad", "trainer.zero_grad")
        if getattr(workload, "engine", None) is not None:
            self.wrap(workload.engine, "step", "engine.step")
        if getattr(workload, "dp", None) is not None:
            self.wrap(workload.dp, "sync_gradients", "dp.sync")

    def uninstall(self) -> None:
        for obj, attr in reversed(self._installed):
            delattr(obj, attr)
        self._installed.clear()

    @contextmanager
    def installed(self, workload) -> Iterator["Tracer"]:
        self.install(workload)
        try:
            yield self
        finally:
            self.uninstall()


def layers_of(model: Layer) -> List[Tuple[Layer, str]]:
    """Every layer object reachable from the model's public attributes,
    with the kind its spans report under (the model itself excluded)."""
    out: List[Tuple[Layer, str]] = []
    seen = {id(model)}

    def visit(obj):
        for key, val in vars(obj).items():
            if key.startswith("_"):
                continue
            items = val if isinstance(val, (list, tuple)) else (val,)
            for item in items:
                if isinstance(item, Layer) and id(item) not in seen:
                    seen.add(id(item))
                    kind = next((k for cls, k in LAYER_KINDS
                                 if isinstance(item, cls)), None)
                    if kind is not None:
                        out.append((item, kind))
                    visit(item)

    visit(model)
    return out


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    own = [sp.duration for sp in spans]
    for sp in spans:
        if sp.parent >= 0:
            own[sp.parent] -= sp.duration
    return own


def self_time_by_name(spans: List[Span], root: str) -> Dict[str, float]:
    """Summed self seconds per span name, over the trees whose root span
    is named ``root``."""
    inside = [False] * len(spans)
    out: Dict[str, float] = defaultdict(float)
    for i, (sp, t) in enumerate(zip(spans, self_times(spans))):
        inside[i] = sp.name == root if sp.parent < 0 else inside[sp.parent]
        if inside[i]:
            out[sp.name] += t
    return dict(out)
