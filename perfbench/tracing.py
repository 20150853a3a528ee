"""Span tracing of simplexgates layers from outside the package.

``patched(tracer)`` replaces, for the duration of a ``with`` block, every
module attribute in the ``simplexgates`` package that is one of the traced
functions with a wrapper that records a span.  Patching by identity catches
the names modules import from each other (``verify`` binds ``embed``,
``apply`` and ``random_state``; ``operators`` binds ``kron``, ``rotation``,
``projector_pm`` and ``rotated_x``), and calls that look a function up on its
module at call time (the verify providers call ``operators.<family>``).

Per layer the tracer records, per trial:

- ``calls``: every call, nested ones included;
- ``s``: inclusive time of the outermost spans of the layer, so a layer
  calling itself is not counted twice;
- ``self_s``: each span's duration minus the part its child spans cover.

The self times of all layers plus the time outside every span add up to
the wall time.  Byte and flop counters are computed from call arguments,
not measured.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from perfbench.workloads import LAYERS

PACKAGE = "simplexgates"
COMPLEX_BYTES = 16
COMPLEX_MAC_FLOPS = 8


@dataclass
class LayerStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Collects spans into per-layer totals for the current trial."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._stack: list[list] = []
        self._depth = {layer: 0 for layer in LAYERS}
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.seen_keys: set = set()

    def take(self) -> dict[str, LayerStats]:
        """Return the totals so far and start a new trial."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        stats = self.stats
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.seen_keys = set()
        return stats

    def count(self, layer: str, counts: dict[str, float]) -> None:
        totals = self.stats[layer].counts
        for name, value in counts.items():
            totals[name] = totals.get(name, 0) + value

    def enter(self, layer: str) -> list:
        frame = [layer, self._clock(), 0.0]
        self._stack.append(frame)
        self._depth[layer] += 1
        return frame

    def exit(self, frame: list) -> None:
        end = self._clock()
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError("spans closed out of order")
        self._stack.pop()
        layer, start, child_s = frame
        duration = end - start
        stats = self.stats[layer]
        stats.calls += 1
        stats.self_s += duration - child_s
        self._depth[layer] -= 1
        if self._depth[layer] == 0:
            stats.s += duration
        if self._stack:
            self._stack[-1][2] += duration


# ---------------------------------------------------------------------------
# counters computed from arguments


def _embed_counts(tracer: Tracer, args: dict) -> dict[str, float]:
    return {"bytes": COMPLEX_BYTES * 4 ** int(args["n"])}


def _apply_counts(tracer: Tracer, args: dict) -> dict[str, float]:
    dim = int(np.shape(args["state"])[0])
    k = int(np.shape(args["op"])[0]).bit_length() - 1
    axes = [int(s) - 1 for s in args["sites"]]
    # reshaping the moved state and the moved result each copy the state,
    # unless the sites are already the leading axes in order
    copies = 0 if axes == list(range(k)) else 2
    state_bytes = COMPLEX_BYTES * dim
    return {
        "flops": COMPLEX_MAC_FLOPS * dim * 2 ** k,
        "bytes": state_bytes * (2 + 2 * copies) + COMPLEX_BYTES * 4 ** k,
    }


def _residual_counts(tracer: Tracer, args: dict) -> dict[str, float]:
    # dense mode multiplies two chains of len(factors) - 1 products of
    # 2**N x 2**N matrices; matrix-free mode does its work in tensor.apply
    if args["mode"] != "dense":
        return {"chain_flops": 0}
    dim = 2 ** int(args["register_size"])
    return {"chain_flops": 2 * (len(args["factors"]) - 1) * COMPLEX_MAC_FLOPS * dim ** 3}


def _canonical(value):
    if isinstance(value, np.ndarray):
        return ("ndarray", value.shape, value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_canonical(v) for v in value))
    return repr(value)


def _repeat_counts(name: str, tracer: Tracer, args: dict) -> dict[str, float]:
    key = (name, _canonical(tuple(args.items())))
    repeated = key in tracer.seen_keys
    tracer.seen_keys.add(key)
    return {"repeats": int(repeated)}


def _public_functions(module_name: str) -> list[str]:
    module = sys.modules[module_name]
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module_name
            and not name.startswith("_")]


def targets() -> list[tuple[str, str, str, Callable | None]]:
    """(layer, defining module, function name, counter) of every traced function."""
    out = [
        ("cli", f"{PACKAGE}.cli", "main", None),
        ("verify.campaign", f"{PACKAGE}.verify", "campaign", None),
        ("verify.reversal_residual", f"{PACKAGE}.verify", "reversal_residual", _residual_counts),
        ("verify.sampling", f"{PACKAGE}.tensor", "random_state", None),
        ("verify.sampling", f"{PACKAGE}.verify", "random_su2_assignment", None),
        ("verify.sampling", f"{PACKAGE}.verify", "random_mu_assignment", None),
        ("tensor.embed", f"{PACKAGE}.tensor", "embed", _embed_counts),
        ("tensor.apply", f"{PACKAGE}.tensor", "apply", _apply_counts),
        ("tensor.kron", f"{PACKAGE}.tensor", "kron", None),
    ]
    for layer, counter in (("operators", _repeat_counts), ("su2", None), ("gates", None)):
        module = f"{PACKAGE}.{layer}"
        out += [(layer, module, name, counter and functools.partial(counter, name))
                for name in _public_functions(module)]
    return out


def _wrap(tracer: Tracer, layer: str, fn: Callable, counter: Callable | None) -> Callable:
    signature = inspect.signature(fn) if counter is not None else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            tracer.count(layer, counter(tracer, bound.arguments))
        frame = tracer.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return traced


def _package_modules() -> list:
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Route every traced function through ``tracer`` inside the block and
    restore every replaced attribute on the way out, also on an exception."""
    originals = [(layer, getattr(sys.modules[module_name], name), counter)
                 for layer, module_name, name, counter in targets()]
    # keyed by identity; ``originals`` keeps every key's object alive
    wrappers = {id(fn): _wrap(tracer, layer, fn, counter) for layer, fn, counter in originals}
    replaced = []
    try:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    replaced.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        yield
    finally:
        for module, attr, value in reversed(replaced):
            setattr(module, attr, value)


def layer_metrics(trials: list[dict[str, LayerStats]]) -> dict[str, float]:
    """Per-trial means of the traced layer totals and computed counters."""
    n = len(trials)

    def mean(get) -> float:
        return math.fsum(get(t) for t in trials) / n

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = mean(lambda t: t[layer].calls)
        out[f"{layer}.s"] = mean(lambda t: t[layer].s)
        out[f"{layer}.self_s"] = mean(lambda t: t[layer].self_s)

    def counted(layer: str, name: str) -> float:
        return mean(lambda t: t[layer].counts.get(name, 0))

    out["tensor.embed.bytes"] = counted("tensor.embed", "bytes")
    out["tensor.apply.flops"] = counted("tensor.apply", "flops")
    out["tensor.apply.bytes"] = counted("tensor.apply", "bytes")
    apply_bytes = out["tensor.apply.bytes"]
    out["tensor.apply.flop_per_byte"] = out["tensor.apply.flops"] / apply_bytes if apply_bytes else 0.0
    out["verify.chain_flops"] = counted("verify.reversal_residual", "chain_flops")
    op_calls = out["operators.calls"]
    out["operators.repeat_ratio"] = counted("operators", "repeats") / op_calls if op_calls else 0.0
    return out


def counter_values(stats: dict[str, LayerStats]) -> dict[str, float]:
    """The computed counters of one trial: call counts and argument-derived
    counts, which must repeat exactly for one seed."""
    out = {}
    for layer, st in stats.items():
        out[f"{layer}.calls"] = st.calls
        for name, value in st.counts.items():
            out[f"{layer}.{name}"] = value
    return out
