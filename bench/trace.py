"""Outside-in tracing: wrap every layer's public surface, edit nothing in ``src/``.

:data:`LAYERS` names the modules of each layer.  :meth:`Tracer.install` wraps
what those modules define publicly — module functions (rebinding every
``repro.*`` module global that *is* the original, because the rules import
the kernels by name) and the public methods of their classes (set on the
class) — and :meth:`Tracer.uninstall` puts every original back.

A wrapped call is one span: ``(function, start, end, parent function)``.  The
tracer keeps a stack of open spans; when a span closes, its duration is added
to its parent's *child time*, and its **self time** is its duration minus its
own child time — so self times over all spans add up to the root's duration,
and a layer's self time is what that layer spent outside every other wrapped
call.  ``trainer`` wraps only ``run`` / ``run_step`` / ``evaluate``: its self
time is the trainer's own glue, private helpers included.

Every span feeds the aggregate ``(function, parent layer) -> calls, total,
self``.  Only the first :data:`SPANS_PER_FUNCTION` calls of a function are
also kept as span records: the per-event functions (``EventQueue.push`` /
``pop``, ``LinkScheduler.advance``, ``record_*``) run 10^5 times a session
and are aggregated, not stored.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

#: layer -> modules whose public functions and methods belong to it.  A
#: trailing ``.*`` takes every module of that package.  Modules that no longer
#: exist are skipped, so deleting one from ``src/`` does not break the trace.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "trainer": ("repro.cluster.trainer",),
    "builder": ("repro.cluster.builder", "repro.cluster.deploy"),
    "data": ("repro.data.*",),
    "worker": ("repro.cluster.worker",),
    "nn": ("repro.nn.model", "repro.nn.models.registry"),
    "fleet": ("repro.cluster.fleet",),
    "attacks": ("repro.attacks.*",),
    "codec": ("repro.cluster.codec",),
    "network": ("repro.cluster.network", "repro.cluster.packets"),
    "link": ("repro.cluster.link",),
    "events": ("repro.cluster.events",),
    "sync": ("repro.cluster.sync",),
    "server": ("repro.cluster.server",),
    "service": ("repro.cluster.service",),
    "gar": (
        "repro.core.base", "repro.core.average", "repro.core.brute",
        "repro.core.bulyan", "repro.core.clipping", "repro.core.geometric_median",
        "repro.core.krum", "repro.core.meamed", "repro.core.median",
    ),
    "kernels": ("repro.core.kernels",),
    "distance_cache": ("repro.core.distance_cache",),
    "cost_model": ("repro.cluster.cost_model", "repro.cluster.clock", "repro.core.theory"),
    "optim": ("repro.optim.*",),
    "telemetry": ("repro.cluster.telemetry",),
}

#: The root span's layer: the benchmark's own session code.
ROOT = "session"

#: Classes of a layer module whose methods stay unwrapped: the trainer's data
#: carriers are not its surface, and wrapping them would split its glue.
_TRAINER_SURFACE = ("BaseTrainer", "SynchronousTrainer", "AsyncTrainer")

#: Accessors that only read state, called 10^4-10^5 times a session at
#: ~0.2 us each: a span costs more than they do (naive wrapping of everything
#: measured +67 % on ``async_quorum_1k``), so they stay unwrapped and their
#: time falls to the caller.
UNTRACED = frozenset({
    "peek", "peek_time", "timeline_for", "region_of", "region_of_worker",
    "session_kwargs", "batch_ready", "step_of", "parameters", "gradient_bytes",
    "has_version", "advance_to",
})

SPANS_PER_FUNCTION = 256

_MARK = "__bench_wrapped__"

#: ``layer.attribute`` (class names left out, so every codec's override
#: matches) -> ``count(args, kwargs, result)``: work units read off the
#: arguments and results of calls whose layer keeps no counter of its own.
UNIT_COUNTERS: Dict[str, Callable] = {
    "kernels.pairwise_squared_distances": lambda a, k, r: r.shape[0] * (r.shape[0] - 1) // 2,
    "events.push": lambda a, k, r: 1,
    "events.push_many": lambda a, k, r: len(r),
    "events.cancel": lambda a, k, r: 1,
    "network.split": lambda a, k, r: len(r),
    "network.reassemble": lambda a, k, r: len(a[1]),
    "link.open": lambda a, k, r: 1,
    "link.open_many": lambda a, k, r: len(r),
    "link.simulate": lambda a, k, r: len(r),
    "codec.encode": lambda a, k, r: 1,
    "codec.encode_batch": lambda a, k, r: len(r),
    "codec.encode_decode_batch": lambda a, k, r: len(r[0]),
    "codec.encode_delta": lambda a, k, r: 1,
    "fleet.compute": lambda a, k, r: r[1].shape[0],
    "nn.loss_and_gradient": lambda a, k, r: 1,
    "sync.admit": lambda a, k, r: 0 if r else 1,  # rejections
}


def layer_modules(patterns: Tuple[str, ...]) -> List[str]:
    """Expand a :data:`LAYERS` entry to the importable module names it covers."""
    names: List[str] = []
    for pattern in patterns:
        if not pattern.endswith(".*"):
            names.append(pattern)
            continue
        package = importlib.import_module(pattern[:-2])
        names.append(package.__name__)
        names.extend(
            info.name
            for info in pkgutil.walk_packages(package.__path__, package.__name__ + ".")
        )
    return names


_FIELDS = ("calls", "total_s", "self_s", "units")


@dataclass
class Snapshot:
    """One traced session: the root span's duration and every aggregate."""

    duration: float
    root_self_s: float
    #: ``function -> {parent layer -> (calls, total s, self s, units)}``.
    cells: Dict[str, Dict[str, tuple]]
    #: ``(function, start, end, parent function)`` of the stored spans.
    spans: List[Tuple[str, float, float, str]]

    def by_function(self) -> Dict[str, Dict[str, float]]:
        """``function -> calls / total_s / self_s / units`` summed over parents."""
        return {
            name: {key: sum(cell[i] for cell in cells.values())
                   for i, key in enumerate(_FIELDS)}
            for name, cells in self.cells.items()
        }

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """``layer -> calls / self_s`` for every layer of :data:`LAYERS`."""
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for name, row in self.by_function().items():
            layer = table[name.split(".", 1)[0]]
            layer["calls"] += row["calls"]
            layer["self_s"] += row["self_s"]
        return table

    def total(self, layer: str, attribute: str, field: str = "units", *,
              outside_only: bool = False) -> float:
        """Sum *field* over the calls of ``layer.[Class.]attribute``.

        ``outside_only`` leaves out calls made from inside the layer — one
        override delegating to another (``encode_decode_batch`` ->
        ``encode_batch``) would otherwise count its frames twice.
        """
        index = _FIELDS.index(field)
        return sum(
            cell[index]
            for name, cells in self.cells.items()
            if name.startswith(layer + ".") and name.rsplit(".", 1)[-1] == attribute
            for parent, cell in cells.items()
            if not (outside_only and parent == layer)
        )

    def total_calls(self) -> int:
        return sum(cell[0] for cells in self.cells.values() for cell in cells.values())

    def write(self, path: str) -> None:
        """Write the stored spans and the aggregates as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "duration_s": self.duration,
                    "spans": [
                        {"function": s[0], "start": s[1], "end": s[2], "parent": s[3]}
                        for s in self.spans
                    ],
                    "aggregates": {
                        name: {parent: dict(zip(_FIELDS, cell)) for parent, cell in cells.items()}
                        for name, cells in self.cells.items()
                    },
                },
                handle,
            )


class Tracer:
    """The span stack, the per-function aggregates and the installed wrappers."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: Open spans, innermost last: ``[layer, child seconds, function]``.
        self.stack: List[list] = [[ROOT, 0.0, ROOT]]
        #: ``function -> {parent layer -> [calls, total s, self s, units]}``.
        self.cells: Dict[str, Dict[str, list]] = {}
        #: Stored spans: ``(function, start, end, parent function)``.
        self.spans: List[Tuple[str, float, float, str]] = []
        self._installed: List[Tuple[object, str, object]] = []
        self._root_start = clock()

    # ------------------------------------------------------------- recording
    def reset(self) -> None:
        """Forget every span; the root span opens now.

        The containers are emptied in place: every wrapper holds them.
        """
        del self.stack[1:]
        self.stack[0][1] = 0.0
        for cells in self.cells.values():
            cells.clear()
        self.spans.clear()
        self._root_start = self.clock()

    def wrap(self, function: Callable, layer: str, name: str) -> Callable:
        """A span-recording stand-in for *function* (``name`` = ``layer.qualname``)."""
        stack, spans, clock = self.stack, self.spans, self.clock
        cells = self.cells.setdefault(name, {})
        counter = UNIT_COUNTERS.get(f"{layer}.{name.rsplit('.', 1)[-1]}")

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            try:
                cell = cells[parent[0]]
            except KeyError:
                cell = cells[parent[0]] = [0, 0.0, 0.0, 0]
            frame = [layer, 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                cell[0] += 1
                cell[1] += elapsed
                cell[2] += elapsed - frame[1]
                if cell[0] <= SPANS_PER_FUNCTION:
                    spans.append((name, start, end, parent[2]))

        if counter is None:
            traced = wrapper
        else:
            def traced(*args, **kwargs):
                result = wrapper(*args, **kwargs)
                cells[stack[-1][0]][3] += counter(args, kwargs, result)
                return result

        traced.__name__ = getattr(function, "__name__", "wrapped")
        traced.__qualname__ = getattr(function, "__qualname__", traced.__name__)
        traced.__doc__ = function.__doc__
        traced.__wrapped__ = function
        setattr(traced, _MARK, True)
        return traced

    @contextmanager
    def span(self, layer: str, name: str) -> Iterator[None]:
        """A span around benchmark code that stands for *layer* (the JSON export)."""
        parent = self.stack[-1]
        cell = self.cells.setdefault(name, {}).setdefault(parent[0], [0, 0.0, 0.0, 0])
        frame = [layer, 0.0, name]
        self.stack.append(frame)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self.stack.pop()
            parent[1] += end - start
            cell[0] += 1
            cell[1] += end - start
            cell[2] += end - start - frame[1]
            self.spans.append((name, start, end, parent[2]))

    def snapshot(self) -> "Snapshot":
        """Everything recorded since :meth:`reset`, detached from the live tracer."""
        duration = self.clock() - self._root_start
        return Snapshot(
            duration=duration,
            root_self_s=duration - self.stack[0][1],
            cells={
                name: {parent: tuple(cell) for parent, cell in cells.items()}
                for name, cells in self.cells.items() if cells
            },
            spans=list(self.spans),
        )

    # ---------------------------------------------------------- installation
    def install(self) -> int:
        """Wrap every layer's public surface; returns the number of wrappers."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for layer, patterns in LAYERS.items():
            for module_name in layer_modules(patterns):
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    continue
                self._wrap_module(module, layer)
        return len(self._installed)

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def _replace(self, owner: object, attribute: str, original: object, new: object) -> None:
        self._installed.append((owner, attribute, original))
        setattr(owner, attribute, new)

    def _wrap_module(self, module, layer: str) -> None:
        for attribute, value in list(vars(module).items()):
            if attribute.startswith("_") or attribute in UNTRACED:
                continue
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                wrapper = self.wrap(value, layer, f"{layer}.{attribute}")
                for other in _repro_modules():
                    for key, held in list(vars(other).items()):
                        if held is value:
                            self._replace(other, key, value, wrapper)
            elif inspect.isclass(value):
                if layer == "trainer" and attribute not in _TRAINER_SURFACE:
                    continue
                self._wrap_class(value, layer)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attribute, value in list(vars(cls).items()):
            if (attribute.startswith("_") and attribute != "__call__") or attribute in UNTRACED:
                continue
            name = f"{layer}.{cls.__name__}.{attribute}"
            if isinstance(value, (staticmethod, classmethod)):
                inner = value.__func__
                if inspect.isgeneratorfunction(inner):
                    continue
                self._replace(cls, attribute, value, type(value)(self.wrap(inner, layer, name)))
            elif inspect.isfunction(value) and not inspect.isgeneratorfunction(value):
                self._replace(cls, attribute, value, self.wrap(value, layer, name))


def _repro_modules() -> List[object]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def wrapped_attributes() -> List[str]:
    """Every ``repro.*`` attribute that currently holds a tracer wrapper."""
    found = []
    for module in _repro_modules():
        for attribute, value in list(vars(module).items()):
            if getattr(value, _MARK, False):
                found.append(f"{module.__name__}.{attribute}")
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                for key, member in list(vars(value).items()):
                    inner = getattr(member, "__func__", member)
                    if getattr(inner, _MARK, False):
                        found.append(f"{module.__name__}.{value.__name__}.{key}")
    return found
