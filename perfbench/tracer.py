"""In-memory spans around the harness's public entry points.

The benchmark times the program from outside: every wrapper here is
installed at the module or class attribute its caller resolves at call
time, records one span (name, start, end, parent, owning trial) and
restores the original on exit.  Nothing under ``src/`` knows it is being
timed.  Layer self time is a span's duration minus the part its child
spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(slots=True)
class Span:
    """One timed call: ``trial`` is the nearest enclosing trial span."""

    id: int
    name: str
    parent: int | None
    trial: int | None
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def to_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "trial": self.trial,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_time,
            **self.attrs,
        }


class Tracer:
    """A span stack for one serial process (no threads, no pools)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, *, trial: bool = False) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(
            id=len(self.spans),
            name=name,
            parent=None if parent is None else parent.id,
            trial=None if parent is None else parent.trial,
            start=time.perf_counter(),
        )
        if trial:
            record.trial = record.id
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_time += record.duration

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        trial: bool = False,
        attrs: Callable[..., dict[str, Any]] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` inside a span; ``attrs(result, *args)`` annotates it
        after the clock stops."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name, trial=trial) as record:
                result = fn(*args, **kwargs)
            if attrs is not None:
                record.attrs.update(attrs(result, *args, **kwargs))
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as sink:
            for record in self.spans:
                sink.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")


@dataclass(frozen=True, slots=True)
class EntryPoint:
    """Where a caller resolves one layer's public entry point.

    ``owners`` lists every module or class attribute the same function is
    reached through (the explorer and the witness minimizer each hold
    their own ``run_schedule`` name).
    """

    name: str
    owners: tuple[Any, ...]
    attr: str
    trial: bool = False
    attrs: Callable[..., dict[str, Any]] | None = None


@contextlib.contextmanager
def installed(tracer: Tracer, points: tuple[EntryPoint, ...]) -> Iterator[None]:
    """Swap each entry point for its traced wrapper; restore on exit."""
    saved: list[tuple[Any, str, Any]] = []
    try:
        for point in points:
            original = getattr(point.owners[0], point.attr)
            for owner in point.owners[1:]:
                if getattr(owner, point.attr) is not original:
                    raise RuntimeError(
                        f"{point.name}: {owner!r}.{point.attr} no longer "
                        "aliases the same function"
                    )
            wrapper = tracer.wrap(point.name, original,
                                  trial=point.trial, attrs=point.attrs)
            for owner in point.owners:
                saved.append((owner, point.attr, original))
                setattr(owner, point.attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
