"""In-memory spans recorded around calls into the program's modules.

The tracer wraps public names at the import site the caller uses (for
example `ganmc.evaluation.sample`, which `selected_tracks` calls), so the
program itself is not modified. Wrappers are installed only for the
duration of a traced pass and the original names are restored after it.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: int = 0
    failed: bool = False
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while active; `site` registers a name to wrap."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, str, object]] = []
        self._saved: list[tuple[object, str, object]] = []
        self.request = 0

    def site(self, module, attr: str, name: str, count=None) -> None:
        """Wrap `module.attr` as span `name`; `count(args, kwargs, result)` returns span counts."""
        self._sites.append((module, attr, name, count))

    @contextmanager
    def span(self, name: str, **counts):
        """Record a span; a span opened outside any other starts a new request id."""
        if not self._stack:
            self.request += 1
        index = len(self.spans)
        record = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1,
                      request=self.request, counts=counts)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except BaseException:
            record.failed = True
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, count):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if count is not None:
                    record.counts.update(count(args, kwargs, result))
                return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def recording(self):
        """Install every registered wrapper for the duration of the block."""
        for module, attr, name, count in self._sites:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))
        try:
            yield
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    def children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.parent, []).append(s)
        return out

    def self_seconds(self, index: int, kids: dict[int, list[Span]]) -> float:
        """Span duration minus the time its direct children cover (children never overlap)."""
        return self.spans[index].seconds - sum(c.seconds for c in kids.get(index, []))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "request": s.request, "failed": s.failed,
                    "counts": s.counts,
                }) + "\n")


@contextmanager
def nullspan(*_args, **_kwargs):
    yield None
