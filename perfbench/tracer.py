"""In-memory span recorder for the traced benchmark run.

A span is one call into a layer: its name, start and end (perf_counter
nanoseconds), the index of the span it was called from (-1 at the top of
an item) and the id of the item (question, training step, ...) it belongs
to.  Spans come from wrappers that :meth:`Tracer.attach` installs on the
objects the benchmark hands to the program and removes again with
:meth:`Tracer.detach`, so an untraced item runs the program's own methods
with nothing in between but the result capture on ``beam_search``.
Nothing in ``src/`` is edited.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

_now = time.perf_counter_ns


@dataclass
class Tracer:
    spans: list = field(default_factory=list)   # [name, start, end, parent, item]
    counts: dict = field(default_factory=dict)  # name -> list of observed counts
    _stack: list = field(default_factory=list)
    _item: Optional[str] = None
    _patches: list = field(default_factory=list)

    def set_item(self, item: Optional[str]) -> None:
        self._item = item

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so each call records a span.

        ``observe(result, args)`` may return a dict of counts to record; it
        runs after the span has ended so its cost stays out of the span.
        """
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self._item]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()
            if observe is not None:
                for key, value in observe(result, args).items():
                    self.counts.setdefault(key, []).append(value)
            return result

        return traced

    def patch(self, owner, attr: str, name: str,
              observe: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` (an instance, class or module attribute)."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        # An instance without its own attribute wraps the bound method.
        current = original if had_own else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, current, observe))
        self._patches.append((owner, attr, had_own, original))

    def attach(self, installs: list) -> None:
        """Install every ``(owner, attr, span_name[, observe])`` wrapper."""
        for install in installs:
            self.patch(*install)

    def detach(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def self_times(spans: list) -> list:
    """Per span: duration minus the time its direct children cover (ns)."""
    child = [0] * len(spans)
    for name, start, end, parent, _item in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (_n, start, end, _p, _it) in enumerate(spans)]
