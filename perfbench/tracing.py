"""In-memory spans around calls into mevgen's public functions.

Spans are recorded from outside the package: while :meth:`Tracer.patched`
is active, every attribute of a ``mevgen`` module that *is* one of the
functions in :data:`TRACED` is replaced by a wrapper that records one span
per call, and the originals are restored on exit.  Because callers look the
functions up through module globals at call time, calls made inside the
library (``synthesize`` computing lambda, ``sample_batch`` fingerprinting
the spec) are caught too, and nest as children of the enclosing span.

Only public names are wrapped.  A name a later version of mevgen no longer
has is skipped, and the layer metrics built on it then read 0.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass


_MARGINS_LABELS = ("estimation.rank", "estimation.known")


def _margins_label(args, kwargs) -> str:
    margins = kwargs.get("margins", args[2] if len(args) > 2 else "rank")
    return _MARGINS_LABELS[margins != "rank"]


#: (module, attribute or Class.attribute, span name or a function of the
#: call's arguments returning one).
TRACED = (
    ("mevgen.model", "validate_spec", "model.validate"),
    ("mevgen.model", "require_valid_tail_dep_matrix", "model.validate_target"),
    ("mevgen.model", "tail_dep_matrix", "model.tail_dep"),
    ("mevgen.model", "extremal_matrix", "model.extremal"),
    ("mevgen.model", "log_copula", "model.log_copula"),
    ("mevgen.model", "ModelSpec.fingerprint", "model.fingerprint"),
    ("mevgen.model", "ModelSpec.from_json_dict", "model.spec_from_json"),
    ("mevgen.synthesis", "synthesize", "synthesis.synthesize"),
    ("mevgen.synthesis", "exactness_check", "synthesis.exactness_check"),
    ("mevgen.sampling", "sample_batch", "sampling.sample_batch"),
    ("mevgen.estimation", "estimate_tail_dep", _margins_label),
    ("mevgen.estimation", "theoretical_vs_empirical", "estimation.compare"),
    ("mevgen.fileio", "load_json", "fileio.load_json"),
    ("mevgen.fileio", "dump_json", "fileio.dump_json"),
    ("mevgen.fileio", "dump_synthesis", "fileio.dump_synthesis"),
    ("mevgen.fileio", "write_csv", "fileio.write_csv"),
    ("mevgen.fileio", "read_csv", "fileio.read_csv"),
    ("mevgen.plotting", "pair_scatter_svg", "plotting.svg"),
)

#: Every span name a traced call can record.
SPAN_NAMES = tuple(
    name
    for _, _, label in TRACED
    for name in ((label,) if isinstance(label, str) else _MARGINS_LABELS)
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


class Tracer:
    """Collects spans in memory; one tracer per traced pipeline pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, fn, label):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(label if isinstance(label, str) else label(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    @contextmanager
    def patched(self):
        """Wrap every function in TRACED for the duration of the block."""
        restore = []
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "mevgen" or name.startswith("mevgen."))
        ]
        try:
            for module_name, attr, label in TRACED:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    raw = None if cls is None else cls.__dict__.get(meth)
                    if raw is None:
                        continue
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, label))
                    else:
                        new = self._wrap(raw, label)
                    restore.append((cls, meth, raw))
                    setattr(cls, meth, new)
                    continue
                orig = getattr(module, attr, None)
                if orig is None:
                    continue
                new = self._wrap(orig, label)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            restore.append((m, key, orig))
                            setattr(m, key, new)
            yield self
        finally:
            for owner, key, orig in reversed(restore):
                setattr(owner, key, orig)

    def totals(self) -> dict[str, tuple[float, int]]:
        """Inclusive seconds and call count per span name.

        No traced function calls itself, so summing the spans of one name
        never counts a stretch of time twice.
        """
        out: dict[str, tuple[float, int]] = {}
        for span in self.spans:
            secs, calls = out.get(span.name, (0.0, 0))
            out[span.name] = (secs + span.end - span.start, calls + 1)
        return out

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]
