"""In-memory span recorder for the traced benchmark run.

The recorder times calls into leanreg from outside: it replaces a public
function with a timing wrapper under every module attribute that refers to
it (``leanreg.simlab.fit_ols`` as well as ``leanreg.ols.fit_ols``), so calls
made through ``from .ols import fit_ols`` and through ``linalg.solve_spd``
are both seen. Each span is ``(span_id, parent_id, label_index, start, end)``;
the parent is the innermost wrapped call open on the same thread (0 for a
root). Self time is a span's duration minus the part of it that its child
spans cover, so the self times of a tree add up to the root's duration.
"""

from __future__ import annotations

import collections
import functools
import gzip
import importlib
import itertools
import sys
import threading
import time


def covered_length(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Map span id to its self time, computed from the parent links."""
    children = collections.defaultdict(list)
    for sid, parent, _label, start, end in spans:
        children[parent].append((start, end))
    return {
        sid: (end - start) - covered_length(children.get(sid, ()), start, end)
        for sid, _parent, _label, start, end in spans
    }


def summarize(spans, labels) -> dict:
    """Per label: number of calls, inclusive seconds and self seconds."""
    selfs = self_times(spans)
    out = {label: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for label in labels}
    for sid, _parent, idx, start, end in spans:
        row = out[labels[idx]]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += selfs[sid]
    return out


def subtree_shares(spans, labels, root_label: str) -> tuple[float, float, dict]:
    """Split the time of every ``root_label`` span over its direct children.

    Returns (root seconds, summed self seconds of the root spans and all
    their descendants, inclusive seconds per direct-child label). The first
    two agree when self times account for the root's measured time.
    """
    selfs = self_times(spans)
    kids = collections.defaultdict(list)
    for span in spans:
        kids[span[1]].append(span)
    root_idx = labels.index(root_label)
    root_s = descendant_self = 0.0
    direct = collections.Counter()
    for span in spans:
        if span[2] != root_idx:
            continue
        root_s += span[4] - span[3]
        for child in kids[span[0]]:
            direct[labels[child[2]]] += child[4] - child[3]
        todo = [span]
        while todo:
            cur = todo.pop()
            descendant_self += selfs[cur[0]]
            todo.extend(kids[cur[0]])
    return root_s, descendant_self, dict(direct)


class Recorder:
    """Wraps functions by label ("module.function") and records their spans."""

    def __init__(self, package: str = "leanreg"):
        self.package = package
        self.labels: list[str] = []
        self.spans: list[tuple] = []
        self.counters: collections.Counter = collections.Counter()
        self.absent: list[str] = []
        self._patched: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _wrapper(self, idx: int, fn, on_result):
        clock = time.perf_counter
        spans, local, ids, counters = self.spans, self._local, self._ids, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else 0
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, idx, start, end))
            if on_result is not None:
                on_result(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self, labels, hooks=None) -> None:
        """Wrap each labelled function wherever a leanreg module refers to it.

        A label whose function no longer exists is recorded in ``absent``
        and otherwise ignored, so the benchmark outlives deleted functions.
        """
        hooks = hooks or {}
        originals = []
        for label in labels:
            mod_name, fn_name = label.rsplit(".", 1)
            try:
                home = importlib.import_module(f"{self.package}.{mod_name}")
            except ModuleNotFoundError:
                home = None
            originals.append((label, getattr(home, fn_name, None)))
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for label, original in originals:
            idx = len(self.labels)
            self.labels.append(label)
            if not callable(original):
                self.absent.append(label)
                continue
            wrapper = self._wrapper(idx, original, hooks.get(label))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write the spans as tab-separated lines: id, parent, label, start, end."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as handle:
            handle.write("id\tparent\tlabel\tstart\tend\n")
            for sid, parent, idx, start, end in self.spans:
                handle.write(f"{sid}\t{parent}\t{self.labels[idx]}\t{start!r}\t{end!r}\n")
