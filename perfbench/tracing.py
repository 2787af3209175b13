"""Span tracer installed around radialsw's public functions from outside.

`Tracer.wrap` prepares a wrapper for a module or class attribute that
records one span per call: name, start, end, parent span and item id;
`Tracer.installed()` puts the wrappers in place for the duration of a
`with` block and restores the original attributes afterwards.
Spans live in flat arrays while the run goes on, are written out once at
the end, and self times (duration minus the time covered by child spans)
are computed from them.  Calls made while no item is active pass straight
through, so scenario generation and checks leave no spans.
"""
from __future__ import annotations

import contextlib
import functools
from array import array
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.item = array("l")
        self.counts: dict = {}
        self.item_id = -1
        self._stack: list = []
        self._patches: list = []   # (owner, attr, original, wrapper)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, owner, attr: str, name: str, on_return=None):
        """Record a span around every call of owner.attr while an item is
        active; on_return(result) runs after the span closes."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        nid = self._name_id(name)
        start, end, parent, names, item = (self.start, self.end, self.parent,
                                           self.name, self.item)
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.item_id < 0:
                return fn(*args, **kwargs)
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            item.append(tracer.item_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        self._patches.append((owner, attr, fn, traced))

    def count(self, owner, attr: str, name: str):
        """Count calls of owner.attr while an item is active, without spans
        (for calls too frequent and too short to time)."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.counts.setdefault(name, 0)
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.item_id >= 0:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        self._patches.append((owner, attr, fn, counted))

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, fn, _ in reversed(self._patches):
                setattr(owner, attr, fn)

    def arrays(self) -> dict:
        return {"start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int_),
                "name": np.frombuffer(self.name, dtype=np.int_),
                "item": np.frombuffer(self.item, dtype=np.int_)}

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), start=a["start"],
                 end=a["end"], parent=a["parent"].astype(np.int32),
                 name=a["name"].astype(np.int16), item=a["item"].astype(np.int32))

    def summary(self) -> dict:
        """{name: (calls, total seconds, self seconds)}; plus the summed
        duration of root spans under the key None."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = a["name"] == nid
            out[name] = (int(mask.sum()), float(dur[mask].sum()),
                         float(self_time[mask].sum()))
        out[None] = float(dur[~has_parent].sum())
        return out
