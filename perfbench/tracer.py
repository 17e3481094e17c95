"""In-memory span tracer for the benchmark's traced runs.

A span is (name, start, end, parent).  Functions are wrapped where their
caller looks them up -- for example ``fracplap.integrator.memory_term`` is
the name ``step`` resolves at call time -- so the package itself is not
edited.  Spans are appended when they open, which puts every parent
before its children and lets one forward pass derive nesting facts.
A function's self time is its span's duration minus the time its child
spans cover; the march is single-threaded, so children never overlap.
"""
from __future__ import annotations

import functools
import json
import os
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []             # span-name table
        self._name_ids = {}
        self.spans = []             # [name_id, start, end, parent, extra]
        self._stack = []
        self._patched = []          # (owner, attr, original)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, owner, attr, name, extra=None):
        """Replace ``owner.attr`` by a spanning wrapper; missing names are skipped.

        ``extra(args, result)`` may return a number stored with the span,
        such as the bytes a call read or wrote.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, 0]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                try:
                    span[4] = extra(args, result)
                except (AttributeError, TypeError, OSError):
                    pass    # an unexpected signature must not break the traced run
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path):
        """Write the recorded spans as compact JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"fields": ["name_index", "start_s", "end_s", "parent", "extra"],
                       "names": self.names, "spans": self.spans}, fh)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------

    def table(self):
        """Per-span arrays: name id, duration, self time, parent, extra,
        and the index of the enclosing ``integrator.step`` span (-1 if none)."""
        n = len(self.spans)
        arr = np.array([s[:4] for s in self.spans], dtype=np.float64).reshape(n, 4)
        name = arr[:, 0].astype(np.int64)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(np.int64)
        extra = np.array([s[4] for s in self.spans], dtype=np.float64)
        has_parent = parent >= 0
        child_sum = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=n)
        self_time = dur - child_sum
        step_id = self._name_ids.get("integrator.step", -2)
        step_of = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            if name[i] == step_id:
                step_of[i] = i
            elif parent[i] >= 0:
                step_of[i] = step_of[parent[i]]
        return {"name": name, "dur": dur, "self": self_time, "parent": parent,
                "extra": extra, "step_of": step_of}

    def mask(self, tab, name):
        nid = self._name_ids.get(name)
        if nid is None:
            return np.zeros(tab["name"].shape, dtype=bool)
        return tab["name"] == nid
