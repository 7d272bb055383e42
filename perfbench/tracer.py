"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` wraps public fdgnn functions and methods. A function is
replaced at every fdgnn module attribute that refers to it, because callers
look names up in their own module (`netsim` imports its kernels from
`agents`; `trainer` and `datagen` import `forward`). Each call records one
span: name, start, end, parent span and the update it started in. Spans are
kept in flat arrays until the run ends. `Tracer.restore` puts the original
objects back.

A span's self time is its duration minus the time covered by its direct
child spans.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np


def held_bytes(obj) -> int:
    """Bytes of the numpy arrays held as attributes of `obj`."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.update = array("q")
        self.update_index = 1
        self.result_bytes: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.update.append(self.update_index)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, name: str, fn, measure_result: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure_result:
                self.result_bytes[name] = max(self.result_bytes.get(name, 0), held_bytes(out))
            return out

        return traced

    def install(self, targets, measure_results=()) -> None:
        """Wrap each dotted target, e.g. "netsim.run_minibatch" or
        "netsim.Network.thetas" (module, optional class, attribute)."""
        modules = [m for k, m in list(sys.modules.items()) if k == "fdgnn" or k.startswith("fdgnn.")]
        for name in targets:
            parts = name.split(".")
            owner = importlib.import_module("fdgnn." + parts[0])
            for part in parts[1:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapped = self._wrap(name, original, name in measure_results)
            if isinstance(owner, type):
                self._patch(owner, parts[-1], wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)

    def _patch(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "update": np.frombuffer(self.update, dtype=np.int64),
        }

    def totals(self, first_update: int, last_update: int) -> dict[str, tuple[float, int]]:
        """Self seconds and call count per span name, over the spans that
        started in updates first_update..last_update inclusive."""
        c = self.columns()
        dur = c["end"] - c["start"]
        has_parent = c["parent"] >= 0
        child = np.bincount(c["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child
        keep = (c["update"] >= first_update) & (c["update"] <= last_update)
        ids = c["name_id"][keep]
        secs = np.bincount(ids, weights=self_s[keep], minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {name: (float(secs[i]), int(calls[i])) for i, name in enumerate(self.names)}
