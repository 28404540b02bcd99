"""In-memory span tracer that wraps limpack's public functions from outside.

A span has a name, a start, an end, a parent span and an operation id. Spans
live in flat arrays while the run lasts and are written once, when it ends.
Wrapping replaces a function in every limpack module that holds it (a
`from .x import f` binding included), so calls between modules are traced
too; `uninstall` puts the originals back.

Self time of a span is its duration minus the durations of its children.
Spans of the same name nested inside each other count once in a layer's
inclusive time.
"""
from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []          # open spans per name id
        self.name = array("i")
        self.parent = array("i")
        self.op = array("q")
        self.outer = array("b")               # 1 if no open span of the same name
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = 0                        # set by the workload per operation
        self.calls: dict[str, int] = {}       # invocations; a generator counts once
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def begin(self, name: str) -> int:
        nid = self._name_id(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.outer.append(self._active[nid] == 0)
        self._active[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        if self._stack.pop() != i:
            raise RuntimeError(f"span {self.names[self.name[i]]} closed out of order")
        self._active[self.name[i]] -= 1

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, on_result=None):
        begin, finish, calls = self.begin, self.finish, self.calls
        calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            calls[name] += 1
            i = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if on_result is not None:
                on_result(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Each resumption of the generator is one span of `name`."""
        begin, finish, calls = self.begin, self.finish, self.calls
        calls.setdefault(name, 0)

        def traced(*args, **kwargs):
            calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                i = begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    finish(i)
                yield item

        traced.__wrapped__ = fn
        return traced

    def install(self, module, attr: str, name: str, on_result=None,
                generator: bool = False) -> None:
        """Replace module.attr, and every limpack binding of the same object."""
        fn = getattr(module, attr)
        wrapped = (self.wrap_generator(name, fn) if generator
                   else self.wrap(name, fn, on_result))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "limpack" or mod_name.startswith("limpack.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, key, fn))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for mod, key, fn in reversed(self._patches):
            setattr(mod, key, fn)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds (outermost spans) and self seconds."""
        count = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(count):
            row = out[self.names[self.name[i]]]
            row["self_s"] += dur[i] - child[i]
            if self.outer[i]:
                row["s"] += dur[i]
        return out

    def write(self, directory: Path) -> None:
        """spans.json describes the columns; spans.bin holds them back to back."""
        directory.mkdir(parents=True, exist_ok=True)
        columns = [("name", self.name), ("parent", self.parent), ("op", self.op),
                   ("start", self.start), ("end", self.end)]
        meta = {"count": len(self.start), "names": self.names, "byteorder": sys.byteorder,
                "columns": [{"name": c, "typecode": a.typecode, "itemsize": a.itemsize}
                            for c, a in columns]}
        with open(directory / "spans.bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        (directory / "spans.json").write_text(json.dumps(meta, indent=1) + "\n")
