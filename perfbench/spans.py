"""Spans recorded around calls into the library's layers.

A ``Tracer`` replaces module-level names that the layers call through (for
example ``yieldcrit.sections.yield_value``) by wrappers that record one span
per call: name, start, end and parent.  Spans stay in memory in flat arrays
and are written out once, at the end of a traced run.  Self time is a span's
duration minus the part of it that its children cover.
"""

from __future__ import annotations

import gzip
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, on_return=None):
        """``fn`` with a span around each call; ``on_return(result)`` sees results."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, on_return=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name, on_return))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def spans(self) -> list[tuple[str, int, int, int]]:
        return [
            (self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i])
            for i in range(len(self.start))
        ]

    def write(self, path) -> None:
        """CSV of all spans; gzip-compressed when the path ends in .gz."""
        opener = gzip.open if str(path).endswith(".gz") else open
        with opener(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, s, e, par) in enumerate(self.spans()):
                fh.write(f"{i},{name},{s},{e},{par}\n")

    def load(self, path) -> None:
        """Append the spans another process wrote with :meth:`write`."""
        offset = len(self.start)
        with open(path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                _, name, s, e, par = line.rstrip("\n").split(",")
                self.name_id.append(self._id(name))
                self.start.append(int(s))
                self.end.append(int(e))
                self.parent.append(int(par) + offset if int(par) >= 0 else -1)


def self_times(start, end, parent) -> list[int]:
    """Duration of each span minus the union of its children's intervals."""
    n = len(start)
    children: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = []
    for i in range(n):
        lo, hi = start[i], end[i]
        covered = 0
        cur_s = cur_e = None
        for s, e in sorted((max(start[c], lo), min(end[c], hi)) for c in children[i]):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(hi - lo - covered)
    return out


def has_ancestor(i: int, parent, name_id, target: int) -> bool:
    j = parent[i]
    while j >= 0:
        if name_id[j] == target:
            return True
        j = parent[j]
    return False


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import times in ms from ``python -X importtime`` output.

    Returns the ``yieldcrit`` package total and the scipy total, the latter
    summed over scipy modules imported from outside scipy, so nested scipy
    imports are not counted twice.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((level, int(cumulative), name.strip()))
    total = {"yieldcrit": 0.0, "scipy": 0.0}
    for i, (level, cum, name) in enumerate(rows):
        # importtime prints children before their parent; the parent is the
        # first later row one level up.
        parent = next((r[2] for r in rows[i + 1:] if r[0] < level), None)
        if name == "yieldcrit":
            total["yieldcrit"] += cum / 1000.0
        elif name.split(".")[0] == "scipy" and (parent is None or parent.split(".")[0] != "scipy"):
            total["scipy"] += cum / 1000.0
    return total
