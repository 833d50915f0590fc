"""Consistent-hash ring with virtual nodes.

The front end routes every request to the worker that *owns* its
structural artifact key, so each program's traffic concentrates on one
worker — which keeps each worker's bounded plan cache hot and the
shared disk tier's write pattern mostly contention-free.

Ownership must be stable under membership changes: when a worker
crashes and is replaced, or the pool is resized, only the keys that
actually move owners should go cold.  A consistent-hash ring with
``vnodes`` virtual points per node gives exactly that — adding one
node to an N-node ring remaps ~``1/(N+1)`` of the key space (the
stability property is pinned at ≤ ``1.5/N`` over a 1k-key sample in
``tests/serve/test_ring.py``).

Hashes are sha256 over UTF-8 strings, so routing is deterministic
across processes and machines: the front end and any out-of-process
tooling (or a test subprocess) agree on every key's owner without
coordination.  ``hash()`` is deliberately avoided — it is randomised
per process by PYTHONHASHSEED.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable, Optional

#: Virtual points per node.  64 keeps the remap bound comfortably under
#: 1.5/N for small clusters while the ring stays tiny (N*64 ints).
DEFAULT_VNODES = 64

__all__ = ["DEFAULT_VNODES", "HashRing", "remap_fraction"]


def _point(label: str) -> int:
    """A stable 64-bit ring position for ``label``."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Maps keys to node names; membership changes move ~1/N of keys."""

    def __init__(
        self,
        nodes: Iterable[str] = (),
        *,
        vnodes: int = DEFAULT_VNODES,
    ) -> None:
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._nodes: set[str] = set()
        self._points: list[int] = []   # sorted ring positions
        self._owners: list[str] = []   # node at each position
        for node in nodes:
            self.add(node)

    # ------------------------------------------------------------------
    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for i in range(self.vnodes):
            point = _point(f"{node}#{i}")
            at = bisect.bisect_left(self._points, point)
            # sha256 collisions between distinct labels are not a
            # practical concern; ties resolve by insertion order.
            self._points.insert(at, point)
            self._owners.insert(at, node)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise KeyError(f"node {node!r} not on the ring")
        self._nodes.remove(node)
        keep = [
            (p, o) for p, o in zip(self._points, self._owners) if o != node
        ]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def route(self, key: str) -> str:
        """The node owning ``key``: first vnode clockwise from its hash."""
        if not self._points:
            raise LookupError("ring has no nodes")
        at = bisect.bisect_right(self._points, _point(key))
        if at == len(self._points):
            at = 0  # wrap past the top of the ring
        return self._owners[at]

    # ------------------------------------------------------------------
    def nodes(self) -> frozenset[str]:
        return frozenset(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def describe(self) -> dict:
        """Distribution summary (points per node) for metrics/debugging."""
        share: dict[str, int] = {node: 0 for node in sorted(self._nodes)}
        for owner in self._owners:
            share[owner] += 1
        return {
            "nodes": sorted(self._nodes),
            "vnodes": self.vnodes,
            "points": share,
        }


def remap_fraction(
    before: HashRing, after: HashRing, keys: Iterable[str]
) -> Optional[float]:
    """Fraction of ``keys`` whose owner differs between two rings."""
    keys = list(keys)
    if not keys:
        return None
    moved = sum(1 for k in keys if before.route(k) != after.route(k))
    return moved / len(keys)
