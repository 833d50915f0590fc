"""Two-tier artifact cache: in-memory LRU over an optional on-disk store.

The unit of storage is an :class:`Artifact` — everything one compile
produced that later requests can reuse: the optimised function, its
lowered :class:`~repro.profiles.compiled.CompiledProgram` (pickled with
the marshalled bytecode of its generated functions, so a load never
recompiles, and with the generated source to regenerate from under
another interpreter), and the artifact-safe
:class:`~repro.passes.manager.PassReport` summary.

Tiers:

* :class:`MemoryStore` — a bounded LRU (entry count *and* approximate
  bytes).  Hot keys stay resident; eviction order is pinned by
  ``tests/serve/test_store.py``.
* :class:`DiskStore` — one file per key under a sharded directory:
  a short header (format and schema), a BLAKE2b digest of the payload,
  then the pickled artifact.  Files are written via temp-file +
  :func:`os.replace` so readers can never observe a torn artifact, and
  read through a corruption-tolerant loader: the digest is checked
  *before* anything is unpickled, and any unreadable file (truncated,
  flipped bits, garbage, wrong schema) counts as a miss, is quarantined
  out of the way, and the artifact is simply recompiled — a cache must
  never turn a bad disk into a wrong answer.  The digest catches
  accidents, not attackers: a cache directory holds executable bytecode
  and is exactly as trusted as the code that serves from it.
* :class:`ArtifactStore` — the two-tier facade the server talks to:
  memory first, then disk (promoting hits into memory), writes go to
  both.  Each artifact is pickled once: a disk-backed put writes the
  bytes it measured, and a disk hit's size is the payload it read.

An artifact pickles its optimised function as a pickle of its own,
nested in the artifact's payload (so the digest covers it).  A disk hit
decodes only the lowered program it runs; :attr:`Artifact.func` is
decoded on first read, and an artifact that was never decoded pickles
those bytes through unchanged.  A degraded artifact runs its function,
so :meth:`DiskStore.get` decodes it at once, inside the corruption
check.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

from repro.ir.function import Function
from repro.profiles.compiled import CompiledProgram

#: Version of the pickled artifact layout.  Bump on any incompatible
#: change to :class:`Artifact`; old files then read as corrupt (a miss)
#: instead of deserialising into a lie.
#: 2: ``train_node_freq`` (the node profile the optimiser trained on,
#:    kept as the drift baseline for the adaptation tier).
#: 3: ``profiling`` (the instrumentation mode the served program was
#:    lowered in: "full" counting or minimum-coverage "probes").
#: 4: :class:`~repro.profiles.compiled.CompiledProgram` lowers each
#:    function to one generated Python function (its pickled fields
#:    changed with it).
#: 5: programs pickle their marshalled bytecode, and disk files frame
#:    the pickle with a header and a digest (see :class:`DiskStore`).
#: 6: ``profiling`` is gone and every program counts chords (a schema-5
#:    entry lowered in the retired sparse mode has no ``_derive``).
#: 7: ``engine`` is gone: every artifact trains on and lowers for the
#:    compiled engine.
#: 8: ``func`` pickles as its own nested pickle (``_func_bytes``), decoded
#:    on first read.
ARTIFACT_SCHEMA = 8

__all__ = [
    "ARTIFACT_SCHEMA",
    "Artifact",
    "MemoryStore",
    "DiskStore",
    "ArtifactStore",
]


#: Serialises first reads of an unpickled :attr:`Artifact.func`.
_DECODE_LOCK = threading.Lock()


@dataclass
class Artifact:
    """One cached compile: optimised function + lowered program + report."""

    key: str
    variant: str
    #: The optimised (non-SSA) function, ready for the reference engine.
    #: An unpickled artifact holds it as ``_func_bytes`` until first read.
    func: Function
    #: The lowered program for the compiled engine; ``None`` when the
    #: artifact is degraded (the compile failed and the service fell back
    #: to the prepared function on the reference interpreter).
    program: CompiledProgram | None = None
    #: Artifact-safe pass report (``PassReport.to_dict()``): plain JSON
    #: data, no live payload objects, so it pickles and serves cheaply.
    report: dict | None = None
    #: True when :attr:`func` is the *prepared* (unoptimised) function
    #: because the requested variant's compile raised.
    degraded: bool = False
    #: Why the artifact is degraded (repr of the compile error).
    degraded_reason: str | None = None
    #: Node frequencies of the profile this artifact was optimised under
    #: (``None`` for profile-free variants).  The adaptation tier scores
    #: live traffic against exactly this baseline to detect drift.
    train_node_freq: dict[str, int] | None = None
    schema: int = ARTIFACT_SCHEMA
    #: Pickled size in bytes (see ``nbytes``).
    _nbytes: int | None = field(default=None, repr=False, compare=False)

    def nbytes(self) -> int:
        """Approximate in-memory footprint: the pickled size.

        Artifacts are immutable after construction, so the size is
        known once the artifact has been pickled: :meth:`DiskStore.put`
        records the length of the payload it writes and
        :meth:`DiskStore.get` the length of the payload it read.  Only
        an artifact that never met the disk tier pickles here, once.
        The two tiers account size identically.
        """
        if self._nbytes is None:
            _dumps(self)
        return self._nbytes

    # -- pickling: ``func`` travels as ``_func_bytes`` (module docstring).
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_nbytes"] = None  # set by whoever reads the payload
        func = state.pop("func", None)
        if "_func_bytes" not in state:
            state["_func_bytes"] = pickle.dumps(
                func, protocol=pickle.HIGHEST_PROTOCOL
            )
        return state

    def __setstate__(self, state: dict) -> None:
        # Not pickle's default, which interns the state's keys and so
        # parts them from the equal strings the payload shares them with
        # (the report's keys): re-pickled, the artifact would then no
        # longer reproduce the payload it was read from.
        self.__dict__.update(state)

    def __getattr__(self, name: str):
        # Reached only while ``func`` is not in the instance dict: an
        # unpickled artifact whose function nobody has read yet.  One
        # lock for all artifacts (only first reads take it) makes that
        # read decode once, so every reader gets the same Function.
        state = self.__dict__
        if name != "func":
            raise AttributeError(name)
        with _DECODE_LOCK:
            if "func" not in state:
                if "_func_bytes" not in state:
                    raise AttributeError(name)
                state["func"] = _loads_func(state["_func_bytes"])
                del state["_func_bytes"]  # after ``func`` is published
        return state["func"]


def _loads_func(blob: bytes) -> Function:
    """Decode an artifact's pickled function (its first read)."""
    func = pickle.loads(blob)
    if not isinstance(func, Function):
        raise TypeError(f"artifact IR is a {type(func).__name__}")
    return func


def _dumps(artifact: Artifact) -> bytes:
    """Pickle *artifact*, recording the payload's length as its size."""
    payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
    artifact._nbytes = len(payload)
    return payload


class MemoryStore:
    """A thread-safe LRU bounded by entry count and approximate bytes."""

    def __init__(
        self, max_entries: int = 256, max_bytes: int = 256 << 20
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Artifact]" = OrderedDict()
        self._bytes = 0

    def get(self, key: str) -> Artifact | None:
        with self._lock:
            artifact = self._entries.get(key)
            if artifact is not None:
                self._entries.move_to_end(key)
            return artifact

    def put(self, key: str, artifact: Artifact) -> list[str]:
        """Insert (or refresh) *key*; returns the keys evicted to fit it.

        An artifact larger than ``max_bytes`` still caches (it just
        evicts everything else): refusing it would turn the hottest
        oversized program into a permanent miss.
        """
        evicted: list[str] = []
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes()
            self._entries[key] = artifact
            self._bytes += artifact.nbytes()
            while len(self._entries) > self.max_entries or (
                self._bytes > self.max_bytes and len(self._entries) > 1
            ):
                victim_key, victim = self._entries.popitem(last=False)
                self._bytes -= victim.nbytes()
                self.evictions += 1
                evicted.append(victim_key)
        return evicted

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[str]:
        """Current keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def bytes_used(self) -> int:
        with self._lock:
            return self._bytes


class DiskStore:
    """One framed pickle file per artifact under ``root``, written atomically.

    A file is :attr:`HEADER`, the BLAKE2b digest (:attr:`DIGEST_SIZE`
    bytes) of the payload, then the payload: the pickled artifact.
    """

    SUFFIX = ".artifact.pkl"
    HEADER = b"repro-artifact\x00" + ARTIFACT_SCHEMA.to_bytes(2, "big")
    DIGEST_SIZE = 32

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.corrupt = 0

    def path(self, key: str) -> Path:
        # Two-level sharding keeps directories small under heavy traffic.
        return self.root / key[:2] / f"{key}{self.SUFFIX}"

    def _digest(self, payload: bytes) -> bytes:
        return hashlib.blake2b(payload, digest_size=self.DIGEST_SIZE).digest()

    def get(self, key: str) -> Artifact | None:
        """Load an artifact, treating *any* failure as a miss.

        A truncated or bit-flipped file, a file of another format or
        schema, an artifact stored under another key, or plain garbage:
        all quarantine the file (best-effort rename to ``*.corrupt``) and
        return ``None`` so the caller recompiles.  The header and digest
        are checked before the payload is unpickled.
        """
        path = self.path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        start = len(self.HEADER) + self.DIGEST_SIZE
        payload = blob[start:]
        try:
            if not blob.startswith(self.HEADER):
                raise ValueError("not an artifact file of this schema")
            if blob[len(self.HEADER):start] != self._digest(payload):
                raise ValueError("payload digest mismatch")
            artifact = pickle.loads(payload)
            if not isinstance(artifact, Artifact) or artifact.schema != ARTIFACT_SCHEMA:
                raise ValueError("wrong artifact type or schema")
            if artifact.key != key:
                raise ValueError("artifact key does not match its filename")
            if artifact.program is None:
                artifact.func  # degraded: it runs its IR, so decode it now
        except Exception:  # noqa: BLE001 - corruption is expected, not fatal
            self.corrupt += 1
            try:
                os.replace(path, path.with_suffix(".corrupt"))
            except OSError:
                pass
            return None
        artifact._nbytes = len(payload)
        return artifact

    def put(self, key: str, artifact: Artifact) -> None:
        payload = _dumps(artifact)
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(self.HEADER)
                handle.write(self._digest(payload))
                handle.write(payload)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def keys(self) -> list[str]:
        return sorted(
            p.name[: -len(self.SUFFIX)]
            for p in self.root.glob(f"*/*{self.SUFFIX}")
        )


class ArtifactStore:
    """The two-tier facade: memory LRU in front of an optional disk store."""

    def __init__(
        self,
        memory: MemoryStore | None = None,
        disk: DiskStore | None = None,
    ) -> None:
        # ``is None``, not ``or``: an empty MemoryStore is falsy (it
        # defines __len__), and a caller's bounded tier must be kept.
        self.memory = MemoryStore() if memory is None else memory
        self.disk = disk

    @classmethod
    def with_disk(
        cls,
        root: Path | str,
        *,
        max_entries: int = 256,
        max_bytes: int = 256 << 20,
    ) -> "ArtifactStore":
        return cls(
            memory=MemoryStore(max_entries=max_entries, max_bytes=max_bytes),
            disk=DiskStore(root),
        )

    def get(self, key: str) -> tuple[Artifact | None, str | None]:
        """``(artifact, tier)``: tier is "memory", "disk" or ``None``.

        Disk hits are promoted into the memory tier so the next lookup
        is cheap.
        """
        artifact = self.memory.get(key)
        if artifact is not None:
            return artifact, "memory"
        if self.disk is not None:
            artifact = self.disk.get(key)
            if artifact is not None:
                self.memory.put(key, artifact)
                return artifact, "disk"
        return None, None

    def put(self, key: str, artifact: Artifact) -> list[str]:
        """Write through both tiers; returns memory-tier evictions.

        Disk first: its write pickles the artifact once and records the
        payload's length, which the memory tier then accounts.
        """
        if self.disk is not None:
            self.disk.put(key, artifact)
        return self.memory.put(key, artifact)

    @property
    def evictions(self) -> int:
        return self.memory.evictions

    @property
    def disk_corrupt(self) -> int:
        return self.disk.corrupt if self.disk is not None else 0
