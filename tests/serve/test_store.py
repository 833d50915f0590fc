"""Two-tier artifact store: LRU order, disk round-trip, corruption."""

import hashlib
import marshal
import pickle
import pickletools
from importlib.util import MAGIC_NUMBER

import pytest

from repro.serve.store import (
    ARTIFACT_SCHEMA,
    ArtifactStore,
    DiskStore,
    MemoryStore,
)

from tests.conftest import build_diamond, build_straightline, build_while_loop
from tests.serve.conftest import make_artifact


def _write_framed(path, payload: bytes) -> None:
    """Write *payload* the way DiskStore frames it, with a valid digest,
    so only the checks after the digest can reject the file."""
    digest = hashlib.blake2b(payload, digest_size=DiskStore.DIGEST_SIZE)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(DiskStore.HEADER + digest.digest() + payload)


def _payload(path) -> bytes:
    return path.read_bytes()[len(DiskStore.HEADER) + DiskStore.DIGEST_SIZE:]


def _three_artifacts():
    return [
        make_artifact(build_diamond()),
        make_artifact(build_while_loop()),
        make_artifact(build_straightline()),
    ]


class TestMemoryStore:
    def test_lru_eviction_order(self):
        (ka, a), (kb, b), (kc, c) = _three_artifacts()
        store = MemoryStore(max_entries=2)
        store.put(ka, a)
        store.put(kb, b)
        assert store.get(ka) is a  # refresh a: b is now least recent
        evicted = store.put(kc, c)
        assert evicted == [kb]
        assert store.get(kb) is None
        assert store.get(ka) is a
        assert store.get(kc) is c
        assert store.evictions == 1

    def test_byte_bound_evicts_oldest(self):
        (ka, a), (kb, b), _ = _three_artifacts()
        store = MemoryStore(
            max_entries=10, max_bytes=a.nbytes() + b.nbytes() - 1
        )
        store.put(ka, a)
        assert store.put(kb, b) == [ka]
        assert store.bytes_used() == b.nbytes()

    def test_oversized_artifact_still_caches(self):
        (ka, a), _, _ = _three_artifacts()
        store = MemoryStore(max_entries=10, max_bytes=1)
        assert store.put(ka, a) == []
        assert store.get(ka) is a

    def test_reput_same_key_does_not_grow(self):
        (ka, a), _, _ = _three_artifacts()
        store = MemoryStore(max_entries=4)
        store.put(ka, a)
        store.put(ka, a)
        assert len(store) == 1
        assert store.bytes_used() == a.nbytes()


class TestDiskStore:
    def test_round_trip_executes_identically(self, tmp_path, diamond_artifact):
        key, artifact = diamond_artifact
        disk = DiskStore(tmp_path)
        disk.put(key, artifact)
        loaded = DiskStore(tmp_path).get(key)
        assert loaded is not None
        assert loaded.key == key
        assert loaded.variant == artifact.variant
        args = [4, 5, 1]
        assert loaded.program.run(args).observable() == (
            artifact.program.run(args).observable()
        )
        assert loaded.program.run(args).dynamic_cost == (
            artifact.program.run(args).dynamic_cost
        )

    def test_truncated_file_is_a_miss_not_a_crash(
        self, tmp_path, diamond_artifact
    ):
        key, artifact = diamond_artifact
        disk = DiskStore(tmp_path)
        disk.put(key, artifact)
        path = disk.path(key)
        path.write_bytes(path.read_bytes()[: 20])
        assert disk.get(key) is None
        assert disk.corrupt == 1
        assert not path.exists()  # quarantined out of the way
        assert disk.get(key) is None  # stays a clean miss

    def test_garbage_file_is_a_miss(self, tmp_path, diamond_artifact):
        key, artifact = diamond_artifact
        disk = DiskStore(tmp_path)
        disk.put(key, artifact)
        disk.path(key).write_bytes(b"not a pickle at all")
        assert disk.get(key) is None
        assert disk.corrupt == 1

    def test_wrong_schema_is_a_miss(self, tmp_path, diamond_artifact):
        key, artifact = diamond_artifact
        artifact.schema = ARTIFACT_SCHEMA + 1
        disk = DiskStore(tmp_path)
        disk.put(key, artifact)
        assert disk.get(key) is None
        assert disk.corrupt == 1

    def test_wrong_key_in_file_is_a_miss(self, tmp_path, diamond_artifact):
        key, artifact = diamond_artifact
        disk = DiskStore(tmp_path)
        disk.put(key, artifact)
        hijack = "f" * len(key)
        _write_framed(disk.path(hijack), pickle.dumps(artifact))
        assert disk.get(hijack) is None
        assert disk.corrupt == 1
        assert disk.get(key) is not None  # the entry under its own key loads

    def test_missing_key_is_a_plain_miss(self, tmp_path):
        disk = DiskStore(tmp_path)
        assert disk.get("0" * 64) is None
        assert disk.corrupt == 0

    def test_keys_listing(self, tmp_path):
        disk = DiskStore(tmp_path)
        pairs = _three_artifacts()
        for key, artifact in pairs:
            disk.put(key, artifact)
        assert disk.keys() == sorted(key for key, _ in pairs)


class TestArtifactStore:
    def test_disk_hit_promotes_to_memory(self, tmp_path, diamond_artifact):
        key, artifact = diamond_artifact
        ArtifactStore.with_disk(tmp_path).put(key, artifact)
        fresh = ArtifactStore.with_disk(tmp_path)  # models a restart
        _, tier = fresh.get(key)
        assert tier == "disk"
        _, tier = fresh.get(key)
        assert tier == "memory"

    def test_memory_only_store_misses_cleanly(self, diamond_artifact):
        key, artifact = diamond_artifact
        store = ArtifactStore()
        assert store.get(key) == (None, None)
        store.put(key, artifact)
        got, tier = store.get(key)
        assert got is artifact
        assert tier == "memory"
        assert store.disk_corrupt == 0

    def test_corruption_counter_surfaces(self, tmp_path, diamond_artifact):
        key, artifact = diamond_artifact
        store = ArtifactStore.with_disk(tmp_path)
        store.put(key, artifact)
        store.disk.path(key).write_bytes(b"garbage")
        fresh = ArtifactStore.with_disk(tmp_path)
        assert fresh.get(key) == (None, None)
        assert fresh.disk_corrupt == 1


    def test_with_disk_honours_a_bounded_memory_tier(self, tmp_path):
        # An empty bounded LRU is falsy (MemoryStore defines __len__); the
        # facade must keep it rather than swap in the 256-entry default.
        pairs = _three_artifacts()
        store = ArtifactStore.with_disk(tmp_path, max_entries=2)
        assert store.memory.max_entries == 2
        assert store.put(*pairs[0]) == []
        assert store.put(*pairs[1]) == []
        assert store.put(*pairs[2]) == [pairs[0][0]]
        assert store.evictions == 1
        assert len(store.memory) == 2
        got, tier = store.get(pairs[0][0])
        assert tier == "disk"
        assert got.key == pairs[0][0]


def _reference_answer():
    from repro.pipeline import prepare
    from repro.profiles.interp import run_function

    return run_function(prepare(build_while_loop()), [2, 3, 5]).observable()


def _loop_request():
    from repro.ir.printer import format_function
    from repro.serve.server import CompileRequest

    return CompileRequest(
        source=format_function(build_while_loop()),
        args=(2, 3, 5),
        variant="ssapre",
    )


def _serve_once(root, request):
    from repro.serve.server import CompileService

    with CompileService(store=ArtifactStore.with_disk(root)) as svc:
        response = svc.handle(request)
        corrupt = (svc.store.disk_corrupt, svc.metrics.get("disk_corrupt"))
    return response, corrupt


def _assert_quarantined_and_recompiled(root, key, request):
    """The entry at *key* is rejected, counted and quarantined; the
    service recompiles, answers correctly and replaces the entry."""
    path = DiskStore(root).path(key)
    second, corrupt = _serve_once(root, request)
    assert corrupt == (1, 1)
    assert second.status == "ok"
    assert second.served_by == "compile"
    assert second.observable() == _reference_answer()
    assert path.with_suffix(".corrupt").exists()

    third, corrupt = _serve_once(root, request)
    assert corrupt == (0, 0)
    assert third.served_by == "disk"
    assert third.observable() == _reference_answer()


@pytest.fixture
def stored_loop(tmp_path):
    """A disk store holding the while-loop artifact a service compiled."""
    from repro.serve.server import CompileService

    request = _loop_request()
    with CompileService(store=ArtifactStore.with_disk(tmp_path)) as svc:
        first = svc.handle(request)
        artifact, _ = svc.store.get(first.key)
    assert first.served_by == "compile"
    return request, first.key, artifact


class TestSchemaUpgrade:
    def test_schema_3_file_is_quarantined_and_recompiled(
        self, tmp_path, monkeypatch, stored_loop
    ):
        from repro.profiles.compiled import CompiledProgram

        request, key, artifact = stored_loop

        # Rewrite the entry the way a schema-3 build wrote it: the old
        # block-closure program layout under the old schema number.
        def old_layout(program):
            return {
                "name": program.name,
                "n_params": program.n_params,
                "labels": program.labels,
                "block_funcs": None,
                "edge_dst": [],
                "steps_per_block": [1] * len(program.labels),
                "source": "def _b0(r, out):\n    return -1\n",
                "op_keys": [],
                "messages": [],
            }

        monkeypatch.setattr(CompiledProgram, "__getstate__", old_layout)
        artifact.schema = 3
        payload = pickle.dumps(artifact)
        monkeypatch.undo()
        _write_framed(DiskStore(tmp_path).path(key), payload)
        _assert_quarantined_and_recompiled(tmp_path, key, request)

    @pytest.mark.parametrize("schema, framed", [
        pytest.param(4, False, id="False"),
        pytest.param(4, True, id="True"),
        pytest.param(5, True, id="schema-5-sparse"),
    ])
    def test_schema_4_file_is_quarantined_and_recompiled(
        self, tmp_path, monkeypatch, stored_loop, schema, framed
    ):
        from repro.profiles.compiled import CompiledProgram

        request, key, artifact = stored_loop

        def old_state(program):
            state = dict(program.__dict__)
            state.update(function=None, derive=None, profile_hook=None)
            if schema == 5:
                # A sparse-mode program: probe counters, no ``_derive``.
                state["probes"] = ("entry",)
                state["bytecode"] = (
                    MAGIC_NUMBER,
                    marshal.dumps((program.function.__code__, None)),
                )
            # A schema-4 program pickled its source only, no bytecode.
            return state

        monkeypatch.setattr(CompiledProgram, "__getstate__", old_state)
        artifact.schema = schema
        payload = pickle.dumps(artifact)
        monkeypatch.undo()
        path = DiskStore(tmp_path).path(key)
        if framed:  # only the schema number is stale
            _write_framed(path, payload)
        else:  # exactly what a schema-4 build wrote: an unframed pickle
            path.write_bytes(payload)
        _assert_quarantined_and_recompiled(tmp_path, key, request)


    @pytest.mark.parametrize("header_schema", [7, ARTIFACT_SCHEMA])
    def test_schema_7_file_is_quarantined_and_recompiled(
        self, tmp_path, monkeypatch, stored_loop, header_schema
    ):
        from repro.serve.store import Artifact

        request, key, artifact = stored_loop

        def eager_state(art):
            # Schema 7 pickled ``func`` in place, not as nested bytes.
            return {**art.__dict__, "_nbytes": None}

        monkeypatch.setattr(Artifact, "__getstate__", eager_state)
        artifact.schema = 7
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        monkeypatch.undo()
        assert b"_func_bytes" not in payload
        header = b"repro-artifact\x00" + header_schema.to_bytes(2, "big")
        digest = hashlib.blake2b(payload, digest_size=DiskStore.DIGEST_SIZE)
        path = DiskStore(tmp_path).path(key)
        path.write_bytes(header + digest.digest() + payload)
        _assert_quarantined_and_recompiled(tmp_path, key, request)


class TestLazyIR:
    """A disk hit decodes the program it runs, not its IR function."""

    @pytest.fixture
    def decodes(self, monkeypatch):
        """Every IR decode the store makes, as the blobs it decoded."""
        from repro.serve import store

        calls = []
        loads = store._loads_func

        def counting(blob):
            calls.append(blob)
            return loads(blob)

        monkeypatch.setattr(store, "_loads_func", counting)
        return calls

    def test_disk_hit_serves_without_decoding_its_ir(
        self, tmp_path, stored_loop, decodes
    ):
        from repro.ir.printer import format_function

        request, key, artifact = stored_loop
        response, corrupt = _serve_once(tmp_path, request)
        assert corrupt == (0, 0)
        assert response.served_by == "disk"
        assert response.observable() == _reference_answer()
        assert decodes == []

        got = DiskStore(tmp_path).get(key)
        assert decodes == []
        assert format_function(got.func) == format_function(artifact.func)
        assert got.func is got.func  # decoded once, then kept
        assert len(decodes) == 1
        assert "_func_bytes" not in got.__dict__

    def test_concurrent_first_reads_decode_once(
        self, tmp_path, monkeypatch, stored_loop, decodes
    ):
        import sys
        import threading
        import time

        from repro.serve import store

        counted = store._loads_func

        def slow(blob):  # widen the window a racing reader could use
            time.sleep(0.01)
            return counted(blob)

        monkeypatch.setattr(store, "_loads_func", slow)
        _, key, _ = stored_loop
        got = DiskStore(tmp_path).get(key)
        barrier = threading.Barrier(8)
        seen = []

        def read():
            barrier.wait(timeout=10)
            seen.append(got.func)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 8
        assert all(func is seen[0] for func in seen)
        assert len(decodes) == 1

    def test_repickling_an_undecoded_hit_passes_its_payload_through(
        self, tmp_path, stored_loop, decodes, monkeypatch
    ):
        from repro.check.oracles import stale_bytecode_copy

        _, key, _ = stored_loop
        disk = DiskStore(tmp_path)
        got = disk.get(key)
        payload = _payload(disk.path(key))
        assert got.nbytes() == len(payload)
        stale = stale_bytecode_copy(got)
        assert pickle.dumps(got, protocol=pickle.HIGHEST_PROTOCOL) == payload
        assert decodes == []
        assert stale.__dict__["_func_bytes"] == got.__dict__["_func_bytes"]

        dumped = []
        dumps = pickle.dumps

        def counting(*args, **kwargs):
            dumped.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr("repro.serve.store.pickle.dumps", counting)
        disk.put(key, got)  # a re-put
        assert dumped == [got]
        assert decodes == []
        assert _payload(disk.path(key)) == payload

    def test_degraded_artifact_round_trips_and_answers(self, tmp_path, decodes):
        from repro.pipeline import prepare
        from repro.profiles.interp import run_function
        from repro.serve.server import execute_artifact
        from repro.serve.store import Artifact

        prepared = prepare(build_while_loop())
        key = "d" * 64
        degraded = Artifact(key, "mc-ssapre", func=prepared, degraded=True)
        ArtifactStore.with_disk(tmp_path).put(key, degraded)
        got, tier = ArtifactStore.with_disk(tmp_path).get(key)
        assert tier == "disk"
        assert got.program is None and got.degraded
        assert len(decodes) == 1  # decoded at ``get``, not at execute
        for args in ([2, 3, 5], [0, 0, 0], [7, 1, 4]):
            assert execute_artifact(got, tuple(args)).observable() == (
                run_function(prepared, args).observable()
            )
        assert len(decodes) == 1

    @pytest.mark.parametrize("ir_bytes", [
        pytest.param(b"not a pickle", id="garbage"),
        pytest.param(pickle.dumps(42), id="not-a-function"),
    ])
    def test_degraded_entry_with_bad_ir_is_quarantined_at_get(
        self, tmp_path, ir_bytes
    ):
        from repro.pipeline import prepare
        from repro.serve.store import Artifact

        key = "e" * 64
        degraded = Artifact(
            key, "mc-ssapre", func=prepare(build_while_loop()), degraded=True
        )
        state = {**degraded.__getstate__(), "_func_bytes": ir_bytes}
        broken = Artifact.__new__(Artifact)
        broken.__setstate__(state)
        path = DiskStore(tmp_path).path(key)
        _write_framed(path, pickle.dumps(broken))  # a valid digest
        store = ArtifactStore.with_disk(tmp_path)
        assert store.get(key) == (None, None)
        assert store.disk_corrupt == 1
        assert path.with_suffix(".corrupt").exists()


def _flip_positions(blob: bytes, artifact) -> list[int]:
    """64 positions over the header + digest, the marshalled bytecode
    and the generated source of one stored entry."""
    start = len(DiskStore.HEADER) + DiskStore.DIGEST_SIZE
    args = [
        (arg, pos) for op, arg, pos in pickletools.genops(blob[start:])
        if isinstance(arg, (bytes, str))
    ]
    tags = [i for i, (arg, _) in enumerate(args) if arg == MAGIC_NUMBER]
    assert len(tags) == 1
    code, code_op = args[tags[0] + 1]
    # Skip the opcode and its length field: the span is the bytes alone.
    code_at = blob.index(code, start + code_op)
    source = artifact.program.source.encode()
    source_at = blob.index(source)

    def spread(lo: int, size: int, n: int) -> list[int]:
        return [lo + (size - 1) * k // (n - 1) for k in range(n)]

    return [
        *spread(0, start, 16),
        *spread(code_at, len(code), 24),
        *spread(source_at, len(source), 24),
    ]


class TestByteFlips:
    def test_every_flipped_byte_is_quarantined_and_answered(
        self, tmp_path, stored_loop
    ):
        request, key, artifact = stored_loop
        path = DiskStore(tmp_path).path(key)
        blob = path.read_bytes()
        positions = _flip_positions(blob, artifact)
        assert len(set(positions)) == 64
        for pos in positions:
            flipped = bytearray(blob)
            flipped[pos] ^= 0xFF
            path.write_bytes(bytes(flipped))
            response, corrupt = _serve_once(tmp_path, request)
            assert corrupt == (1, 1), pos
            assert response.served_by == "compile", pos
            assert response.observable() == _reference_answer(), pos
            assert path.with_suffix(".corrupt").read_bytes() == flipped


class TestNbytesAccounting:
    def test_disk_hit_does_not_pickle(
        self, tmp_path, monkeypatch, diamond_artifact
    ):
        key, artifact = diamond_artifact
        ArtifactStore.with_disk(tmp_path).put(key, artifact)
        fresh = ArtifactStore.with_disk(tmp_path)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a disk hit pickled its artifact")

        monkeypatch.setattr("repro.serve.store.pickle.dumps", refuse)
        got, tier = fresh.get(key)
        assert tier == "disk"
        assert got.nbytes() == len(_payload(fresh.disk.path(key)))

    def test_promotion_accounts_the_stored_payload(
        self, tmp_path, diamond_artifact
    ):
        key, artifact = diamond_artifact
        ArtifactStore.with_disk(tmp_path).put(key, artifact)
        fresh = ArtifactStore.with_disk(tmp_path)
        fresh.get(key)
        assert fresh.memory.bytes_used() == len(_payload(fresh.disk.path(key)))

    def test_compile_and_put_pickles_once(self, tmp_path, monkeypatch):
        from repro.serve.server import CompileService

        calls = []
        dumps = pickle.dumps

        def counting(*args, **kwargs):
            calls.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr("repro.serve.store.pickle.dumps", counting)
        with CompileService(store=ArtifactStore.with_disk(tmp_path)) as svc:
            response = svc.handle(_loop_request())
            artifact, _ = svc.store.get(response.key)
            used = svc.store.memory.bytes_used()
        assert response.served_by == "compile"
        # One serialisation per put: the artifact, with its IR dumped
        # once inside it as the nested ``_func_bytes`` pickle.
        assert calls == [artifact, artifact.func]
        payload = _payload(DiskStore(tmp_path).path(response.key))
        assert used == artifact.nbytes() == len(payload)

    def test_memory_only_put_pickles_once(self, monkeypatch, diamond_artifact):
        key, artifact = diamond_artifact
        calls = []
        dumps = pickle.dumps

        def counting(*args, **kwargs):
            calls.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr("repro.serve.store.pickle.dumps", counting)
        store = ArtifactStore()
        store.put(key, artifact)
        store.put(key, artifact)
        assert calls == [artifact, artifact.func]  # the IR nests inside
        assert store.memory.bytes_used() == len(dumps(artifact))


class TestMultiprocessWrites:
    """The disk tier under the cluster's write pattern: several worker
    *processes* storing the same keys concurrently.  Atomic-rename puts
    mean a reader never sees a torn pickle — no corruption, no
    quarantine, every read is a complete artifact."""

    WRITER = """
import sys
from repro.lang.parser import parse_function
from repro.pipeline import PipelineConfig, prepare
from repro.serve.keys import artifact_key
from repro.serve.server import build_artifact
from repro.serve.store import DiskStore

root, source, variant, rounds_str = sys.argv[1:5]
disk = DiskStore(root)
prepared = prepare(parse_function(source))
config = PipelineConfig(variant=variant)
key = artifact_key(prepared, config)
artifact = build_artifact(prepared, config, key=key)
print("ready", flush=True)
sys.stdin.readline()  # barrier: the parent releases all writers at once
for _ in range(int(rounds_str)):
    disk.put(key, artifact)
print("done", flush=True)
"""

    def test_concurrent_same_key_writers_never_corrupt(self, tmp_path):
        import subprocess
        import sys

        from repro.ir.printer import format_function

        source = format_function(build_diamond())
        writers = [
            subprocess.Popen(
                [
                    sys.executable, "-c", self.WRITER,
                    str(tmp_path), source, "ssapre", "25",
                ],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(4)
        ]
        for proc in writers:
            assert proc.stdout.readline().strip() == "ready"
        for proc in writers:  # release the barrier
            proc.stdin.write("go\n")
            proc.stdin.flush()

        # Read continuously while the writers race each other.
        disk = DiskStore(tmp_path)
        keys_seen = set()
        while any(proc.poll() is None for proc in writers):
            for key in disk.keys():
                got = disk.get(key)
                if got is not None:
                    keys_seen.add(key)
        for proc in writers:
            assert proc.stdout.readline().strip() == "done"
            assert proc.wait() == 0

        assert disk.corrupt == 0
        assert len(keys_seen) == 1
        (key,) = keys_seen
        final = disk.get(key)
        assert final is not None and final.key == key
        # No quarantined files, no leaked temp files.
        leftovers = [
            p.name for p in tmp_path.rglob("*")
            if p.is_file() and not p.name.endswith(DiskStore.SUFFIX)
        ]
        assert leftovers == []
