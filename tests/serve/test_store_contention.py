"""Multi-process contention on a shared ``ResultStore`` disk tier.

Two daemons may share one ``--cache-dir``, so the disk tier must
tolerate concurrent writers on the same keys: a reader must only ever
observe ``None`` (miss -> recompute) or a complete, valid body -- never
a torn read -- and a corrupted entry must degrade to a miss even while
another process is rewriting it.  These tests hammer real
``ResultStore`` instances from real processes, then close the loop at
the daemon level with two daemons sharing one cache dir.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.api.service import analyze
from repro.scenarios.workload import scenario_request_pool
from repro.serve import (
    AnalysisDaemon,
    ServeClientError,
    run_daemon_in_thread,
    wait_until_ready,
)
from repro.serve.store import ResultStore

#: Bodies long enough that a torn read could not accidentally parse.
_BODIES = {
    f"sha-{k}": json.dumps({"payload": f"value-{k}" * 200, "k": k})
    for k in range(8)
}


def _writer_main(cache_dir: str, rounds: int) -> None:
    """Re-``put`` every key over and over from a separate process."""
    store = ResultStore(max_entries=4, cache_dir=cache_dir)
    for _ in range(rounds):
        for sha, body in _BODIES.items():
            store.put("analyze", sha, body)


def _reader_main(cache_dir: str, rounds: int, queue) -> None:
    """Read every key repeatedly; report any body that isn't pristine.

    ``max_entries=1`` keeps the memory tier useless so nearly every
    ``get`` goes through the disk tier under writer contention.
    """
    store = ResultStore(max_entries=1, cache_dir=cache_dir)
    torn = []
    observed = 0
    for _ in range(rounds):
        for sha, expected in _BODIES.items():
            body = store.get("analyze", sha)
            if body is None:
                continue  # a miss is always acceptable
            observed += 1
            if body != expected:
                torn.append(sha)
    queue.put({"torn": torn, "observed": observed})


class TestConcurrentDiskTier:
    def test_no_torn_reads_under_writer_contention(self, tmp_path):
        """Readers racing two writers see full bodies or misses, only."""
        cache_dir = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        writers = [
            ctx.Process(target=_writer_main, args=(cache_dir, 60))
            for _ in range(2)
        ]
        readers = [
            ctx.Process(target=_reader_main, args=(cache_dir, 60, queue))
            for _ in range(2)
        ]
        for proc in writers + readers:
            proc.start()
        reports = [queue.get(timeout=60) for _ in readers]
        for proc in writers + readers:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        assert all(report["torn"] == [] for report in reports)
        # The race is only meaningful if reads actually hit the disk
        # tier while writers were live.
        assert sum(report["observed"] for report in reports) > 0

    def test_corrupt_entry_recomputes_under_contention(self, tmp_path):
        """Truncating an entry mid-race degrades to a miss, never an error."""
        cache_dir = str(tmp_path / "cache")
        store = ResultStore(max_entries=1, cache_dir=cache_dir)
        for sha, body in _BODIES.items():
            store.put("analyze", sha, body)
        ctx = multiprocessing.get_context("fork")
        writer = ctx.Process(target=_writer_main, args=(cache_dir, 40))
        writer.start()
        try:
            for _ in range(40):
                for sha in _BODIES:
                    path = store._disk_path(store.key("analyze", sha))
                    try:
                        with open(path, "w") as handle:
                            handle.write('{"format": 1, "body": tru')
                    except OSError:
                        pass
                    # Corrupt-or-rewritten: either the writer already
                    # replaced the file (full body) or we read our own
                    # damage (miss).  Nothing else is acceptable.
                    body = store.get("analyze", sha)
                    assert body in (None, _BODIES[sha])
        finally:
            writer.join(timeout=30)
        assert writer.exitcode == 0

    def test_atomic_write_never_leaves_partial_files(self, tmp_path):
        """After the dust settles every surviving entry loads cleanly."""
        cache_dir = str(tmp_path / "cache")
        ctx = multiprocessing.get_context("fork")
        writers = [
            ctx.Process(target=_writer_main, args=(cache_dir, 30))
            for _ in range(3)
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=30)
            assert proc.exitcode == 0
        store = ResultStore(max_entries=1, cache_dir=cache_dir)
        for sha, expected in _BODIES.items():
            assert store.get("analyze", sha) == expected
        # No stray temp files left behind by the atomic-write protocol.
        serve_dir = os.path.join(cache_dir, "serve")
        stray = [
            name
            for name in os.listdir(serve_dir)
            if not name.endswith(".json")
        ]
        assert stray == []


class TestTwoDaemonsOneCacheDir:
    @pytest.fixture(scope="class")
    def systems(self):
        return scenario_request_pool(unique=3, seed=47)

    def _serve(self, cache_dir):
        daemon = AnalysisDaemon(
            port=0, batch_window=0.002, cache_dir=cache_dir
        )
        thread = run_daemon_in_thread(daemon)
        client = wait_until_ready(daemon.host, daemon.port)
        return daemon, thread, client

    def test_shared_disk_tier_stays_byte_identical(self, tmp_path, systems):
        """Two live daemons, one cache dir: warm hits stay canonical."""
        cache_dir = str(tmp_path / "cache")
        d1, t1, c1 = self._serve(cache_dir)
        d2, t2, c2 = self._serve(cache_dir)
        try:
            direct = {
                s.canonical_sha256(): analyze(s).report_json()
                for s in systems
            }
            # Daemon 1 computes; daemon 2 must replay from the shared
            # disk tier, byte-identically.
            for system in systems:
                status, body = c1.analyze_raw(system.to_dict())
                assert status == 200
                assert body.decode() == direct[system.canonical_sha256()]
            for system in systems:
                status, body = c2.analyze_raw(system.to_dict())
                assert status == 200
                assert body.decode() == direct[system.canonical_sha256()]
            assert c2.stats()["store"]["hits_disk"] >= len(systems)
        finally:
            for client, thread in ((c1, t1), (c2, t2)):
                try:
                    client.shutdown()
                except ServeClientError:
                    pass
                thread.join(timeout=10)

    def test_corruption_between_daemons_recomputes(self, tmp_path, systems):
        """An entry corrupted after daemon 1 wrote it costs daemon 2 a
        recompute, not correctness."""
        cache_dir = str(tmp_path / "cache")
        d1, t1, c1 = self._serve(cache_dir)
        try:
            for system in systems:
                assert c1.analyze_raw(system.to_dict())[0] == 200
        finally:
            try:
                c1.shutdown()
            except ServeClientError:
                pass
            t1.join(timeout=10)
        # Vandalise every disk entry.
        serve_dir = os.path.join(cache_dir, "serve")
        for name in os.listdir(serve_dir):
            with open(os.path.join(serve_dir, name), "w") as handle:
                handle.write("garbage")
        d2, t2, c2 = self._serve(cache_dir)
        try:
            for system in systems:
                status, body = c2.analyze_raw(system.to_dict())
                assert status == 200
                assert body.decode() == analyze(system).report_json()
            stats = c2.stats()["store"]
            assert stats["hits_disk"] == 0
            assert stats["misses"] >= len(systems)
        finally:
            try:
                c2.shutdown()
            except ServeClientError:
                pass
            t2.join(timeout=10)
