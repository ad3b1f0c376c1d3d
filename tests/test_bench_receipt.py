"""The atomic ``BENCH_sweep.json`` writer shared by every benchmark.

The receipt is a merge-by-section document several bench processes
append to; :mod:`benchmarks._receipt` must merge without dropping
sections it does not know about, survive torn files, and publish each
merge atomically (tempfile + ``os.replace``) so a reader -- or a
``kill -9`` -- never observes a partial document.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from benchmarks._receipt import receipt_path, update_receipt


def _read(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestReceipt:
    def test_creates_a_fresh_receipt(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        update_receipt("kernel", {"speedup": 1.5}, path=str(path))
        data = _read(path)
        assert data["kernel"]["speedup"] == 1.5
        assert "generated" in data
        meta = data["kernel"]["_meta"]
        assert meta["cpu_count"] == os.cpu_count()
        assert set(meta) == {
            "measured", "cpu_count", "git_revision", "git_dirty"
        }

    def test_merge_preserves_unknown_sections(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        path.write_text(
            json.dumps(
                {
                    "kernel": {"speedup": 1.4},
                    "some_future_section": {"anything": [1, 2, 3]},
                    "stray_top_level_key": "kept",
                }
            )
        )
        update_receipt("executor", {"speedup": 2.2}, path=str(path))
        data = _read(path)
        assert data["executor"]["speedup"] == 2.2
        # Sections this update did not report are byte-for-byte
        # untouched -- no retroactive _meta stamping.
        assert data["kernel"] == {"speedup": 1.4}
        assert data["some_future_section"] == {"anything": [1, 2, 3]}
        assert data["stray_top_level_key"] == "kept"

    def test_replaces_only_the_reported_section(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        update_receipt("kernel", {"speedup": 1.0}, path=str(path))
        update_receipt("kernel", {"speedup": 9.9}, path=str(path))
        assert _read(path)["kernel"]["speedup"] == 9.9

    def test_torn_receipt_is_tolerated(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        path.write_text('{"kernel": {"speedup"')  # a torn legacy write
        update_receipt("executor", {"speedup": 2.0}, path=str(path))
        assert _read(path)["executor"]["speedup"] == 2.0

    def test_no_partial_state_on_disk_after_update(self, tmp_path):
        """The only artifacts are the receipt and the lock file -- no
        leaked tempfiles, and the receipt parses whole."""
        path = tmp_path / "BENCH_sweep.json"
        update_receipt("a", {"x": 1}, path=str(path))
        update_receipt("b", {"y": 2}, path=str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "BENCH_sweep.json",
            "BENCH_sweep.json.lock",
        ]
        assert _read(path).keys() >= {"a", "b"}

    def test_concurrent_writers_never_drop_sections(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        sections = [f"section_{i}" for i in range(16)]
        threads = [
            threading.Thread(
                target=update_receipt, args=(name, {"i": i}, str(path))
            )
            for i, name in enumerate(sections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        data = _read(path)
        for i, name in enumerate(sections):
            assert data[name]["i"] == i
            assert "_meta" in data[name]

    def test_path_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "custom.json"
        monkeypatch.setenv("BENCH_SWEEP_OUT", str(target))
        assert receipt_path() == str(target)
        update_receipt("kernel", {"speedup": 1.0})
        assert _read(target)["kernel"]["speedup"] == 1.0

    def test_default_path(self, monkeypatch):
        monkeypatch.delenv("BENCH_SWEEP_OUT", raising=False)
        assert receipt_path() == "BENCH_sweep.json"

    def test_meta_records_measurement_time_provenance(self, tmp_path):
        """Each section's _meta stamps the run that measured *it*, and a
        later merge never rewrites an earlier section's stamp."""
        import benchmarks._receipt as receipt_module

        path = tmp_path / "BENCH_sweep.json"
        update_receipt("kernel", {"speedup": 1.5}, path=str(path))
        first_meta = _read(path)["kernel"]["_meta"]
        assert first_meta["git_revision"] == receipt_module._git_revision()
        update_receipt("executor", {"speedup": 2.0}, path=str(path))
        data = _read(path)
        assert data["kernel"]["_meta"] == first_meta
        assert data["executor"]["_meta"]["measured"] == data["generated"]

    def test_legacy_top_level_cpu_count_is_dropped(self, tmp_path):
        path = tmp_path / "BENCH_sweep.json"
        path.write_text(
            json.dumps({"cpu_count": 999, "kernel": {"speedup": 1.0}})
        )
        update_receipt("executor", {"speedup": 2.0}, path=str(path))
        data = _read(path)
        assert "cpu_count" not in data
        assert data["executor"]["_meta"]["cpu_count"] == os.cpu_count()

    def test_git_revision_tolerates_no_git(self, monkeypatch):
        """Outside a checkout the stamp is None, never an exception."""
        import benchmarks._receipt as receipt_module

        def no_git(*args, **kwargs):
            raise OSError("git not found")

        monkeypatch.setattr(receipt_module.subprocess, "run", no_git)
        receipt_module._git_revision.cache_clear()
        try:
            assert receipt_module._git_revision() is None
        finally:
            receipt_module._git_revision.cache_clear()

    @pytest.mark.parametrize(
        "porcelain, dirty",
        [
            ("", False),
            (" M BENCH_sweep.json\n", False),
            (" M src/repro/sim/fast.py\n", True),
            ("M  BENCH_sweep.json\n M src/repro/sim/fast.py\n", True),
            ("R  old.py -> BENCH_sweep.json\n", False),
        ],
    )
    def test_git_dirty_ignores_only_the_receipt(
        self, tmp_path, monkeypatch, porcelain, dirty
    ):
        """A section measured on uncommitted changes says so; the
        receipt's own pending write does not count."""
        import subprocess

        import benchmarks._receipt as receipt_module

        top = os.path.dirname(os.path.dirname(receipt_module.__file__))

        def fake_git(*args, **kwargs):
            return subprocess.CompletedProcess(args, 0, porcelain, "")

        monkeypatch.setattr(receipt_module.subprocess, "run", fake_git)
        monkeypatch.setattr(receipt_module, "_git_revision", lambda: None)
        receipt = os.path.join(top, "BENCH_sweep.json")
        assert receipt_module._git_dirty(receipt) is dirty
        path = tmp_path / "BENCH_sweep.json"
        update_receipt("kernel", {"speedup": 1.0}, path=str(path))
        # Outside the checkout nothing is the receipt: any change counts.
        assert _read(path)["kernel"]["_meta"]["git_dirty"] is bool(porcelain)

    @pytest.mark.parametrize("failure", ["oserror", "not-a-repo"])
    def test_git_dirty_is_none_outside_git(self, monkeypatch, failure):
        import subprocess

        import benchmarks._receipt as receipt_module

        def no_git(*args, **kwargs):
            if failure == "oserror":
                raise OSError("git not found")
            return subprocess.CompletedProcess(args, 128, "", "fatal")

        monkeypatch.setattr(receipt_module.subprocess, "run", no_git)
        assert receipt_module._git_dirty("BENCH_sweep.json") is None


@pytest.mark.skipif(os.name != "posix", reason="fork-based crash test")
class TestCrashSafety:
    def test_kill_during_write_leaves_a_parseable_receipt(self, tmp_path):
        """A writer ``os._exit``-ing mid-cycle (the moral equivalent of
        ``kill -9``) can lose its *own* update but never corrupts what
        was already published."""
        import benchmarks._receipt as receipt_module

        path = tmp_path / "BENCH_sweep.json"
        update_receipt("kernel", {"speedup": 1.5}, path=str(path))
        pid = os.fork()
        if pid == 0:  # child: die between merge and publish
            try:

                def exploding_replace(src, dst):
                    os._exit(9)

                receipt_module.os.replace = exploding_replace
                update_receipt("executor", {"speedup": 2.0}, path=str(path))
            finally:
                os._exit(9)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 9
        data = _read(path)  # parses whole: the old document survived
        assert data["kernel"]["speedup"] == 1.5
        assert "executor" not in data
