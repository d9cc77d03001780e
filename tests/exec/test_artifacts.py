"""The content-addressed artifact cache: keys, tiers, restart survival."""

import pytest

from repro.exec import (
    ArtifactCache,
    Compiler,
    ExecBackendError,
    ExecStats,
    artifact_key,
)

TRIVIAL = """\
#include <stdint.h>
void repro_kernel(double **arrays, const int64_t *shapes,
                  const int64_t *params) {
    (void)arrays; (void)shapes; (void)params;
}
"""


class TestArtifactKey:
    def test_deterministic(self, compiler):
        assert artifact_key(TRIVIAL, compiler) == artifact_key(TRIVIAL, compiler)

    def test_source_changes_key(self, compiler):
        assert artifact_key(TRIVIAL, compiler) != artifact_key(
            TRIVIAL + "\n/* v2 */\n", compiler
        )

    def test_compiler_fingerprint_changes_key(self, compiler):
        other = type(compiler)(path=compiler.path, version="imaginary-cc 99.0")
        assert artifact_key(TRIVIAL, compiler) != artifact_key(TRIVIAL, other)


class TestCacheTiers:
    def test_cold_compile_then_disk_hit(self, tmp_path, compiler):
        cache = ArtifactCache(tmp_path)
        stats = ExecStats()
        path, tier = cache.ensure(TRIVIAL, compiler, stats)
        assert tier == "compiled"
        assert path.is_file()
        assert stats.compile_seconds > 0
        assert stats.artifact_key == artifact_key(TRIVIAL, compiler)
        assert stats.compiler == compiler.version

        path2, tier2 = cache.ensure(TRIVIAL, compiler)
        assert (path2, tier2) == (path, "disk")

    def test_cache_survives_restart(self, tmp_path, compiler):
        # a fresh ArtifactCache over the same root models a new process:
        # the artifact is reused, not rebuilt, and the hit is recorded
        ArtifactCache(tmp_path).ensure(TRIVIAL, compiler)
        stats = ExecStats()
        _, tier = ArtifactCache(tmp_path).ensure(TRIVIAL, compiler, stats)
        assert tier == "disk"
        assert stats.compile_seconds == 0.0
        assert stats.artifact_key == artifact_key(TRIVIAL, compiler)

    def test_source_stored_alongside(self, tmp_path, compiler):
        cache = ArtifactCache(tmp_path)
        cache.ensure(TRIVIAL, compiler)
        key = artifact_key(TRIVIAL, compiler)
        assert cache.source_path_for(key).read_text() == TRIVIAL

    def test_entries_counts_artifacts(self, tmp_path, compiler):
        cache = ArtifactCache(tmp_path)
        assert cache.entries() == 0
        cache.ensure(TRIVIAL, compiler)
        assert cache.entries() == 1

    def test_no_tmp_litter(self, tmp_path, compiler):
        cache = ArtifactCache(tmp_path)
        cache.ensure(TRIVIAL, compiler)
        litter = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
        assert litter == []


class TestDiskHygiene:
    """No compiler needed: ``ensure`` never runs one on a hit, and the
    sweep only looks at names and ages."""

    FAKE_CC = Compiler(path="/nonexistent/cc", version="imaginary-cc 1.0")

    def _publish(self, root, source=TRIVIAL):
        """An artifact pair exactly where the pre-primitive cache put it."""
        key = artifact_key(source, self.FAKE_CC)
        so = root / key[:2] / f"{key}.so"
        so.parent.mkdir(parents=True, exist_ok=True)
        so.write_bytes(b"\x7fELF not really")
        so.with_suffix(".c").write_text(source)
        return key, so

    def test_pre_primitive_directory_is_a_hit(self, tmp_path):
        key, so = self._publish(tmp_path)
        cache = ArtifactCache(tmp_path)
        assert cache.path_for(key) == so
        assert cache.source_path_for(key) == so.with_suffix(".c")
        assert cache.ensure(TRIVIAL, self.FAKE_CC) == (so, "disk")
        assert cache.entries() == 1

    def test_orphans_of_a_killed_compile_are_swept(self, tmp_path):
        import os

        key, so = self._publish(tmp_path)
        # a compile killed between tmp_src.write_text and os.replace: the
        # parent's `<key>.tmp<pid>.c/.so` names and the primitive's own
        old = [so.with_name(f"{key}.tmp4242.c"),
               so.with_name(f"{key}.tmp4242.so"),
               so.with_name(f"{key}.tmp.4243.c")]
        young = so.with_name(f"{key}.tmp.4244.c")  # maybe a live compile
        for orphan in old:
            orphan.write_text("int x;")
            os.utime(orphan, (1, 1))
        young.write_text("int y;")

        cache = ArtifactCache(tmp_path)
        assert cache.stats.tmp_swept == 3
        assert not any(p.exists() for p in old)
        assert young.exists()
        # real artifacts untouched
        assert so.is_file() and so.with_suffix(".c").read_text() == TRIVIAL
        assert cache.ensure(TRIVIAL, self.FAKE_CC) == (so, "disk")
        assert cache.entries() == 1

    def test_missing_root_is_not_created_by_opening(self, tmp_path):
        cache = ArtifactCache(tmp_path / "never-compiled")
        assert cache.entries() == 0
        assert not (tmp_path / "never-compiled").exists()


class TestCompileFailure:
    def test_bad_source_raises_with_detail(self, tmp_path, compiler):
        with pytest.raises(ExecBackendError, match="compile failed"):
            ArtifactCache(tmp_path).ensure("this is not C;", compiler)

    def test_failed_compile_leaves_no_artifact(self, tmp_path, compiler):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ExecBackendError):
            cache.ensure("#error nope\n", compiler)
        assert cache.entries() == 0
