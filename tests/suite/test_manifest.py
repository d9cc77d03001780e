"""Tests for the on-disk suite manifest."""

import json

import pytest

from repro.pipeline import PipelineOptions
from repro.suite import MANIFEST_VERSION, RunSpec, SuiteManifest


def _spec(name: str) -> RunSpec:
    return RunSpec(
        run_id=f"{name}--plutoplus",
        workload=name,
        variant="plutoplus",
        options=PipelineOptions(),
    )


@pytest.fixture
def manifest(tmp_path):
    return SuiteManifest.create(
        tmp_path, [_spec("a"), _spec("b")], {"jobs": 2, "timeout": 10.0, "retries": 1}
    )


class TestManifest:
    def test_create_writes_index(self, manifest):
        data = json.loads(manifest.path.read_text())
        assert data["version"] == MANIFEST_VERSION
        assert [s["run_id"] for s in data["specs"]] == ["a--plutoplus", "b--plutoplus"]
        assert data["runs"] == {}
        assert data["config"]["jobs"] == 2

    def test_spec_naming_a_backend_is_refused(self):
        # specs carried ``backend`` before 1.33.0; the config names it now
        data = {**_spec("a").to_dict()}
        data["options"] = {**data["options"], "backend": "c"}
        with pytest.raises(ValueError, match="backend"):
            RunSpec.from_dict(data)

    def test_load_round_trip(self, manifest):
        loaded = SuiteManifest.load(manifest.suite_dir)
        assert loaded.data == manifest.data
        assert loaded.specs == manifest.specs

    def test_write_record_indexes_run(self, manifest):
        manifest.write_record(
            {"run_id": "a--plutoplus", "status": "ok", "attempts": 1,
             "elapsed": 0.5}
        )
        assert manifest.record_path("a--plutoplus").is_file()
        entry = manifest.data["runs"]["a--plutoplus"]
        assert entry["status"] == "ok" and entry["file"] == "a--plutoplus.json"
        # the on-disk index was rewritten too
        assert SuiteManifest.load(manifest.suite_dir).completed_ok() == {
            "a--plutoplus"
        }

    def test_completed_ok_requires_record_file(self, manifest):
        manifest.write_record(
            {"run_id": "a--plutoplus", "status": "ok", "attempts": 1,
             "elapsed": 0.5}
        )
        manifest.record_path("a--plutoplus").unlink()
        assert manifest.completed_ok() == set()

    def test_failures_excluded_from_completed(self, manifest):
        manifest.write_record(
            {"run_id": "b--plutoplus", "status": "failure", "attempts": 2,
             "elapsed": 1.0,
             "failure": {"run_id": "b--plutoplus", "workload": "b",
                          "variant": "plutoplus", "kind": "crash",
                          "message": "", "attempts": 2, "elapsed": 1.0}}
        )
        assert manifest.completed_ok() == set()
        assert manifest.failures()[0]["kind"] == "crash"

    def test_version_gate(self, manifest):
        data = json.loads(manifest.path.read_text())
        data["version"] = 999
        manifest.path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version 999"):
            SuiteManifest.load(manifest.suite_dir)

    def test_no_tmp_droppings(self, manifest):
        manifest.write_record(
            {"run_id": "a--plutoplus", "status": "ok", "attempts": 1,
             "elapsed": 0.5}
        )
        assert not list(manifest.suite_dir.glob("*.tmp*"))
