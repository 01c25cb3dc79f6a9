"""Tests for tree serialization (save/load trained models)."""

import json

import numpy as np
import pytest

from repro.errors import DatasetError, NotFittedError
from repro.ml.c45 import C45Classifier
from repro.ml.dataset import Dataset
from repro.ml.persistence import (
    classifier_from_dict,
    classifier_to_dict,
    load_classifier,
    save_classifier,
)


@pytest.fixture
def fitted():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = ["a" if r[0] > 0 else ("b" if r[1] > 0.5 else "c") for r in X]
    clf = C45Classifier()
    clf.fit(Dataset(X, y, ["f0", "f1", "f2"]))
    return clf


class TestRoundTrip:
    def test_dict_round_trip_preserves_predictions(self, fitted):
        clone = classifier_from_dict(classifier_to_dict(fitted))
        probe = np.random.default_rng(1).normal(size=(100, 3))
        assert list(clone.predict(probe)) == list(fitted.predict(probe))

    def test_structure_preserved(self, fitted):
        clone = classifier_from_dict(classifier_to_dict(fitted))
        assert clone.n_leaves == fitted.n_leaves
        assert clone.n_nodes == fitted.n_nodes
        assert clone.render() == fitted.render()

    def test_file_round_trip(self, fitted, tmp_path):
        path = tmp_path / "model.json"
        save_classifier(fitted, path)
        clone = load_classifier(path)
        probe = np.zeros((1, 3))
        assert clone.predict(probe)[0] == fitted.predict(probe)[0]

    def test_file_is_plain_json(self, fitted, tmp_path):
        path = tmp_path / "model.json"
        save_classifier(fitted, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-c45"
        assert doc["feature_names"] == ["f0", "f1", "f2"]

    def test_params_preserved(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(50, 2))
        y = ["x" if r[0] > 0 else "y" for r in X]
        clf = C45Classifier(cf=0.1, min_leaf=5, prune=False)
        clf.fit(Dataset(X, y, ["a", "b"]))
        clone = classifier_from_dict(classifier_to_dict(clf))
        assert clone.cf == 0.1
        assert clone.min_leaf == 5
        assert clone.prune is False


class TestErrors:
    def test_unfitted_rejected(self):
        with pytest.raises(NotFittedError):
            classifier_to_dict(C45Classifier())

    def test_wrong_format_rejected(self):
        with pytest.raises(DatasetError):
            classifier_from_dict({"format": "something-else"})

    def test_newer_version_rejected(self, fitted):
        doc = classifier_to_dict(fitted)
        doc["version"] = 999
        with pytest.raises(DatasetError):
            classifier_from_dict(doc)

    def test_malformed_tree_rejected(self, fitted):
        doc = classifier_to_dict(fitted)
        del doc["tree"]["leaf"]
        with pytest.raises((DatasetError, KeyError)):
            classifier_from_dict(doc)

    @pytest.mark.parametrize("doc", [[], 7, "repro-c45",
                                     {"format": "repro-c45"},
                                     {"format": "repro-c45", "params": 1,
                                      "classes": [], "feature_names": [],
                                      "tree": {}}])
    def test_non_object_or_incomplete_document_rejected(self, doc):
        with pytest.raises(DatasetError):
            classifier_from_dict(doc)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DatasetError):
            load_classifier(path)


class TestCompiledRegression:
    def test_round_trip_compiles_to_identical_arrays(self, fitted, tmp_path):
        """Persistence must preserve enough structure that the serving
        layer's compiled arrays come out identical (preorder layout is a
        pure function of the tree)."""
        from repro.serve.inference import as_compiled

        path = tmp_path / "model.json"
        save_classifier(fitted, path)
        a = as_compiled(fitted)
        b = as_compiled(load_classifier(path))
        for name in ("feature", "threshold", "left", "right", "leaf"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.classes == b.classes

    def test_round_trip_batch_predictions_identical(self, fitted):
        clone = classifier_from_dict(classifier_to_dict(fitted))
        probe = np.random.default_rng(9).normal(size=(500, 3))
        assert np.array_equal(clone.predict(probe), fitted.predict(probe))


class TestDetectorIntegration:
    def test_detector_model_portable(self, tmp_path):
        """Train on mini-programs, save, reload into a fresh detector-less
        classifier, and classify a run it never saw."""
        from repro.core.detector import FalseSharingDetector
        from repro.core.lab import Lab
        from repro.core.training import (
            PlanRow, ScreeningReport, TrainingData, collect_plan)
        from repro.core.training import FEATURES
        from repro.pmu.events import TABLE2_EVENTS
        from repro.workloads.base import Mode, RunConfig
        from repro.workloads.registry import get_workload

        lab = Lab(disk_cache=None)
        plan = [
            PlanRow("psums", Mode.GOOD, (2_000,), (3, 6), ("random",), 2),
            PlanRow("psums", Mode.BAD_FS, (2_000,), (3, 6), ("random",), 2),
        ]
        a = collect_plan(lab, plan, "A")
        td = TrainingData(a, [], a, [], ScreeningReport(a, [], {}),
                          ScreeningReport([], [], {}))
        det = FalseSharingDetector(lab).fit(training=td)
        path = tmp_path / "detector.json"
        save_classifier(det.classifier, path)

        clf = load_classifier(path)
        pdot = get_workload("pdot")
        vec = lab.measure(pdot, RunConfig(threads=4, mode="bad-fs",
                                          size=65_536), TABLE2_EVENTS)
        assert clf.predict_one(vec.features(FEATURES)) == "bad-fs"
