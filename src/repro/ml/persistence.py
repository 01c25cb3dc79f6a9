"""Model persistence: save and load trained trees as plain JSON.

The paper's workflow is train-once / classify-anywhere: the classifier
trained on one machine's mini-programs is applied to arbitrary programs
later.  That needs a model file.  Trees serialize to a small, readable JSON
document (no pickle: the format is stable, diffable and safe to load).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.errors import DatasetError, NotFittedError
from repro.ml.c45 import C45Classifier
from repro.ml.tree_model import TreeNode

FORMAT = "repro-c45"
VERSION = 1


def _node_to_dict(node: TreeNode) -> Dict:
    if node.is_leaf:
        return {
            "leaf": True,
            "label": node.label,
            "n": node.n,
            "errors": node.errors,
            "class_counts": node.class_counts,
        }
    return {
        "leaf": False,
        "feature": node.feature,
        "threshold": node.threshold,
        "label": node.label,
        "n": node.n,
        "errors": node.errors,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(d: Dict) -> TreeNode:
    try:
        if d["leaf"]:
            return TreeNode(
                label=d["label"],
                n=int(d["n"]),
                errors=int(d["errors"]),
                class_counts=dict(d.get("class_counts", {})),
            )
        return TreeNode(
            feature=int(d["feature"]),
            threshold=float(d["threshold"]),
            left=_node_from_dict(d["left"]),
            right=_node_from_dict(d["right"]),
            label=d.get("label", ""),
            n=int(d.get("n", 0)),
            errors=int(d.get("errors", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"malformed tree node: {exc}") from exc


def classifier_to_dict(clf: C45Classifier) -> Dict:
    """Serialize a fitted classifier to a JSON-compatible dict."""
    if clf.root_ is None:
        raise NotFittedError("cannot serialize an unfitted classifier")
    return {
        "format": FORMAT,
        "version": VERSION,
        "params": {"cf": clf.cf, "min_leaf": clf.min_leaf,
                   "prune": clf.prune},
        "classes": list(clf.classes_),
        "feature_names": list(clf.feature_names_),
        "tree": _node_to_dict(clf.root_),
    }


def classifier_from_dict(d: Dict) -> C45Classifier:
    """Rebuild a classifier from :func:`classifier_to_dict` output.

    Anything else, including a document of the right format with a
    missing or mistyped field, raises :class:`DatasetError`.
    """
    if not isinstance(d, dict) or d.get("format") != FORMAT:
        raise DatasetError(f"not a {FORMAT} document")
    try:
        version = int(d.get("version", -1))
        if version > VERSION:
            raise DatasetError(f"model version {version} is newer than "
                               f"supported ({VERSION})")
        params = d.get("params", {})
        clf = C45Classifier(
            cf=float(params.get("cf", 0.25)),
            min_leaf=int(params.get("min_leaf", 2)),
            prune=bool(params.get("prune", True)),
        )
        clf.classes_ = list(d["classes"])
        clf.feature_names_ = list(d["feature_names"])
        tree = d["tree"]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DatasetError(f"malformed {FORMAT} document: {exc!r}") from exc
    clf.root_ = _node_from_dict(tree)
    return clf


def save_classifier(clf: C45Classifier, path: Union[str, Path]) -> None:
    """Write a fitted classifier to a JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(classifier_to_dict(clf), indent=2))


def load_classifier(path: Union[str, Path]) -> C45Classifier:
    """Load a classifier saved with :func:`save_classifier`."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DatasetError(f"not a valid model file: {exc}") from exc
    return classifier_from_dict(doc)
