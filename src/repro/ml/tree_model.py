"""Decision-tree structure shared by the learner and its consumers.

A tree is binary over continuous attributes, J48-style: each internal node
tests ``feature <= threshold`` (left) vs ``> threshold`` (right).  The model
is a plain recursive dataclass so it can be rendered, counted, traversed and
compared in tests without touching the learner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass
class TreeNode:
    """A leaf (``feature is None``) or an internal threshold test."""

    # Internal-node fields.
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None
    # Leaf / majority fields (also kept on internal nodes for pruning).
    label: str = ""
    n: int = 0
    errors: int = 0
    class_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def predict_one(self, x: np.ndarray) -> str:
        node = self
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node.label

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels for a whole batch, via the compiled flat-array walker.

        Routes through :class:`repro.serve.inference.CompiledTree`, so a
        batch of thousands of rows costs a handful of vectorized passes
        instead of a Python loop; the output is bit-identical to calling
        :meth:`predict_one` per row.  The compilation is rebuilt per call
        (it is O(n_nodes), trivial next to any real batch) so in-place
        edits of the tree are always honoured.
        """
        from repro.serve.inference import CompiledTree

        return CompiledTree.from_tree(self).predict_batch(X)

    # ------------------------------------------------------------ metrics

    def n_leaves(self) -> int:
        if self.is_leaf:
            return 1
        return self.left.n_leaves() + self.right.n_leaves()

    def n_nodes(self) -> int:
        """Total node count (internal + leaves), the paper's "11 nodes"."""
        if self.is_leaf:
            return 1
        return 1 + self.left.n_nodes() + self.right.n_nodes()

    def depth(self) -> int:
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def used_features(self) -> List[int]:
        """Feature indices tested anywhere in the tree, in preorder."""
        out: List[int] = []

        def walk(node: "TreeNode") -> None:
            if node.is_leaf:
                return
            if node.feature not in out:
                out.append(node.feature)
            walk(node.left)
            walk(node.right)

        walk(self)
        return out

    def leaf_labels(self) -> List[str]:
        if self.is_leaf:
            return [self.label]
        return self.left.leaf_labels() + self.right.leaf_labels()

    # ----------------------------------------------------------- rendering

    def render(
        self,
        feature_names: Optional[Sequence[str]] = None,
        indent: str = "",
        precision: int = 6,
    ) -> str:
        """Weka J48-style text rendering of the tree."""

        def fname(i: int) -> str:
            if feature_names is not None:
                return str(feature_names[i])
            return f"x{i}"

        lines: List[str] = []

        def walk(node: "TreeNode", prefix: str) -> None:
            if node.is_leaf:
                lines[-1] += f": {node.label} ({node.n}/{node.errors})"
                return
            for branch, op in ((node.left, "<="), (node.right, ">")):
                lines.append(
                    f"{prefix}{fname(node.feature)} {op} "
                    f"{node.threshold:.{precision}g}"
                )
                if branch.is_leaf:
                    walk(branch, prefix)
                else:
                    walk(branch, prefix + "|   ")

        if self.is_leaf:
            return f"{indent}: {self.label} ({self.n}/{self.errors})"
        walk(self, indent)
        return "\n".join(lines)


#: Public alias: a bare tree *is* the model (the learner's ``root_``); the
#: name exists so API parity with ``C45Classifier`` reads naturally
#: (``TreeModel.predict`` / ``TreeModel.predict_one``).
TreeModel = TreeNode

