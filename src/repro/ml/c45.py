"""C4.5 decision-tree learner (the J48 configuration the paper used).

Implements the parts of Quinlan's C4.5 that matter for continuous
attributes, matching Weka J48's defaults:

* binary splits ``attr <= t`` with thresholds at midpoints of consecutive
  distinct attribute values;
* split selection by gain ratio among candidates whose information gain is
  at least the average positive gain;
* Quinlan's MDL penalty ``log2(candidates)/N`` on continuous-attribute gain;
* minimum of ``min_leaf`` (default 2) instances per leaf;
* pessimistic error pruning with confidence factor CF (default 0.25) via
  subtree replacement.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple

import numpy as np

from repro.errors import DatasetError, NotFittedError
from repro.ml.dataset import Dataset
from repro.ml.tree_model import TreeNode


def entropy(counts: np.ndarray) -> float:
    """Shannon entropy in bits of a count vector."""
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * np.log2(p)).sum())


def _class_counts(y_codes: np.ndarray, n_classes: int) -> np.ndarray:
    return np.bincount(y_codes, minlength=n_classes)


class C45Classifier:
    """A J48-style decision tree over continuous features.

    Parameters mirror Weka: ``cf`` is the pruning confidence factor
    (smaller prunes more), ``min_leaf`` the minimum instances per leaf,
    ``prune=False`` gives the unpruned tree.

    The pruning constant ``z = norm.ppf(1 - cf)`` is computed (and scipy
    imported) the first time pruning needs it, inside ``fit``; a tree
    that is never fitted with pruning — e.g. one rebuilt from a model
    document for serving — never computes it.
    """

    def __init__(
        self,
        cf: float = 0.25,
        min_leaf: int = 2,
        prune: bool = True,
        max_depth: Optional[int] = None,
    ) -> None:
        if not 0.0 < cf < 0.5:
            raise DatasetError("cf must be in (0, 0.5)")
        if min_leaf < 1:
            raise DatasetError("min_leaf must be >= 1")
        self.cf = cf
        self.min_leaf = min_leaf
        self.prune = prune
        self.max_depth = max_depth
        self.root_: Optional[TreeNode] = None
        self.classes_: Optional[list] = None
        self.feature_names_: Optional[list] = None
        #: Lazily compiled flat-array form of ``root_`` (see ``compiled``).
        self._compiled_cache: Optional[tuple] = None

    # ------------------------------------------------------------------ fit

    def fit(self, data: Dataset) -> "C45Classifier":
        if len(data) == 0:
            raise DatasetError("cannot fit on an empty dataset")
        self.classes_ = data.classes
        self.feature_names_ = list(data.feature_names)
        code = {c: i for i, c in enumerate(self.classes_)}
        y_codes = np.array([code[lab] for lab in data.y], dtype=np.intp)
        self.root_ = self._build(data.X, y_codes, depth=0)
        if self.prune:
            self._prune(self.root_)
        return self

    def _leaf(self, y_codes: np.ndarray) -> TreeNode:
        counts = _class_counts(y_codes, len(self.classes_))
        best = int(counts.argmax())
        n = int(counts.sum())
        return TreeNode(
            label=self.classes_[best],
            n=n,
            errors=n - int(counts[best]),
            class_counts={
                self.classes_[i]: int(c) for i, c in enumerate(counts) if c
            },
        )

    def _build(self, X: np.ndarray, y_codes: np.ndarray, depth: int) -> TreeNode:
        leaf = self._leaf(y_codes)
        n = y_codes.size
        if (
            leaf.errors == 0
            or n < 2 * self.min_leaf
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return leaf
        split = self._best_split(X, y_codes)
        if split is None:
            return leaf
        f, t = split
        mask = X[:, f] <= t
        node = TreeNode(
            feature=f,
            threshold=t,
            left=self._build(X[mask], y_codes[mask], depth + 1),
            right=self._build(X[~mask], y_codes[~mask], depth + 1),
            label=leaf.label,
            n=leaf.n,
            errors=leaf.errors,
            class_counts=leaf.class_counts,
        )
        return node

    def _best_split(
        self, X: np.ndarray, y_codes: np.ndarray
    ) -> Optional[Tuple[int, float]]:
        """(feature, threshold) maximizing gain ratio, J48 selection rule."""
        n, n_feat = X.shape
        base = entropy(_class_counts(y_codes, len(self.classes_)))
        candidates = []  # (gain, ratio, feature, threshold)
        for f in range(n_feat):
            found = self._best_threshold(X[:, f], y_codes, base, n)
            if found is not None:
                candidates.append((found[0], found[1], f, found[2]))
        if not candidates:
            return None
        avg_gain = sum(c[0] for c in candidates) / len(candidates)
        eligible = [c for c in candidates if c[0] >= avg_gain - 1e-12]
        # Max gain ratio; ties broken by gain then feature index for
        # determinism.
        best = max(eligible, key=lambda c: (c[1], c[0], -c[2]))
        return best[2], best[3]

    def _best_threshold(
        self, col: np.ndarray, y_codes: np.ndarray, base: float, n: int
    ) -> Optional[Tuple[float, float, float]]:
        """Best (gain, gain_ratio, threshold) for one continuous column."""
        order = np.argsort(col, kind="stable")
        xs = col[order]
        ys = y_codes[order]
        # Cumulative class counts left of each boundary.
        n_classes = len(self.classes_)
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), ys] = 1.0
        cum = np.cumsum(onehot, axis=0)
        total = cum[-1]
        # Valid boundaries: between distinct consecutive values, with at
        # least min_leaf instances on each side.
        distinct = xs[1:] > xs[:-1]
        k = np.arange(1, n)
        valid = distinct & (k >= self.min_leaf) & (n - k >= self.min_leaf)
        idx = np.flatnonzero(valid)
        if idx.size == 0:
            return None
        left = cum[idx]
        right = total[None, :] - left
        nl = left.sum(axis=1)
        nr = right.sum(axis=1)

        def _h(counts, totals):
            with np.errstate(divide="ignore", invalid="ignore"):
                p = counts / totals[:, None]
                term = np.where(counts > 0, p * np.log2(p), 0.0)
            return -term.sum(axis=1)

        cond = (nl * _h(left, nl) + nr * _h(right, nr)) / n
        gain = base - cond
        # Quinlan's MDL correction for evaluating continuous splits.
        penalty = math.log2(max(idx.size, 1)) / n
        gain = gain - penalty
        pl = nl / n
        split_info = -(pl * np.log2(pl) + (1 - pl) * np.log2(1 - pl))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(split_info > 1e-12, gain / split_info, 0.0)
        best_i = int(np.argmax(ratio - 1e-15 * np.arange(idx.size)))
        if gain[best_i] <= 0:
            # Fall back to the best raw gain if the ratio winner has none.
            best_i = int(np.argmax(gain))
            if gain[best_i] <= 0:
                return None
        b = int(idx[best_i])  # split between xs[b] and xs[b+1]
        threshold = float((xs[b] + xs[b + 1]) / 2.0)
        return float(gain[best_i]), float(ratio[best_i]), threshold

    # ---------------------------------------------------------------- prune

    def _pessimistic_errors(self, node: TreeNode) -> float:
        """Upper-confidence-bound error count for a node treated as a leaf."""
        return node.n * self._ucb(node.errors, node.n)

    @functools.cached_property
    def _z(self) -> float:
        """z for the one-sided upper confidence bound used in pruning.

        Computed on first use, so scipy is a fit-time dependency only: a
        tree rebuilt from a model document (a serving worker) never
        prunes and never imports it.
        """
        from scipy.stats import norm

        return float(norm.ppf(1.0 - self.cf))

    def _ucb(self, e: int, n: int) -> float:
        """C4.5's upper confidence bound on the error rate (Witten & Frank)."""
        if n == 0:
            return 0.0
        z = self._z
        f = e / n
        z2 = z * z
        num = f + z2 / (2 * n) + z * math.sqrt(
            max(f / n - f * f / n + z2 / (4 * n * n), 0.0)
        )
        return min(1.0, num / (1 + z2 / n))

    def _subtree_errors(self, node: TreeNode) -> float:
        if node.is_leaf:
            return self._pessimistic_errors(node)
        return self._subtree_errors(node.left) + self._subtree_errors(node.right)

    def _prune(self, node: TreeNode) -> None:
        if node.is_leaf:
            return
        self._prune(node.left)
        self._prune(node.right)
        as_leaf = self._pessimistic_errors(node)
        as_tree = self._subtree_errors(node)
        if as_leaf <= as_tree + 0.1:
            node.feature = None
            node.left = None
            node.right = None

    # -------------------------------------------------------------- predict

    @property
    def compiled(self):
        """The fitted tree compiled to flat arrays (cached per ``root_``).

        The cache keys on the identity of ``root_``, which ``fit`` (and a
        persistence load) replaces wholesale; mutate a fitted tree in place
        and you must clear ``_compiled_cache`` yourself.
        """
        if self.root_ is None:
            raise NotFittedError("C45Classifier has not been fitted")
        cache = self._compiled_cache
        if cache is None or cache[0] is not self.root_:
            from repro.serve.inference import CompiledTree

            cache = (self.root_, CompiledTree.from_classifier(self))
            self._compiled_cache = cache
        return cache[1]

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Labels for a batch, via the compiled vectorized walker.

        Bit-identical to walking ``root_`` recursively per row (the
        compiled path performs the very same ``x[f] <= t`` comparisons);
        the flat-array form classifies thousands of rows per call.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[None, :]
        return self.compiled.predict_batch(X)

    def predict_one(self, x: np.ndarray) -> str:
        return str(self.predict(np.asarray(x))[0])

    def score(self, data: Dataset) -> float:
        """Classification accuracy on a dataset."""
        pred = self.predict(data.X)
        return float((pred == data.y).mean()) if len(data) else 0.0

    # ------------------------------------------------------------ reporting

    def render(self, precision: int = 6) -> str:
        if self.root_ is None:
            raise NotFittedError("C45Classifier has not been fitted")
        return self.root_.render(self.feature_names_, precision=precision)

    @property
    def n_leaves(self) -> int:
        if self.root_ is None:
            raise NotFittedError("C45Classifier has not been fitted")
        return self.root_.n_leaves()

    @property
    def n_nodes(self) -> int:
        if self.root_ is None:
            raise NotFittedError("C45Classifier has not been fitted")
        return self.root_.n_nodes()

    def used_feature_names(self) -> list:
        if self.root_ is None:
            raise NotFittedError("C45Classifier has not been fitted")
        return [self.feature_names_[i] for i in self.root_.used_features()]
