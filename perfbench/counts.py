"""Exact layer counts, taken from the arguments and return values of traced
calls, plus the wasted-work ratio of the on-line step.

Every count here is computed from what crosses a public function boundary;
nothing inside the library is touched. A count whose function no longer
exists, or whose return value changed shape, is left out and shows as absent.
"""

from __future__ import annotations

import os

import numpy as np

OUTLIER = -1  # reidapt.data.OUTLIER


class LayerCounts:
    """Observers for a ``Tracer`` and the counts they accumulate."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.rows_touched: list[float] = []
        self.bytes_written = 0

    # ---------------------------------------------------------- before call
    def _note_weights(self, tracer, span, args):
        cfg = args["cfg"]
        span.note.update(alpha=cfg.alpha, mu=cfg.mu,
                         coarse=id(args["coarse"]), refined=id(args["refined"]))

    @staticmethod
    def _joint_note(tracer, span):
        """Loss weights noted on the enclosing joint step, or None."""
        index = span.parent
        while index >= 0:
            note = tracer.spans[index].note
            if "alpha" in note:
                return note
            index = tracer.spans[index].parent
        return None

    def _mark_label_branch(self, tracer, span, args):
        note = self._joint_note(tracer, span)
        if note is None:
            return
        labels = id(args["labels"])
        if labels == note["refined"]:
            weight = note["alpha"]
        elif labels == note["coarse"]:
            weight = 1.0 - note["alpha"]
        else:
            return
        if weight == 0.0:
            span.note["zero_weight"] = True

    def _mark_bank_branch(self, tracer, span, args):
        note = self._joint_note(tracer, span)
        if note is not None and note["mu"] == 0.0:
            span.note["zero_weight"] = True

    # ---------------------------------------------------------- after call
    def _graph(self, tracer, span, args, result):
        arrays = [v for v in vars(result).values() if isinstance(v, np.ndarray)]
        self.values["graph.build_distance_graph.result_bytes"] = float(
            sum(a.nbytes for a in arrays))
        self.values["graph.reciprocal_pairs"] = float(np.count_nonzero(result.d_s))

    def _dbscan(self, tracer, span, args, result):
        self.values["cluster.num_clusters"] = float(result.num_clusters)
        self.values["cluster.outliers"] = float(np.sum(result.assignment == OUTLIER))

    def _refine(self, tracer, span, args, result):
        labels = result[0]
        self.values["refine.relabel_fraction"] = float(labels.relabel_fraction())

    def _bank_update(self, tracer, span, args, result):
        grad_v = np.asarray(args["grad_v"])
        self.rows_touched.append(float(np.mean(np.any(grad_v != 0.0, axis=1))))
        self.values["membank.rows_touched_frac"] = float(np.mean(self.rows_touched))

    def _written(self, tracer, span, args, result):
        self.bytes_written += os.path.getsize(args["path"])
        self.values["data.bytes_written"] = float(self.bytes_written)

    def observers(self):
        before = {
            "trainer.joint_loss_and_grads": self._note_weights,
            "losses.cross_entropy": self._mark_label_branch,
            "losses.batch_hard_triplet": self._mark_label_branch,
            "membank.positive_sets": self._mark_bank_branch,
            "membank.spread_loss": self._mark_bank_branch,
        }
        after = {
            "graph.build_distance_graph": self._graph,
            "cluster.dbscan": self._dbscan,
            "refine.refine_labels": self._refine,
            "membank.instant_update": self._bank_update,
            "data.write_features": self._written,
            "data.write_labels": self._written,
        }
        return before, after


def zero_weight_share(spans) -> float | None:
    """Share of on-line iteration time spent in branches weighted by exactly 0.

    None when no on-line iteration ran.
    """
    online = {i for i, s in enumerate(spans) if s.name == "trainer.online_iteration"}
    total = sum(spans[i].duration for i in online)
    if not total:
        return None
    wasted = 0.0
    for s in spans:
        if not s.note.get("zero_weight"):
            continue
        ancestor = s.parent
        while ancestor >= 0 and ancestor not in online:
            ancestor = spans[ancestor].parent
        if ancestor >= 0:
            wasted += s.duration
    return wasted / total
