"""The IPD algorithm (Algorithm 1 of the paper).

Two stages, mirrored here as two methods:

* :meth:`IPD.ingest_batch` — Stage 1.  Masks each flow's source address
  to ``cidr_max`` and adds (timestamp, masked source, ingress link) to
  the covering range of the per-family binary trie, in array operations:
  the batch's distinct sources and cells queue as one sorted run of the
  trie's address-ordered cell table, merged when the sweep (or another
  reader) needs it.
  :meth:`IPD.ingest` and :meth:`IPD.ingest_many` are API-edge wrappers
  (a one-row batch, a chunked record stream).
* :meth:`IPD.sweep` — Stage 2.  Every ``t`` seconds: expires stale
  observations, classifies ranges with a prevalent ingress
  (``s_ingress >= q`` once ``s_ipcount >= n_cidr``), splits ranges with
  competing ingresses (until ``cidr_max``), joins sibling ranges that
  agree, decays idle classified ranges, and drops invalidated ones.

Sweeps are *dirty-range* sweeps: instead of walking every leaf, the
sweep visits the rows of the trie's leaf table that are (a) dirty —
their state changed since the last sweep — (b) just lost a source to
expiry (read off the spans of the leaves it may empty), or (c)
classified (their decay depends on ``now``): one mask, already in
address order.  Idle unclassified leaves are skipped — safe because the
Stage-2 decision for a leaf is a pure function of its state, so an
unchanged leaf repeats last sweep's no-op.  The unclassified visits are
decided with masks (empty: prune; at ``n_cidr``: decide), and the
classified ones are one pass over the trie's counter span table (decay,
floor, totals, shares, drops); every one of the three sets is in the
engine blob.

The deployment runs the stages in two threads; behaviourally the
algorithm is defined by "all ingest before each sweep tick", which the
event-driven :class:`~repro.runtime.pipeline.Pipeline` reproduces
deterministically.  A thread-backed runner with the deployment layout is
:class:`~repro.runtime.live.LivePipeline`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..devtools.markers import hot_path
from ..netflow.records import FlowBatch, FlowRecord, iter_flow_batches
from ..topology.elements import IngressPoint
from .admission import AdmissionConfig, AdmissionController, decode_admission
from .bundles import dominant_ingress
from .iputil import IPV4, IPV6, Prefix
from .output import IPDRecord
from .params import DEFAULT_PARAMS, IPDParams
from .rangetree import CLASSIFIED, UNCLASSIFIED, RangeTree
from .state import (
    CELL_SHIFT,
    CounterTable,
    ingress_codes,
    ingress_points,
    member_ranks,
    per_span,
    reduce_spans,
)
from .statecodec import (
    EngineImage,
    StateCodecError,
    decode_engine_span,
    encode_engine,
    engine_to_image,
    restore_tree,
)

__all__ = ["IPD", "SweepReport", "admit", "open_sweep"]


@dataclass
class SweepReport:
    """Bookkeeping emitted by one Stage-2 sweep."""

    timestamp: float
    duration_seconds: float = 0.0
    leaves: int = 0
    classified: int = 0
    classifications: int = 0
    splits: int = 0
    joins: int = 0
    drops: int = 0
    prunes: int = 0
    expired_sources: int = 0
    decayed_ranges: int = 0
    #: leaves visited by this sweep: changed since the last one, lost a
    #: source to its expiry, or classified; the gap to ``leaves`` is the
    #: idle set skipped
    visited: int = 0
    #: admission gate decisions since the previous sweep (all zero with
    #: no controller attached).  admitted / held / dropped count flows:
    #: kept, below the threshold but kept anyway (``exact``), below it
    #: and dropped (``lossy``); promoted counts sources
    admission_admitted: int = 0
    admission_held: int = 0
    admission_dropped: int = 0
    admission_promoted: int = 0
    admission_saturated: bool = False
    #: per-family leaf counts after the sweep
    leaves_by_version: dict[int, int] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        # the leaf cache is gone; the frozen ledger still reads this name
        return 0.0


class IPD:
    """Online ingress point detection over a flow stream."""

    def __init__(
        self,
        params: IPDParams | None = None,
        roots: "dict[int, Prefix] | None" = None,
        admission: "AdmissionController | AdmissionConfig | None" = None,
    ) -> None:
        self.params = params or DEFAULT_PARAMS
        #: optional sketch-gated admission front-end; ``None`` means the
        #: classic direct-to-trie ingest path (admission off)
        self.admission: AdmissionController | None = _coerce_admission(admission)
        #: per-family root prefixes; defaults to /0 (the whole space).
        #: The sharded runtime roots one engine per depth-k subtree.
        self.trees: dict[int, RangeTree] = {
            version: RangeTree(
                version,
                root_prefix=roots.get(version) if roots is not None else None,
            )
            for version in (IPV4, IPV6)
        }
        #: ``params.n_cidr`` per prefix length, one row per family, read
        #: once here (a params subclass overriding ``n_cidr`` still rules)
        self._n_cidr: dict[int, np.ndarray] = {
            version: np.array([
                self.params.n_cidr(masklen, version)
                for masklen in range(tree.root_prefix.bits + 1)
            ])
            for version, tree in self.trees.items()
        }
        self.flows_ingested = 0
        self.bytes_ingested = 0
        self.last_sweep_at: float | None = None

    # ------------------------------------------------------------------ state io

    def to_image(self) -> EngineImage:
        """Snapshot the full engine state as a codec-neutral image."""
        return engine_to_image(self)

    def to_bytes(self) -> bytes:
        """Serialize the full engine state to one versioned blob.

        The blob captures everything a future :meth:`from_bytes` needs
        to continue *exactly* where this engine stands: trie topology,
        per-range state, params, counters, and the dirty flags — the
        restored engine's next sweep visits the same leaves and produces
        the same report this engine's would have.

        With an admission front-end attached, its state (config,
        sketch cells, elephant set) is appended as a self-delimiting
        trailing section; admission-off blobs are byte-identical to
        what this method always produced.
        """
        blob = encode_engine(self.to_image())
        if self.admission is not None:
            blob += self.admission.to_bytes()
        return blob

    @classmethod
    def from_image(
        cls,
        image: EngineImage,
        admission: "AdmissionController | AdmissionConfig | None" = None,
    ) -> "IPD":
        """Rebuild an engine from an image produced by :meth:`to_image`."""
        roots = {
            version: tree.root_prefix for version, tree in image.trees.items()
        }
        engine = cls(params=image.params, roots=roots, admission=admission)
        for version, tree_image in image.trees.items():
            tree = engine.trees.get(version)
            if tree is None:
                raise StateCodecError(
                    f"image contains unsupported address family {version}"
                )
            restore_tree(tree, tree_image)
        engine.flows_ingested = image.flows_ingested
        engine.bytes_ingested = image.bytes_ingested
        engine.last_sweep_at = image.last_sweep_at
        return engine

    @classmethod
    def from_bytes(
        cls,
        data: bytes,
        params: IPDParams | None = None,
        admission: "AdmissionController | AdmissionConfig | None" = None,
    ) -> "IPD":
        """Rebuild an engine from a :meth:`to_bytes` blob.

        *params* must be supplied when the blob was written with a
        custom decay function (callables do not serialize).  When the
        blob carries a trailing admission section, the controller is
        restored from it and *admission* is ignored; otherwise
        *admission* (a config or fresh controller) attaches one.
        """
        image, consumed = decode_engine_span(data, params=params)
        if consumed < len(data):
            admission = AdmissionController.from_image(
                decode_admission(memoryview(data)[consumed:])
            )
        return cls.from_image(image, admission=admission)

    # ------------------------------------------------------------------ stage 1

    def ingest(self, flow: FlowRecord) -> None:
        """Add one flow observation (Algorithm 1, lines 1-4).

        API edge: a one-row :meth:`ingest_batch`.  Anything rate-bound
        feeds batches (the runtime never calls this).
        """
        self.ingest_batch(FlowBatch.from_flows((flow,)))

    def ingest_many(self, flows: "Iterable[FlowRecord] | FlowBatch") -> int:
        """Ingest an iterable of flows; returns how many were consumed.

        API edge: a chunked :meth:`ingest_batch` — records are cut into
        same-family :class:`FlowBatch` runs by :func:`iter_flow_batches`.
        """
        if isinstance(flows, FlowBatch):
            return self.ingest_batch(flows)
        count = 0
        for batch in iter_flow_batches(flows):
            count += self.ingest_batch(batch)
        return count

    @hot_path
    def ingest_batch(self, batch: FlowBatch) -> int:
        """Add a columnar batch of flows; returns how many were consumed.

        The one way a flow reaches a trie: an attached admission gate picks
        the rows to keep and :meth:`_fold` adds them with no per-row Python
        work, equivalent to the paper's flow-by-flow Stage 1 (weights are
        integer-valued, so the regrouped float sums are exact).  A batch
        with a non-finite timestamp, an IPv4 source past 32 bits or a
        negative count is a ``ValueError`` naming its first such row,
        before anything moves.
        """
        count = len(batch)
        if count == 0:
            return 0
        _check_rows(batch)
        self.flows_ingested += count
        self.bytes_ingested += int(batch.byte_counts.sum())
        # the counters above cover the full batch, the trie the kept rows
        batch = admit(self.admission, self.params, batch)
        if len(batch):
            tree = self.trees[batch.version]
            shift = tree.root_prefix.bits - self.params.cidr_max(tree.version)
            self._fold(tree, shift, batch)
        return count

    @hot_path
    def _fold(self, tree: RangeTree, shift: int, batch: FlowBatch) -> None:
        """Group a batch by (masked source, ingress) and fold it into the trie:
        one sort makes cells and sources runs, one ``searchsorted`` finds
        their leaves, each touched leaf updates its figures once, and the
        rest queue as one run of the cell table, numbered by first row (the
        order a flow-by-flow Stage 1 meets them)."""
        codes = ingress_codes(batch.ingress_table)[batch.ingress_ids]
        order, columns = _sort_rows(batch, shift, codes)
        codes = codes[order]
        new_source = _changes(*(column[order] for column in columns))
        new_cell = new_source | _changes(codes)
        starts, cell_starts = new_source.nonzero()[0], new_cell.nonzero()[0]
        cell_source = new_source.cumsum()[cell_starts] - 1
        counts = batch.byte_counts[order] if self.params.count_bytes else None
        weights = np.ones(len(order)) if counts is None else counts.astype(np.float64)
        stamps = batch.timestamps[order]
        newest = np.maximum.reduceat(stamps, starts)
        oldest = np.minimum.reduceat(stamps, starts)
        keys = [column[order[starts]] for column in columns]
        if batch.version == IPV4:
            masked = keys[0]
        else:  # (lo, hi) or hi alone, as Python ints
            masked = keys[-1].astype(object) << 64
            if len(keys) == 2:
                masked |= keys[0].astype(object)
        leaf_of = tree.locate(masked)
        # each touched leaf (a run of sources) updates its row once
        new_leaf = _changes(leaf_of)
        leaf_starts = new_leaf.nonzero()[0]
        rows = leaf_of[leaf_starts]
        open_leaf = tree.kinds[rows] == UNCLASSIFIED
        touched = rows[open_leaf]
        tree.totals[touched] += np.add.reduceat(weights, starts[leaf_starts])[open_leaf]
        tree.oldest[touched] = np.minimum(
            tree.oldest[touched], np.minimum.reduceat(oldest, leaf_starts)[open_leaf]
        )
        tree.dirty[touched] = True
        source_leaf = new_leaf.cumsum() - 1  # each source's index into rows
        is_open = open_leaf[source_leaf]
        # sources and cells rank by their first row
        appear = np.minimum.reduceat(order, starts)
        cell_first = np.minimum.reduceat(order, cell_starts)
        cell_weights = np.add.reduceat(weights, cell_starts)
        opened = is_open[cell_source]
        if is_open.any():
            tree.table.add(masked[is_open], newest[is_open], appear[is_open],
                           masked[cell_source[opened]], codes[cell_starts[opened]],
                           cell_weights[opened], cell_first[opened], len(order))
        if is_open.all():
            return
        closed = rows[~open_leaf]  # a classified range notes its newest sample
        tree.last_seen[closed] = np.maximum(
            tree.last_seen[closed], np.maximum.reduceat(newest, leaf_starts)[~open_leaf]
        )
        # and adds cell by cell, in order (after a decay its counters are no
        # longer integers, so the summation order shows)
        fold = (~opened).nonzero()[0]
        fold = fold[(appear[cell_source[fold]] * len(order) + cell_first[fold]).argsort()]
        tree.counters.add(
            tree.starts[closed],
            (np.cumsum(~open_leaf) - 1)[source_leaf[cell_source[fold]]],
            codes[cell_starts[fold]].astype(np.int64),
            cell_weights[fold],
        )

    # ------------------------------------------------------------------ stage 2

    @hot_path
    def sweep(self, now: float) -> SweepReport:
        """Run one Stage-2 pass over the active ranges (Algorithm 1, lines 5-19)."""
        if not math.isfinite(now):
            raise ValueError(f"sweep time {now} is not finite")
        started = time.perf_counter()
        report = open_sweep(self.admission, now)
        for tree in self.trees.values():
            self._sweep_tree(tree, now, report)
            report.leaves_by_version[tree.version] = tree.leaf_count()
        report.leaves = sum(report.leaves_by_version.values())
        report.classified = sum(
            tree.classified_count() for tree in self.trees.values()
        )
        report.duration_seconds = time.perf_counter() - started
        self.last_sweep_at = now
        return report

    @hot_path
    def _sweep_tree(self, tree: RangeTree, now: float, report: SweepReport) -> None:
        params = self.params
        # expiry merges the batches' runs, reads the spans of the leaves
        # whose bound is before the cutoff and names those that lost a source
        expired, lost = tree.expire(now - params.e)
        report.expired_sources += expired
        visit = tree.dirty | (tree.kinds == CLASSIFIED)
        visit[lost] = True
        tree.dirty[:] = False
        rows = visit.nonzero()[0]  # in address order
        report.visited += len(rows)
        if not len(rows):
            return
        kinds = tree.kinds[rows]
        opened = rows[kinds == UNCLASSIFIED]
        empty = tree.oldest[opened] == _INF
        full = opened[~empty]
        # else line 8: not enough samples yet
        n_cidr = self._n_cidr[tree.version][tree.masklens[full]]
        deciding = full[tree.totals[full] >= n_cidr]
        classified = rows[kinds == CLASSIFIED]
        dropped = classified[:0]
        if len(classified):
            dropped = self._visit_classified(tree, classified, now, report)
            if len(dropped):
                tree.write(dropped, UNCLASSIFIED)  # line 19: drop
        # prune candidates go by address: the splits and joins move rows
        empties = tree.starts[np.concatenate((opened[empty], dropped))]
        if len(deciding):
            self._handle_unclassified(tree, deciding, now, report)
        report.joins += self._join_pass(tree)
        if len(empties):
            report.prunes += tree.prune_upward(empties)

    def _handle_unclassified(
        self, tree: RangeTree, rows: np.ndarray, now: float, report: SweepReport
    ) -> None:
        """Lines 9-15 for the visited leaves past ``n_cidr``: grouped sums give
        router peaks and per-ingress totals, and the loop only decides."""
        params = self.params
        spans = tree.spans(rows)
        # No candidate outweighs its router's subtotal, so where no router
        # reaches q no candidate can: skip building them (exact, since
        # integer-valued sums are exact and division is monotonic).  The
        # grand totals are >= n_cidr > 0.
        spans_of, codes, sums = tree.table.totals(*spans[2:], tree.totals[rows], params.q)
        won: list[tuple[int, IngressPoint]] = []
        for index, counts in per_span(spans_of, codes, sums).items():
            found = dominant_ingress(counts, params.enable_bundles, params.bundle_min_share)
            assert found is not None
            if found[1] >= params.q:
                won.append((index, found[0]))
        undecided = np.ones(len(rows), bool)
        if won:
            winners = np.array([index for index, __ in won])
            undecided[winners] = False
            picked = tuple(part[winners] for part in spans)
            # line 10: assign the prevalent ingress and discard the per-IP
            # detail ("all state is removed for efficiency reasons"); the
            # counters keep the order a per-source walk meets them
            owners, firsts = tree.table.first_seen(*picked[2:])
            at = np.searchsorted(spans_of << CELL_SHIFT | codes,
                                 winners[owners] << CELL_SHIFT | firsts)
            tree.classify(
                rows[winners],
                ingress_codes(ingress for __, ingress in won).astype(np.int64),
                reduce_spans(np.maximum, tree.table.seen, *picked[:2], -_INF),
                now,
                (owners, firsts, sums[at]),
            )
            tree.table.drop(picked)
            report.classifications += len(won)
        # line 13; at cidr_max there is no split (line 15), and the join
        # pass may still coarsen once siblings agree
        to_split = rows[undecided & (tree.masklens[rows] < params.cidr_max(tree.version))]
        tree.split_all(to_split)
        report.splits += len(to_split)

    @hot_path
    def _visit_classified(
        self, tree: RangeTree, rows: np.ndarray, now: float, report: SweepReport
    ) -> np.ndarray:
        """Lines 16-19 for every classified leaf (*rows*, all of them) at
        once: decay the idle ones, then return the rows that drop."""
        params = self.params
        ages = now - tree.last_seen[rows]
        decayed = ages > params.t
        # No fresh traffic in the last bucket: decay toward removal.
        # Table 1's ``decay`` is the fraction REMOVED per sweep, so the
        # keep-factor is ``1 - decay = 0.9/(age/t + 1)``, which shrinks as
        # the range ages — repeated application collapses even
        # billion-sample counters within ~10 idle sweeps.  "This ensures
        # that ranges are quickly removed from classification when no new
        # traffic is received" (§3.2).
        decay, t = params.decay, params.t
        factors = [max(0.0, 1.0 - decay(age, t)) for age in ages[decayed].tolist()]
        if factors and max(factors) > 1.0:
            bad = next(factor for factor in factors if factor > 1.0)
            raise ValueError(f"decay factor out of range: {bad}")
        counters = tree.counters
        owners = counters.owners(tree.starts[rows])
        if factors:
            keep = np.ones(len(rows))
            keep[decayed] = factors
            counters.weights = counters.weights * keep[owners]
            # a decayed counter below the floor is removed
            kept = ~decayed[owners] | (counters.weights >= _DECAY_FLOOR)
            if not kept.all():
                counters.keep(kept)
                owners = owners[kept]
            report.decayed_ranges += len(factors)
        totals, shares = _shares(tree, rows, owners)
        drop = (decayed & (totals < params.drop_threshold)) | (shares < params.q)
        report.drops += int(drop.sum())
        return rows[drop]

    def _join_pass(self, tree: RangeTree) -> int:
        """Merge sibling leaves classified to the same logical ingress.

        "Adjacent ranges may also be joined if they share the same
        ingress and meet sample count requirements" (§3.2).  The merged
        parent must itself satisfy its (larger) ``n_cidr`` threshold.

        Two sibling leaves are neighbouring rows, so a round finds the
        pairs of classified siblings with array tests and merges those that
        agree; the next round looks at the merged rows only, which is the
        upward cascade.  The sharded runtime reruns this pass on its
        aggregator after a cross-boundary join.
        """
        n_cidr = self._n_cidr[tree.version]
        joins = 0
        rows = (tree.kinds == CLASSIFIED).nonzero()[0]
        while len(rows):
            lowers = tree.sibling_pairs(rows)
            kinds, winners = tree.kinds, tree.winners
            lowers = lowers[
                (kinds[lowers] == CLASSIFIED)
                & (kinds[lowers + 1] == CLASSIFIED)
                & (winners[lowers] == winners[lowers + 1])
            ]
            if not len(lowers):
                break
            pairs = np.empty(2 * len(lowers), np.intp)
            pairs[::2], pairs[1::2] = lowers, lowers + 1
            sums = tree.counters.sums(tree.starts[pairs])
            merged = lowers[
                sums[::2] + sums[1::2] >= n_cidr[tree.masklens[lowers].astype(np.intp) - 1]
            ]
            if not len(merged):
                break
            rows = tree.join_all(merged)
            joins += len(merged)
        return joins

    # ------------------------------------------------------------------ output

    def snapshot(
        self, now: float, include_unclassified: bool = False
    ) -> list[IPDRecord]:
        """Emit the current mapping in the Table-3 raw output format."""
        params = self.params
        records: list[IPDRecord] = []
        for tree in self.trees.values():
            rows = (tree.kinds == CLASSIFIED).nonzero()[0]
            owners = tree.counters.owners(tree.starts[rows])
            totals, shares = _shares(tree, rows, owners)
            # (row, candidates, ingress, share, total, classified)
            found = list(zip(
                rows.tolist(), _ranked(tree.counters, owners, len(rows)),
                ingress_points(tree.winners[rows]), shares.tolist(), totals.tolist(),
                [True] * len(rows),
            ))
            if include_unclassified:
                observed = ((tree.kinds == UNCLASSIFIED) & (tree.oldest != _INF)).nonzero()[0]
                by_span = per_span(*tree.table.totals(*tree.spans(observed)[2:]))
                for index, (row, total) in enumerate(
                    zip(observed.tolist(), tree.totals[observed].tolist())
                ):
                    counts = by_span[index]
                    best = dominant_ingress(counts, params.enable_bundles, params.bundle_min_share)
                    if best is not None:
                        ranked = sorted(counts.items(), key=lambda item: (-item[1], str(item[0])))
                        found.append((row, tuple(ranked), best[0], best[1], total, False))
            n_cidr = self._n_cidr[tree.version].tolist()
            for prefix, (__, ranked, ingress, share, total, classified) in zip(
                tree.prefixes([entry[0] for entry in found]), found
            ):
                records.append(IPDRecord(
                    timestamp=now, range=prefix, ingress=ingress, s_ingress=share,
                    s_ipcount=total, n_cidr=n_cidr[prefix.masklen],
                    candidates=ranked, classified=classified,
                ))
        records.sort(key=lambda record: (record.version, record.range.value))
        return records

    # ------------------------------------------------------------------ metrics

    def state_size(self) -> int:
        """Tracked (masked IP, ingress) cells plus classified counters: the
        parameter study's RAM proxy, O(classified leaves)."""
        return sum(
            len(tree.table.merged().keys) + len(tree.counters.codes)
            for tree in self.trees.values()
        )

    def leaf_count(self) -> int:
        return sum(tree.leaf_count() for tree in self.trees.values())


def admit(
    admission: "AdmissionController | None", params: IPDParams, batch: FlowBatch
) -> FlowBatch:
    """The rows of a checked *batch* the admission gate keeps (all of them
    with no controller, in exact mode and under saturation): a deployment's
    one gate call per batch, made by :meth:`IPD.ingest_batch` or, before it
    routes, by the shard coordinator, whose aggregator and shards run ungated."""
    if admission is None:
        return batch
    version = batch.version
    shift = Prefix.root(version).bits - params.cidr_max(version)
    weights = batch.byte_counts if params.count_bytes else None
    kept = admission.prefilter_rows(version, shift, batch.src_ips, weights)
    return batch if kept is None else batch.select(kept)


def open_sweep(admission: "AdmissionController | None", now: float) -> SweepReport:
    """A new sweep's report, after the admission work a plain engine's and a
    shard coordinator's sweep open with: the sketch ages to *now* and the
    gate's counters since the last sweep drain into the report."""
    report = SweepReport(timestamp=now)
    if admission is not None:
        admission.age_to(now)
        (report.admission_admitted, report.admission_held, report.admission_dropped,
         report.admission_promoted) = admission.take_counters()
        report.admission_saturated = admission.saturated
    return report


def _coerce_admission(
    admission: "AdmissionController | AdmissionConfig | None",
) -> "AdmissionController | None":
    """Normalize the ``admission`` constructor argument to a controller."""
    if admission is None or isinstance(admission, AdmissionController):
        return admission
    return AdmissionController(admission)


_INF = float("inf")
#: a decayed classified counter below this is removed
_DECAY_FLOOR = 1e-9


def _sort_rows(
    batch: FlowBatch, shift: int, codes: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Rows ordered by (masked source, ingress code) — cell-table order —
    and the masked source as uint64 key columns: IPv4's one; IPv6's (lo,
    hi), or hi if lo is masked."""
    if batch.version == IPV4:
        bits = np.uint64(shift)
        prefix = batch.src_ips >> bits
        return (prefix << np.uint64(32) | codes).argsort(), [prefix << bits]
    high, low = batch.src_ips[:, 0], batch.src_ips[:, 1]
    if shift >= 64:
        bits = np.uint64(shift - 64)
        columns = [high >> bits << bits]
    else:
        bits = np.uint64(shift)
        columns = [low >> bits << bits, high]
    return np.lexsort((codes, *columns)), columns


def _check_rows(batch: FlowBatch) -> None:
    """Reject a non-finite timestamp (NaN passes every ``<`` test and never
    expires), an IPv4 source past 32 bits (``source << 32`` would wrap
    onto another source's cell key) and a negative packet or byte count
    (a count-min cell must only err upward), naming the first such row."""
    stamps, sources = batch.timestamps, batch.src_ips
    if not np.isfinite(stamps).all():
        row = int(np.argmin(np.isfinite(stamps)))
        raise ValueError(f"flow batch row {row}: timestamp {stamps[row]} is not finite")
    if batch.version == IPV4 and int(sources.max()) >> 32:
        row = int(np.argmax(sources >> np.uint64(32)))
        raise ValueError(f"flow batch row {row}: source {sources[row]} is outside IPv4")
    for what, counts in (("packet", batch.packet_counts), ("byte", batch.byte_counts)):
        if counts.min() < 0:
            row = int(np.argmax(counts < 0))
            raise ValueError(f"flow batch row {row}: {what} count {counts[row]} is negative")


def _changes(*columns: np.ndarray) -> np.ndarray:
    """True at row 0 and where any column differs from the row before."""
    changed = np.ones(len(columns[0]), dtype=bool)
    changed[1:] = np.logical_or.reduce([col[1:] != col[:-1] for col in columns])
    return changed


def _shares(
    tree: RangeTree, rows: np.ndarray, owners: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each classified leaf's total and the paper's ``s_ingress`` (its
    logical ingress's share of the total; 0 at total 0): *rows* are every
    classified leaf, *owners* each counter row's number among them.  Both
    add left to right, the total in span order and the share's members in
    member order (:func:`~repro.core.state.member_ranks`), as
    ``ClassifiedState.total`` and ``confidence_for`` do."""
    weights = tree.counters.weights
    totals = np.bincount(owners, weights, minlength=len(rows))
    ranks = member_ranks(tree.winners[rows][owners], tree.counters.codes)
    members = (ranks >= 0).nonzero()[0]
    top = int(ranks.max(initial=0))
    if top:  # rows run by leaf; a bundle's members may still need member order
        order = owners[members] * (top + 1) + ranks[members]
        if (np.diff(order) < 0).any():
            members = members[order.argsort()]
    matched = np.bincount(owners[members], weights[members], minlength=len(rows))
    return totals, np.divide(matched, totals, out=np.zeros(len(rows)), where=totals > 0.0)


def _ranked(
    counters: CounterTable, owners: np.ndarray, count: int
) -> list[tuple[tuple[IngressPoint, float], ...]]:
    """The Table-3 candidates of *count* classified leaves (*owners*: each
    counter row's leaf number): each leaf's ``(ingress, weight)`` pairs,
    heaviest first, equal weights by name."""
    codes, inverse = np.unique(counters.codes, return_inverse=True)
    by_name = np.unique([str(point) for point in ingress_points(codes)], return_inverse=True)[1]
    # rank every row by (weight down, name) in two stable passes, then order
    # by (leaf, that rank): one sort of distinct keys
    order = by_name[inverse].argsort(kind="stable")
    order = order[(-counters.weights[order]).argsort(kind="stable")]
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order))
    order = (owners * len(order) + rank).argsort()
    pairs = list(zip(ingress_points(counters.codes[order]), counters.weights[order].tolist()))
    cuts = np.searchsorted(owners, np.arange(count + 1)).tolist()
    return [tuple(pairs[i:j]) for i, j in zip(cuts, cuts[1:])]
