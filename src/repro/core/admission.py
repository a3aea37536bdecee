"""Sketch-gated admission front-end for the ingest path.

At deployment scale most source prefixes are one-shot "mice" that never
accumulate to ``n_cidr``, yet every flow pays a full trie insert.  This
module is the one gate in front of the trie — a row mask computed once
per batch by :func:`~repro.core.algorithm.admit` (for a plain engine or,
before routing, a shard coordinator), so the ingest pipeline reads
``decode → gate rows → mask+group → fold``:

* a seeded **count-min sketch** (Azzana et al.'s Bloom-filter large-flow
  identification, generalized to weighted counts) tracks the volume of
  every masked source cheaply and off-trie;
* sources whose sketch estimate crosses the **promotion threshold**
  (Jurkiewicz's mice/elephant boundary) are promoted to the *elephant
  set* and skip the sketch from then on;
* rows of sub-threshold "mice" are **dropped** in ``lossy`` mode (only
  their sketch counts survive; bounded accuracy loss, measured on the
  Fig. 6 benchmark).  ``exact`` mode runs the very same function but
  keeps every row: it observes — sketch, herd and counters move as in
  ``lossy`` — and the trie sees exactly what admission-off would feed
  it, at every instant.  Nothing is buffered in either mode.

Aging is wired to trace time (IPD001): the sketch halves on fixed
``age_seconds`` boundaries of the replayed clock, so a long-idle mouse
must re-earn its promotion.  All hashing is seeded (IPD002) via a
splitmix64 mix of an explicit seed — two controllers built from the
same :class:`AdmissionConfig` make identical decisions on the same
stream.

Saturation safety: a sketch can only ever *over*-estimate, so admission
errors always fall toward admitting more.  When the sketch saturates —
its fill ratio crosses ``max_fill``, or the ``sketch_saturate`` fault
forces it — the controller degrades to admit-everything.  An elephant,
once promoted, is never dropped again.

The controller's state (config, sketch cells, elephant set, aging
cursor) round-trips through a versioned wire section (``CODEC_VERSION``
below, IPD004-pinned as ``admission:2``) appended to engine blobs by
:meth:`IPD.to_bytes` (and a sharded run's merged blob), so
checkpoint/resume carries admission state with the trie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as _np

from ..devtools.markers import hot_path
from .framing import Reader, StateCodecError, Writer
from .framing import damage_reported, read_header, write_header
from .iputil import IPV6

__all__ = [
    "ADMISSION_MODES",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionImage",
    "CODEC_VERSION",
    "CountMinSketch",
    "MAX_SKETCH_CELLS",
    "auto_sketch_width",
    "decode_admission",
    "encode_admission",
]

#: bump when the admission wire section changes; pinned as ``admission:2``
CODEC_VERSION = 2

_MAGIC = b"IPDA"
_KIND_ADMISSION = 0x41  # 'A'

_FLAG_SATURATED = 1
_FLAG_LOSSY = 2

_MASK64 = (1 << 64) - 1

#: the admission modes the runtime accepts (``off`` maps to no controller)
ADMISSION_MODES = ("exact", "lossy")

#: most ``width × depth`` cells a config may ask for (128 MiB of float64
#: per family; rows round up to a power of two, so at most twice that is
#: ever allocated) — the bound a damaged wire section is refused at
MAX_SKETCH_CELLS = 1 << 24


def _splitmix64(value: int) -> int:
    """One splitmix64 round; the seeded hash base for sketch rows."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def _splitmix64_array(values: "object") -> "object":
    """:func:`_splitmix64` over a uint64 ndarray (wrapping arithmetic).

    Bit-for-bit identical to the scalar form: numpy uint64 ops wrap mod
    2^64 exactly as the masked Python-int version does, so the gate and
    the scalar sketch API hash a key to the same sketch cells.
    """
    values = values + _np.uint64(0x9E3779B97F4A7C15)
    values = (values ^ (values >> _np.uint64(30))) * _np.uint64(0xBF58476D1CE4E5B9)
    values = (values ^ (values >> _np.uint64(27))) * _np.uint64(0x94D049BB133111EB)
    return values ^ (values >> _np.uint64(31))


@dataclass(frozen=True)
class AdmissionConfig:
    """Tuning knobs for the admission front-end.

    ``mode`` selects what the gate does with sub-threshold rows:
    ``"lossy"`` drops them, ``"exact"`` only counts them (observe-only,
    byte-identical to no admission).  ``promote_weight`` is the
    sketch-estimate (flow count, or bytes with ``count_bytes`` params)
    at which a source is promoted to the elephant set.
    """

    mode: str = "exact"
    #: sketch estimate at which a source becomes an elephant
    promote_weight: float = 4.0
    #: cells per sketch row (rounded up to a power of two)
    width: int = 1 << 14
    #: independent hash rows
    depth: int = 4
    #: seed for the per-row hash salts (IPD002: always explicit)
    seed: int = 0x1905
    #: trace-time interval between sketch halvings
    age_seconds: float = 120.0
    #: nonzero-cell fill ratio beyond which the sketch counts as
    #: saturated and the controller degrades to admit-everything
    max_fill: float = 0.9

    def __post_init__(self) -> None:
        if self.mode not in ADMISSION_MODES:
            raise ValueError(
                f"unknown admission mode {self.mode!r}; "
                f"expected one of {ADMISSION_MODES}"
            )
        if self.width < 1 or self.depth < 1:
            raise ValueError("sketch width and depth must be >= 1")
        if self.width * self.depth > MAX_SKETCH_CELLS:
            raise ValueError(
                f"sketch of {self.width} x {self.depth} cells exceeds the "
                f"cap of {MAX_SKETCH_CELLS}"
            )
        if self.promote_weight <= 0.0:
            raise ValueError("promote_weight must be positive")
        if self.age_seconds <= 0.0:
            raise ValueError("age_seconds must be positive")
        if not 0.0 < self.max_fill <= 1.0:
            raise ValueError("max_fill must be in (0, 1]")

    @classmethod
    def for_cardinality(
        cls,
        distinct_sources: int,
        *,
        mode: str = "lossy",
        width: Optional[int] = None,
        promote_weight: float = 4.0,
        depth: int = 4,
        seed: int = 0x1905,
        age_seconds: float = 120.0,
        max_fill: float = 0.9,
    ) -> "AdmissionConfig":
        """A config whose sketch is sized for *distinct_sources* keys.

        The width comes from :func:`auto_sketch_width` unless an
        explicit *width* overrides it — the hand-tuned knob stays
        available, the default stops saturating on source floods.
        """
        if width is None:
            width = auto_sketch_width(distinct_sources, max_fill=max_fill)
        return cls(
            mode=mode,
            promote_weight=promote_weight,
            width=width,
            depth=depth,
            seed=seed,
            age_seconds=age_seconds,
            max_fill=max_fill,
        )


#: the sizing rule targets half the saturation ceiling, leaving aging
#: lag and collision skew a factor-two cushion before degrade-to-admit
_AUTO_FILL_HEADROOM = 0.5

#: never auto-size below the historical default width
_MIN_AUTO_WIDTH = 1 << 14


def auto_sketch_width(
    distinct_sources: int,
    *,
    max_fill: float = 0.9,
) -> int:
    """Smallest power-of-two row width that survives *distinct_sources*.

    After ``n`` distinct keys hash into a row of ``w`` cells, the
    expected nonzero fraction is ``1 - (1 - 1/w)^n ≈ 1 - exp(-n/w)``.
    The controller degrades to admit-everything at ``max_fill``, so the
    rule solves for the width whose expected fill is half that ceiling
    (``w >= n / -ln(1 - max_fill/2)``) and rounds up to a power of two.
    At the default ``max_fill=0.9`` a 100k-source flood sizes to
    ``2^18`` — the width the admission benchmark previously had to
    hand-raise to stay unsaturated.
    """
    if distinct_sources < 0:
        raise ValueError("distinct_sources must be >= 0")
    if not 0.0 < max_fill <= 1.0:
        raise ValueError("max_fill must be in (0, 1]")
    target_fill = max_fill * _AUTO_FILL_HEADROOM
    needed = distinct_sources / -math.log(1.0 - target_fill)
    width = _MIN_AUTO_WIDTH
    while width < needed:
        width <<= 1
    return width


#: halvings between two dense passes that rescale the stored cells back
#: to their true values (``scale`` 0); every other halving is O(1)
_RESCALE_EVERY = 64

#: a float64 cell's biased exponent (its top bits; every cell is >= 0)
#: indexes the death histogram: 2^11 slots cover every finite value
_EXPONENT_SHIFT = _np.int64(52)
_EXPONENTS = 1 << 11

#: the biased exponent of 0.5 (``frexp`` exponent 0): a cell stored with
#: biased exponent ``b`` at ``scale`` holds a true value >= 0.5 — is live —
#: iff ``b >= scale + _HALF_EXPONENT``
_HALF_EXPONENT = 1022


def _weight_error(weight: float) -> Optional[str]:
    """Why *weight* cannot enter the sketch, or None: a count is 0 or a
    finite value >= 0.5, so every nonzero cell is >= 0.5 (see
    :class:`CountMinSketch`)."""
    if weight == 0.0 or 0.5 <= weight < math.inf:
        return None
    return f"sketch weight {weight!r} is not 0 or a finite value >= 0.5"


class CountMinSketch:
    """A seeded, weighted count-min sketch with trace-time aging.

    Estimates only ever err upward (hash collisions add foreign weight),
    so a decision gated on ``estimate >= threshold`` can admit a mouse
    early but can never starve an elephant — the safe direction for an
    admission filter.  ``halve`` implements aging: all cells decay by
    half, and a cell below 0.5 resets to zero.  ``fill`` is the exact
    number of nonzero cells after every mutation.

    Aging is O(1): the cells are stored as ``true value × 2^scale``, so
    ``halve`` is ``scale += 1``.  A stored cell below ``2^(scale-1)`` is
    one that a halving zeroed (its true value fell below 0.5) and reads
    as zero; ``fill`` drops by the cells that die at each step, kept in a
    histogram of live cells by exponent (a cell of exponent ``e`` dies
    when ``scale`` passes ``e``).  Every ``_RESCALE_EVERY`` halvings one
    dense multiply stores the live cells' true values again (``scale``
    0; a dead cell stays below the floor).  Scaling by a
    power of two is exact for normal floats and ``fl(a·2^s + b·2^s) =
    fl(a + b)·2^s``, so every cell, estimate and ``fill`` is bit for bit
    what halving every cell would give — while true values stay below
    2^(1024 - _RESCALE_EVERY), far past any sum of int64 counts.  The one
    precondition: a true value in (0, 0.5) would read as dead, so a
    weight is 0 or a finite value >= 0.5 (``ValueError`` otherwise) and
    :meth:`load_sparse` refuses a cell below 0.5.
    """

    __slots__ = ("width", "depth", "_mask", "_salts", "_row_salts", "_row_bases",
                 "_cells", "_scale", "_live", "fill")

    def __init__(self, width: int, depth: int, seed: int) -> None:
        # round up to a power of two so row indexing is a mask
        actual = 1
        while actual < width:
            actual <<= 1
        self.width = actual
        self.depth = depth
        self._mask = actual - 1
        self._salts = tuple(
            _splitmix64(seed ^ (row * 0x9E3779B97F4A7C15)) for row in range(depth)
        )
        # the salts and first cells of the rows, as columns for add_batch
        self._row_salts = _np.array(self._salts, dtype=_np.uint64)[:, None]
        self._row_bases = _np.arange(0, depth * actual, actual, dtype=_np.intp)[:, None]
        self.clear()

    @property
    def cells(self) -> "_np.ndarray":
        """The true cell values, dead cells as 0.0 (a fresh float64 array)."""
        scale = self._scale
        stored = self._cells
        return _np.where(
            stored >= math.ldexp(1.0, scale - 1), stored * math.ldexp(1.0, -scale), 0.0
        )

    def add(self, key: int, weight: float) -> float:
        """Fold *weight* (0 or a finite value >= 0.5) into every row;
        returns the updated estimate."""
        error = _weight_error(weight)
        if error:
            raise ValueError(error)
        cells = self._cells
        live = self._live
        scale = self._scale
        floor = math.ldexp(1.0, scale - 1)
        weight = math.ldexp(weight, scale)
        mask = self._mask
        base = 0
        estimate = math.inf
        for salt in self._salts:
            index = base + (_splitmix64((key & _MASK64) ^ (key >> 64) ^ salt) & mask)
            old = float(cells[index])
            if old >= floor:
                live[math.frexp(old)[1] + _HALF_EXPONENT] -= 1
                self.fill -= 1
            else:
                old = 0.0
            value = old + weight
            if value:
                live[math.frexp(value)[1] + _HALF_EXPONENT] += 1
                self.fill += 1
            cells[index] = value
            estimate = min(estimate, value)
            base += self.width
        return math.ldexp(estimate, -scale)

    def add_batch(
        self, keys: "_np.ndarray", weights: "Optional[_np.ndarray]"
    ) -> "_np.ndarray":
        """Fold a batch of uint64 *keys* (weight 1 each when *weights* is
        None) into every row; returns each key's estimate read once the
        whole batch is in.  Touches only the cells the batch hashes to:
        per row, the distinct cells get their summed weight (the same
        sums, added in the same order, as a dense ``bincount`` row).  A
        weight that :meth:`add` refuses is a ``ValueError`` before any
        cell moves."""
        if weights is not None:
            allowed = (weights == 0.0) | ((weights >= 0.5) & (weights < math.inf))
            if not allowed.all():
                row = int(_np.argmin(allowed))
                raise ValueError(f"row {row}: {_weight_error(float(weights[row]))}")
        cells = self._cells
        scale = self._scale
        depth = self.depth
        # every row's cell of every key, row after row: a cell belongs to
        # one row, so one sum per distinct cell is that row's sum
        index = _splitmix64_array(keys ^ self._row_salts) & _np.uint64(self._mask)
        touched, slot = _np.unique(
            (index.astype(_np.intp) + self._row_bases).ravel(), return_inverse=True
        )
        before = cells[touched]
        before[before < math.ldexp(1.0, scale - 1)] = 0.0  # zeroed by a halving
        added = _np.bincount(slot, None if weights is None else _np.tile(weights, depth))
        after = before + (added * math.ldexp(1.0, scale) if scale else added)
        cells[touched] = after
        # slot 0 is a zero cell's exponent: neither live before nor after
        moved = _np.bincount(after.view(_np.int64) >> _EXPONENT_SHIFT, minlength=_EXPONENTS)
        moved -= _np.bincount(before.view(_np.int64) >> _EXPONENT_SHIFT, minlength=_EXPONENTS)
        moved[0] = 0
        self._live += moved
        self.fill += int(moved.sum())
        estimate: "_np.ndarray" = after[slot].reshape(depth, len(keys)).min(axis=0)
        return estimate * math.ldexp(1.0, -scale) if scale else estimate

    def estimate(self, key: int) -> float:
        """The current (over-)estimate for *key*, without mutating."""
        cells = self._cells
        scale = self._scale
        floor = math.ldexp(1.0, scale - 1)
        mask = self._mask
        base = 0
        estimate = math.inf
        for salt in self._salts:
            value = float(cells[base + (_splitmix64((key & _MASK64) ^ (key >> 64) ^ salt) & mask)])
            estimate = min(estimate, value if value >= floor else 0.0)
            base += self.width
        return math.ldexp(estimate, -scale)

    def halve(self) -> None:
        """Age every cell by half; cells below one count reset to zero.

        O(1): the scale steps and ``fill`` drops by the cells that just
        died; every ``_RESCALE_EVERY``-th call rescales the cells."""
        scale = self._scale + 1
        dying = scale + _HALF_EXPONENT - 1
        self.fill -= int(self._live[dying])
        self._live[dying] = 0
        if scale < _RESCALE_EVERY:
            self._scale = scale
            return
        # a dead cell stays below the floor when scaled down with the rest
        self._cells *= math.ldexp(1.0, -scale)
        live = self._live
        live[:-scale] = live[scale:]
        live[-scale:] = 0
        self._scale = 0

    def clear(self) -> None:
        """Drop all counts (used when aging skips many intervals)."""
        self._cells = _np.zeros(self.width * self.depth)
        self._scale = 0
        self._live = _np.zeros(_EXPONENTS, dtype=_np.int64)
        self.fill = 0

    @property
    def fill_ratio(self) -> float:
        """Fraction of nonzero cells across all rows."""
        return self.fill / (self.width * self.depth)

    def sparse_cells(self) -> list[tuple[int, float]]:
        """The nonzero cells as ``(index, value)`` pairs (codec form)."""
        scale = self._scale
        cells = self._cells
        indices = _np.flatnonzero(cells >= math.ldexp(1.0, scale - 1))
        values = cells[indices]
        if scale:
            values *= math.ldexp(1.0, -scale)
        return list(zip(indices.tolist(), values.tolist()))

    def load_sparse(self, pairs: "list[tuple[int, float]]") -> None:
        """Replace the cell contents from codec ``(index, value)`` pairs:
        indices strictly increasing, values finite and >= 0.5 — what
        :meth:`sparse_cells` emits, so ``fill`` is the pair count.  The
        first pair that breaks a rule is a ``StateCodecError`` naming it,
        before any cell moves."""
        size = self.width * self.depth
        # float64 holds every in-range index exactly; a pair past the first
        # bad one is never compared
        table = _np.array(pairs, dtype=_np.float64).reshape(-1, 2)
        indices, values = table[:, 0], table[:, 1]
        previous = _np.concatenate(([-1.0], indices[:-1]))
        bad = (
            (indices < 0) | (indices >= size) | (indices <= previous)
            | ~((values >= 0.5) & (values < math.inf))
        )
        if bad.any():
            row = int(_np.argmax(bad))
            index, value = pairs[row]
            if not 0 <= index < size:
                raise StateCodecError(
                    f"sketch cell index {index} out of range (size {size})"
                )
            if row and index <= pairs[row - 1][0]:
                raise StateCodecError(f"sketch cell index {index} out of order")
            raise StateCodecError(f"sketch cell {index} holds {value!r}")
        self.clear()
        self._cells[indices.astype(_np.intp)] = values
        self._live += _np.bincount(
            values.view(_np.int64) >> _EXPONENT_SHIFT, minlength=_EXPONENTS
        )
        self.fill = len(pairs)


@dataclass
class AdmissionImage:
    """Codec-neutral snapshot of a controller: its config plus state."""

    config: AdmissionConfig
    #: aging cursor: the last trace-time boundary applied (None = unset)
    age_boundary: Optional[int] = None
    saturated: bool = False
    #: version -> [(cell index, value), ...] (the nonzero cells)
    sketches: dict[int, list] = field(default_factory=dict)
    #: version -> [gate key, ...] (see :meth:`AdmissionController.elephants`)
    elephants: dict[int, list] = field(default_factory=dict)


class AdmissionController:
    """Per-deployment admission state: sketch, elephant set, counters.

    One controller fronts one deployment's ingest path: it sees every
    batch once, through :meth:`prefilter_rows`, and the trie is fed the
    rows it returns.  ``admitted`` / ``held_back`` / ``dropped`` count flows
    (rows), ``promoted`` counts sources.
    """

    def __init__(self, config: AdmissionConfig) -> None:
        self.config = config
        self.exact = config.mode == "exact"
        self._sketches: dict[int, CountMinSketch] = {}
        # version -> the promoted gate keys as one sorted, read-only
        # uint64 array: membership is a searchsorted, promotion a merge
        self._elephants: dict[int, "_np.ndarray"] = {}
        self._age_boundary: Optional[int] = None
        self._saturated = False
        # decision counters since the last take_counters() drain
        self.admitted = 0
        self.held_back = 0
        self.dropped = 0
        self.promoted = 0

    # ------------------------------------------------------------------ plumbing

    def sketch(self, version: int) -> CountMinSketch:
        """The (lazily created) per-family sketch."""
        sketch = self._sketches.get(version)
        if sketch is None:
            config = self.config
            sketch = CountMinSketch(config.width, config.depth, config.seed)
            self._sketches[version] = sketch
        return sketch

    def elephants(self, version: int) -> "_np.ndarray":
        """The per-family gate keys promoted so far: one sorted, read-only
        uint64 array of masked IPv4 sources or masked IPv6 *high words*."""
        herd = self._elephants.get(version)
        if herd is None:
            herd = self._elephants[version] = _np.empty(0, dtype=_np.uint64)
            herd.flags.writeable = False
        return herd

    def _promote(self, version: int, keys: "_np.ndarray") -> None:
        """Merge sorted, distinct gate *keys* not yet in the herd into it."""
        herd = self.elephants(version)
        herd = _np.insert(herd, _np.searchsorted(herd, keys), keys)
        herd.flags.writeable = False
        self._elephants[version] = herd

    @property
    def saturated(self) -> bool:
        """True when the controller has degraded to admit-everything."""
        if self._saturated:
            return True
        max_fill = self.config.max_fill
        for sketch in self._sketches.values():
            if sketch.fill_ratio > max_fill:
                return True
        return False

    def saturate(self) -> None:
        """Force admit-everything (the ``sketch_saturate`` fault site)."""
        self._saturated = True

    # ------------------------------------------------------------------ decisions

    @hot_path
    def prefilter_rows(
        self,
        version: int,
        shift: int,
        sources: "_np.ndarray",
        weights: "Optional[_np.ndarray]" = None,
    ) -> "Optional[_np.ndarray]":
        """The admission gate: one columnar pass over a raw batch.

        Runs *before* the per-flow grouping pass, so a dropped mouse
        never pays any Python-level per-flow work: the whole batch is
        masked, herd-checked, sketch-counted and thresholded as ndarray
        operations, decisions are counted, and the surviving row indices
        are returned for grouping.  ``None`` means every row: always in
        ``exact`` mode (which observes but keeps all), under saturation,
        and when no row fell below the threshold.

        Weights fold into the seeded cells as integer-valued floats (so
        the sums are exact regardless of add order) and every source's
        estimate is read after the whole batch's weight is in — the
        decisions a per-source loop over :meth:`CountMinSketch.add`
        makes with one summed add per distinct source.  Elephants never
        touch the sketch, and the sketch update touches only the cells
        the mice hash to (:meth:`CountMinSketch.add_batch`).

        *sources* and *weights* are a :class:`FlowBatch`'s columns, read
        as they are (``np.asarray``: no copy): uint64 IPv4 addresses or
        (hi, lo) IPv6 rows, and int64 counts.  IPv6 keys on the ``hi``
        column, masked to ``min(cidr_max, 64)`` bits: up to /64 that *is*
        the masked prefix (its low word is zero), beyond it the sources
        of one /64 share a decision, which can only over-admit.  Kept
        rows come back as an index array.
        """
        sources = _np.asarray(sources, dtype=_np.uint64)
        total = len(sources)
        if self.saturated:
            self.admitted += total
            return None
        if version == IPV6:
            sources = sources[:, 0]
            shift = max(shift - 64, 0)
        shift_bits = _np.uint64(shift)
        masked = (sources >> shift_bits) << shift_bits
        folded = None if weights is None else _np.asarray(weights, dtype=_np.float64)

        herd = self.elephants(version)
        if herd.size:
            slot = _np.minimum(_np.searchsorted(herd, masked), herd.size - 1)
            elephant = herd[slot] == masked
            mice_rows = _np.nonzero(~elephant)[0]
            if mice_rows.size == 0:
                self.admitted += total  # all promoted traffic
                return None
            mice_keys = masked[mice_rows]
            mice_weights = None if folded is None else folded[mice_rows]
        else:
            elephant = None
            mice_rows = None
            mice_keys = masked
            mice_weights = folded

        sketch = self.sketch(version)
        estimate = sketch.add_batch(mice_keys, mice_weights)
        if sketch.fill_ratio > self.config.max_fill:
            self.admitted += total  # saturated: degrade to admit-everything
            return None

        promoted = estimate >= self.config.promote_weight
        if promoted.any():
            new_keys = _np.unique(mice_keys[promoted])
            self._promote(version, new_keys)
            self.promoted += len(new_keys)
        if elephant is None:
            keep = promoted
        else:
            keep = elephant
            keep[mice_rows[promoted]] = True
        kept = int(_np.count_nonzero(keep))
        self.admitted += kept
        if self.exact:
            self.held_back += total - kept
            return None
        self.dropped += total - kept
        if kept == total:
            return None
        return _np.flatnonzero(keep)

    # ------------------------------------------------------------------ aging

    def age_to(self, now: float) -> int:
        """Advance the trace-time aging cursor; returns halvings applied.

        The sketch halves once per elapsed ``age_seconds`` boundary of
        the replayed clock.  Skipping many intervals clears the sketch
        outright (2^-53 of anything is zero weight).  The cursor never
        moves back: an earlier *now* is a no-op.
        """
        boundary = int(now // self.config.age_seconds)
        previous = self._age_boundary
        if previous is not None and boundary <= previous:
            return 0
        self._age_boundary = boundary
        if previous is None:
            return 0
        steps = boundary - previous
        if steps >= 53:
            for sketch in self._sketches.values():
                sketch.clear()
            return steps
        for sketch in self._sketches.values():
            for __ in range(steps):
                sketch.halve()
        return steps

    def take_counters(self) -> tuple[int, int, int, int]:
        """Drain the (admitted, held, dropped, promoted) decision counters.

        The first three count flows: kept by the gate, below the
        threshold but kept anyway (``exact``), below it and dropped
        (``lossy``).  ``promoted`` counts sources.
        """
        counters = (self.admitted, self.held_back, self.dropped, self.promoted)
        self.admitted = 0
        self.held_back = 0
        self.dropped = 0
        self.promoted = 0
        return counters

    # ------------------------------------------------------------------ state io

    def to_image(self) -> AdmissionImage:
        """Snapshot the controller state as a codec-neutral image."""
        return AdmissionImage(
            config=self.config,
            age_boundary=self._age_boundary,
            saturated=self._saturated,
            sketches={
                version: sketch.sparse_cells()
                for version, sketch in self._sketches.items()
                if sketch.fill
            },
            elephants={
                version: herd.tolist()
                for version, herd in self._elephants.items()
                if herd.size
            },
        )

    @classmethod
    def from_image(cls, image: AdmissionImage) -> "AdmissionController":
        """Rebuild a controller from an image (checkpoint restore)."""
        controller = cls(image.config)
        controller._age_boundary = image.age_boundary
        controller._saturated = image.saturated
        for version, pairs in image.sketches.items():
            controller.sketch(version).load_sparse(pairs)
        for version, herd in image.elephants.items():
            keys = _np.unique(_np.array(herd, dtype=_np.uint64))
            controller._promote(version, keys)
        return controller

    def to_bytes(self) -> bytes:
        """Serialize the controller state as one versioned section."""
        return encode_admission(self.to_image())


# ---------------------------------------------------------------------------
# wire section (appended to engine blobs; pinned as admission:2)
# ---------------------------------------------------------------------------


def encode_admission(image: AdmissionImage) -> bytes:
    """Serialize an admission image as one versioned trailing section."""
    config = image.config
    writer = Writer()
    write_header(writer, _MAGIC, CODEC_VERSION, _KIND_ADMISSION, version_width=1)
    flags = 0
    if image.saturated:
        flags |= _FLAG_SATURATED
    if config.mode == "lossy":
        flags |= _FLAG_LOSSY
    writer.byte(flags)
    writer.float(config.promote_weight)
    writer.uvarint(config.width)
    writer.uvarint(config.depth)
    writer.uvarint(config.seed)
    writer.float(config.age_seconds)
    writer.float(config.max_fill)
    if image.age_boundary is None:
        writer.byte(0)
    else:
        writer.byte(1)
        writer.uvarint(image.age_boundary)
    writer.uvarint(len(image.sketches))
    for version in sorted(image.sketches):
        writer.byte(version)
        pairs = image.sketches[version]
        writer.uvarint(len(pairs))
        for index, value in pairs:
            writer.uvarint(index)
            writer.float(value)
    writer.uvarint(len(image.elephants))
    for version in sorted(image.elephants):
        herd = image.elephants[version]
        writer.byte(version)
        writer.uvarint(len(herd))
        for key in herd:
            writer.uvarint(key)
    return bytes(writer.buffer)


def decode_admission(data: "bytes | bytearray | memoryview") -> AdmissionImage:
    """Parse an admission section back into an :class:`AdmissionImage`.

    Damage surfaces as a :class:`StateCodecError` carrying the offset —
    a config the section declares but :class:`AdmissionConfig` refuses
    (an over-cap geometry, say) included; any version but this build's
    is an :class:`~repro.core.framing.IncompatibleStateError`.
    """
    reader = Reader(data)
    with damage_reported(reader):
        read_header(
            reader, _MAGIC, CODEC_VERSION, _KIND_ADMISSION,
            version_width=1, what="admission section",
        )
        flags = reader.byte()
        promote_weight = reader.float()
        width = reader.uvarint()
        depth = reader.uvarint()
        seed = reader.uvarint()
        age_seconds = reader.float()
        max_fill = reader.float()
        config = AdmissionConfig(
            mode="lossy" if flags & _FLAG_LOSSY else "exact",
            promote_weight=promote_weight,
            width=width,
            depth=depth,
            seed=seed,
            age_seconds=age_seconds,
            max_fill=max_fill,
        )
        age_boundary = reader.uvarint() if reader.byte() else None
        sketches: dict[int, list[tuple[int, float]]] = {}
        for __ in range(reader.uvarint()):
            family = reader.byte()
            sketches[family] = [
                (reader.uvarint(), reader.float())
                for __ in range(reader.uvarint())
            ]
        elephants: dict[int, list[int]] = {}
        for __ in range(reader.uvarint()):
            family = reader.byte()
            elephants[family] = [
                reader.uvarint() for __ in range(reader.uvarint())
            ]
        return AdmissionImage(
            config=config,
            age_boundary=age_boundary,
            saturated=bool(flags & _FLAG_SATURATED),
            sketches=sketches,
            elephants=elephants,
        )

