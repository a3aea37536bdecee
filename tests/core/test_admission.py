"""The admission front-end in isolation: sketch, gate, codec, aging.

The integration contracts (exact ≡ off byte-identity through every
runtime topology, saturation chaos) live in
``tests/runtime/test_admission_equivalence.py`` and ``tests/chaos``;
this suite pins the controller's own semantics.
"""

import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import (
    ADMISSION_MODES,
    CODEC_VERSION,
    MAX_SKETCH_CELLS,
    AdmissionConfig,
    AdmissionController,
    AdmissionImage,
    CountMinSketch,
    auto_sketch_width,
    decode_admission,
    encode_admission,
)
from repro.core.admission import _MASK64 as MASK64
from repro.core.admission import _RESCALE_EVERY as RESCALE_EVERY
from repro.core.admission import _splitmix64 as splitmix64
from repro.core.admission import _splitmix64_array as splitmix64_array
from repro.core.framing import Writer
from repro.core.iputil import IPV4, IPV6
from repro.core.statecodec import IncompatibleStateError, StateCodecError
from repro.netflow.records import FlowBatch
from repro.topology.elements import IngressPoint


def column(version, sources):
    """*sources* as a batch's source column (IPv6: (hi, lo) rows)."""
    rows = len(sources)
    return FlowBatch(
        version, [0.0] * rows, sources, [IngressPoint("R", "e")] * rows,
        [1] * rows, [1] * rows, [None] * rows,
    ).src_ips


class TestConfigValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="admission mode"):
            AdmissionConfig(mode="fuzzy")

    @pytest.mark.parametrize("kwargs", [
        {"width": 0},
        {"depth": 0},
        {"promote_weight": 0.0},
        {"promote_weight": -1.0},
        {"age_seconds": 0.0},
        {"max_fill": 0.0},
        {"max_fill": 1.5},
        {"width": 1 << 44},
        {"width": 1 << 23, "depth": 4},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionConfig(**kwargs)

    def test_off_is_not_a_controller_mode(self):
        # "off" means no controller at all; the config never models it
        with pytest.raises(ValueError):
            AdmissionConfig(mode="off")


class TestAutoSketchWidth:
    """The cardinality-driven sizing rule: w >= n / -ln(1 - max_fill/2)."""

    def test_flood_scale_matches_hand_raised_width(self):
        # the perf benchmark used to hand-raise width to 2^18 for its
        # 100k-source flood; the rule must land on the same answer
        assert auto_sketch_width(100_000) == 1 << 18

    def test_small_cardinalities_hit_the_floor(self):
        assert auto_sketch_width(0) == 1 << 14
        assert auto_sketch_width(5_000) == 1 << 14

    def test_width_is_a_power_of_two(self):
        for n in (1, 999, 12_345, 100_000, 1_000_000):
            width = auto_sketch_width(n)
            assert width & (width - 1) == 0

    def test_monotone_in_cardinality(self):
        widths = [auto_sketch_width(n) for n in (10, 10_000, 100_000, 10**6)]
        assert widths == sorted(widths)

    def test_expected_fill_stays_under_max_fill(self):
        # 1 - exp(-n/w) is the expected row fill after n distinct keys;
        # the rule targets half of max_fill, so it must clear max_fill
        import math

        for n in (10_000, 100_000, 1_000_000):
            width = auto_sketch_width(n, max_fill=0.9)
            assert 1.0 - math.exp(-n / width) <= 0.9 * 0.5 + 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            auto_sketch_width(-1)
        with pytest.raises(ValueError):
            auto_sketch_width(100, max_fill=0.0)
        with pytest.raises(ValueError):
            auto_sketch_width(100, max_fill=1.5)

    def test_for_cardinality_autosizes(self):
        config = AdmissionConfig.for_cardinality(100_000)
        assert config.mode == "lossy"
        assert config.width == 1 << 18

    def test_for_cardinality_explicit_width_wins(self):
        config = AdmissionConfig.for_cardinality(100_000, width=1 << 15)
        assert config.width == 1 << 15

    def test_for_cardinality_passes_mode_through(self):
        assert AdmissionConfig.for_cardinality(10, mode="exact").mode == "exact"


class TestCountMinSketch:
    def test_width_rounds_up_to_power_of_two(self):
        assert CountMinSketch(100, 2, seed=1).width == 128

    def test_estimates_only_err_upward(self):
        sketch = CountMinSketch(64, 4, seed=7)
        truth = {}
        for key in range(200):
            weight = float(1 + key % 5)
            sketch.add(key * 16, weight)
            truth[key * 16] = weight
        for key, weight in truth.items():
            assert sketch.estimate(key) >= weight

    def test_seeded_hashing_is_deterministic(self):
        first = CountMinSketch(256, 3, seed=42)
        second = CountMinSketch(256, 3, seed=42)
        for key in range(100):
            first.add(key, 1.0)
            second.add(key, 1.0)
        assert list(first.cells) == list(second.cells)

    def test_different_seeds_hash_differently(self):
        first = CountMinSketch(256, 3, seed=1)
        second = CountMinSketch(256, 3, seed=2)
        for key in range(100):
            first.add(key, 1.0)
            second.add(key, 1.0)
        assert list(first.cells) != list(second.cells)

    def test_halve_decays_and_retightens_fill(self):
        sketch = CountMinSketch(64, 2, seed=3)
        sketch.add(1, 4.0)
        sketch.add(2, 0.9)  # decays below 0.5 after one halving
        fill_before = sketch.fill
        sketch.halve()
        assert sketch.estimate(1) == 2.0
        assert sketch.estimate(2) == 0.0
        assert sketch.fill < fill_before

    def test_vectorized_halve_and_merge_match_the_cell_loops(self):
        """The numpy ``halve`` is bit-identical to the per-cell loop it
        replaced (kept here as the reference), fill count included (the
        test keeps its name for test-id stability)."""

        def loop_halve(cells):
            fill = 0
            for index, value in enumerate(cells):
                if value == 0.0:
                    continue
                value *= 0.5
                if value < 0.5:
                    value = 0.0
                else:
                    fill += 1
                cells[index] = value
            return fill

        rng = random.Random(1905)
        sketch = CountMinSketch(256, 4, seed=11)
        for __ in range(600):
            sketch.add(rng.getrandbits(32), float(rng.randrange(1, 4000)))
            sketch.add(rng.getrandbits(32), float(rng.randrange(1, 9)))
        cells = array("d", sketch.cells)
        for __ in range(24):  # until every cell has decayed to zero
            fill = loop_halve(cells)
            sketch.halve()
            assert (bytes(sketch.cells), sketch.fill) == (bytes(cells), fill)
        assert sketch.fill == 0

    def test_sparse_roundtrip(self):
        sketch = CountMinSketch(128, 3, seed=5)
        for key in range(50):
            sketch.add(key * 3, float(key + 1))
        clone = CountMinSketch(128, 3, seed=5)
        clone.load_sparse(sketch.sparse_cells())
        assert list(clone.cells) == list(sketch.cells)
        assert clone.fill == sketch.fill

    def test_load_sparse_rejects_out_of_range(self):
        sketch = CountMinSketch(64, 1, seed=1)
        with pytest.raises(StateCodecError, match="out of range"):
            sketch.load_sparse([(10_000, 1.0)])

    def test_load_sparse_refuses_a_cell_below_half(self):
        """The lazy cells read a true value below 0.5 as one a halving
        zeroed, and ``halve`` never leaves one for the encoder to write."""
        sketch = CountMinSketch(64, 1, seed=1)
        with pytest.raises(StateCodecError, match="sketch cell 3 holds 0.25"):
            sketch.load_sparse([(2, 1.0), (3, 0.25)])

    @pytest.mark.parametrize(
        "weight", [-1.0, float("nan"), float("inf"), 0.25],
        ids=["negative", "nan", "inf", "below-half"],
    )
    def test_add_refuses_a_weight_outside_the_cell_invariant(self, weight):
        """Every nonzero cell stays >= 0.5: a negative, non-finite or
        (0, 0.5) weight is a ``ValueError`` before any cell moves."""
        sketch = CountMinSketch(64, 2, seed=3)
        sketch.add(1, 4.0)
        before = (bytes(sketch.cells), sketch.fill)
        with pytest.raises(ValueError, match="not 0 or a finite value >= 0.5"):
            sketch.add(1, weight)
        assert (bytes(sketch.cells), sketch.fill) == before

    @pytest.mark.parametrize(
        "weight", [-1.0, float("nan"), float("inf"), 0.25],
        ids=["negative", "nan", "inf", "below-half"],
    )
    def test_add_batch_refuses_a_weight_outside_the_cell_invariant(self, weight):
        sketch = CountMinSketch(64, 2, seed=3)
        sketch.add(1, 4.0)
        before = (bytes(sketch.cells), sketch.fill)
        keys = np.array([1, 2, 3], dtype=np.uint64)
        with pytest.raises(ValueError, match="row 1: sketch weight"):
            sketch.add_batch(keys, np.array([1.0, weight, 2.0]))
        assert (bytes(sketch.cells), sketch.fill) == before

    @pytest.mark.parametrize("pairs", [
        [],
        [(0, 1.0), (5, 2.5), (255, 1e12)],
        [(256, 1.0)],
        [(1 << 100, 1.0)],
        [(-1, 1.0)],
        [(3, 1.0), (3, 2.0)],
        [(7, 1.0), (2, 1.0)],
        [(3, 0.0)],
        [(4, -1.0)],
        [(5, float("nan"))],
        [(6, float("inf"))],
        [(2, 0.25)],
        [(1, 1.0), (0, 0.25), (999, 1.0)],
        [(1, 0.25), (0, 1.0)],
        [(1, 1.0), (300, 0.0), (2, 1.0)],
    ])
    def test_codec_edge_matches_the_cell_loops(self, pairs):
        """``sparse_cells`` / ``load_sparse`` are numpy passes; the per-cell
        loops they replaced (:class:`EagerSketch`) are the reference: the
        same pairs, and the same typed error naming the first bad pair,
        raised before any cell moves."""
        ours = CountMinSketch(64, 4, seed=1)
        ours.add(9, 3.0)
        loops = EagerSketch(64, 4, seed=1)
        try:
            loops.load_sparse(pairs)
        except StateCodecError as refusal:
            before = (bytes(ours.cells), ours.fill)
            with pytest.raises(StateCodecError) as ours_refusal:
                ours.load_sparse(pairs)
            assert str(ours_refusal.value) == str(refusal)
            assert (bytes(ours.cells), ours.fill) == before
        else:
            ours.load_sparse(pairs)
            assert bytes(ours.cells) == bytes(loops.cells)
            assert ours.fill == loops.fill == len(pairs)
            assert ours.sparse_cells() == loops.sparse_cells() == pairs

    def test_zero_weight_add_fills_no_cell(self):
        sketch = CountMinSketch(64, 4, seed=1)
        assert sketch.add(5, 0.0) == 0.0
        assert sketch.fill == 0 == np.count_nonzero(sketch.cells)
        sketch.add(5, 2.0)
        sketch.add(5, 0.0)
        assert sketch.fill == 4 == np.count_nonzero(sketch.cells)


def reference_gate(config, shift, sources):
    """The gate's decisions, spelled as a per-source loop over the scalar
    sketch API: one summed add per distinct masked source, estimates read
    once the whole batch's weight is in.  Returns (sketch, promoted)."""
    sketch = CountMinSketch(config.width, config.depth, config.seed)
    weights: dict[int, float] = {}
    for src in sources:
        masked = (src >> shift) << shift
        weights[masked] = weights.get(masked, 0.0) + 1.0
    for masked, weight in weights.items():
        sketch.add(masked, weight)
    promoted = {
        masked
        for masked in weights
        if sketch.estimate(masked) >= config.promote_weight
    }
    return sketch, promoted


class TestFilterGroups:
    """Gate semantics, ported from the per-group gate onto
    ``prefilter_rows`` (the class keeps its name for test-id stability)."""

    def config(self, mode="exact", **kwargs):
        kwargs.setdefault("promote_weight", 4.0)
        return AdmissionConfig(mode=mode, **kwargs)

    def test_lossy_drops_mice_but_keeps_counts(self):
        controller = AdmissionController(self.config(mode="lossy"))
        for _ in range(3):
            assert controller.prefilter_rows(IPV4, 4, [1600]).tolist() == []
        # dropped rows are gone, their sketch counts are not: the fourth
        # observation crosses promote_weight=4.0 and is kept
        assert controller.prefilter_rows(IPV4, 4, [1600]) is None
        assert controller.sketch(IPV4).estimate(1600) == 4.0
        assert controller.take_counters() == (1, 0, 3, 1)

    def test_elephant_passes_without_sketch_update(self):
        controller = AdmissionController(self.config())
        controller.prefilter_rows(IPV4, 4, [1600], weights=[10])  # promotes
        estimate_before = controller.sketch(IPV4).estimate(1600)
        assert controller.prefilter_rows(IPV4, 4, [1600], weights=[2]) is None
        assert controller.sketch(IPV4).estimate(1600) == estimate_before

    def test_counters_drain(self):
        # admitted / held / dropped count flows, promoted counts sources
        controller = AdmissionController(self.config())
        controller.prefilter_rows(IPV4, 4, [16] + [32] * 9)
        assert controller.take_counters() == (9, 1, 0, 1)
        assert controller.take_counters() == (0, 0, 0, 0)

    def test_fill_ratio_saturation_degrades(self):
        config = AdmissionConfig(
            mode="lossy", width=4, depth=1, max_fill=0.5, promote_weight=100.0
        )
        controller = AdmissionController(config)
        for key in range(64):
            controller.prefilter_rows(IPV4, 4, [key * 16])
        assert controller.saturated
        controller.take_counters()
        # degraded to admit-everything: the row is kept and counted so
        assert controller.prefilter_rows(IPV4, 4, [999_952]) is None
        assert controller.take_counters() == (1, 0, 0, 0)

    def test_families_are_independent(self):
        controller = AdmissionController(self.config())
        controller.prefilter_rows(IPV4, 4, [1600] * 10)
        assert 1600 in controller.elephants(IPV4)
        assert 1600 not in controller.elephants(IPV6)
        assert controller.sketch(IPV6).fill == 0


class TestPrefilterRows:
    """The one gate, against a per-source reference loop."""

    def config(self, **kwargs):
        kwargs.setdefault("mode", "lossy")
        kwargs.setdefault("promote_weight", 4.0)
        return AdmissionConfig(**kwargs)

    def test_exact_keeps_every_row_and_moves_the_sketch(self):
        """Exact mode observes: same sketch, herd and promotions as lossy
        on the same rows, but no row is ever left out."""
        sources = [1600] * 5 + [3200]
        exact = AdmissionController(self.config(mode="exact"))
        lossy = AdmissionController(self.config())
        assert exact.prefilter_rows(IPV4, 4, sources) is None
        assert lossy.prefilter_rows(IPV4, 4, sources).tolist() == [0, 1, 2, 3, 4]
        assert exact.sketch(IPV4).estimate(3200) == 1.0
        assert list(exact.sketch(IPV4).cells) == list(lossy.sketch(IPV4).cells)
        assert exact.elephants(IPV4).tolist() == [1600]
        assert lossy.elephants(IPV4).tolist() == [1600]
        assert exact.take_counters() == (5, 1, 0, 1)
        assert lossy.take_counters() == (5, 0, 1, 1)

    def test_saturated_declines(self):
        controller = AdmissionController(self.config())
        controller.saturate()
        assert controller.prefilter_rows(IPV4, 4, [16, 32]) is None
        assert controller.sketch(IPV4).fill == 0
        assert controller.take_counters() == (2, 0, 0, 0)

    def test_matches_group_path_decisions_and_sketch(self):
        """Same admitted sources, promotions and sketch cells as the
        per-source reference loop — IPv4, and IPv6 at cidr_max /48."""
        v4 = [((i * 2654435761) % 1024) * 16 + (i % 16) for i in range(3000)]
        v6 = [
            (0x2001_0DB8 << 96) | (((i * 2654435761) % 1024) << 80) | (i * 7919)
            for i in range(3000)
        ]
        for version, shift, sources in ((IPV4, 4, v4), (IPV6, 80, v6)):
            config = self.config(promote_weight=3.0)  # 952 of 1024 reach it
            controller = AdmissionController(config)
            kept = controller.prefilter_rows(version, shift, column(version, sources))
            assert kept is not None
            sketch, promoted = reference_gate(config, shift, sources)
            assert 0 < len(promoted) < len({s >> shift for s in sources})

            assert list(controller.sketch(version).cells) == list(sketch.cells)
            assert controller.sketch(version).fill == sketch.fill
            # the herd holds gate keys: the masked source, or its high word
            key_shift = 64 if version == IPV6 else 0
            assert controller.elephants(version).tolist() == sorted(
                {masked >> key_shift for masked in promoted}
            )
            # exactly the rows of promoted sources are kept
            assert kept.tolist() == [
                row
                for row, src in enumerate(sources)
                if (src >> shift) << shift in promoted
            ]
            admitted, held, dropped, n_promoted = controller.take_counters()
            assert (admitted, held, dropped) == (
                len(kept), 0, len(sources) - len(kept)
            )
            assert n_promoted == len(promoted)

    def test_v6_beyond_64_bits_only_over_admits(self):
        """cidr_max_v6 = 72: the gate keys on the /64, so the sources of
        one /64 share a decision — never stricter than per-/72 gating."""
        shift = 128 - 72
        net = 0x2001_0DB8_0000_0001 << 64

        def src(slash72, host):
            return net | (slash72 << shift) | host

        heavy = [src(1, host) for host in range(6)]      # /72 #1: weight 6
        split = [src(2, 1), src(2, 2), src(3, 1), src(3, 2)]  # two /72 mice
        lone = [(0x2001_0DB8_0000_0002 << 64) | 5]       # another /64: weight 1
        sources = heavy + split + lone
        controller = AdmissionController(self.config())
        kept = controller.prefilter_rows(IPV6, shift, column(IPV6, sources))
        assert kept is not None
        # every source a per-/72 gate admits (true weight >= 4) is admitted
        assert set(range(len(heavy))) <= set(kept)
        # ...and the two weight-2 mice ride along: their /64 carries 10
        assert kept.tolist() == list(range(len(heavy) + len(split)))
        assert controller.elephants(IPV6).tolist() == [net >> 64]

    def test_elephants_skip_the_sketch(self):
        controller = AdmissionController.from_image(
            AdmissionImage(self.config(), elephants={IPV4: [1600]})
        )
        cells_before = list(controller.sketch(IPV4).cells)
        result = controller.prefilter_rows(IPV4, 4, [1600, 1601, 1602])
        assert result is None  # all three rows mask to the elephant 1600
        assert list(controller.sketch(IPV4).cells) == cells_before

    def test_promotion_within_batch(self):
        controller = AdmissionController(self.config())
        kept = controller.prefilter_rows(IPV4, 4, [1600] * 5 + [3200])
        # 1600 accumulates weight 5 >= 4 and promotes; 3200 stays a mouse
        assert kept.tolist() == [0, 1, 2, 3, 4]
        assert 1600 in controller.elephants(IPV4)
        assert 3200 not in controller.elephants(IPV4)

    def test_byte_weights(self):
        controller = AdmissionController(self.config(promote_weight=1000.0))
        kept = controller.prefilter_rows(
            IPV4, 4, [1600, 3200], weights=[1500, 10]
        )
        assert kept.tolist() == [0]
        assert 1600 in controller.elephants(IPV4)


class EagerSketch:
    """The sketch as it was before its aging went lazy, kept as the
    reference: true-valued dense cells, ``halve`` over every cell,
    ``fill`` recounted with ``count_nonzero`` after every mutation, and
    the per-cell loops of the codec edge (``sparse_cells`` /
    ``load_sparse``).  Hashing is the sketch's own seeded rows."""

    def __init__(self, width, depth, seed):
        shape = CountMinSketch(width, depth, seed)
        self.width, self.depth, self._salts = shape.width, depth, shape._salts
        self.clear()

    def clear(self):
        self.cells = array("d", bytes(8 * self.width * self.depth))
        self.fill = 0

    @property
    def fill_ratio(self):
        return self.fill / (self.width * self.depth)

    def recount(self):
        self.fill = int(np.count_nonzero(self.cells))

    def indices(self, key):
        return [
            row * self.width + (splitmix64((key & MASK64) ^ (key >> 64) ^ salt) & (self.width - 1))
            for row, salt in enumerate(self._salts)
        ]

    def add(self, key, weight):
        for index in self.indices(key):
            self.cells[index] += weight
        self.recount()
        return self.estimate(key)

    def estimate(self, key):
        return min(self.cells[index] for index in self.indices(key))

    def add_batch(self, keys, weights):
        """Dense rows over the whole sketch; the estimates after the batch."""
        width = self.width
        cells = np.frombuffer(self.cells, dtype=np.float64)
        estimate = np.full(len(keys), np.inf)
        for row, salt in enumerate(self._salts):
            indices = (
                splitmix64_array(keys ^ np.uint64(salt)) & np.uint64(width - 1)
            ).astype(np.intp)
            row_cells = cells[row * width:(row + 1) * width]
            row_cells += np.bincount(indices, weights=weights, minlength=width)
            estimate = np.minimum(estimate, row_cells[indices])
        self.recount()
        return estimate

    def halve(self):
        cells = np.frombuffer(self.cells, dtype=np.float64)
        cells *= 0.5
        cells[cells < 0.5] = 0.0
        self.recount()

    def sparse_cells(self):
        return [
            (index, value)
            for index, value in enumerate(self.cells)
            if value != 0.0
        ]

    def load_sparse(self, pairs):
        self.clear()
        cells = self.cells
        size = len(cells)
        previous = -1
        for index, value in pairs:
            if not 0 <= index < size:
                raise StateCodecError(
                    f"sketch cell index {index} out of range (size {size})"
                )
            if index <= previous:
                raise StateCodecError(f"sketch cell index {index} out of order")
            if not 0.5 <= value < math.inf:
                raise StateCodecError(f"sketch cell {index} holds {value!r}")
            cells[index] = value
            previous = index
        self.fill = len(pairs)


class DenseGate:
    """The gate as it was before its sketch update went sparse, kept as
    the reference: per hash row one dense ``bincount(minlength=width)``
    added to the whole row, ``fill`` recounted with ``count_nonzero``
    over every cell (:class:`EagerSketch`), the herd a set checked with
    ``np.isin``."""

    def __init__(self, config):
        self.config = config
        self.sketches = {}
        self.herds = {}
        self.counters = [0, 0, 0, 0]  # admitted, held, dropped, promoted

    def sketch(self, version):
        config = self.config
        if version not in self.sketches:
            self.sketches[version] = EagerSketch(
                config.width, config.depth, config.seed
            )
        return self.sketches[version]

    def saturated(self):
        return any(
            sketch.fill_ratio > self.config.max_fill
            for sketch in self.sketches.values()
        )

    def prefilter_rows(self, version, shift, sources, weights=None):
        sources = np.asarray(sources, dtype=np.uint64)
        total = len(sources)
        if self.saturated():
            self.counters[0] += total
            return None
        if version == IPV6:
            sources = sources[:, 0]
            shift = max(shift - 64, 0)
        masked = (sources >> np.uint64(shift)) << np.uint64(shift)
        herd = self.herds.setdefault(version, set())
        elephant = np.isin(masked, np.array(sorted(herd), dtype=np.uint64))
        mice_rows = np.flatnonzero(~elephant)
        if herd and mice_rows.size == 0:
            self.counters[0] += total
            return None
        folded = None if weights is None else np.asarray(weights, np.float64)
        sketch = self.sketch(version)
        estimate = sketch.add_batch(
            masked[mice_rows],
            None if folded is None else folded[mice_rows],
        )
        if sketch.fill_ratio > self.config.max_fill:
            self.counters[0] += total
            return None
        promoted = estimate >= self.config.promote_weight
        new_keys = set(masked[mice_rows][promoted].tolist())
        herd |= new_keys
        self.counters[3] += len(new_keys)
        keep = elephant.copy()
        keep[mice_rows[promoted]] = True
        kept = int(np.count_nonzero(keep))
        self.counters[0] += kept
        if self.config.mode == "exact":
            self.counters[1] += total - kept
            return None
        self.counters[2] += total - kept
        return None if kept == total else np.flatnonzero(keep)


def gate_batches():
    """Batches of ``(rows, byte weights?, weights, halve first?)`` over a
    pool of eight keys per family, so sources repeat, collide, promote
    and come back as herd hits; rows differ below the gate mask."""
    v4 = st.tuples(st.integers(0, 7), st.integers(0, 15)).map(
        lambda pair: (IPV4, (pair[0] << 20 | 1 << 30) << 4 | pair[1])
    )
    v6 = st.tuples(st.integers(0, 7), st.integers(0, 1 << 70)).map(
        lambda pair: (IPV6, (0x2001_0DB8 + pair[0]) << 96 | pair[1])
    )
    row = st.one_of(v4, v6)
    batch = st.tuples(
        st.lists(row, max_size=24),
        st.booleans(),  # byte weights, zeros included, or flow counts
        st.lists(st.integers(0, 3), min_size=24, max_size=24),
        st.booleans(),  # halve both sketches before this batch
    )
    return st.lists(batch, min_size=1, max_size=12)


def gate_config():
    return st.builds(
        AdmissionConfig,
        mode=st.sampled_from(ADMISSION_MODES),
        promote_weight=st.sampled_from([1.0, 3.0, 6.0]),
        width=st.sampled_from([4, 16, 1 << 10]),
        depth=st.integers(1, 4),
        seed=st.integers(0, 1 << 16),
        max_fill=st.sampled_from([0.5, 0.9, 1.0]),
    )


def assert_gates_agree(controller, reference):
    for version in (IPV4, IPV6):
        ours, theirs = controller.sketch(version), reference.sketch(version)
        assert bytes(ours.cells) == bytes(theirs.cells)
        assert ours.fill == theirs.fill == np.count_nonzero(ours.cells)
        assert controller.elephants(version).tolist() == sorted(
            reference.herds.get(version, ())
        )
    assert controller.saturated == reference.saturated()


def replay_gates(config, batches):
    """Feed both gates the same batches; returns (controller, reference,
    what happened) after asserting they agreed at every step."""
    controller = AdmissionController(config)
    reference = DenseGate(config)
    seen = set()
    for rows, byte_weights, weight_pool, halve in batches:
        if halve:
            for version in (IPV4, IPV6):
                controller.sketch(version).halve()
                reference.sketch(version).halve()
        for version, shift in ((IPV4, 4), (IPV6, 80)):
            sources = [src for family, src in rows if family == version]
            if version == IPV6:
                sources = [[src >> 64, src & (1 << 64) - 1] for src in sources]
            column = np.array(sources, dtype=np.uint64).reshape(
                -1, 2 if version == IPV6 else 1
            )
            if version == IPV4:
                column = column[:, 0]
            weights = (
                np.array(weight_pool[:len(sources)], dtype=np.int64)
                if byte_weights
                else None
            )
            herd_before = controller.elephants(version).size
            was_saturated = controller.saturated
            kept = controller.prefilter_rows(version, shift, column, weights)
            expected = reference.prefilter_rows(version, shift, column, weights)
            assert (kept is None) == (expected is None)
            if kept is not None:
                assert kept.tolist() == expected.tolist()
            assert controller.take_counters() == tuple(reference.counters)
            reference.counters = [0, 0, 0, 0]
            assert_gates_agree(controller, reference)
            if herd_before and len(sources):
                seen.add("herd")
            if controller.elephants(version).size > herd_before:
                seen.add("promotion")
            if controller.saturated and not was_saturated:
                seen.add("saturation")
            if weights is not None and 0 in weights.tolist():
                seen.add("zero weight")
    return seen


class TestSparseUpdateMatchesDense:
    """The sparse batch update decides exactly like the dense one."""

    @settings(max_examples=150)
    @given(config=gate_config(), batches=gate_batches())
    def test_property_gate_matches_dense_reference(self, config, batches):
        replay_gates(config, batches)

    def test_every_corner_is_reached(self):
        """One fixed sequence covers repeated sources, zero byte weights,
        IPv6 keys, herd hits, a promotion inside a batch and a crossing
        into saturation."""
        config = AdmissionConfig(
            mode="lossy", width=16, depth=2, max_fill=0.5, promote_weight=3.0
        )
        v6 = (0x2001_0DB8 << 96) | 5
        counts = [0] * 24
        first = [(IPV4, 1600)] * 4 + [(IPV6, v6)] * 3 + [(IPV4, 3200)]
        again = [(IPV4, 1600), (IPV4, 3200), (IPV6, v6)]
        batches = [
            (first, False, counts, False),
            (again, True, [0, 0, 2] + counts, True),
        ] + [([(IPV4, (key + 10) << 4)], False, counts, False) for key in range(24)]
        seen = replay_gates(config, batches)
        assert seen == {"herd", "promotion", "saturation", "zero weight"}

    @settings(max_examples=100)
    @given(
        width=st.sampled_from([1, 8, 64]),
        depth=st.integers(1, 3),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "batch", "halve", "reload"]),
                st.lists(st.integers(0, 40), max_size=12),
                st.lists(st.integers(0, 3), min_size=12, max_size=12),
            ),
            max_size=20,
        ),
    )
    def test_property_fill_is_the_nonzero_count(self, width, depth, ops):
        """After every mutation ``fill`` equals the nonzero cells, and the
        batch update's cells and estimates equal the dense rows'."""
        sketch = CountMinSketch(width, depth, seed=7)
        dense = EagerSketch(width, depth, seed=7)
        for op, keys, weights in ops:
            weights = np.array(weights[:len(keys)], dtype=np.float64)
            if op == "add":
                for key, weight in zip(keys, weights.tolist()):
                    sketch.add(key, weight)
                    dense.add(key, weight)
            elif op == "batch":
                column = np.array(keys, dtype=np.uint64)
                got = sketch.add_batch(column, weights)
                expected = dense.add_batch(column, weights)
                assert got.tolist() == expected.tolist()
            elif op == "halve":
                sketch.halve()
                dense.halve()
            else:
                sketch.load_sparse(sketch.sparse_cells())
            assert bytes(sketch.cells) == bytes(dense.cells)
            assert sketch.fill == np.count_nonzero(sketch.cells) == dense.fill


def sketch_ops():
    """Sketch operations: scalar and batch adds (flow counts, fractional
    counts >= 0.5 and byte counts up to 2^40), runs of 1-70 halvings (so
    the stored cells are rescaled with live cells in them), trace-time
    jumps of one to 70 boundaries (>= 53 clears), clear, and a reload
    through the wire section."""
    weight = st.one_of(
        st.integers(0, 3),
        st.sampled_from([0.5, 0.75, 1.5, 2.25]),
        st.integers(1, 1 << 40),
    ).map(float)
    keys = st.lists(st.integers(0, 40), max_size=12)
    weights = st.lists(weight, min_size=12, max_size=12)
    add = st.tuples(st.sampled_from(["add", "batch"]), keys, weights)
    return st.lists(
        st.one_of(
            add,
            add,  # twice as likely: adds land on live and on dead cells
            st.tuples(st.just("halve"), st.one_of(st.integers(1, 3), st.integers(1, 70))),
            st.tuples(st.just("age"), st.sampled_from([1, 2, 5, 52, 53, 70])),
            st.tuples(st.sampled_from(["clear", "reload"])),
        ),
        max_size=30,
    )


def replay_sketch_ops(width, depth, ops):
    """Run *ops* on a controller's sketch and on :class:`EagerSketch`,
    asserting after every one: bit-identical cells, exact ``fill``, equal
    estimates and equal sparse pairs.  Returns the lazy sketch."""
    controller = AdmissionController(AdmissionConfig(
        mode="lossy", width=width, depth=depth, seed=7, age_seconds=1.0
    ))
    controller.age_to(0.0)
    now = 0
    eager = EagerSketch(width, depth, seed=7)
    for op, *args in ops:
        lazy = controller.sketch(IPV4)
        if op in ("add", "batch"):
            keys, weights = args[0], args[1][:len(args[0])]
            if op == "add":
                for key, weight in zip(keys, weights):
                    assert lazy.add(key, weight) == eager.add(key, weight)
            else:
                column, weights = np.array(keys, np.uint64), np.array(weights)
                got = lazy.add_batch(column, weights)
                assert got.tolist() == eager.add_batch(column, weights).tolist()
        elif op == "halve":
            for __ in range(args[0]):
                lazy.halve()
                eager.halve()
        elif op == "age":
            now += args[0]
            assert controller.age_to(float(now)) == args[0]
            if args[0] >= 53:
                eager.clear()
            for __ in range(args[0] if args[0] < 53 else 0):
                eager.halve()
        elif op == "clear":
            lazy.clear()
            eager.clear()
        else:
            controller = AdmissionController.from_image(
                decode_admission(controller.to_bytes())
            )
            eager.load_sparse(eager.sparse_cells())
        lazy = controller.sketch(IPV4)
        assert bytes(lazy.cells) == bytes(eager.cells)
        assert lazy.fill == eager.fill
        assert [lazy.estimate(key) for key in range(41)] == [
            eager.estimate(key) for key in range(41)
        ]
        assert lazy.sparse_cells() == eager.sparse_cells()
    return controller.sketch(IPV4)


class TestLazyAgingMatchesEager:
    """``halve`` steps a power-of-two scale (and rescales the stored cells
    every ``_RESCALE_EVERY`` halvings); :class:`EagerSketch` halves every
    cell.  They must agree bit for bit after every operation."""

    @settings(max_examples=150, deadline=None)
    @given(
        width=st.sampled_from([1, 8, 64]),
        depth=st.integers(1, 3),
        ops=sketch_ops(),
    )
    def test_property_lazy_aging_equals_eager(self, width, depth, ops):
        replay_sketch_ops(width, depth, ops)

    def test_live_cells_cross_the_rescale(self):
        """A 2^40 count added after 30 halvings is still live at the
        ``_RESCALE_EVERY``-th, where the stored cells are rescaled, and
        halves exactly until the 42nd halving after it came in zeroes it."""
        after_add = RESCALE_EVERY - 30
        ops = [("halve", 30), ("add", [1], [float(1 << 40)] * 12),
               ("halve", after_add)]
        sketch = replay_sketch_ops(8, 2, ops)
        assert sketch._scale == 0
        assert (sketch.estimate(1), sketch.fill) == (2.0 ** (40 - after_add), 2)
        ops.append(("halve", 41 - after_add))
        assert replay_sketch_ops(8, 2, ops).estimate(1) == 0.5
        ops.append(("halve", 1))
        sketch = replay_sketch_ops(8, 2, ops)
        assert (sketch.estimate(1), sketch.fill) == (0.0, 0)

    def test_a_write_over_a_dead_cell_starts_from_zero(self):
        """A halving leaves a dead cell's stored value in place; the next
        scalar or batch add reads it as zero."""
        ops = [("add", [1], [1.0] * 12), ("halve", 2), ("add", [1], [1.0] * 12),
               ("halve", 2), ("batch", [1], [1.0] * 12)]
        sketch = replay_sketch_ops(8, 2, ops)
        assert (sketch.estimate(1), sketch.fill) == (1.0, 2)


class TestAging:
    def test_age_to_halves_per_boundary(self):
        controller = AdmissionController(
            AdmissionConfig(mode="lossy", age_seconds=60.0)
        )
        controller.sketch(IPV4).add(16, 8.0)
        assert controller.age_to(30.0) == 0  # same interval
        assert controller.age_to(150.0) == 2
        assert controller.sketch(IPV4).estimate(16) == 2.0

    def test_age_to_never_rewinds(self):
        controller = AdmissionController(
            AdmissionConfig(mode="lossy", age_seconds=60.0)
        )
        controller.sketch(IPV4).add(16, 8.0)
        controller.age_to(150.0)
        assert controller.age_to(30.0) == 0
        assert controller.sketch(IPV4).estimate(16) == 8.0
        # back at the boundary it already passed: no boundary is new
        assert controller.age_to(150.0) == 0
        assert controller.sketch(IPV4).estimate(16) == 8.0

    def test_long_idle_clears_outright(self):
        controller = AdmissionController(
            AdmissionConfig(mode="lossy", age_seconds=1.0)
        )
        controller.age_to(0.0)
        controller.sketch(IPV4).add(16, 1e9)
        assert controller.age_to(100.0) == 100
        assert controller.sketch(IPV4).estimate(16) == 0.0


def raw_section(version=CODEC_VERSION, width=1 << 14, tail=b""):
    """A hand-written admission section: header, config, no state."""
    writer = Writer()
    writer.raw(b"IPDA")
    writer.byte(0x41)
    writer.byte(version)
    writer.byte(0)  # flags: exact, not saturated
    writer.float(4.0)
    writer.uvarint(width)
    writer.uvarint(4)
    writer.uvarint(0x1905)
    writer.float(120.0)
    writer.float(0.9)
    writer.byte(0)  # no age boundary
    writer.uvarint(0)  # sketches
    writer.uvarint(0)  # elephants
    return bytes(writer.buffer) + tail


class TestCodec:
    def build_controller(self):
        controller = AdmissionController(
            AdmissionConfig(mode="exact", promote_weight=4.0, seed=99)
        )
        controller.prefilter_rows(IPV4, 4, [1600] * 10)  # elephant
        controller.prefilter_rows(IPV4, 4, [3200])  # mouse: sketch only
        controller.prefilter_rows(IPV6, 80, column(IPV6, [7 << 80] * 5 + [9 << 80]))
        controller.age_to(100.0)
        return controller

    def test_image_roundtrip(self):
        controller = self.build_controller()
        image = controller.to_image()
        decoded = decode_admission(encode_admission(image))
        assert decoded == image
        restored = AdmissionController.from_image(decoded)
        assert restored.config == controller.config
        for version in (IPV4, IPV6):
            assert (
                restored.elephants(version).tolist()
                == controller.elephants(version).tolist()
            )
            assert (
                list(restored.sketch(version).cells)
                == list(controller.sketch(version).cells)
            )
            assert restored.sketch(version).fill == controller.sketch(version).fill
        assert restored.elephants(IPV6).tolist() == [7 << 16]
        assert restored._age_boundary == controller._age_boundary

    def test_handwritten_section_decodes(self):
        image = decode_admission(raw_section())
        assert image.config == AdmissionConfig(mode="exact")
        assert (image.sketches, image.elephants) == ({}, {})

    @pytest.mark.parametrize("pairs, named", [
        ([(3, 1.0), (3, 0.0)], "index 3 out of order"),
        ([(7, 1.0), (2, 1.0)], "index 2 out of order"),
        ([(3, 0.0)], "cell 3 holds 0.0"),
        ([(1, 2.0), (4, -1.0)], "cell 4 holds -1.0"),
        ([(5, float("nan"))], "cell 5 holds nan"),
        ([(6, float("inf"))], "cell 6 holds inf"),
        ([(1, 2.0), (2, 0.25)], "cell 2 holds 0.25"),
    ])
    def test_restore_refuses_cells_the_encoder_never_writes(self, pairs, named):
        """Sparse cells come in index order and hold finite counts of at
        least 0.5; anything else is damage, named by its cell index."""
        writer = Writer()
        writer.byte(IPV4)
        writer.uvarint(len(pairs))
        for index, value in pairs:
            writer.uvarint(index)
            writer.float(value)
        blob = raw_section()[:-2] + b"\x01" + bytes(writer.buffer) + b"\x00"
        image = decode_admission(blob)
        assert [index for index, __ in image.sketches[IPV4]] == [
            index for index, __ in pairs
        ]
        with pytest.raises(StateCodecError, match=named):
            AdmissionController.from_image(image)

    def test_saturated_flag_survives(self):
        controller = self.build_controller()
        controller.saturate()
        restored = AdmissionController.from_image(
            decode_admission(encode_admission(controller.to_image()))
        )
        assert restored.saturated

    def test_structural_damage_fails_loudly(self):
        # bit rot in cell *values* is the checkpoint CRC's job; the
        # section codec itself must catch structural damage
        blob = bytearray(encode_admission(self.build_controller().to_image()))
        blob[5] = 0x7F  # garble the version byte
        with pytest.raises(StateCodecError):
            decode_admission(bytes(blob))

    def test_other_versions_are_refused_by_name(self):
        # a version-1 section ended in a held-groups block; no read path
        for version in (1, CODEC_VERSION + 1):
            with pytest.raises(IncompatibleStateError) as refusal:
                decode_admission(raw_section(version=version, tail=b"\x00"))
            message = str(refusal.value)
            assert f"version {version}" in message
            assert f"version {CODEC_VERSION}" in message
            assert refusal.value.offset == 6

    def test_truncation_fails_loudly(self):
        blob = encode_admission(self.build_controller().to_image())
        for cut in (3, len(blob) // 2, len(blob) - 3):
            with pytest.raises(StateCodecError) as damage:
                decode_admission(blob[:cut])
            assert damage.value.offset is not None

    def test_oversized_geometry_is_damage_not_memory_error(self):
        """A ~50-byte section declaring 2^44 columns: a typed error with
        an offset, before any cell is allocated."""
        blob = raw_section(width=1 << 44)
        assert len(blob) < 90
        with pytest.raises(StateCodecError, match="exceeds the cap") as damage:
            decode_admission(blob)
        assert not isinstance(damage.value, IncompatibleStateError)
        assert damage.value.offset is not None
        assert MAX_SKETCH_CELLS == 1 << 24

    def test_bad_magic_rejected(self):
        with pytest.raises(StateCodecError):
            decode_admission(b"NOPE" + bytes(32))


class TestSectionBytesIgnoreSetHistory:
    """Section bytes are a function of the state, not of the order the
    elephants were promoted in (the herd is one sorted array)."""

    #: gate keys at shift 4 are multiples of 16, so they all collide in
    #: a small hash table and a set's iteration order follows insertion
    KEYS = [k << 4 for k in range(1, 40)]

    def promoted(self, keys):
        controller = AdmissionController(AdmissionConfig(mode="exact", seed=3))
        for key in keys:
            controller.prefilter_rows(IPV4, 4, [key] * 10)
        # one promotion per batch, in the order of *keys*
        assert controller.take_counters()[3] == len(keys)
        assert controller.elephants(IPV4).tolist() == sorted(keys)
        return controller

    def test_promotion_order_does_not_reach_the_wire(self):
        forward = self.promoted(self.KEYS)
        backward = self.promoted(self.KEYS[::-1])
        assert forward.to_bytes() == backward.to_bytes()
