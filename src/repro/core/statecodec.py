"""Versioned wire codec for externalized engine state.

Everything an :class:`~repro.core.algorithm.IPD` engine knows — trie
topology, per-range observation state, parameters, counters, and the
dirty flags the incremental sweep machinery depends on — round-trips
through this module.  No sweep input lives outside the blob: a sweep
visits the dirty leaves, the leaves its expiry takes a source from
(read off the encoded ``oldest_seen`` and ``last_seen``) and the
classified leaves.  The same encoding serves two jobs:

* **Checkpoints** — :mod:`repro.runtime.checkpoint` persists a whole
  engine as one blob and restores it after a restart or worker crash.
* **Shard handoff** — the sharded runtime moves depth-``k`` subtrees
  between the aggregator and shard engines as encoded subtree blobs
  (the generalization of the old in-memory ``seed`` op).

An engine blob is always the *merged* single-engine image, so it holds
no delegated node: that tag belongs to subtree blobs alone (a shard's
inactive root), and an engine blob carrying it is a
:class:`StateCodecError` with its offset.  A sharded run's checkpoint
therefore restores as one plain engine.

Format
------

Compact binary on :mod:`repro.core.framing` (header, primitives, the
one version rule, the error taxonomy)::

    magic "IPDS" | u8 blob kind (E=engine, T=subtree) | u16 codec version
    ... kind-specific payload ...

Floats travel as their 8 bytes and dicts in insertion order — the
engine's float sums are insertion-order dependent, and the codec
preserves both.  Trie nodes are encoded preorder with a tag byte
carrying the node kind and the leaf's dirty flag, read from and written
to the leaf table's ``dirty`` column; the tree is a table of its leaves,
so the internal nodes of that stream are derived from its rows, and
planting turns one row into the image's leaves at once.  The decoder
knows each node's prefix, and each of these is a
:class:`StateCodecError`: an internal node at a host route, a source
outside its leaf or repeated in it, an ingress repeated in one weight
list, and a figure no engine writes — a NaN or infinite time, a NaN,
infinite or negative weight or total, a NaN or ``-inf`` ``oldest_seen``,
and an ``oldest_seen`` above a source's ``seen`` or finite on a leaf with
none (it is ``inf`` exactly when the leaf is empty, else a lower bound).

Layering: this module deliberately does not import the engine.  It
converts between trees and neutral *images* (:class:`NodeImage` /
:class:`TreeImage` / :class:`EngineImage`); :meth:`IPD.from_image`
lives in :mod:`repro.core.algorithm` on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from ..topology.elements import IngressPoint
from .framing import IncompatibleStateError, Reader, StateCodecError, Writer
from .framing import damage_reported, read_header, write_header
from .iputil import Prefix
from .params import IPDParams, default_decay
from .rangetree import CLASSIFIED, UNCLASSIFIED, RangeTree
from .state import ClassifiedState, DelegatedState, UnclassifiedState, ingress_points

__all__ = [
    "CODEC_VERSION",
    "StateCodecError",
    "IncompatibleStateError",
    "NodeImage",
    "TreeImage",
    "SubtreeImage",
    "EngineImage",
    "subtree_to_image",
    "tree_to_image",
    "engine_to_image",
    "plant_image",
    "restore_tree",
    "encode_engine",
    "decode_engine",
    "decode_engine_span",
    "encode_subtree",
    "decode_subtree",
]

#: bump when the wire format changes; decoders read this version only
CODEC_VERSION = 2

_MAGIC = b"IPDS"
_KIND_ENGINE = 0x45  # 'E'
_KIND_SUBTREE = 0x54  # 'T'

_TAG_INTERNAL = 0
_TAG_UNCLASSIFIED = 1
_TAG_CLASSIFIED = 2
_TAG_DELEGATED = 3
_TAG_DIRTY = 0x10

_FLAG_COUNT_BYTES = 1
_FLAG_ENABLE_BUNDLES = 2
_FLAG_DEFAULT_DECAY = 4

_INF = float("inf")


# ---------------------------------------------------------------------------
# neutral images
# ---------------------------------------------------------------------------


@dataclass
class NodeImage:
    """One trie node, detached from any tree (picklable, codec-neutral).

    ``kind`` is ``"internal"``, ``"unclassified"``, ``"classified"`` or
    ``"delegated"``; only the fields of the matching kind are meaningful.
    ``sources`` keeps the unclassified per-IP maps as ordered item lists
    because the engine's float sums depend on dict insertion order.
    """

    kind: str
    dirty: bool = False
    left: Optional["NodeImage"] = None
    right: Optional["NodeImage"] = None
    #: unclassified: [(masked_ip, last_seen, [(ingress, weight), ...]), ...]
    sources: Optional[list] = None
    total: float = 0.0
    oldest_seen: float = _INF
    #: classified payload
    ingress: Optional[IngressPoint] = None
    counters: Optional[list] = None
    last_seen: float = 0.0
    classified_at: float = 0.0


@dataclass
class TreeImage:
    """One address family's full trie plus its per-tree counters."""

    version: int
    root_prefix: Prefix
    split_count: int
    join_count: int
    root: NodeImage


@dataclass
class SubtreeImage:
    """A detached subtree, as moved between engines by seed/export ops."""

    prefix: Prefix
    version: int
    split_count: int
    join_count: int
    root: NodeImage


@dataclass
class EngineImage:
    """A whole engine: params, engine counters and every family tree."""

    params: IPDParams
    flows_ingested: int
    bytes_ingested: int
    last_sweep_at: Optional[float]
    trees: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# tree -> image
# ---------------------------------------------------------------------------


def subtree_to_image(
    tree: RangeTree,
    prefix: Prefix,
    grafts: Optional[dict] = None,
) -> NodeImage:
    """Convert the leaves under *prefix* into one detached node image.

    The nesting is derived from the address-ordered rows of the leaf
    table: a range whose first leaf is longer than it is internal, with
    its halves imaged in turn; each leaf's dirty tag is its ``dirty``
    flag.  *grafts* maps a :class:`Prefix` to a replacement
    :class:`NodeImage`: a delegated leaf at such a prefix is replaced by
    the graft, which is how the sharded coordinator splices shard exports
    into its portals to produce the merged single-engine-equivalent image.
    """
    rows = tree.rows_under(prefix)
    masklens, kinds = tree.masklens[rows].tolist(), tree.kinds[rows].tolist()
    dirty = tree.dirty[rows].tolist()
    totals, oldest = tree.totals[rows].tolist(), tree.oldest[rows].tolist()
    last_seen, classified_at = tree.last_seen[rows].tolist(), tree.classified_at[rows].tolist()
    # every unclassified leaf's rows, and every classified leaf's counters,
    # read in one pass over each table
    opened = (tree.kinds[rows] == UNCLASSIFIED).nonzero()[0]
    sources = dict(zip(opened.tolist(), tree.table.sources(tree.spans(opened + rows.start))))
    closed = (tree.kinds[rows] == CLASSIFIED).nonzero()[0] + rows.start
    counters = dict(zip(
        (closed - rows.start).tolist(),
        zip(ingress_points(tree.winners[closed]), tree.counters.items(tree.starts[closed])),
    ))
    at = 0

    def convert(masklen: int) -> NodeImage:
        nonlocal at
        if masklens[at] > masklen:
            return NodeImage(kind="internal", left=convert(masklen + 1), right=convert(masklen + 1))
        row, at = at, at + 1
        if kinds[row] == UNCLASSIFIED:
            return NodeImage("unclassified", dirty[row], sources=sources[row],
                             total=totals[row], oldest_seen=oldest[row])
        if kinds[row] == CLASSIFIED:
            ingress, items = counters[row]
            return NodeImage(
                kind="classified",
                dirty=dirty[row],
                ingress=ingress,
                counters=items,
                last_seen=last_seen[row],
                classified_at=classified_at[row],
            )
        leaf = tree.prefixes([rows.start + row])[0]
        if grafts is not None and leaf in grafts:
            return grafts[leaf]
        return NodeImage(kind="delegated")

    return convert(prefix.masklen)


def tree_to_image(tree: RangeTree, grafts: Optional[dict] = None) -> TreeImage:
    """Image a whole family tree including its split/join counters."""
    return TreeImage(
        version=tree.version,
        root_prefix=tree.root_prefix,
        split_count=tree.split_count,
        join_count=tree.join_count,
        root=subtree_to_image(tree, tree.root_prefix, grafts),
    )


def engine_to_image(engine: object) -> EngineImage:
    """Image a plain engine (anything with ``trees`` and the counters)."""
    return EngineImage(
        params=engine.params,
        flows_ingested=engine.flows_ingested,
        bytes_ingested=engine.bytes_ingested,
        last_sweep_at=engine.last_sweep_at,
        trees={
            version: tree_to_image(tree)
            for version, tree in engine.trees.items()
        },
    )


# ---------------------------------------------------------------------------
# image -> tree (planting)
# ---------------------------------------------------------------------------


def _state_from_image(
    image: NodeImage,
) -> "UnclassifiedState | ClassifiedState | DelegatedState":
    if image.kind == "unclassified":
        # the stored total, not a recomputed sum: it must restore bit-exactly
        return UnclassifiedState(total=image.total, oldest_seen=image.oldest_seen)
    if image.kind == "classified":
        return ClassifiedState(
            ingress=image.ingress,
            counters=dict(image.counters),
            last_seen=image.last_seen,
            classified_at=image.classified_at,
        )
    if image.kind == "delegated":
        return DelegatedState()
    raise StateCodecError(f"cannot plant node kind {image.kind!r}")


def plant_image(tree: RangeTree, prefix: Prefix, image: NodeImage) -> None:
    """Materialize *image* at the leaf at *prefix* of *tree*.

    The leaf's row is replaced by the image's leaves at once
    (:meth:`RangeTree.plant`: no split-count side effects); sources join
    the cell table in one merge, in image order.  The per-leaf dirty flags
    recorded in the image are then written to the ``dirty`` column — a
    restored engine's next sweep visits precisely the leaves the original
    engine's next sweep would have.
    """
    leaves: list[tuple[Prefix, NodeImage]] = []

    def flatten(at: Prefix, img: NodeImage) -> None:
        if img.kind == "internal":
            left, right = at.children()
            flatten(left, img.left)
            flatten(right, img.right)
        else:
            leaves.append((at, img))

    flatten(prefix, image)
    first = tree.plant(prefix, [(at, _state_from_image(img)) for at, img in leaves])
    tree.dirty[first:first + len(leaves)] = [img.dirty for __, img in leaves]
    sources = [source for __, img in leaves if img.kind == "unclassified" for source in img.sources]
    if sources:
        tree.table.plant(sources)


def restore_tree(tree: RangeTree, image: TreeImage) -> None:
    """Rebuild a (fresh) family tree from its image, counters included."""
    if tree.root_prefix != image.root_prefix:
        raise StateCodecError(
            f"tree rooted at {tree.root_prefix} cannot restore an image "
            f"rooted at {image.root_prefix}"
        )
    if len(tree.starts) != 1:
        raise StateCodecError("can only restore into an unsplit tree")
    plant_image(tree, tree.root_prefix, image.root)
    tree.split_count = image.split_count
    tree.join_count = image.join_count


# ---------------------------------------------------------------------------
# node stream
# ---------------------------------------------------------------------------

_KIND_TO_TAG = {
    "internal": _TAG_INTERNAL,
    "unclassified": _TAG_UNCLASSIFIED,
    "classified": _TAG_CLASSIFIED,
    "delegated": _TAG_DELEGATED,
}
_TAG_TO_KIND = {tag: kind for kind, tag in _KIND_TO_TAG.items()}


def _write_node(writer: Writer, image: NodeImage) -> None:
    tag = _KIND_TO_TAG.get(image.kind)
    if tag is None:
        raise StateCodecError(f"unknown node kind {image.kind!r}")
    writer.byte(tag | (_TAG_DIRTY if image.dirty else 0))
    if image.kind == "internal":
        _write_node(writer, image.left)
        _write_node(writer, image.right)
    elif image.kind == "unclassified":
        writer.float(image.total)
        writer.float(image.oldest_seen)
        writer.uvarint(len(image.sources))
        for masked_ip, seen, by_ingress in image.sources:
            writer.uvarint(masked_ip)
            writer.float(seen)
            writer.uvarint(len(by_ingress))
            for ingress, weight in by_ingress:
                writer.ingress(ingress)
                writer.float(weight)
    elif image.kind == "classified":
        writer.ingress(image.ingress)
        writer.float(image.last_seen)
        writer.float(image.classified_at)
        writer.uvarint(len(image.counters))
        for ingress, weight in image.counters:
            writer.ingress(ingress)
            writer.float(weight)
    # delegated: tag only


def _read_node(reader: Reader, prefix: Prefix, delegated: bool) -> NodeImage:
    """Read the node at *prefix*: an internal node has two halves (so the
    recursion is as deep as the address is wide), a source lies inside its
    leaf and appears once, no ingress repeats in one weight list, every
    figure is one an engine can write (:func:`_check`), and a delegated
    node appears only where *delegated* allows it (a subtree blob)."""
    tag = reader.byte()
    dirty = bool(tag & _TAG_DIRTY)
    kind = _TAG_TO_KIND.get(tag & 0x0F)
    if kind is None:
        raise StateCodecError(f"unknown node tag {tag:#x}")
    if kind == "internal":
        if prefix.masklen == prefix.bits:
            raise StateCodecError(f"internal node at host route {prefix}")
        left, right = prefix.children()
        return NodeImage(kind="internal", left=_read_node(reader, left, delegated),
                         right=_read_node(reader, right, delegated))
    if kind == "unclassified":
        total = reader.float()
        oldest_seen = reader.float()
        sources = []
        for __ in range(reader.uvarint()):
            masked_ip = reader.uvarint()
            seen = reader.float()
            sources.append((masked_ip, seen, _read_weights(reader, prefix)))
        ips = [masked_ip for masked_ip, __, __ in sources]
        if ips and not prefix.value <= min(ips) <= max(ips) <= prefix.last_value:
            raise StateCodecError(f"a source lies outside its leaf {prefix}")
        if len(set(ips)) < len(ips):
            raise StateCodecError(f"a source repeats in leaf {prefix}")
        _check(reader, prefix, "total", [total], negative=False)
        seens = [seen for __, seen, __ in sources]
        _check(reader, prefix, "seen", seens)
        # inf marks an empty leaf, else a lower bound on its sources' seen:
        # expiry reads only the leaves whose bound is before its cutoff
        floor = min(seens, default=_INF)
        if not (oldest_seen == floor or -_INF < oldest_seen < floor < _INF):
            raise StateCodecError(
                f"oldest_seen {oldest_seen!r} of leaf {prefix}", offset=reader.offset
            )
        _check(reader, prefix, "weight",
               [weight for *__, cells in sources for __, weight in cells], negative=False)
        return NodeImage(
            kind="unclassified",
            dirty=dirty,
            sources=sources,
            total=total,
            oldest_seen=oldest_seen,
        )
    if kind == "classified":
        ingress = reader.ingress()
        last_seen = reader.float()
        classified_at = reader.float()
        _check(reader, prefix, "time", [last_seen, classified_at])
        counters = _read_weights(reader, prefix)
        _check(reader, prefix, "weight", [weight for __, weight in counters], negative=False)
        return NodeImage(
            kind="classified",
            dirty=dirty,
            ingress=ingress,
            counters=counters,
            last_seen=last_seen,
            classified_at=classified_at,
        )
    if not delegated:
        raise StateCodecError(f"delegated node at {prefix} in an engine blob")
    return NodeImage(kind="delegated")


def _check(
    reader: Reader, prefix: Prefix, what: str, values: list[float], negative: bool = True
) -> None:
    """Reject a NaN or infinite value among *values* of the leaf at *prefix*
    (a time, say, which no sweep would ever expire or decay), and a
    negative one unless *negative*.  One C-level ``sum`` finds the common,
    all-finite case (a NaN or infinity makes it non-finite); only a
    non-finite sum scans the values."""
    if math.isfinite(sum(values)) or all(map(math.isfinite, values)):
        if negative or not values or min(values) >= 0.0:
            return
    bad = next(
        value for value in values if not math.isfinite(value) or (value < 0.0 and not negative)
    )
    raise StateCodecError(f"{what} {bad!r} in leaf {prefix}", offset=reader.offset)


def _read_weights(reader: Reader, prefix: Prefix) -> list:
    """A list of ``(ingress, weight)``, each ingress once."""
    weights = [(reader.ingress(), reader.float()) for __ in range(reader.uvarint())]
    if len(weights) > 1 and len(dict(weights)) < len(weights):
        raise StateCodecError(f"an ingress repeats in one weight list of {prefix}")
    return weights


# ---------------------------------------------------------------------------
# params
# ---------------------------------------------------------------------------


def _write_params(writer: Writer, params: IPDParams) -> None:
    writer.uvarint(params.cidr_max_v4)
    writer.uvarint(params.cidr_max_v6)
    writer.float(params.n_cidr_factor_v4)
    writer.float(params.n_cidr_factor_v6)
    writer.float(params.q)
    writer.float(params.t)
    writer.float(params.e)
    writer.float(params.drop_threshold)
    writer.float(params.bundle_min_share)
    flags = 0
    if params.count_bytes:
        flags |= _FLAG_COUNT_BYTES
    if params.enable_bundles:
        flags |= _FLAG_ENABLE_BUNDLES
    if params.decay is default_decay:
        flags |= _FLAG_DEFAULT_DECAY
    writer.byte(flags)


def _read_params(reader: Reader, override: Optional[IPDParams]) -> IPDParams:
    cidr_max_v4 = reader.uvarint()
    cidr_max_v6 = reader.uvarint()
    n_cidr_factor_v4 = reader.float()
    n_cidr_factor_v6 = reader.float()
    q = reader.float()
    t = reader.float()
    e = reader.float()
    drop_threshold = reader.float()
    bundle_min_share = reader.float()
    flags = reader.byte()
    if override is not None:
        return override
    if not flags & _FLAG_DEFAULT_DECAY:
        raise StateCodecError(
            "blob was written with a custom decay function, which is not "
            "serializable; pass params= with the matching decay on restore"
        )
    return IPDParams(
        cidr_max_v4=cidr_max_v4,
        cidr_max_v6=cidr_max_v6,
        n_cidr_factor_v4=n_cidr_factor_v4,
        n_cidr_factor_v6=n_cidr_factor_v6,
        q=q,
        t=t,
        e=e,
        drop_threshold=drop_threshold,
        bundle_min_share=bundle_min_share,
        count_bytes=bool(flags & _FLAG_COUNT_BYTES),
        enable_bundles=bool(flags & _FLAG_ENABLE_BUNDLES),
    )


# ---------------------------------------------------------------------------
# engine blobs
# ---------------------------------------------------------------------------


def encode_engine(image: EngineImage) -> bytes:
    """Serialize a whole-engine image to one versioned blob."""
    writer = Writer()
    write_header(writer, _MAGIC, CODEC_VERSION, _KIND_ENGINE)
    _write_params(writer, image.params)
    writer.uvarint(image.flows_ingested)
    writer.uvarint(image.bytes_ingested)
    if image.last_sweep_at is None:
        writer.byte(0)
    else:
        writer.byte(1)
        writer.float(image.last_sweep_at)
    writer.uvarint(len(image.trees))
    for version in sorted(image.trees):
        tree = image.trees[version]
        writer.byte(version)
        writer.prefix(tree.root_prefix)
        writer.uvarint(tree.split_count)
        writer.uvarint(tree.join_count)
        _write_node(writer, tree.root)
    return bytes(writer.buffer)


def decode_engine(
    data: "bytes | bytearray | memoryview",
    params: Optional[IPDParams] = None,
) -> EngineImage:
    """Parse an engine blob back into an :class:`EngineImage`.

    *data* may be any byte buffer, including a memoryview slice of
    shared memory (nothing in the returned image aliases it).  *params*
    overrides the encoded parameters — required when the blob was
    written with a custom (non-serializable) decay function.

    Trailing bytes past the engine section are ignored; callers that
    need to parse what follows (e.g. an appended admission section) use
    :func:`decode_engine_span`.
    """
    image, __ = decode_engine_span(data, params=params)
    return image


def decode_engine_span(
    data: "bytes | bytearray | memoryview",
    params: Optional[IPDParams] = None,
) -> "tuple[EngineImage, int]":
    """Like :func:`decode_engine`, but also return the bytes consumed.

    The second element is the offset one past the engine section, so a
    caller can locate trailing sections appended after the engine blob.
    """
    reader = Reader(data)
    with damage_reported(reader):
        read_header(
            reader, _MAGIC, CODEC_VERSION, _KIND_ENGINE, what="IPD state blob"
        )
        decoded_params = _read_params(reader, params)
        flows_ingested = reader.uvarint()
        bytes_ingested = reader.uvarint()
        last_sweep_at = reader.float() if reader.byte() else None
        trees = {}
        for __ in range(reader.uvarint()):
            version = reader.byte()
            root_prefix = reader.prefix()
            split_count = reader.uvarint()
            join_count = reader.uvarint()
            trees[version] = TreeImage(
                version=version,
                root_prefix=root_prefix,
                split_count=split_count,
                join_count=join_count,
                root=_read_node(reader, root_prefix, delegated=False),
            )
        image = EngineImage(
            params=decoded_params,
            flows_ingested=flows_ingested,
            bytes_ingested=bytes_ingested,
            last_sweep_at=last_sweep_at,
            trees=trees,
        )
        return image, reader.offset


# ---------------------------------------------------------------------------
# subtree blobs (shard handoff / export)
# ---------------------------------------------------------------------------


def encode_subtree(
    prefix: Prefix,
    version: int,
    root: NodeImage,
    split_count: int = 0,
    join_count: int = 0,
) -> bytes:
    """Serialize one detached subtree (a seed payload or shard export)."""
    writer = Writer()
    write_header(writer, _MAGIC, CODEC_VERSION, _KIND_SUBTREE)
    writer.byte(version)
    writer.prefix(prefix)
    writer.uvarint(split_count)
    writer.uvarint(join_count)
    _write_node(writer, root)
    return bytes(writer.buffer)


def decode_subtree(data: "bytes | bytearray | memoryview") -> SubtreeImage:
    """Parse a subtree blob back into a :class:`SubtreeImage`."""
    reader = Reader(data)
    with damage_reported(reader):
        read_header(
            reader, _MAGIC, CODEC_VERSION, _KIND_SUBTREE, what="IPD state blob"
        )
        version = reader.byte()
        prefix = reader.prefix()
        split_count = reader.uvarint()
        join_count = reader.uvarint()
        return SubtreeImage(
            prefix=prefix,
            version=version,
            split_count=split_count,
            join_count=join_count,
            root=_read_node(reader, prefix, delegated=True),
        )
