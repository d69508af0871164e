"""Rooted trees with branch lengths: Newick I/O, rerooting, restriction.

A :class:`PhyloTree` is immutable after construction.  Node ids are dense
integers ``0..n_nodes-1``; the *canonical tip order* is the left-to-right
depth-first order of the tips, and every matrix or vector produced elsewhere
in the package indexes tips in that order.

Branch lengths are nonnegative real time units.  The root carries no branch
length.  Tips must be labeled; internal nodes may optionally be labeled
(labels, where present, are unique).  Zero-length edges are legal here; trees
whose covariance is singular are rejected at covariance-build time, not at
parse time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress, repeat

import numpy as np

from .errors import NewickError, TreeError

# Label characters, as a regex class: printable ASCII other than the Newick
# metacharacters "(),:;" and quotes.  Whitespace ends a label.
_LABEL_CHARS = r"!#-&*+\--9<-~"
_LABEL_BAD_RE = re.compile(f"[^{_LABEL_CHARS}]")
_LABEL_BYTES = bytes(c for c in range(128) if not _LABEL_BAD_RE.match(chr(c)))


class PhyloTree:
    """Immutable rooted tree with branch lengths.

    Construct from parallel arrays (parent id or -1, edge length, label), via
    :func:`parse_newick`, or with the builders in :mod:`treegls.simlab`.
    Construction also indexes the tree: canonical tip order, depths,
    levels, preorder, postorder and tip ranges, level by level where the
    tree's levels are wide and by ranking its Euler tour where they are
    narrow.  The children tuples, the label-to-node map and the map from
    tip label to canonical row are built on first use.
    """

    __slots__ = (
        "_parent",
        "_edge",
        "_n_children",
        "_children",
        "_names",
        "_root",
        "_tip_ids",
        "_tip_id_array",
        "_tip_labels",
        "_name_to_node",
        "_tip_to_row",
        "_depths",
        "_preorder",
        "_pre_span",
        "_postorder",
        "_tip_range",
        "_levels",
    )

    def __init__(self, parent, edge, names):
        parent = np.asarray(parent, dtype=np.int64)
        edge = np.asarray(edge, dtype=np.float64)
        n = parent.shape[0]
        if n == 0:
            raise TreeError("empty tree")
        if edge.shape != (n,) or len(names) != n:
            raise TreeError("parent, edge and names must have equal length")
        self._parent = parent
        self._edge = edge
        self._names = names = tuple(names)

        # The first offending node, in node order, decides the message.
        roots = np.flatnonzero(parent < 0)
        out_of_range = np.flatnonzero(parent >= n)
        second_root = roots[1] if roots.size > 1 else n
        if out_of_range.size and out_of_range[0] < second_root:
            raise TreeError(f"parent index {parent[out_of_range[0]]} out of range")
        if second_root < n:
            raise TreeError("more than one root")
        if not roots.size:
            raise TreeError("no root")
        self._root = root = int(roots[0])

        self._n_children = counts = np.bincount(parent[parent >= 0], minlength=n)
        is_tip = counts == 0
        self._validate(is_tip.tolist())
        pre, post, levels, size = _index(root, parent, counts)

        # In preorder, a subtree is the run of its size and holds the tips
        # counted between the run's ends.
        pre_span = np.empty((n, 2), dtype=np.int64)
        pre_span[pre, 0] = np.arange(n)
        pre_span[:, 1] = pre_span[:, 0] + size
        tip_pre = is_tip[pre]
        tip_range = np.concatenate(([0], np.cumsum(tip_pre)))[pre_span]

        self._tip_id_array = tip_array = pre[tip_pre]
        tips = tip_array.tolist()
        self._tip_ids = tuple(tips)
        self._tip_labels = tuple(map(names.__getitem__, tips))
        self._children = None
        self._name_to_node = None
        self._tip_to_row = None
        self._depths = depths = _sum_down(pre, parent, edge, levels)
        self._preorder = pre
        self._pre_span = pre_span
        self._postorder = post
        self._tip_range = tip_range
        self._levels = levels
        for arr in (parent, edge, counts, depths, pre, pre_span, post, tip_range, levels,
                    tip_array):
            arr.setflags(write=False)

    def _validate(self, is_tip):
        nonroot = np.ones(self.n_nodes, dtype=bool)
        nonroot[self._root] = False
        bad = ~np.isfinite(self._edge) | (self._edge < 0)
        bad &= nonroot
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise TreeError(
                f"negative or non-finite branch length {self._edge[i]} on node {i}"
            )
        names = self._names
        labeled = [nm is not None for nm in names]
        labels = list(compress(names, labeled))
        distinct = set(labels)
        # "!" is a label character: the joined text is bad only if a label is.
        if not (
            all(compress(labeled, is_tip))
            and len(distinct) == len(labels)
            and "" not in distinct
            and _labels_valid("!".join(labels))
        ):
            # Something is wrong: name the first offending node.
            seen = set()
            for i, nm in enumerate(names):
                if nm is None:
                    if is_tip[i]:
                        raise TreeError(f"tip node {i} lacks a label")
                else:
                    if not nm or _LABEL_BAD_RE.search(nm):
                        raise TreeError(f"invalid label {nm!r}")
                    if nm in seen:
                        raise TreeError(f"duplicate label {nm!r}")
                    seen.add(nm)
        # Every depth, and so every tip height, is at most the total length.
        with np.errstate(over="ignore"):
            total = self._edge.sum(where=nonroot)
        if not np.isfinite(total):
            raise TreeError("total branch length overflows the float range")

    # ----------------------------------------------------------------- #
    # basic accessors
    # ----------------------------------------------------------------- #

    @property
    def n_nodes(self) -> int:
        return self._parent.shape[0]

    @property
    def n_tips(self) -> int:
        return len(self._tip_ids)

    @property
    def root(self) -> int:
        return self._root

    @property
    def parent(self) -> np.ndarray:
        """Parent id per node (-1 for the root)."""
        return self._parent

    @property
    def edge_length(self) -> np.ndarray:
        """Branch length to the parent per node (0.0 stored for the root)."""
        return self._edge

    @property
    def children(self) -> tuple[tuple[int, ...], ...]:
        """Children per node in node-id order (built on first use)."""
        if self._children is None:
            self._children = _group_children(self._parent, self._n_children)
        return self._children

    @property
    def names(self) -> tuple:
        return self._names

    @property
    def tip_ids(self) -> tuple[int, ...]:
        """Tip node ids in canonical (left-to-right depth-first) order."""
        return self._tip_ids

    @property
    def tip_id_array(self) -> np.ndarray:
        """:attr:`tip_ids` as a read-only int64 array, for indexing."""
        return self._tip_id_array

    @property
    def tip_labels(self) -> tuple[str, ...]:
        return self._tip_labels

    @property
    def depths(self) -> np.ndarray:
        """Distance from the root per node."""
        return self._depths

    @property
    def tip_heights(self) -> np.ndarray:
        """Root-to-tip distances in canonical order (a fresh array)."""
        return self._depths[self._tip_id_array]

    def is_tip(self, node: int) -> bool:
        return not self._n_children[node]

    def node_id(self, node) -> int:
        """Resolve a node reference (integer id or label) to an id."""
        if isinstance(node, (int, np.integer)):
            i = int(node)
            if not 0 <= i < self.n_nodes:
                raise TreeError(f"node id {i} out of range")
            return i
        if isinstance(node, str):
            try:
                return self._labeled()[node]
            except KeyError:
                raise TreeError(f"no node labeled {node!r}") from None
        raise TreeError(f"cannot interpret node reference {node!r}")

    @property
    def preorder(self) -> np.ndarray:
        """Node ids in preorder (parents before children, siblings in id order)."""
        return self._preorder

    @property
    def postorder(self) -> np.ndarray:
        """Node ids in postorder (children before parents)."""
        return self._postorder

    @property
    def tip_range(self) -> np.ndarray:
        """Per node, the half-open range [lo, hi) of canonical tip indices below it.

        Tips of any subtree are contiguous in canonical order because that
        order is depth-first.
        """
        return self._tip_range

    @property
    def levels(self) -> np.ndarray:
        """Topological depth (edge count from the root) per node."""
        return self._levels

    def _subtree(self, node: int) -> np.ndarray:
        """The preorder run of the subtree rooted at ``node``."""
        lo, hi = self._pre_span[node]
        return self._preorder[lo:hi]

    def tips_below(self, node: int) -> tuple[str, ...]:
        """Labels of the tips in the subtree rooted at ``node``, canonical order."""
        lo, hi = self.tip_range[node]
        return self._tip_labels[lo:hi]

    def mrca(self, labels) -> int:
        """Most recent common ancestor of a nonempty set of tip labels: the
        deepest node whose preorder run holds all of them."""
        ranks = self._pre_span[self._tip_nodes(labels), 0]
        if not ranks.size:
            raise TreeError("mrca of an empty set")
        return int(self._ancestors(ranks.min(), ranks.max() + 1)[0])

    def _ancestors(self, lo, hi) -> np.ndarray:
        """The nodes whose preorder run contains ranks [lo, hi), innermost
        first; for the run of a node, that node and then its ancestors."""
        span = self._pre_span
        found = np.flatnonzero((span[:, 0] <= lo) & (span[:, 1] >= hi))
        return found[np.argsort(-span[found, 0])]

    def tip_rows(self, labels) -> np.ndarray:
        """Canonical row (tip index) of each tip label, in the order given,
        read from a map over the tips alone (built on first use); the first
        label that names no tip, an internal node's label among them, is an
        error."""
        if self._tip_to_row is None:
            self._tip_to_row = dict(zip(self._tip_labels, range(self.n_tips)))
        labels = list(labels)
        rows = np.fromiter(
            map(self._tip_to_row.get, labels, repeat(-1)), dtype=np.int64, count=len(labels)
        )
        bad = rows < 0
        if bad.any():
            raise TreeError(f"unknown tip label {labels[int(np.argmax(bad))]!r}")
        return rows

    def _tip_nodes(self, labels) -> np.ndarray:
        """Node id of each tip label, through :meth:`tip_rows`' tip map."""
        return self._tip_id_array[self.tip_rows(labels)]

    def _labeled(self) -> dict:
        """Node id per label, internal labels included (built on first use),
        for :meth:`node_id`; tip lookups use the tip map instead."""
        if self._name_to_node is None:
            self._name_to_node = {
                nm: i for i, nm in enumerate(self._names) if nm is not None
            }
        return self._name_to_node

    def __repr__(self):
        return f"PhyloTree(n_tips={self.n_tips}, n_nodes={self.n_nodes})"


def _group_children(parent, counts) -> tuple[tuple[int, ...], ...]:
    """Children per node in node-id order: a stable sort of the parent
    array, whose only negative entry (the root) sorts first."""
    kids = np.argsort(parent, kind="stable")[1:].tolist()
    ends = np.cumsum(counts).tolist()
    return tuple([tuple(kids[a:b]) for a, b in zip([0] + ends[:-1], ends)])


def _labels_valid(text: str) -> bool:
    """Whether every character of ``text`` is a label character."""
    return text.isascii() and not text.encode("ascii").translate(None, _LABEL_BYTES)


# A run takes the level-by-level pass when its levels hold this many nodes
# on average; fewer, and a numpy step per level costs more than the loop.
_LEVEL_WIDTH = 16


def _add_down(values, run, parent, levels) -> None:
    """Add each node's parent's value to its own, in place, down the preorder
    run ``run`` below ``run[0]``: ``values[u] = values[p] + values[u]`` with
    parents before children, on rows if ``values`` is 2-D.

    Where the run's levels are wide, each level is one numpy step over its
    nodes, which depend only on the level above; these are the loop's
    additions, so every bit is the same.  Where they are few nodes wide, as
    on a caterpillar, the loop runs."""
    below = run[1:]
    if not below.size:
        return
    lv = levels[below]
    top = int(levels[run[0]]) + 1
    if (int(lv.max()) - top + 1) * _LEVEL_WIDTH > below.size:
        pairs = zip(below.tolist(), parent[below].tolist())
        if values.ndim == 1:
            v = values.tolist()
            for u, p in pairs:
                v[u] = v[p] + v[u]
            values[:] = v
        else:
            for u, p in pairs:
                values[u] += values[p]
        return
    order = below[np.argsort(lv)]
    up = parent[order]
    start = 0
    for end in np.cumsum(np.bincount(lv - top)).tolist():
        values[order[start:end]] += values[up[start:end]]
        start = end


def _sum_down(run, parent, edge, levels) -> np.ndarray:
    """Per node id, its distance from ``run[0]`` summed down the preorder run
    ``run`` (0.0 off the run): each node adds its edge to its parent's sum,
    so every distance is the same left-to-right sum of its path's edges."""
    down = np.zeros(parent.shape[0])
    below = run[1:]
    down[below] = edge[below]
    _add_down(down, run, parent, levels)
    return down


# A tree is indexed level by level where that is measured to be faster than
# ranking its Euler tour: it has _INDEX_MIN_NODES nodes or more, and its
# levels hold _INDEX_WIDTH nodes or more on average.  The walk down gives up
# at the first level that rules this out: where the tree has too few nodes
# for the levels seen so far, and, so that it does not walk a caterpillar's
# or a comb's levels, from level _INDEX_GRACE on wherever the levels seen
# hold fewer than _LEVEL_WIDTH nodes on average and the newest level is less
# than twice as wide as the level _INDEX_GRACE / 2 above it.  A tree rerooted
# deep is narrow on top but widens below, so it walks on.
_INDEX_MIN_NODES = 4096
_INDEX_WIDTH = 192
_INDEX_GRACE = 16


def _index(root, parent, counts):
    """The preorder, the postorder, and each node's level and subtree size.
    Both paths read the children grouped by parent in id order: the stable
    sort of the parent array, whose one negative entry sorts first."""
    kids = np.argsort(parent, kind="stable")[1:]
    first = np.cumsum(counts)
    first -= counts
    found = _level_index(root, counts, kids, first)
    return found if found is not None else _euler_tour(root, parent, counts, kids, first)


def _level_index(root, counts, kids, first):
    """The index by one numpy step per level, or None where the tree is small
    or its levels are narrow (see _INDEX_WIDTH).

    ``order`` lists the nodes level by level, each level the concatenated
    child runs of the one above.  Up the levels, a node's size is 1 plus the
    sum of its run's sizes; down them, a child's preorder rank is its
    parent's + 1 + the sizes of its earlier siblings, and its postorder rank
    is rank + size - 1 - level.  A node the walk never reaches lies on a
    parent cycle."""
    n = counts.shape[0]
    if n < _INDEX_MIN_NODES:
        return None
    order = np.empty(n, dtype=np.int64)
    order[0] = root
    bounds = [0, 1]  # level l is order[bounds[l]:bounds[l + 1]]
    lag = _INDEX_GRACE // 2
    runs = []  # per level: its nodes' child counts and run offsets
    a, b = 0, 1
    while True:
        frontier = order[a:b]
        c = counts.take(frontier)
        ends = c.cumsum()
        total = int(ends[-1])
        if not total:
            break
        start = ends - c
        at = (first.take(frontier) - start).repeat(c)
        at += np.arange(total)
        a, b = b, b + total
        kids.take(at, out=order[a:b])
        bounds.append(b)
        runs.append((c, start, ends))
        seen = len(bounds) - 1
        if _INDEX_WIDTH * seen > n or (
            len(runs) >= _INDEX_GRACE and _LEVEL_WIDTH * seen > b
            and total < 2 * (bounds[-lag - 1] - bounds[-lag - 2])
        ):
            return None
    if b != n:
        raise TreeError("tree is not connected")

    size = np.ones(n, dtype=np.int64)  # both per position in ``order``
    rank = np.zeros(n, dtype=np.int64)
    sums = []
    for lv in range(len(runs) - 1, -1, -1):
        a, b, e = bounds[lv:lv + 3]
        c, start, ends = runs[lv]
        cs = np.zeros(e - b + 1, dtype=np.int64)
        size[b:e].cumsum(out=cs[1:])
        size[a:b] += cs.take(ends) - cs.take(start)
        sums.append(cs)
    for lv, cs in enumerate(reversed(sums)):
        a, b, e = bounds[lv:lv + 3]
        c, start, _ = runs[lv]
        np.add((rank[a:b] + 1 - cs.take(start)).repeat(c), cs[:-1], out=rank[b:e])
    depth = np.arange(len(bounds) - 1).repeat(np.diff(bounds))
    pre, post, levels, sizes = (np.empty(n, dtype=np.int64) for _ in range(4))
    pre[rank] = order
    rank += size
    rank -= depth
    rank -= 1
    post[rank] = order
    levels[order] = depth
    sizes[order] = size
    return pre, post, levels, sizes


def _euler_tour(root, parent, counts, kids, first):
    """The index by ranking an Euler tour (Tarjan & Vishkin 1985), for small
    trees and trees whose levels are narrow.

    Node u enters the tour as event u and leaves it as event n + u.  Entering
    u leads to entering its first child, or to leaving u if it is a tip;
    leaving u leads to entering its next sibling, or to leaving its parent.
    Pointer doubling (Wyllie's list ranking) gives every event its distance
    to the end of the tour in O(log n) array rounds.  In tour order, the
    entering events are the preorder, the leaving events the postorder, and
    a node's level is the number of nodes entered and not yet left.  An
    event the tour from the root never reaches belongs to a parent cycle.
    """
    n = parent.shape[0]
    events = 2 * n
    succ = np.empty(events, dtype=np.int64)
    succ[:n] = np.arange(n, events)
    inner = np.flatnonzero(counts)
    succ[inner] = kids[first[inner]]
    up = parent[kids]
    nxt = np.empty_like(kids)
    nxt[:-1] = kids[1:]
    last = np.ones(kids.shape[0], dtype=bool)
    last[:-1] = up[1:] != up[:-1]
    succ[n + kids] = np.where(last, n + up, nxt)
    succ[n + root] = n + root

    dist = np.ones(events, dtype=np.int64)
    dist[n + root] = 0
    step, spare = np.empty_like(dist), np.empty_like(succ)
    for _ in range((events - 1).bit_length()):
        # Every index is in range: "clip" only skips numpy's bounds check.
        dist += np.take(dist, succ, out=step, mode="clip")
        succ, spare = np.take(succ, succ, out=spare, mode="clip"), succ
    # The tour from the root meets every event only if no parent cycle
    # holds some of them.
    if dist[root] != events - 1:
        raise TreeError("tree is not connected")

    rank = (events - 1) - dist
    tour = np.empty(events, dtype=np.int64)
    tour[rank] = np.arange(events)
    entering = tour < n
    pre = tour[entering]
    post = tour[~entering] - n
    nesting = np.cumsum(np.where(entering, 1, -1))
    levels = nesting[rank[:n]] - 1
    size = (rank[n:] - rank[:n] + 1) // 2
    return pre, post, levels, size


@dataclass(frozen=True)
class TreeStats:
    """Structural summary used by the bound formulas.

    ``height_mean`` is the arithmetic mean of root-to-tip distances and is the
    default tree height ``T``; ``height_max`` is the alternative policy for
    non-ultrametric trees.
    """

    n_tips: int
    total_length: float
    root_degree: int
    min_root_edge: float
    tip_heights: np.ndarray
    height_mean: float
    height_max: float
    is_ultrametric: bool

    def height(self, policy: str = "mean") -> float:
        return float(_tree_height(self.tip_heights, policy))


ULTRAMETRIC_RTOL = 1e-8


def _tree_height(heights: np.ndarray, policy: str = "mean", axis=None):
    """The height T of tip heights along ``axis``: their mean, or their
    maximum under ``policy="max"``.  Finite heights whose sum overflows
    are averaged after scaling by their count; a mean that does not
    overflow is numpy's, bit for bit."""
    if policy == "max":
        return heights.max(axis=axis)
    if policy != "mean":
        raise TreeError(f"unknown height policy {policy!r}")
    with np.errstate(over="ignore"):
        mean = heights.mean(axis=axis)
    if np.isfinite(mean).all():
        return mean
    count = heights.size if axis is None else heights.shape[axis]
    return np.where(np.isfinite(mean), mean, (heights / count).sum(axis=axis))


def tree_stats(tree: PhyloTree) -> TreeStats:
    """Compute tip heights, total length, root degree and the ultrametric flag."""
    heights = tree.tip_heights
    hmax = float(heights.max())
    hmin = float(heights.min())
    spread = hmax - hmin
    ultra = spread <= ULTRAMETRIC_RTOL * max(abs(hmax), 1.0)
    root_edges = tree.edge_length[tree.parent == tree.root]
    min_root_edge = float(root_edges.min()) if root_edges.size else float("nan")
    return TreeStats(
        n_tips=tree.n_tips,
        total_length=float(tree.edge_length.sum()),
        root_degree=int(root_edges.size),
        min_root_edge=min_root_edge,
        tip_heights=heights,
        height_mean=float(_tree_height(heights)),
        height_max=hmax,
        is_ultrametric=bool(ultra),
    )


# --------------------------------------------------------------------- #
# Newick parsing and writing
# --------------------------------------------------------------------- #


def parse_newick(text: str) -> PhyloTree:
    """Parse a single rooted Newick expression.

    Branch lengths are mandatory on all non-root edges.  A branch length on
    the outermost element introduces a (possibly unary) root above it, so
    ``"A:1;"`` is the one-tip tree of height 1.  Parsing is one split of the
    text at its metacharacters and array passes over the pieces, so nesting
    depth is unlimited.  The label and length pieces are taken from the
    split list by index, with no object array beside it, and repeated length
    texts are converted once each where a sample of them shows that most
    repeat (see :func:`_newick_arrays`).  Node ids follow the order in which
    elements open; a promoted root comes last.

    Each rule is checked in one layer.  The array pass checks the text's
    shape: which pieces may stand between which delimiters, the nesting,
    and that each length piece is made of ``-+.eE0-9`` and is a number to
    ``float``.  :class:`PhyloTree` checks the label characters, that each
    tip has a nonempty label, that labels are unique and that lengths are
    finite and not negative.  For a text refused by either,
    :func:`_first_fault` names the first fault and its position; a text it
    finds no fault in raises the tree's own refusal.
    """
    arrays = _newick_arrays(text)
    refusal = None
    if arrays is not None:
        try:
            return PhyloTree(*arrays)
        except TreeError as exc:
            refusal = exc
    fault = _first_fault(text)
    if fault is None:
        raise NewickError(str(refusal)) from refusal
    message, pos = fault
    raise NewickError(f"{message} (at position {pos})", location=pos)


_DELIMS = "(),:;"
# Metacharacters all become one character that no valid text holds.
_TO_SEP = str.maketrans(dict.fromkeys(_DELIMS, "\x00"))
_LENGTH_BYTES = b"+-.0123456789Ee"  # the characters of a length piece
# Delimiter codes; _EDGE stands for the start or the end of the text.
_OPEN, _CLOSE, _COMMA, _COLON, _SEMI, _EDGE = range(6)
# The code of each byte, a bytes.translate table: a delimiter's own, _BLANK
# for a space or an ASCII control character, and _EDGE for the rest.
_BLANK = 6
_CODE = np.full(256, _EDGE, dtype=np.int8)
_CODE[:33] = _BLANK
_CODE[[ord(c) for c in _DELIMS]] = range(5)
# What the piece between two delimiters must be, by (previous, next):
# nothing, a tip label, an optional internal label or a branch length.
_BAD, _NOTHING, _TIP, _LABELED, _LENGTH_PIECE = range(5)
_KIND = np.zeros((6, 6), dtype=np.int8)
for _prev in (_OPEN, _COMMA, _EDGE):
    _KIND[_prev, _OPEN] = _NOTHING
    _KIND[_prev, _COLON] = _TIP
_KIND[_EDGE, _SEMI] = _TIP
_KIND[_CLOSE, [_COLON, _SEMI]] = _LABELED
_KIND[_COLON, [_COMMA, _CLOSE, _SEMI]] = _LENGTH_PIECE
_KIND[_SEMI, _EDGE] = _NOTHING
# The length path is chosen from the first _LENGTH_SAMPLE length texts.
_LENGTH_SAMPLE = 1024


class _Floats(dict):
    """``float`` of each text, converted on its first lookup."""

    def __missing__(self, text):
        value = self[text] = float(text)
        return value


def _read_lengths(texts):
    """``float`` of each length text as an array, or None if one is no
    number.  Where most texts of the sample repeat, as on trees built level
    by level, each distinct text is converted once, on its first lookup (a
    dict lookup is cheaper than ``float``, but filling the dict costs more
    than it saves where most lengths are distinct).  Either way each value
    is ``float``'s."""
    sample = texts[:_LENGTH_SAMPLE]
    read = float if 2 * len(set(sample)) > len(sample) else _Floats().__getitem__
    try:
        return np.fromiter(map(read, texts), dtype=np.float64, count=len(texts))
    except ValueError:
        return None


def _sort_key(level, pos, m):
    """The int64 key level * (m + 1) + pos, which orders by level and then
    by position."""
    key = level.astype(np.int64)
    key *= m + 1
    key += pos
    return key


def _newick_arrays(text: str):
    """(parent, edge, names) of a text of the right shape, or None.

    The text splits at its metacharacters into delimiters and the pieces
    between them; one table lookup per character finds the delimiters.
    Each piece must be what its two delimiters allow, the nesting of
    parentheses (a cumulative sum) must close exactly at the final ";", no
    "," may sit outside them, and each length piece must be read by
    ``float`` (so it is not empty).  Labels and the signs of lengths are not
    checked here: the names and edges hold them as written, and
    :class:`PhyloTree` refuses a bad one.  The label and length pieces are
    taken from the split list by index, and no object array is built;
    whether repeated length texts are converted once each is decided from a
    sample (see :func:`_read_lengths`).  Every open parenthesis is a node,
    and so is every tip label; numbered in text order, they are the ids in
    opening order.  The innermost open parenthesis at a position is the last
    one opened at its nesting depth, found by a binary search of the
    parentheses sorted by (depth, position).
    """
    # Blanks before the first piece and after ";" are not pieces' contents.
    text = text.strip()
    if "\x00" in text:
        return None
    # One byte per character, "?" for a non-ASCII one (a lone surrogate
    # included, which the tree's label check then refuses).
    code = np.frombuffer(text.encode("ascii", "replace").translate(_CODE), dtype=np.int8)
    at = np.flatnonzero(code < _EDGE)
    m, end = at.shape[0], code.shape[0]
    if not m:
        return None
    # Positions, piece numbers and, in a text of the right shape, node ids
    # are all below end + 2: int32 holds them where that fits.
    index = np.int32 if end + 2 <= 2 ** 31 - 1 else np.int64
    at = at.astype(index)
    codes = code[at]
    blank = (code == _BLANK).any()
    del code
    pieces = text.translate(_TO_SEP).split("\x00")
    if text.isascii() and not blank:
        # No whitespace: a piece's size is the gap between its delimiters.
        size = np.diff(at, prepend=index(-1), append=index(end))
        size -= 1
    else:
        # Blanks around a piece's contents are not part of them, as in
        # _first_fault, which strips the same characters.
        pieces = [piece.strip() for piece in pieces]
        size = np.fromiter(map(len, pieces), dtype=index, count=m + 1)
    bounds = np.full(m + 2, _EDGE, dtype=np.int8)
    bounds[1:-1] = codes
    kind = _KIND[bounds[:-1], bounds[1:]]
    del bounds
    is_open = codes == _OPEN
    nesting = np.cumsum(is_open, dtype=index)
    nesting -= np.cumsum(codes == _CLOSE, dtype=index)
    if (
        (kind == _BAD).any()
        or (size[kind == _NOTHING] != 0).any()
        or nesting.min() < 0
        or nesting[-1] != 0
        or (nesting[codes == _COMMA] == 0).any()
    ):
        return None
    named = np.flatnonzero((kind == _TIP) | ((kind == _LABELED) & (size > 0)))
    at_length = np.flatnonzero(kind == _LENGTH_PIECE)
    del kind, size
    labels = [pieces[i] for i in named.tolist()]
    texts = [pieces[i] for i in at_length.tolist()]
    del pieces
    # A non-ASCII character becomes "?", which is not a length character.
    if "".join(texts).encode("ascii", "replace").translate(None, _LENGTH_BYTES):
        return None
    lengths = _read_lengths(texts)
    del texts
    if lengths is None:
        return None

    # Nodes in opening order: a tip after the text's start (piece 0), and at
    # each delimiter its "(" and then the tip after it (piece i + 1).
    opens = np.flatnonzero(is_open)
    tip_after = is_open | (codes == _COMMA)
    tip_after[:-1] &= ~is_open[1:]
    lead = int(codes[0] != _OPEN)
    made = is_open + tip_after.astype(index)
    first = np.cumsum(made, dtype=index)
    first -= made
    first += lead
    n = lead + int(made.sum())
    del made
    after = np.flatnonzero(tip_after)
    del tip_after
    start = np.zeros(lead, dtype=index)
    tip_piece = np.concatenate((start, after + 1))
    tip_node = np.concatenate((start, first[after] + is_open[after]))

    # Parentheses sorted by (depth, position), and the innermost one open
    # at each query.
    depth = nesting[opens]
    sorter = np.argsort(depth, kind="stable")
    open_node = first[opens][sorter]
    key = _sort_key(depth[sorter], opens[sorter], m)
    del sorter

    def innermost(level, pos):
        found = np.searchsorted(key, _sort_key(level, pos, m), side="right") - 1
        return np.where(level > 0, open_node[found], -1)

    closes = np.flatnonzero(codes == _CLOSE)
    close_node = innermost(nesting[closes] + 1, closes)
    promote = int(codes[-2] == _COLON) if m > 1 else 0
    del codes, is_open
    parent = np.full(n + promote, -1, dtype=np.int64)
    parent[first[opens]] = innermost(depth - 1, opens)
    parent[tip_node[lead:]] = innermost(nesting[after], after)
    del first, opens, depth, nesting, after, key, open_node
    # Each element ends at the piece that holds its label: its tip label,
    # or the piece after its ")".  A ":" follows that piece.
    owner = np.empty(m + 1, dtype=index)
    owner[tip_piece] = tip_node
    owner[closes + 1] = close_node
    del tip_piece, tip_node, closes, close_node
    edge = np.zeros(n + promote)
    edge[owner[at_length - 1]] = lengths
    names = [None] * (n + promote)
    for node, label in zip(owner[named].tolist(), labels):
        names[node] = label
    if promote:
        parent[0] = n
    return parent, edge, names


# _first_fault splits at the delimiters other than ":", so that a piece is
# one element: a label, then optionally ":" and a length, blanks around each.
_ELEMENT_SPLIT_RE = re.compile(r"([(),;])")
_ELEMENT_RE = re.compile(
    rf"\s*([{_LABEL_CHARS}]*)(?:\s*:\s*([{re.escape(_LENGTH_BYTES.decode())}]*))?\s*"
)


def _first_fault(text: str):
    """The first fault of a text as (message, position), or None where the
    text reads and only the tree's checks can refuse it.

    The text is read piece by piece between its delimiters "(),;".  A piece
    holds a label, which ":" and a branch length may follow; each runs to
    the first character outside its set, and blanks may stand around them.
    What a piece may hold depends only on the delimiter before it and the
    nesting depth: after the start, "(" or "," an element, which is a tip
    label or, before "(", nothing; after ")" an optional label; after ";"
    nothing.  Every element but the outermost has a length, and ";" follows
    the outermost.
    """
    parts = _ELEMENT_SPLIT_RE.split(text)
    parts.append("")  # the end of the text, as the last piece's delimiter
    depth, prev, start = 0, "(", 0
    for piece, delim in zip(parts[::2], parts[1::2]):
        # Offsets within the piece, which begins at start: the label is
        # [i, j), and k is the first character the element does not read.
        found = _ELEMENT_RE.match(piece)
        i, j = found.span(1)
        k, size, num = found.end(), len(piece), found.group(2)
        if prev == ";":
            return ("trailing text after ';'", start + i) if i < size or delim else None
        if k == j < size and not "!" <= piece[k] <= "~":
            return f"illegal character {piece[k]!r} in label", start + k
        if j == i and prev != ")":  # an element without a label
            if i < size or delim != "(":
                return "expected a tip label or '('", start + i
        elif num is None:  # the element ends without a length
            if depth:
                return "missing branch length on a non-root edge", start + k
            if k < size or delim != ";":
                return "expected ';'", start + k
        else:
            end = start + found.end(2)
            try:
                value = float(num)
            except ValueError:
                return (f"bad branch length {num!r}" if num else "expected a branch length"), end
            if value < 0:
                return f"negative branch length {value}", end
            if depth and (k < size or delim not in (",", ")")):
                return "expected ',' or ')'", start + k
            if not depth and (k < size or delim != ";"):
                return "expected ';'", start + k
        depth += (delim == "(") - (delim == ")")
        prev = delim
        start += size + 1


def write_newick(tree: PhyloTree) -> str:
    """Serialize a tree; branch lengths use shortest round-trip formatting.

    The text is the preorder: an internal node opens with "(" and a tip
    writes its label and length.  After a tip come the closes of the nodes
    whose subtrees end with it, one per level the next node in preorder
    climbs (to the root after the last tip), then "," (";" at the end).
    The closes, each ")" with the node's label and length, fill the
    remaining slots in postorder.
    """
    labels = np.array(tree.names, dtype=object)
    labels[np.equal(labels, None)] = ""
    lengths = np.array([f":{x!r}" for x in tree.edge_length.tolist()], dtype=object)
    lengths[tree.root] = ""
    pre, post, counts = tree.preorder, tree.postorder, tree._n_children
    tip = counts[pre] == 0
    level = tree.levels[pre]
    width = np.where(tip, level - np.append(level[1:], 0) + 2, 1)
    end = np.cumsum(width)
    text = np.empty(end[-1], dtype=object)
    closes = np.ones(end[-1], dtype=bool)
    closes[end - width] = closes[end[tip] - 1] = False
    inner = post[counts[post] > 0]
    text[closes] = ")" + labels[inner] + lengths[inner]
    text[end - width] = np.where(tip, labels[pre] + lengths[pre], "(")
    text[end[tip] - 1] = ","
    text[-1] = ";"
    return "".join(text.tolist())


# --------------------------------------------------------------------- #
# rerooting, restriction, extraction
# --------------------------------------------------------------------- #


def _renumbered(order, parent, edge, names) -> PhyloTree:
    """The nodes ``order`` as a tree rooted at ``order[0]`` and numbered in
    that order.  ``parent`` and ``edge`` are per old node id; the parent of
    every other listed node is listed before it."""
    new_id = np.empty(parent.shape[0], dtype=np.int64)
    new_id[order] = np.arange(order.shape[0])
    new_parent, new_edge = new_id[parent[order]], edge[order]
    new_parent[0], new_edge[0] = -1, 0.0
    return PhyloTree(new_parent, new_edge, [names[u] for u in order.tolist()])


def reroot(tree: PhyloTree, node) -> PhyloTree:
    """Reroot at an internal node, preserving all pairwise path lengths.

    Edges on the path from the new root to the old root are reversed; no node
    is added or removed, so the total length is preserved exactly.  Rerooting
    at a tip is rejected.  If the old root is unary and unlabeled it would be
    stranded as an unlabeled tip, which is also rejected.

    The new ids are the preorder from the new root, with each node's
    children in old-id order and, on the path, the old parent last.  So the
    new root's subtree keeps its preorder: a node u in it gets id
    ``rank(u) - rank(node)``, ranks being positions in ``tree.preorder``.
    Rerooting at the root returns ``tree`` itself.
    """
    nid = tree.node_id(node)
    if tree.is_tip(nid):
        raise TreeError("cannot reroot at a tip")
    if nid == tree.root:
        return tree
    if tree._n_children[tree.root] == 1 and tree.names[tree.root] is None:
        raise TreeError(
            "rerooting would strand the unlabeled unary root as an unlabeled tip"
        )
    pre, span = tree.preorder, tree._pre_span
    path = tree._ancestors(*span[nid])  # from nid to the old root
    # Each path node is followed by its run with the run of the path node
    # below it cut out.
    lo, hi = span[path, 0].tolist(), span[path, 1].tolist()
    runs = [pre[lo[0]:hi[0]]]
    for i in range(1, len(path)):
        runs += [pre[lo[i]:lo[i - 1]], pre[hi[i - 1]:hi[i]]]
    parent = tree.parent.copy()
    edge = tree.edge_length.copy()
    # Reversed edges toward the old root keep their lengths.
    parent[path[1:]] = path[:-1]
    edge[path[1:]] = tree.edge_length[path[:-1]]
    return _renumbered(np.concatenate(runs), parent, edge, tree.names)


def restrict_to_tips(tree: PhyloTree, keep) -> PhyloTree:
    """Restrict to a tip subset, suppressing unary nodes by summing edges.

    The original root is always retained (possibly with a single child) so
    that quantities referring to the root ancestor keep their meaning across
    subsamples.  Shared-ancestry times among the kept tips are unchanged.
    """
    keep = list(keep)
    if not keep:
        raise TreeError("keep must be a nonempty set of tip labels")
    # A node has kept tips below it iff its tip range holds some: prefix sums
    # of the kept mask over canonical tip order.
    rng = tree.tip_range
    kept = np.zeros(tree.n_tips + 1, dtype=np.int64)
    kept[tree.tip_rows(keep) + 1] = 1
    np.cumsum(kept, out=kept)
    has = kept[rng[:, 1]] > kept[rng[:, 0]]

    # In preorder, each node with kept tips carries the nearest ancestor the
    # result keeps and its edge sum below it, summed down from 0.0.  A node
    # with one kept child passes through; the root is always kept.
    order = tree.preorder[has[tree.preorder]]
    below = order[1:]
    passes = np.bincount(tree.parent[below], minlength=tree.n_nodes) == 1
    passes[tree.root] = False
    through = passes.tolist()
    top, acc = [0] * tree.n_nodes, [0.0] * tree.n_nodes
    for u, p, t in zip(below.tolist(), tree.parent[below].tolist(),
                       tree.edge_length[below].tolist()):
        a, s = (top[p], acc[p]) if through[p] else (p, 0.0)
        top[u], acc[u] = a, s + t
    return _renumbered(order[~passes[order]], np.array(top), np.array(acc), tree.names)


def extract_subtree(tree: PhyloTree, node) -> PhyloTree:
    """The subtree rooted at ``node`` (its subtending edge excluded)."""
    nid = tree.node_id(node)
    if tree.is_tip(nid):
        raise TreeError("cannot extract a subtree rooted at a tip")
    return _renumbered(tree._subtree(nid), tree.parent, tree.edge_length, tree.names)


def _heights_below(tree: PhyloTree, node: int) -> np.ndarray:
    """Distances from ``node`` to its tips in canonical order, summed down
    from it as ``extract_subtree(tree, node)`` sums its tip heights (bit for
    bit; a difference of depths would cancel under a long stem).  Only the
    subtree's run is summed."""
    down = _sum_down(tree._subtree(node), tree.parent, tree.edge_length, tree.levels)
    lo, hi = tree.tip_range[node]
    return down[tree.tip_id_array[lo:hi]]
