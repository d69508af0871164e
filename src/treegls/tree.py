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

# Label characters: printable ASCII other than the Newick metacharacters
# "(),:;" and quotes.  Whitespace ends a label.
_LABEL = r"[!#-&*+\--9<-~]+"
_LABEL_BAD_RE = re.compile(r"[^!#-&*+\--9<-~]")
_LENGTH = r"(?:\s*:\s*([-+.eE0-9]*))?"
# One token per match, after optional whitespace.  ``lastindex`` is the kind:
# 1 "(", 2 ",", 3 tip (4 label, 5 length), 6 ")" (7 label, 8 length), 9 ";",
# 10 any other character, 11 end of text.
_TOKEN_RE = re.compile(
    r"\s*(?:(\()|(,)"
    rf"|(({_LABEL}){_LENGTH})"
    rf"|(\)(?:\s*({_LABEL}))?{_LENGTH})"
    r"|(;)|(.)|(\Z))",
    re.S,
)


class PhyloTree:
    """Immutable rooted tree with branch lengths.

    Construct from parallel arrays (parent id or -1, edge length, label), via
    :func:`parse_newick`, or with the builders in :mod:`treegls.simlab`.
    Construction also indexes the tree: canonical tip order, depths,
    levels, preorder, postorder and tip ranges.  The children tuples and the
    label-to-node map are built on first use.
    """

    __slots__ = (
        "_parent",
        "_edge",
        "_n_children",
        "_children",
        "_names",
        "_root",
        "_tip_ids",
        "_tip_labels",
        "_name_to_node",
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
        pre, post, levels, size = _euler_tour(root, parent, counts)

        # In preorder, a subtree is the run of its size and holds the tips
        # counted between the run's ends.
        pre_span = np.empty((n, 2), dtype=np.int64)
        pre_span[pre, 0] = np.arange(n)
        pre_span[:, 1] = pre_span[:, 0] + size
        tip_pre = is_tip[pre]
        tip_range = np.concatenate(([0], np.cumsum(tip_pre)))[pre_span]

        tips = pre[tip_pre].tolist()
        self._tip_ids = tuple(tips)
        self._tip_labels = tuple(map(names.__getitem__, tips))
        self._children = None
        self._name_to_node = None
        self._depths = depths = np.array(_sum_down(pre, parent, edge))
        self._preorder = pre
        self._pre_span = pre_span
        self._postorder = post
        self._tip_range = tip_range
        self._levels = levels
        for arr in (parent, edge, counts, depths, pre, pre_span, post, tip_range, levels):
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
            and _LABEL_BAD_RE.search("!".join(labels)) is None
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
    def tip_labels(self) -> tuple[str, ...]:
        return self._tip_labels

    @property
    def depths(self) -> np.ndarray:
        """Distance from the root per node."""
        return self._depths

    @property
    def tip_heights(self) -> np.ndarray:
        return self._depths[list(self._tip_ids)]

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
        """Canonical row (tip index) of each tip label, in the order given."""
        return self._tip_range[self._tip_nodes(labels), 0]

    def _tip_nodes(self, labels) -> np.ndarray:
        """Node id of each tip label; the first label that names no tip is
        an error."""
        labels = list(labels)
        ids = np.fromiter(
            map(self._labeled().get, labels, repeat(-1)), dtype=np.int64, count=len(labels)
        )
        # An unknown label's -1 reads the last node's count, which the mask hides.
        bad = (ids < 0) | (self._n_children[ids] > 0)
        if bad.any():
            raise TreeError(f"unknown tip label {labels[int(np.argmax(bad))]!r}")
        return ids

    def _labeled(self) -> dict:
        """Node id per label (built on first use)."""
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


def _sum_down(run, parent, edge) -> list[float]:
    """Per node id, its distance from ``run[0]`` summed down the preorder run
    ``run`` (0.0 off the run): each node adds its edge to its parent's sum,
    so every distance is the same left-to-right sum of its path's edges."""
    down = [0.0] * parent.shape[0]
    below = run[1:]
    for u, p, t in zip(below.tolist(), parent[below].tolist(), edge[below].tolist()):
        down[u] = down[p] + t
    return down


def _euler_tour(root, parent, counts):
    """Preorder, postorder, levels and subtree sizes by ranking an Euler tour
    (Tarjan & Vishkin 1985).

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
    kids = np.argsort(parent, kind="stable")[1:]
    succ = np.empty(events, dtype=np.int64)
    succ[:n] = np.arange(n, events)
    inner = np.flatnonzero(counts)
    succ[inner] = kids[(np.cumsum(counts) - counts)[inner]]
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


def _fail(message: str, pos: int):
    raise NewickError(f"{message} (at position {pos})", location=pos)


# Parser states: expecting an element; after an element with its length
# (or the outermost element without one); after an element without a
# length; after the final ";".
_ELEMENT, _DONE, _BARE, _END = range(4)


def parse_newick(text: str) -> PhyloTree:
    """Parse a single rooted Newick expression.

    Branch lengths are mandatory on all non-root edges.  A branch length on
    the outermost element introduces a (possibly unary) root above it, so
    ``"A:1;"`` is the one-tip tree of height 1.  Parsing is one split of the
    text at its metacharacters and array passes over the pieces, so nesting
    depth is unlimited.  Node ids follow the order in which elements open; a
    promoted root comes last.  A text the array checks refuse goes to a
    token scan, which names the first fault and its position.
    """
    arrays = _newick_arrays(text)
    if arrays is None:
        arrays = _scan_newick(text)
    try:
        return PhyloTree(*arrays)
    except TreeError as exc:
        raise NewickError(str(exc)) from exc


_DELIMS = "(),:;"
# Metacharacters all become one character that no valid text holds.
_TO_SEP = str.maketrans(dict.fromkeys(_DELIMS, "\x00"))
_LENGTH_BAD_RE = re.compile(r"[^-+.eE0-9]")
# Delimiter codes; _EDGE stands for the start or the end of the text.
_OPEN, _CLOSE, _COMMA, _COLON, _SEMI, _EDGE = range(6)
_CODE = np.full(128, _EDGE, dtype=np.int8)
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


def _newick_arrays(text: str):
    """(parent, edge, names) of a well-formed text, or None.

    The text splits at its metacharacters into delimiters and the pieces
    between them.  Each piece must be what its two delimiters allow, the
    nesting of parentheses (a cumulative sum) must close exactly at the
    final ";", and no "," may sit outside them.  Every open parenthesis is a
    node, and so is every tip label; numbered in text order, they are the
    ids in opening order.  The innermost open parenthesis at a position is
    the last one opened at its nesting depth, found by a binary search of
    the parentheses sorted by (depth, position).
    """
    # The scan skips whitespace before the first token and after ";".
    text = text.strip()
    if "\x00" in text:
        return None
    ascii_only = text.isascii()
    # A lone surrogate passes through as its code point, which the label
    # check then refuses.
    chars = np.frombuffer(
        text.encode("ascii" if ascii_only else "utf-32-le", "surrogatepass"),
        dtype=np.uint8 if ascii_only else np.uint32,
    )
    is_delim = chars == ord(_DELIMS[0])
    for c in _DELIMS[1:]:
        is_delim |= chars == ord(c)
    at = np.flatnonzero(is_delim)
    m = at.shape[0]
    if not m:
        return None
    codes = _CODE[chars[at]]
    pieces = text.translate(_TO_SEP).split("\x00")
    if ascii_only and not (chars <= 32).any():
        # No whitespace: a piece's size is the gap between its delimiters.
        size = np.diff(at, prepend=-1, append=chars.shape[0]) - 1
    else:
        # Whitespace around a piece separates tokens; str.strip removes
        # what the scan's "\s" skips.
        pieces = [piece.strip() for piece in pieces]
        size = np.fromiter(map(len, pieces), dtype=np.int64, count=m + 1)
    del chars, is_delim
    bounds = np.full(m + 2, _EDGE, dtype=np.int8)
    bounds[1:-1] = codes
    kind = _KIND[bounds[:-1], bounds[1:]]
    is_open = codes == _OPEN
    nesting = np.cumsum(is_open, dtype=np.int64)
    nesting -= np.cumsum(codes == _CLOSE)
    if (
        (kind == _BAD).any()
        or (size[kind == _NOTHING] != 0).any()
        or (size[kind == _TIP] == 0).any()
        or (size[kind == _LENGTH_PIECE] == 0).any()
        or nesting.min() < 0
        or nesting[-1] != 0
        or (nesting[codes == _COMMA] == 0).any()
    ):
        return None
    bits = np.array(pieces, dtype=object)
    del pieces
    named = np.flatnonzero((kind == _TIP) | ((kind == _LABELED) & (size > 0)))
    if _LABEL_BAD_RE.search("!".join(bits[named].tolist())) is not None:
        return None
    at_length = np.flatnonzero(kind == _LENGTH_PIECE)
    texts = bits[at_length].tolist()
    if _LENGTH_BAD_RE.search("".join(texts)) is not None:
        return None
    distinct = set(texts)
    try:
        if 2 * len(distinct) > len(texts):
            lengths = np.fromiter(map(float, texts), dtype=np.float64, count=len(texts))
        else:
            # Most lengths repeat, as on trees built level by level: convert
            # each distinct text once (a dict lookup is cheaper than float(),
            # but building the dict costs more than it saves when most
            # lengths are distinct).
            value = {t: float(t) for t in distinct}
            lengths = np.fromiter(map(value.__getitem__, texts), dtype=np.float64, count=len(texts))
    except ValueError:
        return None
    del texts, distinct
    if (lengths < 0).any():
        return None

    # Nodes in opening order: a tip after the text's start (piece 0), and at
    # each delimiter its "(" and then the tip after it (piece i + 1).
    opens = np.flatnonzero(is_open)
    tip_after = is_open | (codes == _COMMA)
    tip_after[:-1] &= ~is_open[1:]
    lead = int(codes[0] != _OPEN)
    made = is_open + tip_after.astype(np.int64)
    first = np.cumsum(made) - made + lead
    n = lead + int(made.sum())
    after = np.flatnonzero(tip_after)
    start = np.zeros(lead, dtype=np.int64)
    tip_piece = np.concatenate((start, after + 1))
    tip_node = np.concatenate((start, first[after] + is_open[after]))

    # Parentheses sorted by (depth, position), and the innermost one open
    # at each query.
    depth = nesting[opens]
    sorter = np.argsort(depth, kind="stable")
    key = depth[sorter] * (m + 1) + opens[sorter]
    open_node = first[opens][sorter]

    def innermost(level, pos):
        found = np.searchsorted(key, level * (m + 1) + pos, side="right") - 1
        return np.where(level > 0, open_node[found], -1)

    closes = np.flatnonzero(codes == _CLOSE)
    close_node = innermost(nesting[closes] + 1, closes)
    promote = int(codes[-2] == _COLON) if m > 1 else 0
    parent = np.full(n + promote, -1, dtype=np.int64)
    parent[first[opens]] = innermost(depth - 1, opens)
    parent[tip_node[lead:]] = innermost(nesting[after], after)
    # Each element ends at the piece that holds its label: its tip label,
    # or the piece after its ")".  A ":" follows that piece.
    owner = np.empty(m + 1, dtype=np.int64)
    owner[tip_piece] = tip_node
    owner[closes + 1] = close_node
    edge = np.zeros(n + promote)
    edge[owner[at_length - 1]] = lengths
    names = np.full(n + promote, None, dtype=object)
    names[owner[named]] = bits[named]
    if promote:
        parent[0] = n
    return parent, edge, names.tolist()


def _scan_newick(text: str):
    """(parent, edge, names) by one token scan with an explicit stack.

    ``parse_newick`` runs it only on a text the array checks refuse, where
    it stops at the first fault with its message and position.
    """
    parent: list[int] = []
    edge: list[float] = []
    names: list = []
    add_parent, add_edge, add_name = parent.append, edge.append, names.append
    stack: list[int] = []  # open internal nodes, innermost last
    cur = -1  # parent of the next element
    state = _ELEMENT
    for m in _TOKEN_RE.finditer(text):
        k = m.lastindex
        if state == _ELEMENT:
            if k == 3:
                label, num = m.group(4, 5)
                node = len(parent)
                add_parent(cur)
                add_edge(0.0)
                add_name(label)
                label_end = m.end()
            elif k == 1:
                add_parent(cur)
                add_edge(0.0)
                add_name(None)
                cur = len(parent) - 1
                stack.append(cur)
                continue
            else:
                if k == 10 and not "!" <= m.group(10) <= "~":
                    _fail(f"illegal character {m.group(10)!r} in label", m.start(10))
                _fail("expected a tip label or '('", m.start(k))
        elif state == _DONE:
            if not stack:
                if k != 9:
                    _fail("expected ';'", m.start(k))
                state = _END
                continue
            if k == 2:
                state = _ELEMENT
                continue
            if k != 6:
                _fail("expected ',' or ')'", m.start(k))
            node = stack.pop()
            cur = stack[-1] if stack else -1
            label, num = m.group(7, 8)
            if label:
                names[node] = label
            label_end = m.end() if label else -1
        elif state == _BARE:
            # A label reads up to an illegal character; after a bare ")" the
            # (empty) label starts at the next non-space character.
            if k == 10 and not "!" <= m.group(10) <= "~":
                if label_end < 0 or m.start(10) == label_end:
                    _fail(f"illegal character {m.group(10)!r} in label", m.start(10))
            if stack:
                _fail("missing branch length on a non-root edge", m.start(k))
            if k != 9:
                _fail("expected ';'", m.start(k))
            state = _END
            continue
        else:
            if k != 11:
                _fail("trailing text after ';'", m.start(k))
            continue

        # Element ``node`` ends here, with length text ``num`` or none.
        has_length = num is not None
        if not has_length:
            state = _BARE
            continue
        try:
            value = float(num)
        except ValueError:
            _fail(f"bad branch length {num!r}" if num else "expected a branch length",
                  m.end())
        if value < 0:
            _fail(f"negative branch length {value}", m.end())
        edge[node] = value
        state = _DONE

    if has_length:
        # Promote: a real root sits above the outermost element (node 0).
        parent[0] = len(parent)
        add_parent(-1)
        add_edge(0.0)
        add_name(None)

    return parent, edge, names


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
    down = _sum_down(tree._subtree(node), tree.parent, tree.edge_length)
    lo, hi = tree.tip_range[node]
    return np.array([down[u] for u in tree.tip_ids[lo:hi]])
