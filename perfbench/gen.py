"""Seeded input generator owned by the benchmark.

Writes Newick trees and trait tables without calling into ``treegls``, so a
given seed yields byte-identical files on every commit of the program.  All
randomness comes from ``random.Random``, whose stream for an integer seed is
stable across Python releases; floats are written with ``repr``, which
round-trips exactly.

A :class:`Tree` keeps the structure the oracles need (parent, edge length,
label, children in file order).  Its canonical tip order is the order in
which tips appear in the Newick text, which is also the program's canonical
(left-to-right depth-first) order.
"""

from __future__ import annotations

import random


class Tree:
    """Rooted tree given by parent ids; children are in node-id order, which
    is the order they are written in."""

    def __init__(self, parent, edge, label):
        self.parent = list(parent)
        self.edge = [float(e) for e in edge]
        self.label = list(label)
        n = len(self.parent)
        self.children = [[] for _ in range(n)]
        root = -1
        for u, p in enumerate(self.parent):
            if p < 0:
                root = u
            else:
                self.children[p].append(u)
        self.root = root
        self.edge[root] = 0.0
        # Preorder (parents before children), depths in time and in edges.
        self.preorder = []
        self.depth = [0.0] * n
        self.level = [0] * n
        stack = [root]
        while stack:
            u = stack.pop()
            self.preorder.append(u)
            for c in reversed(self.children[u]):
                self.depth[c] = self.depth[u] + self.edge[c]
                self.level[c] = self.level[u] + 1
                stack.append(c)
        self.tips = [u for u in self.preorder if not self.children[u]]
        self.tip_labels = [self.label[u] for u in self.tips]

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    @property
    def n_tips(self) -> int:
        return len(self.tips)

    def tip_range(self):
        """Per node, [lo, hi) of canonical tip indices below it."""
        n = self.n_nodes
        lo = [n] * n
        hi = [0] * n
        for i, t in enumerate(self.tips):
            lo[t], hi[t] = i, i + 1
        for u in reversed(self.preorder):
            p = self.parent[u]
            if p >= 0:
                lo[p] = min(lo[p], lo[u])
                hi[p] = max(hi[p], hi[u])
        return lo, hi

    def newick(self) -> str:
        """Newick text; iterative so that caterpillars of any depth work."""
        out = []
        stack = [(self.root, False)]
        while stack:
            u, closing = stack.pop()
            if u == -1:
                out.append(",")
                continue
            if closing:
                out.append(")")
            elif self.children[u]:
                out.append("(")
                stack.append((u, True))
                kids = self.children[u]
                for i in range(len(kids) - 1, -1, -1):
                    stack.append((kids[i], False))
                    if i:
                        stack.append((-1, False))
                continue
            if self.label[u] is not None:
                out.append(self.label[u])
            if u != self.root:
                out.append(":" + repr(self.edge[u]))
        out.append(";\n")
        return "".join(out)

    def subtree(self, node) -> "Tree":
        """The subtree rooted at ``node`` (its subtending edge excluded)."""
        keep = []
        stack = [node]
        while stack:
            u = stack.pop()
            keep.append(u)
            stack.extend(reversed(self.children[u]))
        index = {u: i for i, u in enumerate(keep)}
        parent = [index[self.parent[u]] if u != node else -1 for u in keep]
        return Tree(parent, [self.edge[u] for u in keep], [self.label[u] for u in keep])

    def reroot(self, node) -> "Tree":
        """Reroot at an internal node; path edges are reversed, lengths kept.

        Each node on the old root path lists its reversed edge after its
        remaining children, which is the child order the program uses.
        """
        parent = list(self.parent)
        edge = list(self.edge)
        u, p, carried = node, self.parent[node], self.edge[node]
        parent[node] = -1
        while p >= 0:
            nxt, nxt_len = self.parent[p], self.edge[p]
            parent[p], edge[p] = u, carried
            u, p, carried = p, nxt, nxt_len
        kids = []
        for v in range(self.n_nodes):
            k = [c for c in self.children[v] if parent[c] == v]
            up = self.parent[v]
            if up >= 0 and parent[up] == v:
                k.append(up)
            kids.append(k)
        # Renumber in preorder of those child lists: ids then follow file order.
        order = []
        stack = [node]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(reversed(kids[v]))
        index = {v: i for i, v in enumerate(order)}
        return Tree(
            [index[parent[v]] if parent[v] >= 0 else -1 for v in order],
            [edge[v] for v in order],
            [self.label[v] for v in order],
        )


# --------------------------------------------------------------------- #
# tree families
# --------------------------------------------------------------------- #


def replication_lengths(q: float, m: int) -> list[float]:
    """Root-replication level lengths: q^(m-1), then (1-q) q^(m-i); sum 1."""
    return [q ** (m - 1)] + [(1.0 - q) * q ** (m - i) for i in range(2, m + 1)]


def replicated(rng: random.Random, d: int, q: float, m: int) -> Tree:
    """Symmetric tree with d-fold splits and replication lengths.

    Tip labels are a seeded permutation of fixed-width names, so the file
    size does not depend on the seed.
    """
    lengths = replication_lengths(q, m)
    parent, edge = [-1], [0.0]
    frontier = [0]
    for lvl in range(m):
        nxt = []
        for u in frontier:
            for _ in range(d):
                parent.append(u)
                edge.append(lengths[lvl])
                nxt.append(len(parent) - 1)
        frontier = nxt
    width = len(str(len(frontier)))
    names = [f"t{i:0{width}d}" for i in range(1, len(frontier) + 1)]
    rng.shuffle(names)
    label = [None] * len(parent)
    for u, name in zip(frontier, names):
        label[u] = name
    return Tree(parent, edge, label)


def coalescent(rng: random.Random, n: int, zero_frac: float = 0.0) -> Tree:
    """Random binary topology by successive merging of random lineage pairs.

    Edge lengths are drawn independently from U(0.05, 1), so tips are not
    contemporaneous and no two candidate subsets tie in the design searches.
    ``zero_frac`` of the internal non-root edges are set to exactly zero.
    """
    parent = [-1] * (2 * n - 1)
    lineages = list(range(n))
    nxt = n
    while len(lineages) > 1:
        k = len(lineages)
        i = rng.randrange(k)
        lineages[i], lineages[-1] = lineages[-1], lineages[i]
        a = lineages.pop()
        j = rng.randrange(k - 1)
        lineages[j], lineages[-1] = lineages[-1], lineages[j]
        b = lineages.pop()
        parent[a] = parent[b] = nxt
        lineages.append(nxt)
        nxt += 1
    root = lineages[0]
    edge = [rng.uniform(0.05, 1.0) for _ in range(2 * n - 1)]
    edge[root] = 0.0
    if zero_frac:
        internal = [u for u in range(n, 2 * n - 1) if u != root]
        for u in rng.sample(internal, round(zero_frac * len(internal))):
            edge[u] = 0.0
    label = [f"t{i + 1}" for i in range(n)] + [None] * (n - 1)
    return Tree(parent, edge, label)


def caterpillar(rng: random.Random, n: int) -> Tree:
    """Maximally unbalanced tree: every internal node has one tip child."""
    parent, edge, label = [-1], [0.0], [None]
    spine = 0
    for i in range(1, n):
        parent.append(spine)
        edge.append(rng.uniform(0.05, 1.0))
        label.append(f"t{i}")
        if i == n - 1:
            parent.append(spine)
            edge.append(rng.uniform(0.05, 1.0))
            label.append(f"t{n}")
        else:
            parent.append(spine)
            edge.append(rng.uniform(0.05, 1.0))
            label.append(None)
            spine = len(parent) - 1
    return Tree(parent, edge, label)


# --------------------------------------------------------------------- #
# trait tables
# --------------------------------------------------------------------- #


def traits(rng: random.Random, tree: Tree, n_cov: int) -> dict:
    """Per tip label, [y, x1..xk] with y = 0.5 + 0.3 * sum(x) + N(0, 1)."""
    table = {}
    for lab in tree.tip_labels:
        x = [rng.gauss(0.0, 1.0) for _ in range(n_cov)]
        table[lab] = [0.5 + 0.3 * sum(x) + rng.gauss(0.0, 1.0)] + x
    return table


def traits_csv(table: dict, n_cov: int) -> str:
    lines = ["tip,y" + "".join(f",x{j + 1}" for j in range(n_cov))]
    for lab, row in table.items():
        lines.append(lab + "," + ",".join(repr(v) for v in row))
    return "\n".join(lines) + "\n"
