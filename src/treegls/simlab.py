"""Tree builders, trait simulation, and the convergence experiments.

Simulation is seeded per edge: every edge derives its own Gaussian stream
from (seed, stream tag, stable edge key), where the key is the child node's
label when present and its structural address otherwise.  Extending a tree
by attaching new subtrees therefore never perturbs existing increments, and
replicate r always consumes draw r of each stream.  This gives bit-identical
nested simulations (the construction behind the convergence trajectories)
and common random numbers across sample sizes for free.

The streams are blocks of numpy's counter-based ``Philox`` generator
(Salmon et al. 2011).  Each (seed, stream tag) pair gives one key,
``SeedSequence([seed, stream tag]).generate_state(2, np.uint64)``, and each
edge's stream starts at the counter (0, 0, 0, h), h the 64-bit blake2b hash
of its key.  Drawing advances only the counter's lower words, so distinct
keys never share a block, and no edge needs seeding of its own: one
``Philox`` per stream is loaded with each edge's counter in turn.  The draws
are bit for bit those of the edge's own ``Philox`` at that counter.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from .covariance import (
    _bottom_up_schedule,
    _contrast_sweep,
    _require_finite,
    _sweep_blocks,
    scaled_ess_pruning,
)
from .errors import ConfigError, TreeError, _whole
from .tree import PhyloTree, _add_down

__all__ = [
    "SymmetricTreeSpec",
    "ReplicationSpec",
    "ConvergenceConfig",
    "ConvergenceReport",
    "PhasePoint",
    "star_tree",
    "random_tree",
    "make_symmetric_tree",
    "make_replicated_tree",
    "symmetric_intercept_variance",
    "replicated_intercept_variance",
    "phase_transition_curve",
    "power_law_slope",
    "log_corrected_slope",
    "simulate_bm",
    "simulate_traits",
    "convergence_experiment",
]


# --------------------------------------------------------------------- #
# tree builders
# --------------------------------------------------------------------- #


def star_tree(n: int, edge: float = 1.0, prefix: str = "t") -> PhyloTree:
    """Star tree: n tips attached to the root, all edges equal (i.i.d. case)."""
    n = _whole(n, "n")
    if n < 1:
        raise TreeError("star tree needs at least one tip")
    parent = [-1] + [0] * n
    edges = [0.0] + [float(edge)] * n
    names = ["root"] + [f"{prefix}{i + 1}" for i in range(n)]
    return PhyloTree(parent, edges, names)


@dataclass(frozen=True)
class SymmetricTreeSpec:
    """Level-homogeneous tree: level i nodes have d_i children at edge t_i."""

    d: tuple[int, ...]
    t: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(_whole(x, "each level count") for x in self.d))
        object.__setattr__(self, "t", tuple(float(x) for x in self.t))
        if len(self.d) == 0 or len(self.d) != len(self.t):
            raise ConfigError("d and t must be nonempty and of equal length")
        if any(x < 2 for x in self.d):
            raise ConfigError("all level counts must be >= 2")
        if any(x <= 0 for x in self.t):
            raise ConfigError("all level lengths must be positive")
        if not all(map(math.isfinite, self.t)):
            raise ConfigError("all level lengths must be finite")

    @property
    def m(self) -> int:
        return len(self.d)

    @property
    def n_tips(self) -> int:
        return math.prod(self.d)


@dataclass(frozen=True)
class ReplicationSpec:
    """Root-replication family: d-fold splits, proportion q kept at the root.

    Implied level lengths: t_1 = q^(m-1), t_i = (1-q) q^(m-i) for i >= 2;
    they sum to 1, so the tree height is 1.  The variance decay rate of the
    root-state estimate switches regimes at q = 1/d.
    """

    d: int
    q: float
    m: int

    def __post_init__(self):
        object.__setattr__(self, "d", _whole(self.d, "d"))
        object.__setattr__(self, "m", _whole(self.m, "m"))
        if self.d < 2:
            raise ConfigError("d must be >= 2")
        if not 0.0 < self.q < 1.0:
            raise ConfigError("q must be in (0, 1)")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if 0.0 in self.lengths():
            raise ConfigError(
                f"q={self.q!r} and m={self.m} imply a level length that "
                "underflows to 0"
            )

    def lengths(self) -> tuple[float, ...]:
        m, q = self.m, self.q
        out = [q ** (m - 1)]
        out.extend((1.0 - q) * q ** (m - i) for i in range(2, m + 1))
        return tuple(out)


def make_symmetric_tree(spec: SymmetricTreeSpec) -> PhyloTree:
    """Materialize a symmetric tree level by level, ids in breadth-first order.

    Nodes are named ``"n"`` (internal) or ``"t"`` (tips) plus their path of
    child positions from the root, such as ``"t0-2-1"``.
    """
    parent, edges = _symmetric_arrays(spec)
    names: list = ["root"]
    level = names[:]  # the names of the deepest level built so far
    for lvl, d in enumerate(spec.d):
        # A child's name is its parent's plus "-j"; tips swap the "n" for "t".
        tag = "t" if lvl == spec.m - 1 else "n"
        if lvl == 0:
            heads, steps = [tag], list(map(str, range(d)))
        else:
            heads = level if tag == "n" else ["t" + nm[1:] for nm in level]
            steps = [f"-{j}" for j in range(d)]
        repeated = chain.from_iterable(zip(*[heads] * d))
        level = list(map(str.__add__, repeated, steps * len(heads)))
        names += level
    return PhyloTree(parent, edges, names)


def _symmetric_arrays(spec: SymmetricTreeSpec):
    """The parent and edge arrays of :func:`make_symmetric_tree`: ids in
    breadth-first order, each level's nodes the children of the level
    above, ``d_i`` apiece."""
    sizes = np.cumprod((1,) + spec.d)
    starts = np.cumsum(sizes) - sizes
    parent = [np.array([-1])] + [np.repeat(np.arange(a, a + m), d)
                                 for a, m, d in zip(starts.tolist(), sizes.tolist(), spec.d)]
    return np.concatenate(parent), np.repeat((0.0,) + spec.t, sizes)


def make_replicated_tree(spec: ReplicationSpec) -> PhyloTree:
    """Symmetric tree with uniform splits d and root-replication lengths."""
    return make_symmetric_tree(
        SymmetricTreeSpec(d=(spec.d,) * spec.m, t=spec.lengths())
    )


def symmetric_intercept_variance(d, t) -> float:
    """(1'V^{-1}1)^{-1} of the symmetric tree: sum of t_i / (d_1 ... d_i)."""
    spec = SymmetricTreeSpec(tuple(d), tuple(t))
    acc = 0.0
    prod = 1.0
    for di, ti in zip(spec.d, spec.t):
        prod *= di
        acc += ti / prod
    return acc


def replicated_intercept_variance(d: int, q: float, m: int) -> float:
    """Closed-form root-state variance for the replication family."""
    spec = ReplicationSpec(d, q, m)
    return symmetric_intercept_variance((spec.d,) * spec.m, spec.lengths())


def _replicated_closed_forms(d: int, q: float, m_max: int) -> list[float]:
    """``replicated_intercept_variance(d, q, m)`` for m = 1..m_max, the same
    floats, in O(m_max) Python steps.

    Member m's level lengths are q^(m-1) and (1-q) q^j for j = m-2 .. 0,
    each power taken once as ``ReplicationSpec.lengths`` takes it, with
    Python's ``q ** j``.  Its variance sums t_i / d^i in order of i; that
    sum is the last entry of a sequential cumsum, so it is the same float.
    A length that underflows to 0 stays 0 for every larger member, so the
    first member that has one is found from the powers, and its
    :class:`ReplicationSpec` raises that member's error.
    """
    ReplicationSpec(d, q, 1)  # d and q, checked as member 1 checks them
    powers = [q ** j for j in range(m_max)]
    tails = [(1.0 - q) * p for p in powers]
    bad = next((m for m in range(2, m_max + 1)
                if powers[m - 1] == 0.0 or tails[m - 2] == 0.0), None)
    if bad is not None:
        ReplicationSpec(d, q, bad)
    head = np.array(powers, dtype=float)
    tail = np.array(tails, dtype=float)
    with np.errstate(over="ignore"):
        scale = np.cumprod(np.full(m_max, float(int(d))))  # d^i, as the loop multiplies
    closed = []
    for m in range(1, m_max + 1):
        terms = np.empty(m)
        terms[0] = head[m - 1]
        terms[1:] = tail[m - 2::-1] if m > 1 else ()
        terms /= scale[:m]
        closed.append(float(terms.cumsum()[-1]))
    return closed


def random_tree(
    n: int, seed: int, ultrametric: bool = False, polytomy_prob: float = 0.0
) -> PhyloTree:
    """Random rooted tree by successive coalescence of lineages.

    ``ultrametric=True`` places all tips at the same height (contemporaneous
    sampling); otherwise edges are drawn independently.  ``polytomy_prob``
    merges three lineages instead of two with that probability.
    """
    n = _whole(n, "n")
    if n < 1:
        raise TreeError("need at least one tip")
    if _whole(seed, "seed") < 0:
        raise ConfigError("seed must be >= 0")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    parent = [-1] * (2 * n)  # generous preallocation, trimmed at the end
    edges = [0.0] * (2 * n)
    names: list = [None] * (2 * n)
    for i in range(n):
        names[i] = f"t{i + 1}"
    used = n

    if n == 1:
        return PhyloTree([-1, 0], [0.0, float(rng.uniform(0.5, 1.5))], ["root", "t1"])

    lineages = list(range(n))
    height = {i: 0.0 for i in range(n)}
    now = 0.0
    while len(lineages) > 1:
        k = len(lineages)
        merge = 3 if (k > 2 and rng.random() < polytomy_prob) else 2
        now += float(rng.exponential(2.0 / (k * (k - 1))))
        picks = sorted(rng.choice(k, size=merge, replace=False))
        nodes = [lineages[i] for i in picks]
        for i in reversed(picks):
            lineages.pop(i)
        u = used
        used += 1
        height[u] = now
        for c in nodes:
            parent[c] = u
            edges[c] = (
                now - height[c]
                if ultrametric
                else float(rng.uniform(0.05, 1.0))
            )
        lineages.append(u)
    root = lineages[0]
    keep = list(range(used))
    names[root] = "root"
    return PhyloTree(
        [parent[i] for i in keep], [edges[i] for i in keep], [names[i] for i in keep]
    )


# --------------------------------------------------------------------- #
# seeded simulation
# --------------------------------------------------------------------- #

_STREAM_BM = 0
_STREAM_COVARIATES = 1
_STREAM_NOISE = 2


def _stream_args(sigma2, seed, reps):
    """``seed`` and the replicate count (1 for ``reps=None``) as ints,
    refused unless sigma2 is positive and finite, seed an integer >= 0 and
    reps None or an integer >= 1."""
    if not 0.0 < sigma2 < math.inf:
        raise ConfigError(f"sigma2 must be positive and finite, got {sigma2!r}")
    seed = _whole(seed, "seed")
    if seed < 0:
        raise ConfigError("seed must be >= 0")
    R = 1 if reps is None else _whole(reps, "reps")
    if R < 1:
        raise ConfigError("reps must be >= 1")
    return seed, R


def _key_hashes(keys) -> list:
    """Each key's 64-bit blake2b hash, big-endian, as an int."""
    digests = b"".join(hashlib.blake2b(k.encode(), digest_size=8).digest() for k in keys)
    return np.frombuffer(digests, dtype=">u8").tolist()


def simulate_bm(tree: PhyloTree, mu: float, sigma2: float, seed: int, reps=None):
    """Brownian tip values: root state ``mu``, per-edge variance sigma2 * t.

    Returns shape (n,) or (reps, n) in canonical tip order; bit-reproducible
    under ``seed`` and stable under tree extension (per-edge streams).
    """
    if not math.isfinite(mu):
        raise ConfigError(f"mu must be finite, got {mu!r}")
    values = _bm_node_values(tree, sigma2, seed, _STREAM_BM, reps)
    tips = tree.tip_id_array
    out = mu + values[tips]
    return out[:, 0] if reps is None else out.T


def _bm_node_values(tree, sigma2, seed, stream, reps, n_columns=1, mixer=None):
    """Per-node BM states, zero at the root; shape (n_nodes, R * n_columns).

    Each edge draws from the stream of its child's key: ``"#"`` plus the
    label if the child is named, else the parent's key plus ``"."`` and the
    child's position among its siblings (``"@"`` for an unnamed root).  One
    ``Philox``, keyed by (seed, stream), draws every edge's stream: its
    counter is set to (0, 0, 0, h), h the hash of the edge's key, before
    the edge's draws.  Each edge's increment is its draws, mixed by
    ``mixer`` and scaled by sqrt(sigma2 * t), and the states are summed
    down the tree.
    """
    seed, R = _stream_args(sigma2, seed, reps)
    names, parent = tree.names, tree.parent.tolist()
    root, below = tree.root, tree.preorder[1:].tolist()  # parents before children
    keys = [None] * tree.n_nodes
    keys[root] = "@" if names[root] is None else "#" + names[root]
    seen = [0] * tree.n_nodes  # children of each node met so far
    for u in below:
        p = parent[u]
        pos, seen[p] = seen[p], seen[p] + 1
        keys[u] = f"{keys[p]}.{pos}" if names[u] is None else "#" + names[u]

    vals = np.zeros((tree.n_nodes, R * n_columns))
    key = np.random.SeedSequence([seed, stream]).generate_state(2, np.uint64)
    bitgen = np.random.Philox(key=key)
    normal = np.random.Generator(bitgen).standard_normal
    fresh = bitgen.state  # an empty buffer, so a load restarts at the counter
    counter = fresh["state"]["counter"]
    for u, h in zip(below, _key_hashes(map(keys.__getitem__, below))):
        counter[3] = h
        bitgen.state = fresh
        normal(out=vals[u])
    if mixer is not None:
        vals = (vals.reshape(-1, R, n_columns) @ mixer.T).reshape(vals.shape)
    edge = tree.edge_length
    grows = edge > 0
    grows[root] = False
    scale = np.zeros(tree.n_nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        scale[grows] = np.sqrt(sigma2 * edge[grows])
        vals *= scale[:, None]
        _add_down(vals, tree.preorder, tree.parent, tree.levels)
    # Finite arguments can still give states past the float range, as a
    # sigma2 whose product with an edge overflows; they are refused, as the
    # sweep refuses forms that overflow, rather than passed on as inf or nan.
    if not np.isfinite(vals).all():
        raise ConfigError(
            "simulated states overflow the float range: rescale sigma2, Sigma or the tree"
        )
    return vals


def simulate_traits(
    tree: PhyloTree,
    beta,
    Sigma,
    sigma2: float,
    seed: int,
    reps=None,
):
    """Correlated Brownian covariates plus a linear response.

    Covariate columns accumulate covariance t * Sigma per edge of length t;
    the response is Y = 1 b0 + X b1 + eps with eps an independent Brownian
    noise of rate ``sigma2``.  Returns (X, Y) with shapes (n, q), (n,) or,
    with ``reps``, (reps, n, q), (reps, n).
    """
    beta = np.asarray(beta, dtype=float).ravel()
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    q = Sigma.shape[0]
    if Sigma.shape != (q, q) or q < 1:
        raise ConfigError("Sigma must be a square nonempty matrix")
    if beta.shape[0] != q + 1:
        raise ConfigError(f"beta must have {q + 1} entries (intercept first)")
    _require_finite(beta, "beta")
    _require_finite(Sigma, "Sigma")
    seed, R = _stream_args(sigma2, seed, reps)
    try:
        L = np.linalg.cholesky(Sigma)
    except np.linalg.LinAlgError:
        raise ConfigError("Sigma must be symmetric positive definite") from None

    n = tree.n_tips
    tips = tree.tip_id_array

    xv = _bm_node_values(tree, 1.0, seed, _STREAM_COVARIATES, R, n_columns=q, mixer=L)
    X = xv[tips].reshape(n, R, q).transpose(1, 0, 2)

    ev = _bm_node_values(tree, sigma2, seed, _STREAM_NOISE, R)
    eps = ev[tips].reshape(n, R).T

    Y = beta[0] + np.einsum("rnq,q->rn", X, beta[1:]) + eps
    if reps is None:
        return X[0], Y[0]
    return X, Y


# --------------------------------------------------------------------- #
# phase transition (root replication)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PhasePoint:
    m: int
    n: int
    var_closed: float
    var_pruning: float | None


def phase_transition_curve(
    d: int, q: float, m_max: int, pruning_limit: int = 2 ** 16
) -> list[PhasePoint]:
    """Root-state variance along the replication family, m = 1..m_max.

    Emits the closed form for every m and, while n = d^m stays within
    ``pruning_limit``, the single-traversal value; the two agree to tight
    tolerance.  The closed forms, and the checks of each member's
    :class:`ReplicationSpec`, run first in order of m, so an underflowing
    level length is reported at the first member that has one.

    The traversal values come from one sweep of the largest member within
    the limit, M, so a call builds one tree (none when no member is within
    the limit).  Member m < M is d copies of the clade of any node u at
    level M - m + 1 of member M, each under a stem as long as the path
    from the root to u.  That path telescopes to member m's first level
    length,

        q^(M-1) + (1-q)(q^(M-2) + ... + q^(m-1)) = q^(m-1),

    and the levels below u are member m's levels 2..m, computed as the same
    floats, so the sweep gives u's precision p_u as member m's own sweep
    does.  Member m's variance (q^(m-1) + 1/p_u) / d is taken as
    (depth(v) + 1/w_u) / d, with v the parent of u and w_u = p_u / (1 +
    t_u p_u) u's weight toward v, in which no term cancels; it matches
    member m's own sweep to a few units in the last place.  Member M's is
    the inverse of the root precision, as its own sweep gives it.
    """
    d, m_max = _whole(d, "d"), _whole(m_max, "m_max")
    if m_max < 1:
        raise ConfigError("m_max must be >= 1")
    closed = _replicated_closed_forms(d, q, m_max)
    big = 0
    while big < m_max and d ** (big + 1) <= pruning_limit:
        big += 1
    swept = []
    if big:
        # The sweep reads no name: the tips are labeled by index.
        spec = ReplicationSpec(d, q, big)
        parent, edges = _symmetric_arrays(SymmetricTreeSpec((d,) * big, spec.lengths()))
        n_inner = parent.size - d ** big
        tree = PhyloTree(parent, edges, [None] * n_inner + list(map(str, range(d ** big))))
        schedule = _bottom_up_schedule(tree)
        _, _, one, weight = _contrast_sweep(tree, np.empty((tree.n_tips, 0)),
                                            schedule=schedule)
        # Node ids are breadth first, so level k starts at id (d^k - 1) / (d - 1).
        u = np.array([(d ** (big - m + 1) - 1) // (d - 1) for m in range(1, big)],
                     dtype=np.intp)
        swept = ((tree.depths[tree.parent[u]] + 1.0 / weight[schedule[1][u], 0]) / d).tolist()
        swept.append(1.0 / float(one[0]))
    return [
        PhasePoint(m=m, n=d ** m, var_closed=vc,
                   var_pruning=swept[m - 1] if m <= big else None)
        for m, vc in enumerate(closed, 1)
    ]


def _log_args(values, what: str, floor: float = 0.0) -> np.ndarray:
    """``values`` as a float array, refused unless every entry is finite and
    above ``floor``, so that the logarithms taken of it are numbers."""
    values = np.asarray(values, dtype=float)
    if not ((values > floor) & (values < math.inf)).all():
        raise ConfigError(f"{what} must be finite and greater than {floor:g}")
    return values


def power_law_slope(ns, values) -> float:
    """Least-squares slope of ln(value) against ln(n)."""
    x = np.log(_log_args(ns, "ns"))
    y = np.log(_log_args(values, "values"))
    return float(np.polyfit(x, y, 1)[0])


def log_corrected_slope(ns, values) -> float:
    """Least-squares slope of ln(n * value) against ln(ln n); every n must
    exceed 1."""
    ns = _log_args(ns, "ns", floor=1.0)
    values = _log_args(values, "values")
    x = np.log(np.log(ns))
    y = np.log(ns * values)
    return float(np.polyfit(x, y, 1)[0])


# --------------------------------------------------------------------- #
# convergence experiment
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ConvergenceConfig:
    """Growing-family experiment configuration.

    Families (both nested, fixed root):

    * ``star``: n tips attached to the root at the full height (i.i.d.).
    * ``fixed_root``: two root edges of length ``root_edge``; half the tips
      attach below each at the remaining height.  The root-state variance
      then cannot drop below sigma2 * root_edge / 2.

    ``beta`` is (intercept, covariate effects...); covariates evolve as
    independent unit-rate Brownian motions.
    """

    family: str
    sizes: tuple[int, ...]
    beta: tuple[float, ...]
    sigma2: float = 1.0
    root_edge: float = 0.25
    height: float = 1.0
    reps: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.family not in ("star", "fixed_root"):
            raise ConfigError(
                f"unknown family {self.family!r}; nested families are "
                "'star' and 'fixed_root'"
            )
        sizes = tuple(_whole(s, "each size") for s in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        if not sizes or any(b >= a for a, b in zip(sizes[1:], sizes)):
            raise ConfigError("sizes must be strictly increasing")
        if not 0 < self.height < math.inf:
            raise ConfigError("height must be positive and finite")
        if self.family == "fixed_root":
            if any(s % 2 for s in sizes):
                raise ConfigError("fixed_root sizes must be even")
            if not 0 < self.root_edge < self.height:
                raise ConfigError("need 0 < root_edge < height")
        seed, reps = _stream_args(self.sigma2, self.seed, self.reps)
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "reps", reps)
        if reps < 2:
            raise ConfigError("reps must be >= 2")
        if len(self.beta) < 1:
            raise ConfigError("beta must include the intercept")
        if not all(map(math.isfinite, self.beta)):
            raise ConfigError("beta contains non-finite values (nan or inf)")
        if sizes[0] <= len(self.beta):
            raise ConfigError(f"sizes must exceed the {len(self.beta)} coefficients")

    @property
    def n_covariates(self) -> int:
        return len(self.beta) - 1

    def to_text(self) -> str:
        """One ``key=value`` line per field: tuples comma-joined, numbers
        by repr."""
        def text(v):
            if isinstance(v, tuple):
                return ",".join(map(repr, v))
            return v if isinstance(v, str) else repr(v)

        return "".join(f"{f.name}={text(getattr(self, f.name))}\n" for f in fields(self))

    @classmethod
    def from_text(cls, text: str) -> "ConvergenceConfig":
        kv = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"expected key=value, got {line!r}", location=lineno)
            key, value = line.split("=", 1)
            kv[key.strip()] = value.strip()
        try:
            config = cls(
                family=kv.pop("family"),
                sizes=tuple(int(s) for s in kv.pop("sizes").split(",")),
                beta=tuple(float(b) for b in kv.pop("beta").split(",")),
                sigma2=float(kv.pop("sigma2", "1.0")),
                root_edge=float(kv.pop("root_edge", "0.25")),
                height=float(kv.pop("height", "1.0")),
                reps=int(kv.pop("reps", "1000")),
                seed=int(kv.pop("seed", "0")),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config key {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ConfigError(f"bad config value: {exc}") from None
        if kv:
            raise ConfigError(f"unknown config keys: {sorted(kv)}")
        return config


@dataclass(frozen=True)
class ConvergenceReport:
    """Variance-vs-n table, trajectory increments, and sample paths."""

    config: ConvergenceConfig
    variance_rows: tuple[tuple[int, str, float, float], ...]
    floor_intercept: float | None
    increment_rows: tuple[tuple[int, int, str, float], ...]
    sample_paths: dict

    def variance_csv(self) -> str:
        lines = ["n,component,mc_var,theory"]
        lines += [
            f"{n},{c},{v:.17g},{t:.17g}" for (n, c, v, t) in self.variance_rows
        ]
        return "\n".join(lines) + "\n"

    def increment_csv(self) -> str:
        lines = ["n_from,n_to,component,mean_abs_delta"]
        lines += [
            f"{a},{b},{c},{d:.17g}" for (a, b, c, d) in self.increment_rows
        ]
        return "\n".join(lines) + "\n"


def family_tree(config: ConvergenceConfig, n: int) -> PhyloTree:
    """The size-n member of the configured nested family."""
    if config.family == "star":
        return star_tree(n, edge=config.height, prefix="s")
    half = n // 2
    t, h = config.root_edge, config.height
    parent = [-1, 0, 0] + [1] * half + [2] * half
    edges = [0.0, t, t] + [h - t] * (2 * half)
    names = ["root", "L", "R"]
    names += [f"l{i}" for i in range(1, half + 1)]
    names += [f"r{i}" for i in range(1, half + 1)]
    return PhyloTree(parent, edges, names)


def convergence_experiment(config: ConvergenceConfig) -> ConvergenceReport:
    """Refit the model along the nested family, one shared realization.

    Per-edge seeding extends the same realization as n grows, so replicate r
    traces one path of the estimator.  The realization is drawn once, on the
    family's largest member: every member's tips are tips of that one with
    the same root-to-tip edges, so each size reads its own tips' columns
    and gets the values simulating it alone would give, bit for bit.  The
    report carries Monte Carlo variances against their finite-sample
    references, mean absolute trajectory increments (which shrink as
    estimates settle), and a few sample paths.
    """
    q = config.n_covariates
    comps = ("intercept",) + tuple(f"x{j + 1}" for j in range(q))
    beta = np.asarray(config.beta)

    big = family_tree(config, config.sizes[-1])
    if q:
        X_all, Y_all = simulate_traits(
            big, beta, np.eye(q), config.sigma2, config.seed, reps=config.reps
        )
    else:
        Y_all = beta[0] + simulate_bm(big, 0.0, config.sigma2, config.seed, reps=config.reps)

    sizes, est, theory = config.sizes, {}, {}
    for n in sizes:
        tree = family_tree(config, n)
        rows = big.tip_rows(tree.tip_labels)
        X = X_all[:, rows] if q else np.zeros((config.reps, n, 0))
        est[n] = _batched_gls(tree, X, Y_all[:, rows])
        slope = config.sigma2 / (n - q - 2) if n - q - 2 > 0 else math.inf
        theory[n] = [config.sigma2 / scaled_ess_pruning(tree)] + [slope] * q

    variance_rows = tuple((n, c, float(est[n][:, j].var(ddof=1)), float(theory[n][j]))
                          for n in sizes for j, c in enumerate(comps))
    increment_rows = tuple((a, b, c, float(np.abs(est[b] - est[a])[:, j].mean()))
                           for a, b in zip(sizes, sizes[1:]) for j, c in enumerate(comps))
    paths = range(min(8, config.reps))
    sample_paths = {c: [[float(est[n][r, j]) for n in sizes] for r in paths]
                    for j, c in enumerate(comps)}
    floor = config.sigma2 * config.root_edge / 2.0 if config.family == "fixed_root" else None
    return ConvergenceReport(config, variance_rows, floor, increment_rows, sample_paths)


def _batched_gls(tree: PhyloTree, X_stack: np.ndarray, Y_stack: np.ndarray):
    """GLS coefficient estimates for stacked replicates on one tree.

    Whiten the intercept and the replicates' columns with the contrast
    sweep, then solve the per-replicate normal equations in a single batched
    call.  Replicates go through the sweep in blocks of about
    ``_SWEEP_CELLS`` (2^18) node-column cells, which bounds the working set
    and keeps a block's arrays near cache size; every replicate's estimate
    is the same float whatever the blocks.
    X_stack holds covariates only; the intercept column is prepended here.
    """
    R, n, q = X_stack.shape
    G = np.empty((R, q + 1, q + 1))
    b = np.empty((R, q + 1))
    for r0, r1 in _sweep_blocks(tree, R, q + 1):
        X, Y = X_stack[r0:r1], Y_stack[r0:r1]
        r = r1 - r0
        Z = np.concatenate(
            [np.ones((n, 1)), X.transpose(1, 0, 2).reshape(n, r * q), Y.T], axis=1
        )
        U = _contrast_sweep(tree, Z)[0][:, 0, :]
        rows = U.shape[0]
        Xw = U[:, 1:1 + r * q].reshape(rows, r, q).transpose(1, 0, 2)
        D = np.concatenate([np.broadcast_to(U[None, :, :1], (r, rows, 1)), Xw], axis=2)
        Dt = D.transpose(0, 2, 1)
        G[r0:r1] = Dt @ D
        b[r0:r1] = (Dt @ U[:, 1 + r * q:].T[:, :, None])[:, :, 0]
    return np.linalg.solve(G, b[:, :, None])[:, :, 0]
