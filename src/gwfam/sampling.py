"""Family-size sampling and its exact combinatorial oracles.

Sampling picks r distinct individuals uniformly from a generation; each one
reports its whole family (brood vector) and parent identity. Given the final
transition's family counts per (parent type, support point), which the
simulated trace keeps, families whose parents share a type are exchangeable,
so the children are laid out in one block per (type, support point) and a
uniform r-subset of them is drawn by index, straight from the trace. The cost
does not depend on the population size.

The probability that a sample hits r distinct families given the realized
family sizes, e_r(sizes) / C(N, r), is what the estimators run, in floats
that are exact to rounding (``prob_distinct``: one saddle-scaled product of
binomial rows, at a cost that does not depend on the population size). The
oracles are exact: the same ratio in big-integer arithmetic
(``prob_distinct_exact``), and the two-individual joint law enumerated
exhaustively at small scale (with an independent closed-form evaluator to
check it against).
"""

from __future__ import annotations

import itertools
import math
import numbers
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    EnumerationTooLarge,
    InvalidArgument,
    InvalidSampleSize,
    SampleExceedsPopulation,
)
from .models import BranchingModel, SupportLookup
from .simulate import GenerationTrace, SeedSpec, sampling_view
from .spectral import SizeBiasedLaw


@dataclass(frozen=True)
class FamilySample:
    """r sampled individuals: brood vectors plus parent identities."""

    broods: np.ndarray
    parent_types: np.ndarray
    parent_indices: np.ndarray

    def __post_init__(self):
        self.broods.setflags(write=False)
        self.parent_types.setflags(write=False)
        self.parent_indices.setflags(write=False)

    @property
    def r(self) -> int:
        return self.broods.shape[0]


def draw_family_sample(
    trace: GenerationTrace, r: int, seed: SeedSpec | None = None
) -> FamilySample:
    """Sample r distinct individuals of generation n uniformly, without replacement.

    The final transition's children are laid out in blocks: type-major, then
    support points in ``law.vectors`` order, block (i, j) holding the
    ``last_brood_counts[i][j]`` families of that brood one after another.
    Floyd's subset algorithm picks r distinct child indices from
    ``sampling_stream(n - 1)`` of ``seed`` (the trace's own by default) and a
    permutation from the same stream puts them in uniformly random order.
    ``parent_indices`` numbers the families of each parent type in that
    layout, so two records share a parent exactly when they share (parent
    type, parent index).
    """
    brood_counts = sampling_view(trace).last_brood_counts
    r = int(r)
    if r < 0:
        raise InvalidSampleSize(f"sample size must be >= 0, got {r}")
    laws = trace.model.laws
    counts = np.concatenate(brood_counts)
    sizes = np.concatenate([law.sizes for law in laws])
    block_children = counts * sizes
    block_end = np.cumsum(block_children)
    n_children = int(block_end[-1])
    if r > n_children:
        raise SampleExceedsPopulation(f"asked for {r} of {n_children} individuals")
    rng = (seed or trace.seed).sampling_stream(trace.n - 1)
    chosen = _distinct_uniform_indices(rng, n_children, r)[rng.permutation(r)]
    # first family ordinal of each block among the families of its parent type
    family_start = np.concatenate([np.cumsum(c) - c for c in brood_counts])
    block = np.searchsorted(block_end, chosen, side="right")
    offset = chosen - (block_end - block_children)[block]
    block_type = np.repeat(np.arange(len(laws)), [law.n_points for law in laws])
    return FamilySample(
        broods=np.concatenate([law.vectors for law in laws])[block],
        parent_types=block_type[block],
        parent_indices=family_start[block] + offset // sizes[block],
    )


def _distinct_uniform_indices(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    # Floyd's algorithm: a uniform r-subset of range(n) in exactly r draws,
    # the draw for j uniform on [0, j].
    chosen: set[int] = set()
    for j, t in zip(range(n - r, n), rng.integers(0, np.arange(n - r + 1, n + 1)).tolist()):
        chosen.add(j if t in chosen else t)
    return np.sort(np.fromiter(chosen, dtype=np.int64, count=r))


def is_non_sibling(sample: FamilySample) -> bool:
    """True iff no two sampled individuals share a parent."""
    pairs = set(zip(sample.parent_types.tolist(), sample.parent_indices.tolist()))
    return len(pairs) == sample.r


def _integral(value, what: str) -> int:
    # A number that must be a whole number: any integer type or an integral float.
    if isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise InvalidArgument(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SampleSizeRule:
    """How the sample size grows with the generation index.

    ``polynomial`` gives r_n = round(n^exponent) (the default n^2),
    ``fixed`` a constant size.
    """

    kind: str = "polynomial"
    exponent: float = 2.0
    size: int = 0

    def __post_init__(self):
        if self.kind not in ("polynomial", "fixed"):
            raise InvalidSampleSize(f"unknown rule kind {self.kind!r}")
        if not math.isfinite(self.exponent):
            raise InvalidSampleSize(f"rule exponent must be finite, got {self.exponent}")

    def sample_size(self, n: int) -> int:
        try:
            r = int(round(float(n) ** self.exponent) if self.kind == "polynomial" else self.size)
        except OverflowError:
            raise InvalidSampleSize(f"rule n^{self.exponent} at n = {n} is too large") from None
        if r < 1:
            raise InvalidSampleSize(f"rule produced r = {r} at n = {n}")
        return r

    def validity(self, n: int, rho: float) -> float:
        """r_n^2 rho^-n; should head to 0 for the sample to decorrelate."""
        return self.sample_size(n) ** 2 * rho ** (-n)

    def to_dict(self) -> dict:
        if self.kind == "polynomial":
            return {"kind": "polynomial", "exponent": self.exponent}
        return {"kind": "fixed", "size": self.size}

    @staticmethod
    def from_dict(d: dict) -> "SampleSizeRule":
        kind = d["kind"]
        if kind == "fixed":
            return SampleSizeRule(kind="fixed", size=_integral(d["size"], "rule size"))
        return SampleSizeRule(kind=kind, exponent=float(d.get("exponent", 2.0)))


# ---------------------------------------------------------------------------
# Probability of hitting r distinct families
# ---------------------------------------------------------------------------

# Binomial rows are built in runs of this many ratios, so the running
# product of mantissas in [1/2, 1) stays a normal float.
_BINOMIAL_RUN = 512


def _size_counts(
    family_sizes: Sequence[int] | dict[int, int], r: int
) -> tuple[dict[int, int], int]:
    # The {size: count} multiset of a size list or multiset, and r, checked.
    if not isinstance(family_sizes, dict):
        family_sizes = Counter(family_sizes)
    counts = {}
    for s, c in family_sizes.items():
        s, c = _integral(s, "a family size"), _integral(c, "a family count")
        if c < 0 or (c and s < 1):
            raise InvalidArgument(f"{c} families of size {s}: need sizes > 0 and counts >= 0")
        if c:
            counts[s] = c
    r = _integral(r, "r")
    n_total = sum(s * c for s, c in counts.items())
    if r < 0 or r > n_total:
        raise InvalidSampleSize(f"r = {r} outside [0, {n_total}]")
    return counts, r


def prob_distinct(family_sizes: Sequence[int] | dict[int, int], r: int) -> float:
    """P(all r sampled individuals come from distinct families | sizes), in floats.

    The same e_r(sizes) / C(N, r) as ``prob_distinct_exact``, with the same
    inputs and errors. With c_s families of size s, F of them in all, for
    any t > 0

        P = [y^r] prod_s (1 + s t y)^{c_s} / (C(N, r) t^r).

    t solves sum_s c_s s t / (1 + s t) = min(r, F - 1/2), a saddle point
    that puts the mean of the tilted coefficients at r, near their peak.
    Row s, C(c_s, k) (s t)^k for k <= min(c_s, r), and C(N, r) t^r come from
    one row builder; the rows are convolved, truncated at degree r, each
    row and partial product scaled by a power of two to its largest entry.
    Every term is nonnegative, so the relative error is O((r + G) eps) over
    G size groups; entries below 2^-1074 of a row's largest, flushed to
    zero, lie too far from the saddle to reach coefficient r. Work is at
    most r sum_s min(c_s, r) multiply-adds and does not depend on N.
    """
    counts, r = _size_counts(family_sizes, r)
    if r <= 1:
        return 1.0
    sizes, mult = np.array(sorted(counts.items()), dtype=float).T
    n_families = mult.sum()
    if r > n_families:
        return 0.0
    t = _saddle(sizes, mult, min(r, n_families - 0.5))
    poly, scale = np.ones(1), 0
    for s, c in zip(sizes, mult):
        k = np.arange(min(c, r))
        mant, expo = _binomial_row((c - k) / (k + 1) * (s * t))
        peak = int(expo.max())
        poly = np.convolve(poly, np.ldexp(mant, expo - peak))[: r + 1]
        top = int(np.frexp(poly.max())[1])
        poly = np.ldexp(poly, -top)
        scale += peak + top
    i = np.arange(r)
    mant, expo = _binomial_row((sizes @ mult - i) / (i + 1) * t)
    return float(np.ldexp(poly[r] / mant[-1], scale - int(expo[-1])))


def _saddle(sizes: np.ndarray, mult: np.ndarray, target: float) -> float:
    # t > 0 with sum c s t / (1 + s t) = target < F: Newton in log t, kept
    # inside a bracket (the sum is at most N t and at least F (1 - 1/t)).
    f = mult.sum()
    lo, hi = np.log(target / (sizes @ mult)), np.log(f / (f - target))
    u = 0.5 * (lo + hi)
    for _ in range(100):
        p = 1.0 / (1.0 + np.exp(-u) / sizes)
        gap = mult @ p - target
        lo, hi = (lo, u) if gap > 0 else (u, hi)
        step = gap / (mult @ (p - p * p))
        u = u - step if lo < u - step < hi else 0.5 * (lo + hi)
        if abs(step) <= 1e-7:
            break
    return float(np.exp(u))


def _binomial_row(ratios: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The running products 1, x_0, x_0 x_1, ... of the positive ratios x_i,
    # as mantissa * 2**exponent so that no entry overflows or underflows.
    frac, expo = np.frexp(ratios)
    mant = np.empty(ratios.size + 1)
    exps = np.empty(ratios.size + 1, dtype=np.int32)
    mant[0], exps[0] = 0.5, 1
    for lo in range(0, ratios.size, _BINOMIAL_RUN):
        run = slice(lo, lo + _BINOMIAL_RUN)
        f, e = np.frexp(mant[lo] * np.cumprod(frac[run]))
        mant[lo + 1 : lo + 1 + f.size] = f
        exps[lo + 1 : lo + 1 + f.size] = exps[lo] + np.cumsum(expo[run]) + e
    return mant, exps


def _esp_of_multiset(size_counts: dict[int, int], r: int) -> int:
    # Product over groups of (1 + s x)^m, truncated at degree r; coefficient
    # extraction per group is exact via binomials, so groups of equal sizes
    # cost O(r) instead of O(m r).
    poly = [1]
    for s, m in sorted(size_counts.items()):
        top = min(m, r)
        group = [math.comb(m, j) * s**j for j in range(top + 1)]
        if len(poly) == 1:
            new = [poly[0] * g for g in group]
        else:
            new = [0] * min(len(poly) + len(group) - 1, r + 1)
            for a, pa in enumerate(poly):
                for bi in range(min(len(group), len(new) - a)):
                    new[a + bi] += pa * group[bi]
        poly = new[: r + 1]
    return poly[r] if len(poly) > r else 0


def prob_distinct_exact(family_sizes: Sequence[int] | dict[int, int], r: int) -> Fraction:
    """P(all r sampled individuals come from distinct families | sizes).

    Equals e_r(sizes) / C(N, r) with N the total number of individuals,
    computed in exact rational arithmetic. Accepts either a list of sizes or
    a {size: count} multiset.
    """
    counts, r = _size_counts(family_sizes, r)
    if r <= 1:
        return Fraction(1)
    n_total = sum(s * c for s, c in counts.items())
    return Fraction(_esp_of_multiset(counts, r), math.comb(n_total, r))


# ---------------------------------------------------------------------------
# Two-individual joint law at tiny scale
# ---------------------------------------------------------------------------

MAX_ENUM_PARENTS = 8
# Each assignment costs a k x k outer product over the k support points, so
# the guard bounds assignments * k^2.
MAX_ENUM_WORK = 10**7


@dataclass(frozen=True)
class PairPmf(SupportLookup):
    """Joint law of the first two sampled broods, conditional on Z_{n-1}."""

    vectors: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        self.vectors.setflags(write=False)
        self.table.setflags(write=False)

    def prob_of(self, u, v) -> float:
        a, b = self.row_of(u), self.row_of(v)
        if a is None or b is None:
            return 0.0
        return float(self.table[a, b])

    def total_mass(self) -> float:
        return float(self.table.sum())


def _parent_counts(z_prev: Sequence[int]) -> list[int]:
    z_prev = [int(c) for c in z_prev]
    if sum(z_prev) < 1 or min(z_prev) < 0:
        raise InvalidArgument(f"need at least one parent and no negative count, got {z_prev}")
    return z_prev


def pair_pmf_exact(model: BranchingModel, z_prev: Sequence[int]) -> PairPmf:
    """Exhaustive-enumeration oracle for the two-individual sampling law.

    Iterates every assignment of brood vectors to the parents, weights it by
    its probability, and counts ordered pairs of distinct children per
    (u, v): cross-family pairs contribute |u||v| per family pair, same-family
    pairs |u|(|u|-1) on the diagonal. Guarded to small parent vectors and to
    at most ``MAX_ENUM_WORK`` assignments times squared support points.
    """
    z_prev = _parent_counts(z_prev)
    m = sum(z_prev)
    if m > MAX_ENUM_PARENTS:
        raise EnumerationTooLarge(f"{m} parents exceeds the enumeration guard")
    vectors, probs = model.support_union
    k = vectors.shape[0]
    sizes = vectors.sum(axis=1).astype(float)
    # probs[i, j] = p_i(vectors[j]): a law's support points are its nonzero
    # columns, in the law's own (lexicographic) order
    support_of = [
        [(int(j), float(probs[i, j])) for j in np.flatnonzero(probs[i])]
        for i, c in enumerate(z_prev)
        for _ in range(c)
    ]
    total_assignments = math.prod(len(s) for s in support_of)
    if total_assignments * k * k > MAX_ENUM_WORK:
        raise EnumerationTooLarge(
            f"{total_assignments} assignments over {k} support points exceed the guard"
        )

    table = np.zeros((k, k))
    for combo in itertools.product(*support_of):
        prob = math.prod(p for _, p in combo)
        counts = np.bincount([j for j, _ in combo], minlength=k).astype(float)
        w = counts * sizes
        total = w.sum()
        if total < 2:
            continue  # cannot sample two individuals from this realization
        pair_counts = np.outer(w, w) - np.diag(counts * sizes)
        table += prob * pair_counts / (total * (total - 1.0))
    return PairPmf(vectors=vectors, table=table)


def pair_pmf_closed_form(
    model: BranchingModel, z_prev: Sequence[int], include_same_family: bool = True
) -> PairPmf:
    """Term-by-term evaluation of the two-individual joint law.

    With p_i the type-i offspring law and sizes |u|, |v|,

        P(X1=u, X2=v | z) = |u||v| sum_{i,j} z_i (z_j - [i=j]) p_i(u) p_j(v) g_ij(|u|+|v|)
                            + [u=v] |u|(|u|-1) sum_i z_i p_i(u) g_i(|u|):

    ordered pairs of distinct families (parent types i, j), then one family
    holding both. g_S(t) = E[1 / ((t + R_S)(t + R_S - 1))], with R_S the total
    size of the families left once those in S are removed (the convolution of
    their size pmfs); t + R_S < 2 holds no pair and counts 0. Independent of
    the enumeration oracle; ``include_same_family=False`` drops the diagonal
    term (to show it is load-bearing).
    """
    z_prev = _parent_counts(z_prev)
    vectors, probs = model.support_union
    sizes = vectors.sum(axis=1)
    pair_sizes = sizes[:, None] + sizes
    weighted = probs * sizes  # p_i(u) |u|

    def g(*pinned: int) -> np.ndarray:
        # g over t = 0..max(|u| + |v|) for the families left once `pinned` are removed
        dist = np.array([1.0])
        for i, c in enumerate(z_prev):
            for _ in range(c - pinned.count(i)):
                dist = np.convolve(dist, model.laws[i].size_pmf())
        t = np.arange(pair_sizes.max() + 1)[:, None] + np.arange(dist.size)
        return (dist / np.where(t >= 2, t * (t - 1.0), np.inf)).sum(axis=1)

    table = np.zeros(pair_sizes.shape)
    for i, j in itertools.product(range(len(z_prev)), repeat=2):
        families = z_prev[i] * (z_prev[j] - (i == j))
        if families > 0:
            table += families * np.outer(weighted[i], weighted[j]) * g(i, j)[pair_sizes]
    if include_same_family:
        for i in np.flatnonzero(z_prev):
            table += np.diag(z_prev[i] * weighted[i] * (sizes - 1) * g(i)[sizes])
    return PairPmf(vectors=vectors, table=table)


# ---------------------------------------------------------------------------
# Empirical convergence toward the size-biased law
# ---------------------------------------------------------------------------


def empirical_tv_to_limit(samples: Sequence[FamilySample], ps: SizeBiasedLaw) -> float:
    """Total-variation distance of the pooled samples' brood marginal from p_S."""
    marginal: Counter = Counter()
    for sample in samples:
        marginal.update(tuple(row) for row in sample.broods.tolist())
    n_marginal = sum(marginal.values())
    if n_marginal == 0:
        raise InvalidArgument("no sampled broods")
    support = {tuple(v) for v in ps.vectors.tolist()}
    return 0.5 * sum(
        abs(marginal.get(u, 0) / n_marginal - ps.prob_of(u)) for u in support | set(marginal)
    )
