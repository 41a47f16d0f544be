"""Family-size sampling and its exact combinatorial oracles.

Sampling picks r distinct individuals uniformly from a generation; each one
reports its whole family (brood vector) and parent identity. Given the final
transition's family counts per (parent type, support point), families whose
parents share a type are exchangeable, so the children are laid out in one
block per (type, support point) and a uniform r-subset of them is drawn by
index. The cost does not depend on the population size.

The probability that a sample hits r distinct families given the realized
family sizes, e_r(sizes) / C(N, r), is what the estimators run, in floats
that are exact to rounding (``prob_distinct``). The oracles are exact: the
same ratio in big-integer arithmetic (``prob_distinct_exact``), and the
two-individual joint law enumerated exhaustively at small scale (with an
independent closed-form evaluator to check it against).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .errors import (
    EnumerationTooLarge,
    InvalidSampleSize,
    NotPositivelyRegular,
    SampleExceedsPopulation,
)
from .simulate import SamplingView, SeedSpec, simulate_aggregate

if TYPE_CHECKING:
    from .models import BranchingModel
    from .spectral import SizeBiasedLaw


@dataclass(frozen=True)
class FamilySample:
    """r sampled individuals: brood vectors plus parent identities."""

    broods: np.ndarray
    parent_types: np.ndarray
    parent_indices: np.ndarray
    generation: int
    population_total: int

    def __post_init__(self):
        self.broods.setflags(write=False)
        self.parent_types.setflags(write=False)
        self.parent_indices.setflags(write=False)

    @property
    def r(self) -> int:
        return self.broods.shape[0]


def draw_family_sample(view: SamplingView, r: int, seed: SeedSpec | None = None) -> FamilySample:
    """Sample r distinct individuals uniformly, without replacement.

    The view's children are laid out in blocks: type-major, then support
    points in ``law.vectors`` order, block (i, j) holding the
    ``brood_counts[i][j]`` families of that brood one after another. Floyd's
    subset algorithm picks r distinct child indices and a seeded permutation
    puts them in uniformly random order. ``parent_indices`` numbers the
    families of each parent type in that layout, so two records share a
    parent exactly when they share (parent type, parent index).
    """
    r = int(r)
    if r < 0:
        raise InvalidSampleSize(f"sample size must be >= 0, got {r}")
    n_children = view.total_children()
    if r > n_children:
        raise SampleExceedsPopulation(f"asked for {r} of {n_children} individuals")
    if seed is None:
        seed = view.seed
    rng = seed.sampling_stream(view.generation)
    chosen = _distinct_uniform_indices(rng, n_children, r)[rng.permutation(r)]
    laws = view.model.laws
    counts = np.concatenate(view.brood_counts)
    sizes = np.concatenate([law.sizes for law in laws])
    block_children = counts * sizes
    block_end = np.cumsum(block_children)
    # first family ordinal of each block among the families of its parent type
    family_start = np.concatenate([np.cumsum(c) - c for c in view.brood_counts])
    block = np.searchsorted(block_end, chosen, side="right")
    offset = chosen - (block_end - block_children)[block]
    block_type = np.repeat(np.arange(len(laws)), [law.n_points for law in laws])
    return FamilySample(
        broods=np.concatenate([law.vectors for law in laws])[block],
        parent_types=block_type[block],
        parent_indices=family_start[block] + offset // sizes[block],
        generation=view.generation + 1,
        population_total=n_children,
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


@dataclass(frozen=True)
class SampleSizeRule:
    """How the sample size grows with the generation index.

    ``polynomial`` gives r_n = round(n^exponent) (the default n^2),
    ``fixed`` a constant size, ``custom`` whatever the callable returns.
    """

    kind: str = "polynomial"
    exponent: float = 2.0
    size: int = 0
    fn: Callable[[int], int] | None = None

    def sample_size(self, n: int) -> int:
        if self.kind == "polynomial":
            r = round(float(n) ** self.exponent)
        elif self.kind == "fixed":
            r = self.size
        elif self.kind == "custom":
            if self.fn is None:
                raise InvalidSampleSize("custom rule needs a callable")
            r = self.fn(n)
        else:
            raise InvalidSampleSize(f"unknown rule kind {self.kind!r}")
        r = int(r)
        if r < 1:
            raise InvalidSampleSize(f"rule produced r = {r} at n = {n}")
        return r

    def validity(self, n: int, rho: float) -> float:
        """r_n^2 rho^-n; should head to 0 for the sample to decorrelate."""
        return self.sample_size(n) ** 2 * rho ** (-n)

    def to_dict(self) -> dict:
        if self.kind == "polynomial":
            return {"kind": "polynomial", "exponent": self.exponent}
        if self.kind == "fixed":
            return {"kind": "fixed", "size": self.size}
        raise ValueError("only polynomial/fixed rules serialize")

    @staticmethod
    def from_dict(d: dict) -> "SampleSizeRule":
        kind = d["kind"]
        if kind == "polynomial":
            return SampleSizeRule(kind="polynomial", exponent=float(d.get("exponent", 2.0)))
        if kind == "fixed":
            return SampleSizeRule(kind="fixed", size=int(d["size"]))
        raise InvalidSampleSize(f"unknown rule kind {kind!r}")


# ---------------------------------------------------------------------------
# Probability of hitting r distinct families
# ---------------------------------------------------------------------------

# Binomial rows are built in runs of this many ratios, so the running
# product of mantissas in [1/2, 1) stays a normal float.
_BINOMIAL_RUN = 512
# Base-2 exponent standing for "no mass" in a binomial row.
_NO_MASS = -(1 << 30)


def _size_counts(
    family_sizes: Sequence[int] | dict[int, int], r: int
) -> tuple[dict[int, int], int]:
    # The {size: count} multiset of a size list or multiset, and r, checked.
    if isinstance(family_sizes, dict):
        counts = {int(s): int(c) for s, c in family_sizes.items() if c}
    else:
        counts = dict(Counter(int(s) for s in family_sizes))
    if any(s < 1 for s in counts):
        raise ValueError("family sizes must be positive")
    r = int(r)
    n_total = sum(s * c for s, c in counts.items())
    if r < 0 or r > n_total:
        raise InvalidSampleSize(f"r = {r} outside [0, {n_total}]")
    return counts, r


def prob_distinct(family_sizes: Sequence[int] | dict[int, int], r: int) -> float:
    """P(all r sampled individuals come from distinct families | sizes), in floats.

    The same e_r(sizes) / C(N, r) as ``prob_distinct_exact``, with the same
    inputs and errors, exact to a few units of rounding. Size groups are
    merged one at a time, carrying q_k = e_k(merged) / C(N_merged, k) for
    k <= r, which lies in [0, 1]. Adding c families of size s, B = s c
    children, to A children already merged gives

        q'_k = sum_j H_k(j) q_{k-j} rho_j,

    with H_k the hypergeometric pmf of j children out of B among k drawn
    from A + B, and rho_j = prod_{i<j} (c - i) s / (B - i) the probability
    that j children drawn from the group come from distinct families (0 for
    j > c). Every term is nonnegative, so nothing cancels. H_k(j) is
    proportional to C(A, k - j) C(B, j): both binomial rows are built from
    their successive ratios as mantissa and base-2 exponent, so no row
    overflows, and H_k is normalised by its sum over its full support.
    Work is O(r^2) per size group and does not depend on N.
    """
    counts, r = _size_counts(family_sizes, r)
    if r <= 1:
        return 1.0
    groups = sorted(counts.items())
    # A later group reaches back at most c rows (rho_j = 0 for j > c), so
    # each merge needs rows from `lowest` up only; the last needs row r.
    lowest = [r]
    for _, c in reversed(groups[1:]):
        lowest.append(max(lowest[-1] - c, 0))
    q = np.ones(1)
    merged = 0
    for (s, c), k_from in zip(groups, reversed(lowest)):
        top = min(merged + s * c, r)
        q_next = np.zeros(top + 1)
        q_next[k_from:] = _merge_size_group(q, merged, s, c, k_from, top)
        q = q_next
        merged += s * c
    return float(q[r])


def _merge_size_group(q: np.ndarray, a: int, s: int, c: int, k_from: int, top: int) -> np.ndarray:
    # q'_k for k = k_from..top after adding c families of size s to the `a`
    # children merged so far. Column t of each matrix holds j = width - 1 - t,
    # so every C(a, k - j) matrix is a forward sliding window over a padded row.
    b = s * c
    width = min(b, top) + 1
    mant_a, exp_a = _binomial_row(a, min(a, top))
    mant_b, exp_b = _binomial_row(b, width - 1)
    rows = slice(k_from, top + 1)
    expo = _lagged(exp_a, top, width, _NO_MASS)[rows] + exp_b[::-1]
    expo -= expo.max(axis=1, keepdims=True)
    h = _lagged(mant_a, top, width, 0.0)[rows] * mant_b[::-1]
    np.ldexp(h, expo, out=h)
    i = np.arange(width - 1.0)
    rho = np.concatenate(([1.0], np.cumprod(np.maximum(c - i, 0.0) * s / (b - i))))
    weighted = np.einsum("kt,kt,t->k", h, _lagged(q, top, width, 0.0)[rows], rho[::-1])
    return weighted / h.sum(axis=1)


def _binomial_row(n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    # C(n, i) for i = 0..m as mantissa * 2**exponent, from the ratios
    # C(n, i + 1) / C(n, i) = (n - i) / (i + 1).
    frac, expo = np.frexp((n - np.arange(m)) / np.arange(1.0, m + 1))
    mant = np.empty(m + 1)
    exps = np.empty(m + 1, dtype=np.int32)
    mant[0], exps[0] = 0.5, 1
    for lo in range(0, m, _BINOMIAL_RUN):
        run = slice(lo, lo + _BINOMIAL_RUN)
        f, e = np.frexp(mant[lo] * np.cumprod(frac[run]))
        mant[lo + 1 : lo + 1 + f.size] = f
        exps[lo + 1 : lo + 1 + f.size] = exps[lo] + np.cumsum(expo[run]) + e
    return mant, exps


def _lagged(x: np.ndarray, top: int, width: int, fill) -> np.ndarray:
    # Rows k = 0..top, column t = x[k - (width - 1 - t)], `fill` outside x.
    padded = np.full(top + width, fill, dtype=x.dtype)
    padded[width - 1 : width - 1 + min(x.size, top + 1)] = x[: top + 1]
    return np.lib.stride_tricks.sliding_window_view(padded, width)


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


@dataclass(frozen=True)
class NonSiblingEstimate:
    """Monte Carlo estimate of the no-siblings-in-sample probability."""

    estimate: float
    ci: tuple[float, float]
    rate_diagnostic: float
    alpha: float
    n: int
    r: int
    replicates: int
    validity: float
    per_replicate: tuple[float, ...]


def estimate_prob_distinct(
    model: "BranchingModel",
    z0: Sequence[int],
    n: int,
    rule: SampleSizeRule,
    replicates: int,
    seed: SeedSpec,
) -> NonSiblingEstimate:
    """Rao-Blackwellized estimate of the non-sibling probability at generation n.

    Each replicate simulates the tree to generation n and evaluates the
    conditional probability given the realized family sizes
    (``prob_distinct``, exact to rounding) rather than a 0/1 sibling
    indicator, which removes all within-tree sampling noise. The rate
    diagnostic reports rho^(alpha n) r^-2 (1 - estimate) at alpha = half the
    model's ``max_alpha`` (NaN when the model is not supercritical).
    """
    from .estimators import _normal_quantile
    from .models import validate_model

    if replicates < 1:
        raise ValueError("need at least one replicate")
    report = validate_model(model)
    if report.rho is None:
        raise NotPositivelyRegular("reproduction matrix has no strictly positive power")
    r = rule.sample_size(n)
    values = []
    for k in range(replicates):
        trace = simulate_aggregate(model, z0, n, seed.with_replicate(k))
        values.append(prob_distinct(trace.family_size_counts(), r))
    values_arr = np.array(values)
    estimate = float(values_arr.mean())
    sd = float(values_arr.std(ddof=1)) if replicates > 1 else 0.0
    half = _normal_quantile(0.95) * sd / math.sqrt(replicates)
    alpha = report.max_alpha / 2.0 if report.max_alpha is not None else math.nan
    rate = report.rho ** (alpha * n) * r ** (-2.0) * (1.0 - estimate)
    return NonSiblingEstimate(
        estimate=estimate,
        ci=(estimate - half, estimate + half),
        rate_diagnostic=rate,
        alpha=alpha,
        n=n,
        r=r,
        replicates=replicates,
        validity=rule.validity(n, report.rho),
        per_replicate=tuple(values),
    )


# ---------------------------------------------------------------------------
# Two-individual joint law at tiny scale
# ---------------------------------------------------------------------------

MAX_ENUM_PARENTS = 8
MAX_ENUM_ASSIGNMENTS = 10**7


@dataclass(frozen=True)
class PairPmf:
    """Joint law of the first two sampled broods, conditional on Z_{n-1}."""

    vectors: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        self.vectors.setflags(write=False)
        self.table.setflags(write=False)

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {tuple(int(x) for x in v): j for j, v in enumerate(self.vectors)}

    def prob_of(self, u, v) -> float:
        a = self._index.get(tuple(int(x) for x in u))
        b = self._index.get(tuple(int(x) for x in v))
        if a is None or b is None:
            return 0.0
        return float(self.table[a, b])

    def total_mass(self) -> float:
        return float(self.table.sum())


def pair_pmf_exact(model: "BranchingModel", z_prev: Sequence[int]) -> PairPmf:
    """Exhaustive-enumeration oracle for the two-individual sampling law.

    Iterates every assignment of brood vectors to the parents, weights it by
    its probability, and counts ordered pairs of distinct children per
    (u, v): cross-family pairs contribute |u||v| per family pair, same-family
    pairs |u|(|u|-1) on the diagonal. Guarded to small parent vectors.
    """
    z_prev = [int(c) for c in z_prev]
    m = sum(z_prev)
    if m > MAX_ENUM_PARENTS:
        raise EnumerationTooLarge(f"{m} parents exceeds the enumeration guard")
    if m < 1:
        raise ValueError("need at least one parent")
    vectors, probs = model.support_union
    k = vectors.shape[0]
    sizes = vectors.sum(axis=1).astype(float)
    parent_types = [i for i, c in enumerate(z_prev) for _ in range(c)]
    support_of = []
    for i in parent_types:
        law = model.laws[i]
        rows = [int(np.flatnonzero((vectors == v).all(axis=1))[0]) for v in law.vectors]
        support_of.append([(j, float(p)) for j, p in zip(rows, law.probs)])
    total_assignments = math.prod(len(s) for s in support_of)
    if total_assignments > MAX_ENUM_ASSIGNMENTS:
        raise EnumerationTooLarge(f"{total_assignments} assignments exceed the guard")

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
    model: "BranchingModel", z_prev: Sequence[int], include_same_family: bool = True
) -> PairPmf:
    """Direct term-by-term evaluation of the two-individual joint law.

    Splits P(X1=u, X2=v | Z_{n-1}) by the parents of the two samples --
    same-type distinct families, different-type families, and (on the
    diagonal, for |u| > 1) the same family -- and evaluates each term's
    expectation over the unrealized sibling families exactly, via the
    convolution of their size distributions. Independent of the enumeration
    oracle; ``include_same_family=False`` drops the diagonal same-family
    term (useful to show the term is load-bearing).
    """
    z_prev = [int(c) for c in z_prev]
    if sum(z_prev) < 1:
        raise ValueError("need at least one parent")
    vectors, probs = model.support_union
    k = vectors.shape[0]
    sizes = vectors.sum(axis=1)
    size_pmfs = [law.size_pmf() for law in model.laws]

    def rest_dist(remaining: Sequence[int]) -> np.ndarray:
        dist = np.array([1.0])
        for i, c in enumerate(remaining):
            for _ in range(c):
                dist = np.convolve(dist, size_pmfs[i])
        return dist

    def inv_pair_mean(remaining: Sequence[int], pinned: int) -> float:
        # E[ 1 / ((pinned + R)(pinned + R - 1)) ] with R the total size of
        # the remaining, unpinned families.
        dist = rest_dist(remaining)
        t = pinned + np.arange(dist.size, dtype=float)
        return float(np.sum(dist / (t * (t - 1.0))))

    table = np.zeros((k, k))
    for a in range(k):
        for bq in range(k):
            su, sv = int(sizes[a]), int(sizes[bq])
            acc = 0.0
            # two distinct families with parents of the same type
            for i, zi in enumerate(z_prev):
                if zi >= 2 and probs[i, a] > 0 and probs[i, bq] > 0:
                    remaining = list(z_prev)
                    remaining[i] -= 2
                    acc += (
                        zi
                        * (zi - 1)
                        * probs[i, a]
                        * probs[i, bq]
                        * su
                        * sv
                        * inv_pair_mean(remaining, su + sv)
                    )
            # families with parents of different types, ordered
            for i, zi in enumerate(z_prev):
                for j, zj in enumerate(z_prev):
                    if i == j or zi == 0 or zj == 0:
                        continue
                    if probs[i, a] == 0 or probs[j, bq] == 0:
                        continue
                    remaining = list(z_prev)
                    remaining[i] -= 1
                    remaining[j] -= 1
                    acc += (
                        zi
                        * zj
                        * probs[i, a]
                        * probs[j, bq]
                        * su
                        * sv
                        * inv_pair_mean(remaining, su + sv)
                    )
            # both individuals from one family: diagonal only, needs |u| > 1
            if include_same_family and a == bq and su > 1:
                for i, zi in enumerate(z_prev):
                    if zi == 0 or probs[i, a] == 0:
                        continue
                    remaining = list(z_prev)
                    remaining[i] -= 1
                    acc += zi * probs[i, a] * su * (su - 1) * inv_pair_mean(remaining, su)
            table[a, bq] = acc
    return PairPmf(vectors=vectors, table=table)


# ---------------------------------------------------------------------------
# Empirical convergence toward the size-biased law
# ---------------------------------------------------------------------------


def empirical_tv_to_limit(
    samples: Sequence[FamilySample], ps: "SizeBiasedLaw"
) -> tuple[float, float]:
    """Total-variation distances of pooled samples from the limit law.

    Returns (tv of the pooled brood marginal vs p_S, tv of the first two
    broods' joint vs the product p_S x p_S). The pair distance uses one pair
    per sample and is NaN when no sample has two records.
    """
    marginal: Counter = Counter()
    pairs: Counter = Counter()
    n_marginal = 0
    n_pairs = 0
    for sample in samples:
        for row in sample.broods:
            marginal[tuple(int(x) for x in row)] += 1
            n_marginal += 1
        if sample.r >= 2:
            pairs[
                (
                    tuple(int(x) for x in sample.broods[0]),
                    tuple(int(x) for x in sample.broods[1]),
                )
            ] += 1
            n_pairs += 1
    if n_marginal == 0:
        raise ValueError("no sampled broods")
    support = {tuple(int(x) for x in v) for v in ps.vectors}
    tv_marginal = 0.5 * sum(
        abs(marginal.get(u, 0) / n_marginal - ps.prob_of(u))
        for u in support | set(marginal)
    )
    if n_pairs == 0:
        return tv_marginal, float("nan")
    pair_keys = {(u, v) for u in support for v in support} | set(pairs)
    tv_pair = 0.5 * sum(
        abs(pairs.get((u, v), 0) / n_pairs - ps.prob_of(u) * ps.prob_of(v))
        for (u, v) in pair_keys
    )
    return tv_marginal, tv_pair
