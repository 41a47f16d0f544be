"""Offspring laws, multi-type branching models, and the built-in examples.

A model bundles one finite-support offspring law per parent type. Support
points are vectors of per-type child counts; the all-zero vector is never
allowed, so every family has at least one member and the simulated process
cannot go extinct. All objects are immutable after construction and safe to
share across workers.
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    DuplicateSupportPoint,
    GwfamError,
    InvalidArgument,
    ParameterOutOfRange,
    ProbabilitiesDontSumToOne,
    ZeroVectorInSupport,
)

# Inputs may miss probability one by this much before being rejected ...
PROB_SUM_ATOL = 1e-9
# ... and are exactly renormalized, leaving at most this residual.
PROB_SUM_CHECK = 1e-12


def _as_counts(u: Sequence[int], n_types: int | None = None) -> tuple[int, ...]:
    v = tuple(int(x) for x in u)
    if any(x < 0 for x in v):
        raise InvalidArgument(f"offspring counts must be nonnegative, got {v}")
    if n_types is not None and len(v) != n_types:
        raise DimensionMismatch(f"expected {n_types} components, got {len(v)}")
    return v


class SupportLookup:
    """The one lookup of offspring vectors, shared by every table indexed by them.

    A subclass holds the support points as the rows of ``vectors``;
    ``prob_of`` reads its ``probs``, one entry per row (the pair table
    overrides it to read a two-way table).
    """

    @cached_property
    def sizes(self) -> np.ndarray:
        """Family size |v| for each support point."""
        s = self.vectors.sum(axis=1)
        s.setflags(write=False)
        return s

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {tuple(v): j for j, v in enumerate(self.vectors.tolist())}

    def row_of(self, u: Sequence[int]) -> int | None:
        """Row of the offspring vector ``u`` in ``vectors`` (None off support)."""
        return self._index.get(tuple(int(x) for x in u))

    def prob_of(self, u: Sequence[int]) -> float:
        """Probability of the offspring vector ``u`` (0.0 off support)."""
        j = self.row_of(u)
        return float(self.probs[j]) if j is not None else 0.0


@dataclass(frozen=True)
class OffspringLaw(SupportLookup):
    """Finite-support offspring distribution for one parent type.

    ``vectors`` holds the support as an (k, l) integer array with distinct,
    nonzero rows; ``probs`` the matching probabilities, summing to one.
    Build instances through :func:`offspring_law`.
    """

    vectors: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        self.vectors.setflags(write=False)
        self.probs.setflags(write=False)

    @property
    def n_types(self) -> int:
        return self.vectors.shape[1]

    @property
    def n_points(self) -> int:
        return self.vectors.shape[0]

    def mean(self) -> np.ndarray:
        """Mean offspring vector (exact finite sum)."""
        return self.probs @ self.vectors

    def inverse_moment(self) -> float:
        """E(1/|Y|); finite because the zero vector is excluded."""
        return float((self.probs / self.sizes).sum())

    def second_moment(self) -> float:
        """E(|Y|^2)."""
        return float(self.probs @ (self.sizes.astype(float) ** 2))

    def size_pmf(self) -> np.ndarray:
        """Distribution of |Y| as an array indexed by size (entry 0 is 0)."""
        out = np.zeros(int(self.sizes.max()) + 1)
        np.add.at(out, self.sizes, self.probs)
        return out


def offspring_law(entries: Iterable[tuple[Sequence[int], float]]) -> OffspringLaw:
    """Build a validated offspring law from (vector, probability) pairs.

    Probabilities must be positive and sum to one within 1e-9 (the sum is
    then renormalized exactly). Rejects the zero vector, duplicate support
    points, and vectors of mixed length.
    """
    entries = list(entries)
    if not entries:
        raise InvalidArgument("offspring law needs a nonempty support")
    n_types = len(_as_counts(entries[0][0]))
    seen: dict[tuple[int, ...], float] = {}
    for u, p in entries:
        v = _as_counts(u, n_types)
        p = float(p)
        if p <= 0.0:
            raise InvalidArgument(f"support probability must be positive, got {p} for {v}")
        if sum(v) == 0:
            raise ZeroVectorInSupport("offspring law places mass on the zero vector")
        if v in seen:
            raise DuplicateSupportPoint(f"support point {v} listed twice")
        seen[v] = p
    total = math.fsum(seen.values())
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise ProbabilitiesDontSumToOne(f"probabilities sum to {total!r}")
    order = sorted(seen)
    vectors = np.array(order, dtype=np.int64)
    probs = np.array([seen[v] / total for v in order])
    assert abs(probs.sum() - 1.0) <= PROB_SUM_CHECK
    return OffspringLaw(vectors=vectors, probs=probs)


@dataclass(frozen=True)
class BranchingModel:
    """A multi-type branching model: one offspring law per parent type."""

    laws: tuple[OffspringLaw, ...]
    type_names: tuple[str, ...]

    @property
    def n_types(self) -> int:
        return len(self.laws)

    @cached_property
    def second_moment_bound(self) -> float:
        """max_i E(|Y^(i)|^2), the moment bound entering deviation estimates."""
        return max(law.second_moment() for law in self.laws)

    @cached_property
    def inverse_moment_bound(self) -> float:
        """max_i E(1/|Y^(i)|), controlling how fast 1/|Z_n| shrinks."""
        return max(law.inverse_moment() for law in self.laws)

    @cached_property
    def support_union(self) -> tuple[np.ndarray, np.ndarray]:
        """Union of the laws' supports.

        Returns (vectors, probs) where vectors is (k, l) in lexicographic
        order and probs is (l, k) with probs[i, j] = p_i(vectors[j]).
        """
        keys = sorted({tuple(int(x) for x in v) for law in self.laws for v in law.vectors})
        vectors = np.array(keys, dtype=np.int64)
        probs = np.array([[law.prob_of(v) for v in keys] for law in self.laws])
        vectors.setflags(write=False)
        probs.setflags(write=False)
        return vectors, probs


def branching_model(
    laws: Sequence[OffspringLaw], type_names: Sequence[str] | None = None
) -> BranchingModel:
    """Assemble laws (index = parent type) into a validated model."""
    laws = tuple(laws)
    if not laws:
        raise InvalidArgument("model needs at least one offspring law")
    n_types = laws[0].n_types
    if len(laws) != n_types:
        raise DimensionMismatch(
            f"{len(laws)} laws for vectors of length {n_types}; need one law per type"
        )
    for law in laws:
        if law.n_types != n_types:
            raise DimensionMismatch("all laws must share the same number of types")
    if type_names is None:
        type_names = tuple(f"t{i + 1}" for i in range(n_types))
    else:
        type_names = tuple(str(s) for s in type_names)
        if len(type_names) != n_types:
            raise DimensionMismatch("one type name per type required")
    return BranchingModel(laws=laws, type_names=type_names)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks; failures are reported, never raised."""

    assumption1_ok: bool
    assumption2_ok: bool
    positively_regular: bool
    second_moment_bound: float
    inverse_moment_bound: float
    rho: float | None
    max_alpha: float | None
    messages: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.assumption1_ok and self.assumption2_ok


def validate_model(model: BranchingModel) -> ValidationReport:
    """Check non-extinction/supercriticality conditions and record moment bounds.

    ``max_alpha`` is -log_rho(K) for K = max_i E(1/|Y^(i)|), the assumption
    check on the inverse moments: it is positive exactly when K < 1. It is
    reported as computed and may be <= 0 when K >= 1, which adds a message.
    """
    from . import spectral

    messages: list[str] = []
    a1 = True
    for i, law in enumerate(model.laws):
        singles = float(law.probs[law.sizes == 1].sum())
        if singles >= 1.0:
            a1 = False
            messages.append(
                f"law {model.type_names[i]}: all mass on single-child vectors "
                f"(sum {singles:.6g}); growth condition fails"
            )
    m = spectral.reproduction_matrix(model)
    regular = spectral.is_positively_regular(m)
    rho: float | None = None
    if regular:
        rho = spectral.perron(m).rho
    else:
        messages.append("reproduction matrix is not positively regular")
    a2 = regular and rho is not None and rho > 1.0
    if regular and rho is not None and rho <= 1.0:
        messages.append(f"largest eigenvalue {rho:.6g} <= 1; process is not supercritical")
    k_bound = model.inverse_moment_bound
    max_alpha = None
    if rho is not None and rho > 1.0:
        max_alpha = -math.log(k_bound) / math.log(rho)
        if max_alpha <= 0.0:
            messages.append(
                f"inverse-moment bound K={k_bound:.6g} >= 1: no valid rate exponent"
            )
    return ValidationReport(
        assumption1_ok=a1,
        assumption2_ok=a2,
        positively_regular=regular,
        second_moment_bound=model.second_moment_bound,
        inverse_moment_bound=k_bound,
        rho=rho,
        max_alpha=max_alpha,
        messages=tuple(messages),
    )


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def mitosis_model(alpha: float, theta: float) -> BranchingModel:
    """Two-type mitosis model: every cell splits into exactly two cells.

    Type 1 is an unmarked cell, type 2 a marked one. The number of unmarked
    children is Binomial(2, theta) for an unmarked parent and
    Binomial(2, 1 - alpha) for a marked parent.
    """
    alpha = float(alpha)
    theta = float(theta)
    if not (0.0 < alpha < 1.0 and 0.0 < theta < 1.0):
        raise ParameterOutOfRange(
            f"mitosis parameters must lie strictly inside (0, 1), got ({alpha}, {theta})"
        )

    def split(q: float) -> OffspringLaw:
        return offspring_law(
            [((2, 0), q * q), ((1, 1), 2.0 * q * (1.0 - q)), ((0, 2), (1.0 - q) ** 2)]
        )

    return branching_model(
        [split(theta), split(1.0 - alpha)], type_names=("unmarked", "marked")
    )


RDS_POPULATION_SHARES = (0.01, 0.01, 0.10, 0.88)
RDS_MAX_SURVEYS = (10, 10, 7, 5)
# Referral multipliers, row = giver, column = receiver. Receivers in the
# openly-affected group weigh 3x for everyone; the privately-affected group
# weighs 3x only for givers who know their status (groups B and C); community
# members weigh 2x; everyone else 1x.
RDS_REFERRAL_WEIGHTS = (
    (3.0, 1.0, 2.0, 1.0),
    (3.0, 3.0, 2.0, 1.0),
    (3.0, 3.0, 2.0, 1.0),
    (3.0, 1.0, 2.0, 1.0),
)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def rds_model(
    pop_props: Sequence[float] = RDS_POPULATION_SHARES,
    max_surveys: Sequence[int] = RDS_MAX_SURVEYS,
    weight_rule: Sequence[Sequence[float]] | None = None,
) -> BranchingModel:
    """Referral-chain survey model with four respondent groups.

    A respondent of group X hands out n in {1..max_surveys[X]} surveys with
    P(n = k) proportional to 1/k; each survey independently reaches a group
    drawn with probability proportional to weight_rule[X] * pop_props. The
    offspring law is the exact finite mixture of multinomials over n.
    Defaults reproduce the four-group example (A: openly affected, B:
    privately affected, C: community, D: general population).
    """
    p = np.asarray(pop_props, dtype=float)
    n_types = p.size
    if np.any(p <= 0.0) or abs(p.sum() - 1.0) > 1e-9:
        raise ParameterOutOfRange("population shares must be positive and sum to 1")
    caps = [int(c) for c in max_surveys]
    if len(caps) != n_types or any(c < 1 or c != float(m) for c, m in zip(caps, max_surveys)):
        raise ParameterOutOfRange("survey caps must be positive integers, one per group")
    w = np.asarray(
        RDS_REFERRAL_WEIGHTS if weight_rule is None else weight_rule, dtype=float
    )
    if w.shape != (n_types, n_types) or np.any(w <= 0.0):
        raise ParameterOutOfRange("weight rule must be a positive matrix, giver x receiver")

    laws = []
    for g in range(n_types):
        raw = w[g] * p
        pi = raw / raw.sum()
        log_pi = np.log(pi)
        harmonic = math.fsum(1.0 / k for k in range(1, caps[g] + 1))
        entries = []
        for k in range(1, caps[g] + 1):
            p_count = (1.0 / k) / harmonic
            for v in _compositions(k, n_types):
                coef = math.factorial(k)
                for c in v:
                    coef //= math.factorial(c)
                prob = p_count * coef * math.exp(float(np.dot(v, log_pi)))
                entries.append((v, prob))
        laws.append(offspring_law(entries))
    names = ("A", "B", "C", "D") if n_types == 4 else None
    return branching_model(laws, type_names=names)


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

BUILTIN_MODELS = {"mitosis": mitosis_model, "rds": rds_model}


def builtin_model(name: str, **params) -> BranchingModel:
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise InvalidArgument(
            f"unknown builtin model {name!r}; have {sorted(BUILTIN_MODELS)}"
        ) from None
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise InvalidArgument(f"builtin model {name!r}: {exc}") from None
    return factory(**params)


def model_from_dict(spec: dict) -> BranchingModel:
    """Build a model from a JSON-style dict.

    Either ``{"builtin": name, "params": {...}}`` or an explicit listing
    ``{"type_names": [...], "laws": [{"support": [[..], ..], "probs": [..]}, ..]}``.
    """
    try:
        if "builtin" in spec:
            return builtin_model(spec["builtin"], **spec.get("params", {}))
        laws = []
        for law in spec["laws"]:
            support = [[int(x) for x in u] for u in law["support"]]
            probs = [float(p) for p in law["probs"]]
            if len(support) != len(probs):
                raise DimensionMismatch("support and probs must have equal length")
            laws.append(offspring_law(zip(support, probs)))
        return branching_model(laws, type_names=spec.get("type_names"))
    except GwfamError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgument(f"malformed model: {type(exc).__name__}: {exc}") from exc


def model_to_dict(model: BranchingModel) -> dict:
    return {
        "type_names": list(model.type_names),
        "laws": [
            {
                "support": [[int(x) for x in v] for v in law.vectors],
                "probs": [float(p) for p in law.probs],
            }
            for law in model.laws
        ],
    }


def read_json(path: str | Path):
    """Parse a JSON file; a file that is not JSON raises ``InvalidArgument``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InvalidArgument(f"{path} is not valid JSON: {exc}") from None


def load_model(path: str | Path) -> BranchingModel:
    return model_from_dict(read_json(path))


def parse_model_arg(text: str) -> BranchingModel:
    """Parse a CLI model argument: builtin ``name:key=val,...`` or a file path.

    A ``/``-separated value is a list. Examples: ``mitosis:alpha=0.8,theta=0.8``,
    ``rds``, ``rds:max_surveys=3/3/3/3``, ``models/custom.json``.
    """
    head, _, tail = text.partition(":")
    if head in BUILTIN_MODELS:
        params = {}
        if tail:
            for item in tail.split(","):
                key, eq, val = item.partition("=")
                try:
                    if not eq:
                        raise ValueError
                    values = [float(v) for v in val.split("/")]
                    params[key.strip()] = values if "/" in val else values[0]
                except ValueError:
                    raise InvalidArgument(
                        f"malformed model parameter {item!r}; expected key=number or key=n/n/..."
                    ) from None
        return model_from_dict({"builtin": head, "params": params})
    return load_model(text)
