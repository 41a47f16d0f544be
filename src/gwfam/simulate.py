"""Generation-level simulation with deterministic, counter-based randomness.

Every (replicate, generation, parent type) triple owns an independent Philox
stream derived from the master seed. Nothing about scheduling or worker
counts changes the draws, so any replicate can be regenerated from its seed.

Simulation advances whole generations by drawing, per parent type, one
multinomial count over the law's support (cost O(types * support) per step,
independent of the population). The final transition is drawn the same way;
its per-support family counts are kept, and they are all a sampler needs:
families whose parents share a type are exchangeable given those counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvalidArgument, PopulationOverflow

if TYPE_CHECKING:
    from .models import BranchingModel

# Stream-kind tags keep the derivation paths of unrelated streams disjoint.
_STREAM_FAMILY = 0
_STREAM_SAMPLING = 1
_STREAM_CELL = 2

DEFAULT_POPULATION_CAP = 2**40


@dataclass(frozen=True)
class SeedSpec:
    """Master seed plus replicate id; all streams derive from these two."""

    master_seed: int
    replicate: int = 0

    def __post_init__(self):
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if not 0 <= int(self.replicate) < 2**32:
            raise ValueError("replicate must fit in 32 unsigned bits")

    def _stream(self, *path: int) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=tuple(path))
        return np.random.Generator(np.random.Philox(seq))

    def family_stream(self, generation: int, parent_type: int) -> np.random.Generator:
        """Stream of the multinomial that spreads this type's parents over its law's support."""
        return self._stream(_STREAM_FAMILY, self.replicate, generation, parent_type)

    def sampling_stream(self, generation: int) -> np.random.Generator:
        """Stream used to pick which individuals of a generation are sampled."""
        return self._stream(_STREAM_SAMPLING, self.replicate, generation)

    @staticmethod
    def cell_master(master_seed: int, cell_index: int) -> int:
        """Derived master seed for one parameter-grid cell of an experiment."""
        seq = np.random.SeedSequence(
            entropy=master_seed, spawn_key=(_STREAM_CELL, cell_index)
        )
        return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class GenerationTrace:
    """Aggregate history of one simulated tree.

    ``z[k]`` is the type-count vector of generation k; ``child_totals[k, i]``
    the number of generation-(k+1) individuals whose parent has type i.
    ``last_brood_counts[i][j]`` is how many type-i parents of the final
    transition had brood ``model.laws[i].vectors[j]``; it is None only when
    no transition was simulated.
    """

    model: "BranchingModel"
    z: np.ndarray
    child_totals: np.ndarray
    seed: SeedSpec
    last_brood_counts: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        self.z.setflags(write=False)
        self.child_totals.setflags(write=False)

    @property
    def n(self) -> int:
        return self.z.shape[0] - 1

    def totals(self) -> np.ndarray:
        """|Z_k| for k = 0..n."""
        return self.z.sum(axis=1)

    def family_size_counts(self) -> dict[int, int]:
        """Multiset {family size: count} of the final transition's families."""
        if self.last_brood_counts is None:
            raise ValueError("trace has no simulated transition")
        out: dict[int, int] = {}
        for counts, law in zip(self.last_brood_counts, self.model.laws):
            for size, c in zip(law.sizes, counts):
                if c:
                    out[int(size)] = out.get(int(size), 0) + int(c)
        return out


def simulate_aggregate(
    model: "BranchingModel",
    z0: Sequence[int],
    n: int,
    seed: SeedSpec,
) -> GenerationTrace:
    """Simulate n generation transitions, tracking counts only.

    Each transition draws, per parent type, one multinomial over the law's
    support from ``seed.family_stream(k, i)``. The final transition's counts
    are kept as ``last_brood_counts`` for :func:`sampling_view`.
    """
    raw = np.asarray(z0)
    z0 = raw.astype(np.int64)
    if z0.shape != (model.n_types,) or np.any(z0 != raw) or np.any(z0 < 0) or z0.sum() < 1:
        raise InvalidArgument(
            f"z0 must be a nonnegative integer count per type ({model.n_types} types) "
            "with |z0| >= 1"
        )
    if n < 0:
        raise InvalidArgument("n must be >= 0")
    z_hist = np.zeros((n + 1, model.n_types), dtype=np.int64)
    s_hist = np.zeros((n, model.n_types), dtype=np.int64)
    z_hist[0] = z0
    per_type_counts: tuple[np.ndarray, ...] | None = None
    for k in range(n):
        per_type_counts = tuple(
            seed.family_stream(k, i).multinomial(int(z_hist[k, i]), law.probs)
            for i, law in enumerate(model.laws)
        )
        z_next = np.zeros(model.n_types, dtype=np.int64)
        for i, (counts, law) in enumerate(zip(per_type_counts, model.laws)):
            z_next += counts @ law.vectors
            s_hist[k, i] = counts @ law.sizes
        if int(z_next.sum()) > DEFAULT_POPULATION_CAP:
            raise PopulationOverflow(
                f"|Z_{k + 1}| = {int(z_next.sum())} exceeds cap {DEFAULT_POPULATION_CAP}"
            )
        z_hist[k + 1] = z_next
    return GenerationTrace(
        model=model, z=z_hist, child_totals=s_hist, seed=seed, last_brood_counts=per_type_counts
    )


@dataclass(frozen=True)
class SamplingView:
    """The final transition of a trace, as family counts per support point.

    ``brood_counts[i][j]`` families have a type-i parent and brood
    ``model.laws[i].vectors[j]``; they produced generation ``generation + 1``.
    """

    model: "BranchingModel"
    brood_counts: tuple[np.ndarray, ...]
    seed: SeedSpec
    generation: int

    def child_totals(self) -> np.ndarray:
        """Children per parent type (the S vector of this transition)."""
        return np.array(
            [int(c @ law.sizes) for c, law in zip(self.brood_counts, self.model.laws)],
            dtype=np.int64,
        )

    def total_children(self) -> int:
        return int(self.child_totals().sum())


def sampling_view(trace: GenerationTrace) -> SamplingView:
    """The trace's final transition, ready for :func:`gwfam.draw_family_sample`."""
    if trace.last_brood_counts is None:
        raise ValueError("need a trace with at least one simulated transition")
    return SamplingView(
        model=trace.model,
        brood_counts=trace.last_brood_counts,
        seed=trace.seed,
        generation=trace.n - 1,
    )
