"""Shared helpers for randomized tests and closed-form oracles."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

import gwfam as g

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    """Run ``python -m gwfam.cli`` with this checkout's src first on PYTHONPATH,
    so the child imports the same gwfam as the tests, installed or not."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "gwfam.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def model_family(build, bounds=None):
    """The amle family of a model builder, through the model's own laws.

    ``family(theta, broods)`` builds ``build(theta)``, runs its power
    iteration and looks each brood up in the size-biased law: the general
    recipe, kept as the oracle of closed-form families. Its Jacobian is the
    central difference at relative step 1e-6, the stencil clipped into
    ``bounds`` (the fit's box) so every point it builds is a valid model.
    """
    lo, hi = (-np.inf, np.inf) if bounds is None else np.array(bounds, dtype=float).T

    def probs(theta, broods):
        m = build(theta)
        law = g.size_biased_pmf(m, g.perron(g.reproduction_matrix(m)))
        return np.array([law.prob_of(u) for u in broods])

    def family(theta, broods):
        theta = np.asarray(theta, dtype=float)
        jac = np.empty((len(broods), theta.size))
        for d in range(theta.size):
            step = np.zeros(theta.size)
            step[d] = 1e-6 * max(1.0, abs(theta[d]))
            up, dn = np.minimum(theta + step, hi), np.maximum(theta - step, lo)
            jac[:, d] = (probs(up, broods) - probs(dn, broods)) / (up[d] - dn[d])
        return probs(theta, broods), jac

    return family


def random_primitive_model(rng, max_types=4, max_points=6):
    """Random finite-support model, resampled until positively regular."""
    while True:
        l = int(rng.integers(2, max_types + 1))
        laws = []
        try:
            for _ in range(l):
                k = int(rng.integers(1, max_points + 1))
                vectors = set()
                while len(vectors) < k:
                    v = tuple(int(x) for x in rng.integers(0, 4, size=l))
                    if sum(v) > 0:
                        vectors.add(v)
                probs = rng.dirichlet(np.ones(k))
                laws.append(g.offspring_law(zip(sorted(vectors), probs)))
            model = g.branching_model(laws)
        except Exception:
            continue
        if g.is_positively_regular(g.reproduction_matrix(model)):
            return model


def random_small_model(rng, max_types=3, max_points=3, max_count=2):
    """Small random model suitable for exhaustive pair enumeration."""
    l = int(rng.integers(2, max_types + 1))
    laws = []
    for _ in range(l):
        k = int(rng.integers(1, max_points + 1))
        vectors = set()
        while len(vectors) < k:
            v = tuple(int(x) for x in rng.integers(0, max_count + 1, size=l))
            if sum(v) > 0:
                vectors.add(v)
        probs = rng.dirichlet(np.ones(k))
        laws.append(g.offspring_law(zip(sorted(vectors), probs)))
    return g.branching_model(laws)


def mitosis_prob_distinct(n, r):
    """Closed-form P(D_n) for mitosis started from z0 = (1, 1).

    Generation n holds 2^n families of exactly two children, N = 2^(n+1)
    individuals in all. Drawing r of them one at a time without replacement,
    the a-th draw avoids the a families already hit with probability
    (N - 2a) / (N - a), so P(D_n) = prod_{a<r} (N - 2a) / (N - a). Computed
    exactly with fractions, independently of the package's own oracle.
    """
    total = 2 ** (n + 1)
    p = Fraction(1)
    for a in range(r):
        p *= Fraction(total - 2 * a, total - a)
    return p


def elementary_symmetric(values, r):
    """e_r of integer values by the O(m*r) dynamic program, exactly."""
    if r < 0:
        raise ValueError("order must be >= 0")
    e = [0] * (r + 1)
    e[0] = 1
    for c in values:
        c = int(c)
        for k in range(min(r, len(values)), 0, -1):
            e[k] += e[k - 1] * c
    return e[r]


def all_family_size_lists(max_families=8, max_total=16):
    """Every multiset of positive family sizes with m <= 8 and total <= 16."""
    out = []

    def extend(prefix, remaining, smallest):
        out.append(tuple(prefix))
        if len(prefix) == max_families:
            return
        for s in range(smallest, remaining + 1):
            extend(prefix + [s], remaining - s, s)

    extend([], max_total, 1)
    return [sizes for sizes in out if sizes]
