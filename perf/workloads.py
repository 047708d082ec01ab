"""The four served workloads and every seeded input the benchmark feeds them.

All inputs the program receives -- query streams and edge-update batches --
are generated here from ``--seed``.  Nothing comes from the program's own
bench helpers, so a change to the program cannot change what it is
measured on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.service import Query

#: every workload graph is ``datasets.load(name, weights=WEIGHTS, seed=WEIGHT_SEED)``
WEIGHTS = "uniform"
WEIGHT_SEED = 3

ZIPF_EXPONENT = 1.1

#: the update mix of one mutation batch (the rest are reweights)
DELETE_SHARE = 0.2
INSERT_SHARE = 0.2
#: the share of undirected pairs one update batch touches
MUTATE_FRACTION = 0.0005
#: a run's sources are stratified over ``clients * STRATA_ROUNDS`` slices of
#: the source distribution per STRATA_ROUNDS rounds (see Inputs.queries)
STRATA_ROUNDS = 8

# independent random streams derived from one --seed
TIMED, WARMUP, MUTATIONS = range(3)
#: the warm-up round's seed, which does not depend on --seed
WARMUP_SEED = 0
#: seeds the Zipf popularity ranking, which does not depend on --seed
POPULARITY_SEED = 3


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one catalog graph.

    ``service`` holds extra :class:`repro.service.QueryService` keyword
    arguments; ``cache_capacity`` (when set) gives the service its own
    :class:`repro.service.DistanceCache` of that size.  With
    ``mutate_every = k > 0`` an update batch covering ``MUTATE_FRACTION``
    of the undirected pairs is applied before every k-th round.
    """

    name: str
    graph: str
    smoke_graph: str
    clients: int
    sources: str  # "uniform" or "zipf" over the largest component
    one_to_many: float = 0.0
    mutate_every: int = 0
    cache_capacity: int | None = None
    service: dict = field(default_factory=dict)

    @property
    def period(self) -> int:
        """A timed pass ends on a multiple of this many rounds, so that it
        holds whole mutation periods."""
        return self.mutate_every or 1

    def mutates_before(self, round_index: int) -> bool:
        return self.mutate_every > 0 and round_index > 0 and round_index % self.mutate_every == 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("road-cold", "roadgrid-medium", "ci-road", clients=4, sources="uniform"),
        Workload(
            "social-zipf", "slashdot-sim", "ci-rmat", clients=8, sources="zipf",
            one_to_many=0.1,
        ),
        Workload(
            "ba-mutate", "loc-brightkite-sim", "ci-ba", clients=8, sources="zipf",
            mutate_every=20, cache_capacity=64, service={"autotune": True},
        ),
        Workload(
            "road-sharded", "roadgrid-medium", "ci-road", clients=4, sources="uniform",
            service={"stepper": "sharded(shards=2)"},
        ),
    )
}


class Inputs:
    """The seeded inputs of one pass over one workload.

    ``queries()`` returns the next round's queries and ``mutation()`` the
    next update batch; the same seed and stream give the same sequence.
    ``digest`` hashes everything handed out so far.
    """

    def __init__(self, workload: Workload, component: np.ndarray, seed: int, stream: int = TIMED):
        self.workload = workload
        self.component = np.asarray(component, dtype=np.int64)
        self._rng = np.random.default_rng([seed, stream])
        self._mutation_rng = np.random.default_rng([seed, stream, MUTATIONS])
        self._hash = hashlib.sha256()
        self._round = 0
        self._slots = None
        if workload.sources == "zipf":
            # the popularity ranking is part of the workload, like its
            # graph: every seed draws from the same hot set
            self._popular = np.random.default_rng(POPULARITY_SEED).permutation(self.component)
            ranks = np.arange(1, len(self.component) + 1, dtype=np.float64)
            cdf = np.cumsum(ranks ** -ZIPF_EXPONENT)
            self._cdf = cdf / cdf[-1]
        elif workload.sources != "uniform":
            raise ValueError(f"unknown source distribution {workload.sources!r}")

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    def queries(self) -> list[Query]:
        c, k, rng, comp = self.workload.clients, STRATA_ROUNDS, self._rng, self.component
        # A stratified sample: one source from each of c equal slices of
        # the source distribution, in random client order, so every round
        # mixes hot and cold (or near and far) sources alike.  Each slice
        # is cut again into k sub-slices, and over k rounds each sub-slice
        # gives one source.  The cost of a run then varies far less with
        # the seed than with iid draws.
        if self._round % k == 0:
            self._slots = np.stack([rng.permutation(k) for _ in range(c)])
        sub = self._slots[:, self._round % k]
        self._round += 1
        u = rng.permutation((np.arange(c) + (sub + rng.random(c)) / k) / c)
        if self.workload.sources == "zipf":
            picks = np.searchsorted(self._cdf, u, side="right")
            sources = self._popular[np.minimum(picks, len(comp) - 1)]
        else:
            sources = comp[np.minimum((u * len(comp)).astype(np.int64), len(comp) - 1)]
        targets = comp[rng.integers(len(comp), size=c)]
        one_to_many = rng.random(c) < self.workload.one_to_many
        targets = np.where(one_to_many, -1, targets)
        self._hash.update(sources.tobytes())
        self._hash.update(targets.tobytes())
        return [
            Query(source=int(s), target=None if t < 0 else int(t))
            for s, t in zip(sources, targets)
        ]

    def mutation(self, keys: np.ndarray, weights: np.ndarray, n: int):
        """The next update batch over the undirected edges ``keys`` (``u*n + v``, u < v)."""
        batch = mutation_batch(keys, weights, n, MUTATE_FRACTION, self._mutation_rng)
        for part in batch:
            for arr in part:
                self._hash.update(np.ascontiguousarray(arr).tobytes())
        return batch


def mutation_batch(keys: np.ndarray, weights: np.ndarray, n: int, fraction: float, rng):
    """``(inserts, deletes, reweights)`` touching ``fraction`` of the undirected pairs.

    *keys* are the graph's undirected edges as ``u*n + v`` with ``u < v``
    and *weights* their weights.  Deletes and reweights draw distinct
    existing pairs; reweights scale the weight by U(0.5, 1.5); inserts are
    distinct non-edges with U(0.05, 1) weights.  No pair appears twice, so
    every batch is valid under ``strict`` application.
    """
    total = max(5, round(fraction * len(keys)))
    num_del = int(total * DELETE_SHARE)
    num_ins = int(total * INSERT_SHARE)
    num_rw = total - num_del - num_ins
    pick = rng.choice(len(keys), size=num_rw + num_del, replace=False)
    rw, dl = pick[:num_rw], pick[num_rw:]
    reweights = (keys[rw] // n, keys[rw] % n, weights[rw] * rng.uniform(0.5, 1.5, size=num_rw))
    deletes = (keys[dl] // n, keys[dl] % n)

    u, v = rng.integers(n, size=(2, 4 * num_ins + 16))
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    cand = lo * np.int64(n) + hi
    cand = cand[(lo != hi) & ~np.isin(cand, keys)]
    _, first = np.unique(cand, return_index=True)
    cand = cand[np.sort(first)][:num_ins]
    inserts = (cand // n, cand % n, rng.uniform(0.05, 1.0, size=len(cand)))
    return inserts, deletes, reweights
