"""The benchmark's own copy of the served graph, its answers, and input fingerprints.

:class:`ReferenceGraph` applies every update batch itself and answers
with ``scipy.sparse.csgraph.dijkstra``, so a served answer is checked
against neither the program's solvers nor its mutation code.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra


def fingerprint(graph) -> dict:
    """``n``, ``m`` and a sha256 over the CSR arrays (dtype-normalized)."""
    h = hashlib.sha256()
    for arr, dtype in ((graph.indptr, np.int64), (graph.indices, np.int64), (graph.weights, np.float64)):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return {"n": int(graph.num_vertices), "m": int(graph.num_edges), "sha256": h.hexdigest()}


class ReferenceGraph:
    """An undirected weighted graph kept as sorted pair keys ``u*n + v`` (u < v)."""

    def __init__(self, indptr, indices, weights):
        n = len(indptr) - 1
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        dst = np.asarray(indices, dtype=np.int64)
        upper = src < dst
        keys = src[upper] * n + dst[upper]
        order = np.argsort(keys)
        self.n = n
        self.keys = keys[order]
        self.weights = np.asarray(weights, dtype=np.float64)[upper][order]
        self._matrix = None

    @classmethod
    def of(cls, graph) -> "ReferenceGraph":
        return cls(graph.indptr, graph.indices, graph.weights)

    def largest_component(self) -> np.ndarray:
        _, labels = connected_components(self.matrix(), directed=False)
        return np.nonzero(labels == np.argmax(np.bincount(labels)))[0]

    def matrix(self) -> csr_matrix:
        if self._matrix is None:
            u, v = self.keys // self.n, self.keys % self.n
            self._matrix = csr_matrix(
                (np.concatenate([self.weights, self.weights]),
                 (np.concatenate([u, v]), np.concatenate([v, u]))),
                shape=(self.n, self.n),
            )
        return self._matrix

    def apply(self, inserts, deletes, reweights) -> None:
        """Apply one ``(inserts, deletes, reweights)`` batch of undirected pairs."""
        n = self.n

        def pair_keys(u, v):
            u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
            return np.minimum(u, v) * n + np.maximum(u, v)

        rw = np.searchsorted(self.keys, pair_keys(*reweights[:2]))
        self.weights[rw] = reweights[2]
        keep = ~np.isin(self.keys, pair_keys(*deletes))
        keys = np.concatenate([self.keys[keep], pair_keys(*inserts[:2])])
        weights = np.concatenate([self.weights[keep], np.asarray(inserts[2], dtype=np.float64)])
        order = np.argsort(keys)
        self.keys, self.weights = keys[order], weights[order]
        self._matrix = None

    def distances(self, source: int) -> np.ndarray:
        return dijkstra(self.matrix(), directed=True, indices=source)

    def wrong_answers(self, responses) -> int:
        """How many served responses differ from the reference (bit for bit).

        The reference rows live only for this call, so the oracle's memory
        does not grow with the number of rounds verified.
        """
        rows = {s: self.distances(s) for s in {int(r.query.source) for r in responses}}
        wrong = 0
        for r in responses:
            row = rows[int(r.query.source)]
            expected = row if r.query.target is None else row[r.query.target]
            wrong += not (r.exact and np.array_equal(answer(r), expected))
        return wrong


def answer(response):
    """A response's answer: the distance vector of a one-to-many query, else the distance."""
    return response.distances if response.query.target is None else response.distance
