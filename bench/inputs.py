"""Seeded input generation: GRDF documents for the benchmark workloads.

Seed 0 writes the canonical documents (matrix-form where the library has a
constructor, table-form otherwise).  Any other seed relabels every ring by a
seeded automorphism alpha of M and beta of Gamma and writes the isomorphic
copy as a table document, with frame indices mapped along.  Every answer the
checker relies on (counts, verdicts, block sizes) is invariant under ring
isomorphism, so the checker applies unchanged; search node counts are not,
which is what a held-out-seed check needs.  Rings with all-zero products
(the trivial family) are fixed by every relabelling, so their documents are
the same for every seed.
"""

from __future__ import annotations

import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from gammaring import build_table_ring, document_dict, emit_grdf


def random_automorphism(group, rng) -> np.ndarray:
    """Index table of a seeded automorphism of a finite abelian group.

    Composes elementary automorphisms of Z_d1 x ... x Z_dk acting on residue
    vectors: unit scalings x_i -> u x_i and shears x_i -> x_i + c x_j, where c
    is a multiple of d_i / gcd(d_i, d_j) so the shear is well defined.  On
    (Z_p)^k these generate GL(k, p).
    """
    d = np.asarray(group.factors, dtype=np.int64)
    res = group.residues.copy()
    k = d.size
    for _ in range(4 * k):
        i, j = (int(v) for v in rng.integers(0, k, size=2))
        if i == j:
            units = [u for u in range(1, int(d[i])) if math.gcd(u, int(d[i])) == 1]
            res[:, i] = res[:, i] * units[int(rng.integers(len(units)))] % d[i]
        else:
            step = int(d[i]) // math.gcd(int(d[i]), int(d[j]))
            c = step * int(rng.integers(0, int(d[i]) // step))
            res[:, i] = (res[:, i] + c * res[:, j]) % d[i]
    place = np.asarray([math.prod(group.factors[i + 1:]) for i in range(k)], dtype=np.int64)
    table = res @ place
    if np.unique(table).size != group.order:
        raise RuntimeError(f"relabelling of {group!r} is not a bijection")
    return table


@dataclass
class Relabel:
    """Isomorphism (alpha on M, beta on Gamma) from a ring to its written copy."""
    alpha: np.ndarray
    beta: np.ndarray

    @classmethod
    def identity(cls, ring) -> "Relabel":
        return cls(np.arange(ring.m_order), np.arange(ring.gamma_order))

    def frame(self, spec: dict) -> dict:
        return {"mode": "canonical", "e": int(self.alpha[spec["e"]]),
                "gamma1": int(self.beta[spec["gamma1"]]),
                "unity": int(self.alpha[spec["unity"]])}


@dataclass
class RingInput:
    """One written ring document plus what the answer checker needs to know."""
    path: str
    ring: object                 # the ring as written (relabelled for seed != 0)


def relabel_ring(ring, relabel: Relabel):
    a, b = relabel.alpha, relabel.beta
    mu = np.empty_like(ring.mu)
    mu[np.ix_(a, b, a)] = a[ring.mu]
    nu = None
    if ring.nu is not None:
        nu = np.empty_like(ring.nu)
        nu[np.ix_(b, a, b)] = b[ring.nu]
    return build_table_ring(ring.m_group, ring.gamma_group, mu, nu)


def write_ring(workdir: str, name: str, ring, seed: int, frames=()) -> RingInput:
    """Write `ring` (relabelled unless seed is 0) with canonical frame specs.

    `frames` are canonical specs {"e", "gamma1", "unity"} in the coordinates
    of `ring`; they are mapped into the coordinates of the written document.
    """
    rng = np.random.default_rng([seed, zlib.crc32(name.encode("utf-8"))])
    if seed == 0:
        relabel, written = Relabel.identity(ring), ring
    else:
        relabel = Relabel(random_automorphism(ring.m_group, rng),
                          random_automorphism(ring.gamma_group, rng))
        written = relabel_ring(ring, relabel)
    doc = document_dict(written)
    if frames:
        doc["frames"] = [relabel.frame(spec) for spec in frames]
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_grdf(doc))
    return RingInput(path, written)

