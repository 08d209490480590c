from itertools import product
from math import gcd, prod

import numpy as np
import pytest

from gammaring import (build_matrix_ring, build_table_ring, direct_product,
                       make_group, trivial_ring)
from gammaring.multmaps import _compose, _Meter, _PairSearch, _Span, _unpack
from gammaring.rings import AXIOM_EVAL_CAP, _additivity_witness


def f4_ring():
    """M = additive F4, Gamma = Z2, product g * (x * y) with F4 multiplication."""
    mul = {(0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0, (1, 1): 1, (1, 2): 2,
           (1, 3): 3, (2, 2): 3, (2, 3): 1, (3, 3): 2}
    mu = np.zeros((4, 2, 4), dtype=np.int32)
    for x in range(4):
        for y in range(4):
            mu[x, 1, y] = mul[(min(x, y), max(x, y))]
    return build_table_ring(make_group([2, 2]), make_group([2]), mu)


def z2_scalar_ring():
    """M = Gamma = Z2 with product x*g*y mod 2."""
    mu = np.zeros((2, 2, 2), dtype=np.int32)
    mu[1, 1, 1] = 1
    return build_table_ring(make_group([2]), make_group([2]), mu)


@pytest.fixture(scope="session")
def matrix222():
    return build_matrix_ring(2, 2, 2)


@pytest.fixture(scope="session")
def matrix212():
    return build_matrix_ring(2, 1, 2)


@pytest.fixture(scope="session")
def trivial_z4():
    return trivial_ring(make_group([4]), make_group([2]))


@pytest.fixture(scope="session")
def f4ring():
    return f4_ring()


@pytest.fixture(scope="session")
def z2scalar():
    return z2_scalar_ring()


@pytest.fixture(scope="session")
def small_ring_corpus(trivial_z4, f4ring, z2scalar):
    """Rings with |M| <= 4 and |Gamma| <= 2 for search-vs-brute-force checks."""
    return [
        ("trivial(Z4,Z2)", trivial_z4),
        ("trivial(Z2xZ2,Z2)", trivial_ring(make_group([2, 2]), make_group([2]))),
        ("trivial(Z2,Z2)", trivial_ring(make_group([2]), make_group([2]))),
        ("F4", f4ring),
        ("Z2-scalar", z2scalar),
    ]


@pytest.fixture(scope="session")
def barnes_corpus(matrix222, matrix212, trivial_z4, f4ring, z2scalar):
    """Barnes-verified rings of order <= 16 used for the primeness equivalence."""
    return [
        ("matrix(2,2,2)", matrix222),
        ("matrix(2,1,2)", matrix212),
        ("matrix(2,2,1)", build_matrix_ring(2, 2, 1)),
        ("matrix(2,1,1)", build_matrix_ring(2, 1, 1)),
        ("trivial(Z4,Z2)", trivial_z4),
        ("trivial(Z2xZ2,Z2)", trivial_ring(make_group([2, 2]), make_group([2]))),
        ("trivial(Z16,Z2)", trivial_ring(make_group([16]), make_group([2]))),
        ("F4", f4ring),
        ("Z2-scalar", z2scalar),
        ("matrix(2,1,1)^2", direct_product(build_matrix_ring(2, 1, 1),
                                           build_matrix_ring(2, 1, 1))),
        ("trivialZ2 x matrix(2,1,1)", direct_product(
            trivial_ring(make_group([2]), make_group([2])), build_matrix_ring(2, 1, 1))),
    ]


def reference_howell(a, N: int) -> tuple:
    """The oracle for multmaps._howell: the elimination it replaced, which
    rewrites the whole row pool at every pivot.  Its docstring follows.

    (rows, pivots): a Howell basis of the row span of `a` over Z/N (Howell 1986).

    Each pivot row's (N / gcd(v, N)) multiple, zero at its pivot entry v,
    joins the rows still to reduce.  So a span vector that is zero before
    column c is a combination of the rows pivoting at c or later, and the
    span vectors are the sums of lambda_i row_i, 0 <= lambda_i < N / gcd(v_i, N).
    """
    a = np.asarray(a, dtype=np.int64) % N
    width, rows, pivots = a.shape[1], [], []
    while len(a := a[a.any(axis=1)]):
        c = int(np.argmax(a.any(axis=0)))         # every row is zero before c
        col = a[:, c]
        piv = a[np.argmin(np.gcd(col, N))].copy()     # a view would keep the pool alive
        while (off := np.flatnonzero(col % gcd(int(piv[c]), N))).size:
            x, e = int(piv[c]), int(col[off[0]])    # some x + t e has gcd(x, e, N)
            t = next(t for t in range(N) if gcd(x + t * e, N) == gcd(x, e, N))
            piv = (piv + t * a[off[0]]) % N
        g = gcd(int(piv[c]), N)
        q = col // g * pow(int(piv[c]) // g, -1, N // g)
        a = np.vstack([(a - q[:, None] * piv) % N, N // g * piv % N])
        rows.append(piv)
        pivots.append(c)
    return np.array(rows, dtype=np.int64).reshape(-1, width), pivots


def reference_cut(span, defect):
    """The oracle for multmaps._Span.cut: the cut it replaced, which evaluates
    defect on one basis table at a time and takes the distinct tuples from
    np.unique, with the Howell form of reference_howell."""
    values = np.array([defect(d).ravel() for d in span.tables(span.rows)])
    if not values.any():
        return span
    keys = np.unique(values.T, axis=0)          # each tuple's defects, once
    w = (span.group.residues[keys] * span.scale).transpose(1, 0, 2).reshape(len(span.rows), -1)
    rows, pivots = reference_howell(np.hstack([w, span.rows]), span.N)
    keep = [i for i, c in enumerate(pivots) if c >= w.shape[1]]
    return _Span(span.group, rows[keep, w.shape[1]:], [pivots[i] - w.shape[1] for i in keep])


def reference_ideal_generated(ring, seeds, sidedness: str) -> tuple:
    """The ideal closure that rings.ideal_generated computed before it left
    the package, returning the sorted member indices.  Its docstring follows.

    Least subset containing the seeds closed under +, -, and Gamma-products on the declared side(s)."""
    if sidedness not in ("left", "right", "two-sided"):
        raise ValueError(f"unknown sidedness {sidedness!r}")
    m = ring.m_order
    members = np.zeros(m, dtype=bool)
    members[0] = True
    for s in seeds:
        s = int(s)
        if not 0 <= s < m:
            raise ValueError(f"seed {s} is not an M index")
        members[s] = True
    addm, negm, mu = ring.m_group.add_table, ring.m_group.neg_table, ring.mu
    while True:
        idx = np.flatnonzero(members)
        new = np.zeros(m, dtype=bool)
        new[addm[np.ix_(idx, idx)].ravel()] = True
        new[negm[idx]] = True
        if sidedness in ("right", "two-sided"):
            new[mu[idx].ravel()] = True
        if sidedness in ("left", "two-sided"):
            new[mu[:, :, idx].ravel()] = True
        grown = new & ~members
        if not grown.any():
            return tuple(int(i) for i in idx)
        members |= new


def reference_ideal_lattice(ring) -> list:
    """Full two-sided ideal lattice as sorted index arrays (small rings only):
    the principal ideals and every sum of two ideals, to a fixed point."""
    m = ring.m_order
    addm = ring.m_group.add_table
    principal = {reference_ideal_generated(ring, [a], "two-sided") for a in range(m)}
    ideals = {(0,)} | principal
    work = list(ideals)
    while work:
        cur = work.pop()
        ci = np.asarray(cur)
        for other in list(ideals):
            oi = np.asarray(other)
            joined = tuple(sorted(set(addm[np.ix_(ci, oi)].ravel().tolist())))
            if joined not in ideals:
                ideals.add(joined)
                work.append(joined)
    return [np.asarray(i) for i in sorted(ideals)]


def reference_prime(ring) -> bool:
    """The oracle for rings.is_prime: the ideal-pair definition, prime unless
    two nonzero ideals A, B of the lattice have A.Gamma.B = 0."""
    nonzero = [i for i in reference_ideal_lattice(ring) if i.size > 1]
    gammas = np.arange(ring.gamma_order)
    return not any((ring.mu[np.ix_(a, gammas, b)] == 0).all() for a in nonzero for b in nonzero)


def midx(ring, *rows):
    """Index of the matrix with the given rows in the element enumeration of M."""
    flat = [v for row in rows for v in row]
    return ring.m_group.index_of(tuple(flat))


def gidx(ring, *rows):
    flat = [v for row in rows for v in row]
    return ring.gamma_group.index_of(tuple(flat))


def _slot_scan(axis, names):
    """The scan check_barnes_axioms runs for mu's additivity in slot axis, as a
    function of the ring giving (lex-least witness or None, raw tuple count)."""
    def scan(ring):
        domain = ring.gamma_group if axis == 1 else ring.m_group
        w = _additivity_witness(ring.mu, axis, domain, ring.m_group.add_table, names,
                                _Meter(AXIOM_EVAL_CAP), "distributivity")
        return w, ring.mu.size * domain.order
    return scan


_right_distrib = _slot_scan(0, ("x", "y", "alpha", "z"))      # (x+y) a z == x a z + y a z
_left_distrib = _slot_scan(2, ("x", "alpha", "y", "z"))       # x a (y+z) == x a y + x a z
_gamma_distrib = _slot_scan(1, ("x", "alpha", "beta", "y"))   # x (a+b) y == x a y + x b y


class ReferencePairSearch(_PairSearch):
    """The oracle for the leaf search's forced rounds and its n >= 3
    bootstrap: _PairSearch with the _branch and _gamma_values they replaced.
    This _branch takes a single-candidate variable as a branch point of its
    own, one value tried per forced step, and _gamma_values deduplicates by
    np.unique and builds the source side once per candidate value."""

    def _branch(self, state):
        """(kind, index, iterator of its values) of the next branch variable
        in `state`, the _state() after propagation, or None at a full
        assignment."""
        un = [(table < 0).nonzero()[0] for table in self.tables]
        if un[0].size == 0 and un[1].size == 0:
            return None
        am, fam, ag, fag, pw, pv = state

        if un[1].size and ag.size == 0 and pw.size == 0 and am.size >= 2:
            scores = np.count_nonzero(self.mu_s[np.ix_(am, un[1], am)], axis=(0, 2))
            idx = int(un[1][int(np.argmax(scores))])
            return 1, idx, iter(self._gamma_values(idx, am, fam).tolist())
        rows = [self._rows(kind, state, un[kind]) for kind in (0, 1)]
        j = int(np.concatenate([np.bitwise_count(r).sum(axis=1) for r in rows]).argmin())
        kind = int(j >= un[0].size)
        u = j - kind * un[0].size
        return kind, int(un[kind][u]), iter(_unpack(rows[kind][u]).nonzero()[0].tolist())

    def _gamma_values(self, u, am, fam):
        """The free values c of psi(u) under which no chain x1 u x2 ... u xn of
        assigned factors, with an assigned source product, contradicts phi."""
        cs = np.flatnonzero(~self.psi_used)
        k = np.repeat(np.arange(cs.size), am.size)
        w, v = np.tile(am, cs.size), np.tile(fam, cs.size)
        for depth in range(1, self.n):
            w = self.mu_s[w[:, None], u, am[None, :]].ravel()
            v = self.mu_t[v[:, None], cs[k][:, None], fam[None, :]].ravel()
            k = np.repeat(k, am.size)
            if depth < self.n - 1:
                keys = np.unique((k * self.m + w) * self.mt + v)
                k, w, v = keys // (self.m * self.mt), keys // self.mt % self.m, keys % self.mt
        out = self.phi[w]
        return np.delete(cs, k[(out >= 0) & (out != v)])


def plain_pairs(source, target, n, budget=10**8):
    """(phi, psi) keys of every pair source -> target, sorted, as listed by the
    complete plain DFS of ReferencePairSearch, which takes no forced round:
    the oracle for the stabilizer-chain listings."""
    meter = _Meter(budget)
    solutions = list(ReferencePairSearch(source, target, n, meter).run())
    assert meter.spent <= meter.budget
    return sorted((tuple(p.tolist()), tuple(q.tolist())) for p, q in solutions)


def homomorphism_count(domain, codomain):
    """|Hom(domain, codomain)|: Hom(Z_a, Z_b) is cyclic of order gcd(a, b)."""
    return prod(gcd(a, b) for a in domain.factors for b in codomain.factors)


def homomorphisms(domain, codomain):
    """Yield every homomorphism domain -> codomain as an index table.

    The i-th standard generator of Z_d1 x ... x Z_dk (residue 1 in slot i) may
    go to any element v with d_i v = 0, and the generator images determine the
    map.  Image tuples run in lexicographic order of codomain indices, first
    generator most significant.
    """
    res = codomain.residues
    mods = np.asarray(codomain.factors, dtype=np.int64)
    images = [np.flatnonzero(((res * d) % mods == 0).all(axis=1)) for d in domain.factors]
    coords = domain.residues
    for choice in product(*images):
        yield ((coords @ res[list(choice)]) % mods) @ codomain.generators


def sifted_automorphisms(grp):
    """|pi_phi(G) n Aut M| for a pair group G (multmaps._PairGroup) by a walk of
    End(M): each automorphism of M is sifted through G's phi levels.  The
    oracle for the automorphism chain, which hunt counted this way before."""
    group = grp.ring.m_group
    return sum(np.unique(h).size == group.order and grp.has_phi(h)
               for h in homomorphisms(group, group))


def position_walk(grp, skip=None, sigma=None):
    """The pairs sigma h, h in a pair group G (multmaps._PairGroup), as
    _PairGroup.walk lists them, by a walk over every table position: the
    oracle for that walk, which stepped this way before it visited only the
    branching positions.

    Positions are visited in table order, phi then psi, on an explicit stack,
    one level per position.  A base point takes the images of its orbit under
    the pair chosen so far, in increasing order, and extends that pair by the
    orbit's pair; F and A_Gamma positions take the unused values of sigma(F)
    and sigma(A_Gamma) in increasing order; phi(0) is 0.
    """
    m, g = grp.ring.m_order, grp.ring.gamma_order
    if sigma is None:
        sigma = (np.arange(m), np.arange(g))
    at = {(kind, point): orbit for kind, point, orbit in grp.levels}
    free = (set(grp.free.tolist()), set(grp.gammas.tolist()))
    pools = tuple({int(sigma[kind][x]) for x in free[kind]} for kind in (0, 1))
    steps = [(0, x) for x in range(m)] + [(1, a) for a in range(g)]
    tables = (np.zeros(m, dtype=np.int64), np.zeros(g, dtype=np.int64))

    def options(j, prefix):
        kind, x = steps[j]
        if x in free[kind]:
            taken = {int(tables[k][y]) for k, y in steps[:j] if k == kind and y in free[k]}
            return iter([(v, prefix) for v in sorted(pools[kind] - taken)])
        if (kind, x) not in at:
            return iter([(0, prefix)])
        return iter(sorted(((int(prefix[kind][c]), _compose(prefix, u))
                            for c, u in at[(kind, x)].items()), key=lambda o: o[0]))

    stack = [options(0, sigma)]
    while stack:
        j = len(stack) - 1
        kind, x = steps[j]
        v, prefix = next(stack[-1], (None, None))
        if v is None:
            stack.pop()
            continue
        tables[kind][x] = v
        if j + 1 == m and skip is not None and skip(tables[0]):
            continue
        if j + 1 == len(steps):
            yield tables[0].copy(), tables[1].copy()
        else:
            stack.append(options(j + 1, prefix))
