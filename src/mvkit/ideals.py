"""Ideal calculus on finite MV-algebras.

An ideal is a carrier subset containing 0, closed under the truncated sum
and downward closed.  The induced congruence identifies x and y exactly when
their distance term lands in the ideal; quotients, the classification of
ideals (proper / prime / maximal / rank), decomposition of an ideal into the
maximal ideals above it, and the regularity test all live here.

Every ideal of a finite MV-algebra is the down-set of exactly one Boolean
(central) element, its join: `ideal_lattice` reads the ideals, their order and
flags off the center in one cached pass, and the other functions answer from
it.  The brute-force procedures it replaced are oracles in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalConsistencyError,
    NotAnIdealError,
    PreconditionError,
    ResourceCapError,
)
from .finite import DEFAULT_MAX_SIZE, FiniteMVAlgebra, boolean_center, center_algebra


@dataclass(frozen=True)
class Ideal:
    """A subset of a finite carrier, downward closed and closed under (+)."""

    algebra: FiniteMVAlgebra
    members: frozenset

    @property
    def sorted_members(self) -> tuple:
        return tuple(sorted(self.members))

    @property
    def is_proper(self) -> bool:
        return len(self.members) < self.algebra.size

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:
        return f"Ideal({self.sorted_members})"


@dataclass(frozen=True)
class IdealClassification:
    """Classification flags for one ideal.

    `rank` is the size of the quotient chain when the ideal is maximal and
    None otherwise (finite algebras only produce finite ranks).
    """

    proper: bool
    prime: bool
    maximal: bool
    rank: int | None
    principal_generator: int


def _member_mask(algebra, members) -> np.ndarray:
    mask = np.zeros(algebra.size, dtype=bool)
    for x in members:
        if not 0 <= x < algebra.size:
            raise NotAnIdealError(f"element index {x} out of range")
        mask[x] = True
    return mask


def _generator(algebra: FiniteMVAlgebra, mask) -> int | None:
    """The (+)-fold g of the members when they are exactly the down-set of g
    and g (+) g = g, else None.  This holds iff they form an ideal: g is then
    their join and lies in the ideal.  Cost O(n + |I|)."""
    O = algebra.oplus_table
    g = algebra.zero
    for x in np.flatnonzero(mask).tolist():
        g = int(O[g, x])
    if O[g, g] != g or (mask != (O[algebra.neg_table, g] == algebra.one)).any():
        return None
    return g


def is_ideal(algebra: FiniteMVAlgebra, members) -> bool:
    """Zero, (+)-closure and down-closure, certified by `_generator` in O(n + |I|)."""
    return _generator(algebra, _member_mask(algebra, members)) is not None


def make_ideal(algebra: FiniteMVAlgebra, members) -> Ideal:
    if not is_ideal(algebra, members):
        raise NotAnIdealError(f"{sorted(set(members))} is not an ideal")
    return Ideal(algebra, frozenset(int(x) for x in members))


def zero_ideal(algebra: FiniteMVAlgebra) -> Ideal:
    return Ideal(algebra, frozenset({algebra.zero}))


def improper_ideal(algebra: FiniteMVAlgebra) -> Ideal:
    return Ideal(algebra, frozenset(range(algebra.size)))


@dataclass(frozen=True, eq=False)
class IdealLattice:
    """`ideals[i]` is the down-set of the central element `generators[i]`, in
    canonical (size, member list) order; `subset[i, j]` says ideals[i] lies
    in ideals[j]; `index` maps member sets to positions."""

    ideals: tuple
    generators: np.ndarray
    subset: np.ndarray
    index: dict
    prime: np.ndarray
    maximal: np.ndarray


def ideal_lattice(algebra: FiniteMVAlgebra, max_size=DEFAULT_MAX_SIZE) -> IdealLattice:
    """Every ideal as the down-set of a central element, in one cached pass.

    The join g of a finite ideal lies in it, so g (+) g does too and is <= g:
    g is idempotent (central).  Conversely the down-set of an idempotent is
    closed under (+); the pass checks every center member idempotent.  The
    inclusion matrix is the order on the generators; maximal means no other
    proper ideal above, prime means proper with the ideals above forming a
    chain (the MV-algebra characterisation).  Cost for k ideals over n
    elements: O(n^2) for the center and the down-sets, O(k^2) for the rest.
    """
    cached = algebra._cache.get("ideal_lattice")
    if cached is not None:
        return cached
    if max_size is not None and algebra.size > max_size:
        raise ResourceCapError(algebra.size, max_size)
    center = np.asarray(boolean_center(algebra)[0], dtype=np.int64)
    if (algebra.oplus_table[center, center] != center).any():
        raise InternalConsistencyError("a central element is not idempotent")
    leq = algebra.leq_matrix
    downs = [np.flatnonzero(leq[:, g]).tolist() for g in center]
    order = sorted(range(len(center)), key=lambda c: (len(downs[c]), downs[c]))
    generators = center[order]
    ideals = tuple(Ideal(algebra, frozenset(downs[c])) for c in order)
    subset = leq[np.ix_(generators, generators)]
    proper = generators != algebra.one
    maximal = proper & ((subset & proper).sum(axis=1) == 1)
    # the ideals above one are listed by size, so they form a chain exactly
    # when each lies inside the next
    chain_above = [subset[up[:-1], up[1:]].all() for up in map(np.flatnonzero, subset)]
    prime = proper & np.asarray(chain_above, dtype=bool)
    for shared in (generators, subset, prime, maximal):
        shared.setflags(write=False)
    lattice = IdealLattice(ideals, generators, subset,
                           {ideal.members: i for i, ideal in enumerate(ideals)}, prime, maximal)
    algebra._cache["ideal_lattice"] = lattice
    return lattice


def all_ideals(algebra: FiniteMVAlgebra, max_size=DEFAULT_MAX_SIZE) -> tuple:
    """Every ideal, sorted by (size, member list): `ideal_lattice(...).ideals`."""
    return ideal_lattice(algebra, max_size).ideals


def generated_ideal(algebra: FiniteMVAlgebra, seed) -> Ideal:
    """Least ideal containing `seed`: of the ideals above it, the first in
    canonical order, checked to lie in all the others (O(|seed| * k))."""
    mask = _member_mask(algebra, seed)
    lattice = ideal_lattice(algebra, None)
    above = algebra.leq_matrix[np.ix_(np.flatnonzero(mask), lattice.generators)].all(axis=0)
    least = int(np.argmax(above))
    if not lattice.subset[least, above].all():
        raise InternalConsistencyError("no least ideal contains the seed")
    return lattice.ideals[least]


def classify(algebra: FiniteMVAlgebra, ideal: Ideal,
             max_size=DEFAULT_MAX_SIZE) -> IdealClassification:
    """Flags and generator g looked up in the lattice (proper is g != 1); the
    rank of a maximal ideal is the size of its quotient (O(n^2))."""
    if not is_ideal(algebra, ideal.members):
        raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    lattice = ideal_lattice(algebra, max_size)
    i = lattice.index[ideal.members]
    g = int(lattice.generators[i])
    maximal = bool(lattice.maximal[i])
    rank = quotient(algebra, ideal)[0].size if maximal else None
    return IdealClassification(g != algebra.one, bool(lattice.prime[i]), maximal, rank, g)


def quotient(algebra: FiniteMVAlgebra, ideal: Ideal):
    """Quotient by the congruence d(x, y) in I.

    Returns (quotient algebra, projection): projection[x] is the class index
    of carrier element x; classes are numbered by least member.  With g the
    central generator of I, x's class is keyed by x (.) neg g = neg(neg x (+) g),
    the projection of A = [0, g] x [0, neg g] onto [0, neg g] (O(n)); d(x, rep x)
    in I is checked for every x (O(n)), the induced tables are verified well
    defined (O(n^2)) and the projection kernel to be exactly the ideal.
    """
    mask = _member_mask(algebra, ideal.members)
    g = _generator(algebra, mask)
    if g is None:
        raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    n = algebra.size
    O, N = algebra.oplus_table, algebra.neg_table
    _, first, inverse = np.unique(N[O[N, g]], return_index=True, return_inverse=True)
    rep = first[inverse]  # least member of the class of x
    reps, class_of = np.unique(rep, return_inverse=True)
    class_of = class_of.astype(np.int32)  # int32 gathers keep the O(n^2) check below fast
    if not mask[O[N[O[N, rep]], N[O[np.arange(n), N[rep]]]]].all():
        raise InternalConsistencyError("an element is not congruent to its class representative")

    q_op = class_of[O[np.ix_(reps, reps)]]
    q_neg = class_of[N[reps]]
    step = max(1, (1 << 18) // n)  # row blocks: whole-table temporaries cost more at n = 4096
    for start in range(0, n, step):
        rows = slice(start, start + step)
        if (class_of[O[rows]] != q_op[class_of[rows]][:, class_of]).any():
            raise InternalConsistencyError("induced sum is not well defined")
    if (class_of[N] != q_neg[class_of]).any():
        raise InternalConsistencyError("induced negation is not well defined")

    if ((class_of == class_of[algebra.zero]) != mask).any():
        raise InternalConsistencyError("projection kernel differs from the ideal")

    labels = None
    if algebra.labels is not None:
        labels = tuple(f"[{algebra.label(int(r))}]" for r in reps)
    result = FiniteMVAlgebra(len(reps), int(class_of[algebra.zero]), q_op, q_neg, labels)
    return result, tuple(class_of.tolist())


def maximal_decomposition(algebra: FiniteMVAlgebra, ideal: Ideal) -> tuple:
    """The maximal ideals M_1..M_r with intersection equal to a proper ideal.

    The maximal ideals are the down-sets of neg a for the center atoms a;
    those containing the ideal are kept and their intersection is checked
    to be the ideal.  Cost: O(n^2) for the center plus O(r * n).
    """
    if not is_ideal(algebra, ideal.members):
        raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    if not ideal.is_proper:
        raise PreconditionError("the improper ideal has no maximal decomposition")

    leq = algebra.leq_matrix
    coatoms = algebra.neg_table[list(boolean_center(algebra)[1])]
    above = coatoms[leq[np.ix_(sorted(ideal.members), coatoms)].all(axis=0)]
    result = [Ideal(algebra, frozenset(np.flatnonzero(leq[:, c]).tolist())) for c in above]

    if frozenset(range(algebra.size)).intersection(*(m.members for m in result)) != ideal.members:
        raise InternalConsistencyError("maximal decomposition does not intersect to the ideal")
    return tuple(sorted(result, key=lambda i: i.sorted_members))


def is_regular(algebra: FiniteMVAlgebra, max_size=DEFAULT_MAX_SIZE) -> bool:
    """Does every prime ideal of the Boolean center generate a prime ideal?
    Both primality tests read lattice flags; cost: the two lattice passes."""
    center, emb = center_algebra(algebra)
    center_lattice = ideal_lattice(center, max_size)
    lattice = ideal_lattice(algebra, None)
    for ideal, prime in zip(center_lattice.ideals, center_lattice.prime):
        if not prime:
            continue
        generated = generated_ideal(algebra, {emb[m] for m in ideal.members})
        if not lattice.prime[lattice.index[generated.members]]:
            return False
    return True
