"""Ideal calculus on finite MV-algebras.

An ideal is a carrier subset containing 0, closed under the truncated sum
and downward closed.  The induced congruence identifies x and y exactly when
their distance term lands in the ideal; quotients, the classification of
ideals (proper / prime / maximal / rank), decomposition of an ideal into the
maximal ideals above it, and the regularity test all live here.

Enumeration exploits the fact that every ideal of a finite MV-algebra is
principal (generated by the join of its members), so `all_ideals` runs one
closure per carrier element instead of scanning all subsets; the subset scan
survives in the test suite as an independent oracle.
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
from .finite import DEFAULT_MAX_SIZE, FiniteMVAlgebra, center_algebra, decompose


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


def is_ideal(algebra: FiniteMVAlgebra, members) -> bool:
    """Check the two ideal clauses plus membership of zero."""
    mask = _member_mask(algebra, members)
    if not mask[algebra.zero]:
        return False
    idx = np.flatnonzero(mask)
    if not mask[algebra.oplus_table[np.ix_(idx, idx)]].all():
        return False
    below = algebra.leq_matrix[:, idx].any(axis=1)
    return bool((below <= mask).all())


def make_ideal(algebra: FiniteMVAlgebra, members) -> Ideal:
    if not is_ideal(algebra, members):
        raise NotAnIdealError(f"{sorted(set(members))} is not an ideal")
    return Ideal(algebra, frozenset(int(x) for x in members))


def zero_ideal(algebra: FiniteMVAlgebra) -> Ideal:
    return Ideal(algebra, frozenset({algebra.zero}))


def improper_ideal(algebra: FiniteMVAlgebra) -> Ideal:
    return Ideal(algebra, frozenset(range(algebra.size)))


def generated_ideal(algebra: FiniteMVAlgebra, seed) -> Ideal:
    """Least ideal containing `seed`: alternate sum-closure and down-closure."""
    mask = _member_mask(algebra, seed)
    mask[algebra.zero] = True
    O = algebra.oplus_table
    leq = algebra.leq_matrix
    while True:
        idx = np.flatnonzero(mask)
        new = mask.copy()
        new[O[np.ix_(idx, idx)].ravel()] = True
        new |= leq[:, idx].any(axis=1)
        if (new == mask).all():
            break
        mask = new
    return Ideal(algebra, frozenset(int(x) for x in np.flatnonzero(mask)))


def all_ideals(algebra: FiniteMVAlgebra, max_size=DEFAULT_MAX_SIZE) -> tuple:
    """Every ideal, via one principal closure per carrier element.

    Sorted by (size, member list); cached on the algebra.
    """
    cached = algebra._cache.get("ideals")
    if cached is not None:
        return cached
    if max_size is not None and algebra.size > max_size:
        raise ResourceCapError(algebra.size, max_size)
    found = {}
    for a in range(algebra.size):
        ideal = generated_ideal(algebra, (a,))
        found[ideal.members] = ideal
    ordered = tuple(sorted(found.values(), key=lambda i: (len(i.members), i.sorted_members)))
    algebra._cache["ideals"] = ordered
    return ordered


def _is_prime(algebra, mask) -> bool:
    # proper, and no two non-members meet inside the ideal
    if mask.all():
        return False
    outside = np.flatnonzero(~mask)
    meets = algebra.meet_table[np.ix_(outside, outside)]
    return not mask[meets].any()


def classify(algebra: FiniteMVAlgebra, ideal: Ideal,
             max_size=DEFAULT_MAX_SIZE) -> IdealClassification:
    """Proper/prime/maximal flags, rank of a maximal ideal, and the generator."""
    if not is_ideal(algebra, ideal.members):
        raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    mask = _member_mask(algebra, ideal.members)
    proper = not mask.all()
    prime = proper and _is_prime(algebra, mask)

    maximal = False
    if proper:
        maximal = not any(
            other.is_proper and ideal.members < other.members
            for other in all_ideals(algebra, max_size)
        )

    rank = quotient(algebra, ideal)[0].size if maximal else None

    generator = algebra.zero
    for x in ideal.sorted_members:
        generator = algebra.join(generator, x)
    return IdealClassification(proper, prime, maximal, rank, int(generator))


def quotient(algebra: FiniteMVAlgebra, ideal: Ideal):
    """Quotient by the congruence d(x, y) in I.

    Returns (quotient algebra, projection): projection[x] is the class index
    of carrier element x; classes are numbered by least member.  The induced
    tables are verified well defined and the projection kernel is verified to
    be exactly the ideal.
    """
    if not is_ideal(algebra, ideal.members):
        raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    n = algebra.size
    mask = _member_mask(algebra, ideal.members)
    related = mask[algebra.distance_table]

    class_of = np.full(n, -1, dtype=np.int32)
    reps = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        cls = np.flatnonzero(related[x])
        if (class_of[cls] >= 0).any():
            raise InternalConsistencyError("congruence classes overlap")
        class_of[cls] = len(reps)
        reps.append(x)
    reps = np.asarray(reps, dtype=np.int32)

    q_op = class_of[algebra.oplus_table[np.ix_(reps, reps)]]
    q_neg = class_of[algebra.neg_table[reps]]
    if (class_of[algebra.oplus_table] != q_op[class_of[:, None], class_of[None, :]]).any():
        raise InternalConsistencyError("induced sum is not well defined")
    if (class_of[algebra.neg_table] != q_neg[class_of]).any():
        raise InternalConsistencyError("induced negation is not well defined")

    kernel = frozenset(int(x) for x in np.flatnonzero(class_of == class_of[algebra.zero]))
    if kernel != ideal.members:
        raise InternalConsistencyError("projection kernel differs from the ideal")

    labels = None
    if algebra.labels is not None:
        labels = tuple(f"[{algebra.label(int(r))}]" for r in reps)
    result = FiniteMVAlgebra(len(reps), int(class_of[algebra.zero]), q_op, q_neg, labels)
    return result, tuple(int(c) for c in class_of)


def maximal_decomposition(algebra: FiniteMVAlgebra, ideal: Ideal) -> tuple:
    """The maximal ideals M_1..M_r with intersection equal to a proper ideal.

    Decomposes the quotient into chains and pulls the kernel of each chain
    projection back through the quotient projection.
    """
    if not is_ideal(algebra, ideal.members):
        raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    if not ideal.is_proper:
        raise PreconditionError("the improper ideal has no maximal decomposition")

    quot, proj = quotient(algebra, ideal)
    dec = decompose(quot)
    proj_arr = np.asarray(proj, dtype=np.int32)

    result = []
    for i in range(len(dec.chain_orders)):
        digits = np.asarray([dec.iso[c][i] for c in range(quot.size)], dtype=np.int32)
        members = frozenset(int(x) for x in np.flatnonzero(digits[proj_arr] == 0))
        result.append(Ideal(algebra, members))

    meet_all = frozenset(range(algebra.size))
    for m in result:
        meet_all &= m.members
    if meet_all != ideal.members:
        raise InternalConsistencyError("maximal decomposition does not intersect to the ideal")
    return tuple(sorted(result, key=lambda i: i.sorted_members))


def is_regular(algebra: FiniteMVAlgebra, max_size=DEFAULT_MAX_SIZE) -> bool:
    """Does every prime ideal of the Boolean center generate a prime ideal?"""
    center, emb = center_algebra(algebra)
    for ideal in all_ideals(center, max_size):
        cmask = _member_mask(center, ideal.members)
        if not (not cmask.all() and _is_prime(center, cmask)):
            continue
        seed = {emb[m] for m in ideal.members}
        generated = generated_ideal(algebra, seed)
        gmask = _member_mask(algebra, generated.members)
        if gmask.all() or not _is_prime(algebra, gmask):
            return False
    return True
