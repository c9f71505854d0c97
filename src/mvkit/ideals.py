"""Ideal calculus on finite MV-algebras.

An ideal is a carrier subset containing 0, closed under the truncated sum
and downward closed.  The induced congruence identifies x and y exactly when
their distance term lands in the ideal; quotients, the classification of
ideals (proper / prime / maximal / rank), decomposition of an ideal into the
maximal ideals above it, and the regularity test all live here.

Every ideal of a finite MV-algebra is the down-set of exactly one Boolean
(central) element, its join: `ideal_lattice` reads the ideals, their order and
flags off the center in one cached pass, and the other functions answer from
it.  Under the chain-product certificate (`finite.Decomposition`, attached by
`product` and `chain_algebra`, found by `decompose` otherwise) an ideal is a
set of coordinates: its classes are the projection onto the others, checked
against the digits in O(n*k), a quotient carries the projected certificate,
and the maximal ideals are the sets where one digit is 0.  The brute-force
procedures these replaced are oracles in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionError,
    InternalConsistencyError,
    NotAnIdealError,
    PreconditionError,
    ResourceCapError,
)
from .finite import (
    DEFAULT_MAX_SIZE,
    Decomposition,
    FiniteMVAlgebra,
    _frozen,
    boolean_center,
    center_algebra,
    decompose,
    index_dtype,
)


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
    """The members as a bool mask, O(|I|) at C speed; reports the first out of range."""
    members = tuple(members)
    if min(members, default=0) < 0 or max(members, default=0) >= algebra.size:
        x = next(x for x in members if not 0 <= x < algebra.size)
        raise NotAnIdealError(f"element index {x} out of range")
    mask = np.zeros(algebra.size, dtype=bool)
    mask[np.fromiter(members, np.intp, len(members))] = True
    return mask


def _generator(algebra: FiniteMVAlgebra, mask) -> int | None:
    """The (+)-fold g of the members when they are exactly the down-set of g
    and g (+) g = g, else None.  This holds iff they form an ideal: g is then
    their join and lies in the ideal.  Cost O(n + |I|): the fold is |I| scalar
    reads (below n = 125 faster than any whole-array fold tried), the down-set
    {x : g (+) neg x = 1} one contiguous row of the table."""
    O = algebra.oplus_table
    read = O.item
    g = algebra.zero
    for x in np.flatnonzero(mask).tolist():
        g = read(g, x)
    if O[g, g] != g or (mask != (O[g][algebra.neg_table] == algebra.one)).any():
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
class _LatticeCore:
    """What `ideal_lattice` caches on the algebra: `members[i]` is the
    down-set of the central element `generators[i]`, in canonical (size,
    member list) order; `subset[i, j]` says members[i] lies in members[j];
    `index` maps member sets to positions.  It holds no `Ideal`s, which
    would point back at the algebra."""

    members: tuple
    generators: np.ndarray
    subset: np.ndarray
    index: dict
    prime: np.ndarray
    maximal: np.ndarray


@dataclass(frozen=True, eq=False)
class IdealLattice(_LatticeCore):
    """The cached lattice with `ideals[i]`, the `Ideal` of members[i]."""

    ideals: tuple


def _lattice_core(algebra: FiniteMVAlgebra, max_size) -> _LatticeCore:
    """The cached lattice pass; see `ideal_lattice`."""
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
    members = tuple(frozenset(downs[c]) for c in order)
    subset = leq[np.ix_(generators, generators)]
    proper = generators != algebra.one
    maximal = proper & ((subset & proper).sum(axis=1) == 1)
    # the ideals above one are listed by size, so they form a chain exactly
    # when each lies inside the next
    chain_above = [subset[up[:-1], up[1:]].all() for up in map(np.flatnonzero, subset)]
    prime = proper & np.asarray(chain_above, dtype=bool)
    for shared in (generators, subset, prime, maximal):
        shared.setflags(write=False)
    core = _LatticeCore(members, generators, subset,
                        {m: i for i, m in enumerate(members)}, prime, maximal)
    algebra._cache["ideal_lattice"] = core
    return core


def ideal_lattice(algebra: FiniteMVAlgebra, max_size=DEFAULT_MAX_SIZE) -> IdealLattice:
    """Every ideal as the down-set of a central element, in one cached pass.

    The join g of a finite ideal lies in it, so g (+) g does too and is <= g:
    g is idempotent (central).  Conversely the down-set of an idempotent is
    closed under (+); the pass checks every center member idempotent.  The
    inclusion matrix is the order on the generators; maximal means no other
    proper ideal above, prime means proper with the ideals above forming a
    chain (the MV-algebra characterisation).  Cost for k ideals over n
    elements: O(n^2) for the center and the down-sets, O(k^2) for the rest.
    The cache holds member sets only; each call wraps them in k new `Ideal`s
    (O(k)), so the algebra and its cache form no reference cycle.
    """
    core = _lattice_core(algebra, max_size)
    return IdealLattice(**vars(core), ideals=tuple(Ideal(algebra, m) for m in core.members))


def all_ideals(algebra: FiniteMVAlgebra, max_size=DEFAULT_MAX_SIZE) -> tuple:
    """Every ideal, sorted by (size, member list): `ideal_lattice(...).ideals`."""
    return ideal_lattice(algebra, max_size).ideals


def generated_ideal(algebra: FiniteMVAlgebra, seed) -> Ideal:
    """Least ideal containing `seed`: of the ideals above it, the first in
    canonical order, checked to lie in all the others (O(|seed| * k))."""
    mask = _member_mask(algebra, seed)
    core = _lattice_core(algebra, None)
    above = algebra.leq_matrix[np.ix_(np.flatnonzero(mask), core.generators)].all(axis=0)
    least = int(np.argmax(above))
    if not core.subset[least, above].all():
        raise InternalConsistencyError("no least ideal contains the seed")
    return Ideal(algebra, core.members[least])


def classify(algebra: FiniteMVAlgebra, ideal: Ideal,
             max_size=DEFAULT_MAX_SIZE) -> IdealClassification:
    """Flags and generator g looked up in the lattice (proper is g != 1); the
    rank of a maximal ideal is its class count (`classes`, O(n*k))."""
    if not is_ideal(algebra, ideal.members):
        raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    core = _lattice_core(algebra, max_size)
    i = core.index[ideal.members]
    g = int(core.generators[i])
    maximal = bool(core.maximal[i])
    rank = len(classes(algebra, ideal)[1]) if maximal else None
    return IdealClassification(g != algebra.one, bool(core.prime[i]), maximal, rank, g)


def _certificate(algebra: FiniteMVAlgebra) -> Decomposition:
    """The algebra's chain-product certificate; an algebra without one is broken."""
    try:
        return decompose(algebra)
    except DecompositionError as exc:
        raise InternalConsistencyError(f"no chain-product certificate: {exc}") from exc


def classes(algebra: FiniteMVAlgebra, ideal: Ideal):
    """The classes of the congruence d(x, y) in I, as read-only arrays:
    class_of[x] is x's class, reps[c] the least member of class c (classes
    are numbered by least member).  With g the central generator of I, x is
    keyed by x (.) neg g = neg(neg x (+) g), the projection of
    A = [0, g] x [0, neg g] onto [0, neg g].  The certificate proves the
    keying a homomorphism: the key's digits must be x's digits with g's
    nonzero coordinates set to 0 (O(n*k); an algebra without a certificate
    gets one from `decompose`, O(n^2) once).  d(x, rep x) in I, the induced
    negation and the kernel are checked in O(n); no table is built.
    """
    mask = _member_mask(algebra, ideal.members)
    g = _generator(algebra, mask)
    if g is None:
        raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    O, N = algebra.oplus_table, algebra.neg_table
    key = N[O[g][N]]
    if algebra.size > 1:
        digits = _certificate(algebra).digits
        if (digits[key] != digits * (digits[g] == 0)).any():
            raise InternalConsistencyError("class keys are not the certificate's coordinate projection")
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rep = first[inverse]  # least member of the class of x
    reps, class_of = np.unique(rep, return_inverse=True)
    if not mask[O[N[O[N, rep]], N[O[np.arange(algebra.size), N[rep]]]]].all():
        raise InternalConsistencyError("an element is not congruent to its class representative")
    if (class_of[N] != class_of[N[reps]][class_of]).any():
        raise InternalConsistencyError("induced negation is not well defined")
    if ((class_of == class_of[algebra.zero]) != mask).any():
        raise InternalConsistencyError("projection kernel differs from the ideal")
    return _frozen(class_of.astype(index_dtype(algebra.size))), _frozen(reps)


def _quotient_algebra(algebra: FiniteMVAlgebra, class_of, reps) -> FiniteMVAlgebra:
    """The quotient on `classes`' output, O(m^2) for m classes, with its
    certificate: the classes of the atoms outside the ideal (ascending), their
    chain orders and the representatives' digits there (O(m*k))."""
    O, N = algebra.oplus_table, algebra.neg_table
    labels = None if algebra.labels is None else tuple(f"[{algebra.labels[r]}]" for r in reps)
    zero = int(class_of[algebra.zero])
    result = FiniteMVAlgebra(len(reps), zero, class_of[O[np.ix_(reps, reps)]], class_of[N[reps]], labels)
    if len(reps) > 1:
        cert = _certificate(algebra)
        atom_class = class_of[list(cert.atoms)]
        outside = np.flatnonzero(atom_class != zero)
        outside = outside[np.argsort(atom_class[outside])]
        result._cache["decomposition"] = Decomposition(
            tuple(atom_class[outside].tolist()), tuple(cert.chain_orders[i] for i in outside),
            _frozen(cert.digits[np.ix_(reps, outside)]))
    return result


def quotient(algebra: FiniteMVAlgebra, ideal: Ideal):
    """Quotient by the congruence d(x, y) in I: (quotient algebra, projection),
    projection[x] being x's class.  Cost: `classes` plus O(m^2) for m classes."""
    class_of, reps = classes(algebra, ideal)
    return _quotient_algebra(algebra, class_of, reps), tuple(class_of.tolist())


def maximal_decomposition(algebra: FiniteMVAlgebra, ideal: Ideal) -> tuple:
    """The maximal ideals M_1..M_r with intersection equal to a proper ideal.

    Under the certificate the maximal ideals are the sets {x : digits[x, i] = 0};
    those containing the ideal are the coordinates on which every member's
    digit is 0, and their intersection is checked to be the ideal.  Cost
    O(n*k) plus the certificate (see `quotient`); no order matrix or center
    is built.
    """
    mask = _member_mask(algebra, ideal.members)
    if _generator(algebra, mask) is None:
        raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    if mask.all():
        raise PreconditionError("the improper ideal has no maximal decomposition")

    digits = _certificate(algebra).digits
    zero_sets = digits[:, (digits[mask] == 0).all(axis=0)] == 0
    if (zero_sets.all(axis=1) != mask).any():
        raise InternalConsistencyError("maximal decomposition does not intersect to the ideal")
    result = [Ideal(algebra, frozenset(np.flatnonzero(col).tolist())) for col in zero_sets.T]
    return tuple(sorted(result, key=lambda i: i.sorted_members))


def is_regular(algebra: FiniteMVAlgebra, max_size=DEFAULT_MAX_SIZE) -> bool:
    """Does every prime ideal of the Boolean center generate a prime ideal?
    Both primality tests read lattice flags; cost: the two lattice passes."""
    return _is_regular(algebra, *center_algebra(algebra), max_size)


def _is_regular(algebra, center, emb, max_size) -> bool:
    """`is_regular` on an already built (center, embedding) pair."""
    center_core = _lattice_core(center, max_size)
    core = _lattice_core(algebra, None)
    for members, prime in zip(center_core.members, center_core.prime):
        if not prime:
            continue
        generated = generated_ideal(algebra, {emb[m] for m in members})
        if not core.prime[core.index[generated.members]]:
            return False
    return True
