"""Ideal calculus on finite MV-algebras.

An ideal is a carrier subset containing 0, closed under the truncated sum
and downward closed.  The induced congruence identifies x and y exactly when
their distance term lands in the ideal; quotients, the classification of
ideals (proper / prime / maximal / rank), decomposition of an ideal into the
maximal ideals above it, and the regularity test all live here.

Under the chain-product certificate (`finite.Decomposition`, attached by
`product` and `chain_algebra`, found by `decompose` otherwise) A is
prod_{i in K} L_{n_i}, and its ideals are the coordinate sets
I_S = {x : s(x) inside S}, s(x) the coordinates of x's nonzero digits.
`ideal_lattice` reads all of them, their order and flags off the digits in
one cached pass, and the other functions answer from it.  The classes of I_S
are the projection onto the other coordinates, checked against the digits in
O(n*k); a quotient carries the projected certificate, and the maximal ideals
are the sets where one digit is 0.  The brute-force procedures these
replaced are oracles in the test suite.

No layer here takes a size cap: the cap is checked once, where tables or
chain orders become an algebra, and each layer is bounded by the n x n
table it reads (`ideal_lattice` states the lattice's bounds).

Tables narrow, indices intp: the tables stay `index_dtype`, and an index
array made here (a class key) is intp from the start, as numpy casts any
other index dtype inside every gather.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, NotAnIdealError, PreconditionError
from .finite import Decomposition, FiniteMVAlgebra, _all_ints, _certificate, _frozen, index_dtype


@dataclass(frozen=True)
class Ideal:
    """A subset of a finite carrier, downward closed and closed under (+).
    `generator`, its join, is known (not None) when the library built it; it
    takes no part in equality."""

    algebra: FiniteMVAlgebra
    members: frozenset
    generator: int | None = field(default=None, init=False, compare=False)

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
    """The members (ints, not bools, or an int array) as a bool mask, O(|I|)
    at C speed; reports the first that is not an index in range."""
    members = members.tolist() if isinstance(members, np.ndarray) else tuple(members)
    if not _all_ints(members) or min(members, default=0) < 0 or max(members, default=0) >= algebra.size:
        x = next(x for x in members if not (_all_ints([x]) and 0 <= x < algebra.size))
        raise NotAnIdealError(f"element index {x!r} out of range")
    mask = np.zeros(algebra.size, dtype=bool)
    mask[np.fromiter(members, np.intp, len(members))] = True
    return mask


def _generator(algebra: FiniteMVAlgebra, mask) -> int | None:
    """The (+)-fold g of the members when they are exactly the down-set of g
    and g (+) g = g, else None: this holds iff they form an ideal, g its join.
    The fold is pairwise, a gather per level down to 16 scalar reads, and the
    down-set {x : g (+) neg x = 1} one row of the table: O(n) in all."""
    O = algebra.oplus_table
    v, g = np.flatnonzero(mask), algebra.zero
    while len(v) > 16:
        if len(v) % 2:
            g = O.item(g, v[-1])
        v = O[v[:-1:2], v[1::2]].astype(np.intp)
    for x in v.tolist():
        g = O.item(g, x)
    if O[g, g] != g or (mask != (O[g][algebra.neg_table] == algebra.one)).any():
        return None
    return g


def _ideal(algebra: FiniteMVAlgebra, members: frozenset, g: int) -> Ideal:
    ideal = Ideal(algebra, members)
    object.__setattr__(ideal, "generator", g)
    return ideal


def is_ideal(algebra: FiniteMVAlgebra, members) -> bool:
    """Zero, (+)-closure and down-closure, certified by `_generator` in O(n)."""
    return _generator(algebra, _member_mask(algebra, members)) is not None


def make_ideal(algebra: FiniteMVAlgebra, members) -> Ideal:
    g = _generator(algebra, _member_mask(algebra, members))
    if g is None:
        raise NotAnIdealError(f"{sorted(set(members))} is not an ideal")
    return _ideal(algebra, frozenset(int(x) for x in members), g)


def zero_ideal(algebra: FiniteMVAlgebra) -> Ideal:
    return _ideal(algebra, frozenset({algebra.zero}), algebra.zero)


def improper_ideal(algebra: FiniteMVAlgebra) -> Ideal:
    return _ideal(algebra, frozenset(range(algebra.size)), algebra.one)


@dataclass(frozen=True, eq=False)
class _LatticeCore:
    """What `ideal_lattice` caches: members[i] = I_S = down-set of
    generators[i] for S = supports[i] (bit j for coordinate j), in (size,
    member list) order; subset[i, j] iff members[i] lies in members[j];
    `index` maps member sets to positions; support[x] = s(x).  It holds no
    `Ideal`s, which would point back at the algebra."""

    members: tuple
    generators: np.ndarray
    subset: np.ndarray
    index: dict
    prime: np.ndarray
    maximal: np.ndarray
    support: np.ndarray
    supports: np.ndarray


@dataclass(frozen=True, eq=False)
class IdealLattice(_LatticeCore):
    """The cached lattice with `ideals[i]`, the `Ideal` of members[i]."""

    ideals: tuple


def _lattice_core(algebra: FiniteMVAlgebra) -> _LatticeCore:
    """The cached lattice pass; see `ideal_lattice`."""
    cached = algebra._cache.get("ideal_lattice")
    if cached is not None:
        return cached
    cert = _certificate(algebra)
    n, k = cert.digits.shape
    support = ((cert.digits != 0) @ (1 << np.arange(k))).astype(index_dtype(n))   # below 2^k <= n
    lists = [np.flatnonzero((support | s) == s).tolist() for s in range(1 << k)]   # I_S, ascending
    order = sorted(range(1 << k), key=lambda s: (len(lists[s]), lists[s]))
    tops = np.full(1 << k, algebra.zero, dtype=support.dtype)      # the join of S's atoms
    for j, atom in enumerate(cert.atoms):
        tops[1 << j:2 << j] = algebra.oplus_table[tops[:1 << j], atom]
    if (support[tops] != np.arange(1 << k)).any():
        raise InternalConsistencyError("an ideal's generator does not have the ideal's support")
    supports = np.array(order, dtype=support.dtype)
    # the quotient is a chain, so the ideal prime, exactly when one coordinate
    # is left out; those ideals are also the maximal ones
    maximal = np.array([s.bit_count() == k - 1 for s in order], dtype=bool)
    members = tuple(frozenset(lists[s]) for s in order)
    core = _LatticeCore(members, tops[order], (supports[:, None] & ~supports) == 0,
                        {m: i for i, m in enumerate(members)}, maximal, maximal, support, supports)
    for shared in (core.generators, core.subset, maximal, support, supports):
        shared.setflags(write=False)
    algebra._cache["ideal_lattice"] = core
    return core


def ideal_lattice(algebra: FiniteMVAlgebra) -> IdealLattice:
    """The 2^k ideals I_S as coordinate sets, in one cached pass over the digits.

    I_S is the down-set of the join of S's atoms, its generator (one table
    read each, checked to have support S); it lies in I_T iff S lies in T,
    a bitmask test; it is maximal, equally prime, iff S misses one
    coordinate.  Its members are the x whose support s(x) lies in S, one
    bitmask test each.  Cost O(2^k * n) for the members, O(4^k) for
    inclusion and the canonical sort; no order matrix or center.  All three
    are within the n x n table: 2^k <= n, prod (1 + n_i) <= n^1.59 members
    and 4^k <= n^2 bits, so no cap of its own is needed.  The cache
    holds member sets only, wrapped in new `Ideal`s per call, so the algebra
    and its cache form no cycle.
    """
    core = _lattice_core(algebra)
    ideals = tuple(_ideal(algebra, m, g) for m, g in zip(core.members, core.generators.tolist()))
    return IdealLattice(**vars(core), ideals=ideals)


def all_ideals(algebra: FiniteMVAlgebra) -> tuple:
    """Every ideal, sorted by (size, member list): `ideal_lattice(...).ideals`."""
    return ideal_lattice(algebra).ideals


def generated_ideal(algebra: FiniteMVAlgebra, seed) -> Ideal:
    """Least ideal containing `seed`: I_S for S the union of the seed's
    supports, since I_S contains x iff s(x) lies in S (O(|seed| + 2^k))."""
    mask = _member_mask(algebra, seed)
    core = _lattice_core(algebra)
    i = int(np.flatnonzero(core.supports == np.bitwise_or.reduce(core.support[mask]))[0])
    return _ideal(algebra, core.members[i], int(core.generators[i]))


def classify(algebra: FiniteMVAlgebra, ideal: Ideal) -> IdealClassification:
    """Flags and generator g read off the lattice, which holds every ideal (a
    set outside it is refused); proper is g != 1, and a maximal I = [0, g]
    has rank n / |I|: each class of A = [0, g] x [0, neg g] has |I| members."""
    core = _lattice_core(algebra)
    i = core.index.get(ideal.members)
    if i is None:
        raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    g, maximal = int(core.generators[i]), bool(core.maximal[i])
    rank = algebra.size // len(ideal.members) if maximal else None
    return IdealClassification(g != algebra.one, bool(core.prime[i]), maximal, rank, g)


def _key(algebra: FiniteMVAlgebra, g: int) -> np.ndarray:
    """x (.) neg g = neg(neg x (+) g) for every x, as intp: its projection onto [0, neg g]."""
    return algebra.neg_table.take(algebra.oplus_table[g].take(algebra.neg_table)).astype(np.intp)


def _checked_key(algebra: FiniteMVAlgebra, g: int, kept) -> np.ndarray:
    """`_key` of g, checked in O(n*k): its n x k digit rows, less x's in the
    `kept` columns (indices, one in-place subtraction each), must be zero."""
    key, digits = _key(algebra, g), _certificate(algebra).digits
    taken = digits.take(key, axis=0)
    for j in kept:
        taken[:, j] -= digits[:, j]
    if np.count_nonzero(taken):
        raise InternalConsistencyError("class keys are not the certificate's coordinate projection")
    return key


def _number_classes(key):
    """Classes of equal intp key (entries below n) numbered by least member,
    (class_of, reps), O(n): a scatter-min by key finds the least members
    (`minimum.at`; a plain scatter leaves a repeated index's winner unspecified)
    and numbers them in the same buffer.  It allocates four n-entry
    `index_dtype` arrays and one bool, and reads no cache."""
    n, dtype = len(key), index_dtype(len(key))
    x, least = np.arange(n, dtype=dtype), np.full(n, n - 1, dtype=dtype)   # no member is above n - 1
    np.minimum.at(least, key, x)
    rep = least.take(key)
    reps = (rep == x).nonzero()[0]
    least[reps] = x[:len(reps)]   # by member now; x = 0, its class's least member, is class 0
    return _frozen(least.take(rep)), _frozen(reps)


def classes(algebra: FiniteMVAlgebra, ideal: Ideal):
    """The classes of the congruence d(x, y) in I as read-only arrays:
    class_of[x], numbered by least member, and reps[c], those members.  With
    g the generator of I (the ideal's, else `_generator`'s, which proves I an
    ideal), x is keyed by `_key`, x (.) neg g, its projection onto [0, neg g].

    The one check (`_checked_key`): the key's digits are x's with S, g's
    nonzero coordinates, set to 0.  The certificate being an isomorphism,
    the keying is then the projection off S, a homomorphism, which implies
    the congruence, induced negation and kernel checks this used to make:
    the kernel, digits 0 off S, is the down-set of g, I; negation respects
    keys; and x and rep x share a key, so d(x, rep x) has key 0, in I.  Cost
    O(n*k), no sort, no table: it allocates the key (two n-entry gathers and
    an intp copy), its n x k digit rows and `_number_classes`' arrays, and
    reads no per-algebra cache but the certificate.
    """
    g = ideal.generator
    if g is None:
        g = _generator(algebra, _member_mask(algebra, ideal.members))
        if g is None:
            raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    kept = [j for j, digit in enumerate(_certificate(algebra).digits[g].tolist()) if not digit]
    return _number_classes(_checked_key(algebra, g, kept))


def _quotient_algebra(algebra: FiniteMVAlgebra, class_of, reps) -> FiniteMVAlgebra:
    """The quotient on `classes`' output, O(m^2) for m classes, with its
    certificate: the atoms' classes outside the ideal (sorted in Python), their
    chain orders and the representatives' digits there (O(m*k)).  It allocates
    nothing of size n and reads no per-algebra cache but the certificate."""
    O, N = algebra.oplus_table, algebra.neg_table
    labels = None if algebra.labels is None else tuple(f"[{algebra.labels[r]}]" for r in reps.tolist())
    oplus, neg = class_of.take(O[reps[:, None], reps]), class_of.take(N.take(reps))
    result = FiniteMVAlgebra._built(len(reps), class_of.item(algebra.zero), oplus, neg, labels)
    if len(reps) > 1:
        cert = _certificate(algebra)
        atoms, kept = zip(*sorted((c, i) for i, c in enumerate(map(class_of.item, cert.atoms)) if c != result.zero))
        digits = _frozen(cert.digits.take(reps, axis=0).take(kept, axis=1))
        result._cache["decomposition"] = Decomposition(atoms, tuple(cert.chain_orders[i] for i in kept), digits)
    return result


def quotient(algebra: FiniteMVAlgebra, ideal: Ideal):
    """Quotient by the congruence d(x, y) in I: (quotient algebra, projection),
    projection[x] being x's class.  Cost: `classes` plus O(m^2) for m classes."""
    class_of, reps = classes(algebra, ideal)
    return _quotient_algebra(algebra, class_of, reps), tuple(class_of.tolist())


def maximal_decomposition(algebra: FiniteMVAlgebra, ideal: Ideal) -> tuple:
    """The maximal ideals M_1..M_r with intersection equal to a proper ideal.

    They are the M_i = {x : digits[x, i] = 0} = down-set of neg a_i (a_i the
    atom of coordinate i) where every member's digit i is 0; the ideals are
    intersections of M_i, so theirs equals the members iff those form an
    ideal, the one check.  When it fails, `_generator`'s table test (O(n))
    tells a set that is not an ideal from a certificate that disagrees with
    the tables.  O(n*k) and one sort of the r member lists.
    """
    mask = _member_mask(algebra, ideal.members)
    if mask.all():
        raise PreconditionError("the improper ideal has no maximal decomposition")
    cert = _certificate(algebra)
    above = np.flatnonzero((cert.digits[mask] == 0).all(axis=0))
    zero_sets = cert.digits.T[above] == 0
    if (zero_sets.all(axis=0) != mask).any():
        # a genuine ideal that misses the intersection means a broken certificate
        if ideal.generator is None and _generator(algebra, mask) is None:
            raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
        raise InternalConsistencyError("maximal decomposition does not intersect to the ideal")
    x = np.nonzero(zero_sets)[1].tolist()
    ends = np.cumsum(zero_sets.sum(axis=1)).tolist()
    tops = algebra.neg_table[[cert.atoms[i] for i in above.tolist()]].tolist()
    found = sorted(zip((x[a:b] for a, b in zip([0] + ends[:-1], ends)), tops))
    return tuple(_ideal(algebra, frozenset(m), g) for m, g in found)


def is_regular(algebra: FiniteMVAlgebra) -> bool:
    """Does every prime ideal of the Boolean center generate a prime ideal?

    Always, given the certificate A = prod_{j in K} L_{n_j}: the center is
    the x with every digit 0 or top, its prime ideals the P_j = {c : c_j = 0}.
    Central elements are idempotent, so P_j generates the down-set of its
    join (digit 0 at j, top elsewhere), M_j = {x : x_j = 0}, which is prime
    as A/M_j is the chain L_{n_j}.  Tables without a certificate raise
    InternalConsistencyError.  Cost: the certificate's, O(n^2) once when
    it is not cached, within the n x n table's own bound.
    """
    _certificate(algebra)
    return True
