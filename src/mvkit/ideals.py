"""Ideal calculus on finite MV-algebras.

An ideal is a carrier subset containing 0, closed under the truncated sum
and downward closed; its congruence identifies x and y when their distance
lands in it.  Quotients, classification (proper / prime / maximal / rank),
maximal decomposition and the regularity test live here.

Under the chain-product certificate (`finite.Decomposition`, attached by
`product` and `chain_algebra`, found by `decompose` otherwise) A is
prod_{i in K} L_{n_i}, and its ideals are the coordinate sets
I_S = {x : s(x) inside S}, s(x) the coordinates of x's nonzero digits, so
S is an ideal's one identity: the library's `Ideal`s carry S and their join
and build a member set only when one is read, `ideal_lattice` caches the
canonical order of all 2^k as arrays, and inclusion and maximality are
bitmask tests on S.  The classes of I_S are the projection off S, checked
against the digits in O(n*k), and a quotient carries the projected
certificate.  The brute-force procedures these replaced are test oracles.

No layer here takes a size cap: the cap is checked once, where tables or
chain orders become an algebra, and each layer is bounded by the n x n
table it read.  Tables narrow, indices intp: the tables stay `index_dtype`,
and an index array made here (a class key) is intp from the start, as
numpy casts any other index dtype inside every gather.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, NotAnIdealError, PreconditionError
from .finite import Decomposition, FiniteMVAlgebra, _all_ints, _certificate, _frozen, index_dtype

_BLOCK = 1 << 18   # entries in one block of the lattice pass's temporaries


class Ideal:
    """A subset of a finite carrier, downward closed and closed under (+).

    `Ideal(algebra, members)` holds the set it is given.  The library's
    ideals are coordinate sets I_S, named by S (`coordinates`, bit j for
    coordinate j) and carrying their join g (`generator`; both are None on a
    caller's): their size is the product of S's chain orders, and their
    members, the down-set of g, are built on first read.  Equality, hash
    and repr are the member set's."""

    def __init__(self, algebra: FiniteMVAlgebra, members: frozenset):
        self.algebra, self._members, self.coordinates, self.generator = algebra, members, None, None

    @property
    def members(self) -> frozenset:
        if self._members is None:
            self._members = frozenset(self.sorted_members)
        return self._members

    @property
    def sorted_members(self) -> tuple:
        """Ascending; a library ideal's is one `flatnonzero` of g's down-set."""
        if self.generator is None:
            return tuple(sorted(self._members))
        return tuple(np.flatnonzero(_down_set(self.algebra, self.generator)).tolist())

    @property
    def is_proper(self) -> bool:
        return len(self) < self.algebra.size

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __len__(self) -> int:
        if self.coordinates is None:
            return len(self._members)
        return math.prod(n for j, n in enumerate(_certificate(self.algebra).chain_orders) if self.coordinates >> j & 1)

    def __eq__(self, other):
        return isinstance(other, Ideal) and self.algebra is other.algebra and self.members == other.members

    def __hash__(self):
        return hash((self.algebra, self.members))

    def __repr__(self) -> str:
        return f"Ideal({self.sorted_members})"


@dataclass(frozen=True)
class IdealClassification:
    """Classification flags for one ideal; `rank`, the size of the quotient
    chain, is None unless the ideal is maximal."""

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


def _down_set(algebra: FiniteMVAlgebra, g: int) -> np.ndarray:
    """{x : g (+) neg x = 1}, the x below g, as a bool mask: one table row, O(n)."""
    return algebra.oplus_table[g].take(algebra.neg_table) == algebra.one


def _generator(algebra: FiniteMVAlgebra, mask) -> int | None:
    """The (+)-fold g of the members when they are exactly the down-set of g
    and g (+) g = g, else None: this holds iff they form an ideal, g its join.
    The fold is pairwise, a gather per level down to 16 scalar reads, and the
    down-set one row of the table: O(n) in all."""
    O = algebra.oplus_table
    v, g = np.flatnonzero(mask), algebra.zero
    while len(v) > 16:
        if len(v) % 2:
            g = O.item(g, v[-1])
        v = O[v[:-1:2], v[1::2]].astype(np.intp)
    for x in v.tolist():
        g = O.item(g, x)
    if O[g, g] != g or (mask != _down_set(algebra, g)).any():
        return None
    return g


def _coordinates(algebra: FiniteMVAlgebra, rows) -> int:
    """The coordinates where some x of `rows` (an index, or a bool mask) has
    a nonzero digit, as a bitmask: s(x) for one x.  O(k) per x."""
    digits = _certificate(algebra).digits
    nonzero = (digits[rows] != 0).reshape(-1, digits.shape[1]).any(axis=0)
    return sum(1 << j for j, bit in enumerate(nonzero.tolist()) if bit)


def _node(algebra: FiniteMVAlgebra, s: int, g: int, members: frozenset | None = None) -> Ideal:
    """The library's `Ideal` I_S, g its join; `members`, when the caller has them."""
    ideal = Ideal(algebra, members)
    ideal.coordinates, ideal.generator = s, g
    return ideal


def _named(algebra: FiniteMVAlgebra, ideal: Ideal) -> tuple:
    """(S, g) of an ideal: its own when the library built it, else g is
    `_generator`'s O(n) proof that the members form an ideal and S = s(g)."""
    if ideal.generator is not None:
        return ideal.coordinates, ideal.generator
    g = _generator(algebra, _member_mask(algebra, ideal.members))
    if g is None:
        raise NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    return _coordinates(algebra, g), g


def is_ideal(algebra: FiniteMVAlgebra, members) -> bool:
    """Zero, (+)-closure and down-closure, certified by `_generator` in O(n)."""
    return _generator(algebra, _member_mask(algebra, members)) is not None


def make_ideal(algebra: FiniteMVAlgebra, members) -> Ideal:
    g = _generator(algebra, _member_mask(algebra, members))
    if g is None:
        raise NotAnIdealError(f"{sorted(set(members))} is not an ideal")
    return _node(algebra, _coordinates(algebra, g), g, frozenset(int(x) for x in members))


def zero_ideal(algebra: FiniteMVAlgebra) -> Ideal:
    return _node(algebra, 0, algebra.zero)


def improper_ideal(algebra: FiniteMVAlgebra) -> Ideal:
    return _node(algebra, (1 << len(_certificate(algebra).atoms)) - 1, algebra.one)


@dataclass(frozen=True, eq=False)
class IdealLattice:
    """What `ideal_lattice` caches, arrays only: node i is I_S for S =
    supports[i] (bit j for coordinate j), the down-set of generators[i], in
    (size, member list) order.  Nothing in it points back at the algebra."""

    supports: np.ndarray
    generators: np.ndarray


def ideal_lattice(algebra: FiniteMVAlgebra) -> IdealLattice:
    """The 2^k ideals I_S as coordinate sets, in one cached pass over the digits.

    I_S is the down-set of the join of S's atoms, its generator (one table
    read each, checked to have support S).  No member list is made for the
    canonical (size, member list) order: two ascending lists of one size
    first differ at an element one set has and the other lacks, and the list
    holding it comes first, so within one size list order is the descending
    order of the indicator rows: the nodes sort by their inverted bit-packed
    rows (the x with s(x) inside S) as byte strings, then stably by |I_S|.
    Only that order is cached; every relation is a bitmask test on S where
    it is read: I_S lies in I_T iff S & ~T == 0, and is maximal, equally
    prime, iff S misses one coordinate, the quotient then being a chain.
    Cost O(2^k * n) for the rows and a sort of 2^k rows of n / 8 bytes; at
    its peak it holds the rows (2 MB at 2^12) and temporaries of `_BLOCK`
    entries, all within the n x n table (2^k <= n), so no cap of its own is
    needed.  The cache holds arrays only (`all_ideals` wraps them in new
    `Ideal`s per call), so the algebra and its cache form no cycle.
    """
    cached = algebra._cache.get("ideal_lattice")
    if cached is not None:
        return cached
    cert = _certificate(algebra)
    n, k = cert.digits.shape
    m = 1 << k
    support = ((cert.digits != 0) @ (1 << np.arange(k))).astype(index_dtype(n))   # s(x), below 2^k <= n
    tops = np.full(m, algebra.zero, dtype=support.dtype)      # the join of S's atoms
    sizes = np.ones(m, dtype=np.int64)                        # |I_S|
    for j, (atom, order) in enumerate(zip(cert.atoms, cert.chain_orders)):
        tops[1 << j:2 << j] = algebra.oplus_table[tops[:1 << j], atom]
        sizes[1 << j:2 << j] = sizes[:1 << j] * order
    if (support[tops] != np.arange(m)).any():
        raise InternalConsistencyError("an ideal's generator does not have the ideal's support")
    rows, step = np.empty((m, (n + 7) // 8), dtype=np.uint8), max(1, _BLOCK // n)
    for lo in range(0, m, step):   # row S: the x with s(x) inside S, bit-packed and inverted
        s = np.arange(lo, min(lo + step, m), dtype=support.dtype)[:, None]
        rows[lo:lo + step] = ~np.packbits((support | s) == s, axis=1)
    supports = np.argsort(rows.view(f"V{rows.shape[1]}").ravel())   # rows as byte strings
    supports = supports[np.argsort(sizes[supports], kind="stable")].astype(support.dtype)
    lattice = IdealLattice(_frozen(supports), _frozen(tops[supports]))
    algebra._cache["ideal_lattice"] = lattice
    return lattice


def all_ideals(algebra: FiniteMVAlgebra) -> tuple:
    """Every ideal, sorted by (size, member list): the lattice's nodes as new `Ideal`s."""
    lattice = ideal_lattice(algebra)
    return tuple(map(functools.partial(_node, algebra), lattice.supports.tolist(), lattice.generators.tolist()))


def generated_ideal(algebra: FiniteMVAlgebra, seed) -> Ideal:
    """Least ideal containing `seed`: I_S for S the union of the seed's
    supports, since I_S contains x iff s(x) lies in S; its generator is the
    (+) of S's atoms (O(n + |seed| * k))."""
    s, atoms = _coordinates(algebra, _member_mask(algebra, seed)), _certificate(algebra).atoms
    g = functools.reduce(algebra.oplus_table.item, (a for j, a in enumerate(atoms) if s >> j & 1), algebra.zero)
    return _node(algebra, s, g)


def classify(algebra: FiniteMVAlgebra, ideal: Ideal) -> IdealClassification:
    """Flags and generator g read off (S, g) from `_named` (a caller's set
    that is not an ideal is refused): proper is g != 1; I_S is maximal, and
    equally prime, iff S misses one coordinate, as A/I_S is then a chain;
    and a maximal I = [0, g] has rank n / |I|: each class of
    A = [0, g] x [0, neg g] has |I| members.  O(k) on a library ideal."""
    s, g = _named(algebra, ideal)
    maximal = ((1 << len(_certificate(algebra).atoms)) - 1 ^ s).bit_count() == 1
    return IdealClassification(g != algebra.one, maximal, maximal, algebra.size // len(ideal) if maximal else None, g)


def _checked_key(algebra: FiniteMVAlgebra, g: int, s: int) -> np.ndarray:
    """x (.) neg g = neg(neg x (+) g), x's projection onto [0, neg g], for
    every x as intp, checked in O(n*k) to be the projection off S: its n x k
    digit rows, less x's in the columns outside S (one in-place subtraction
    each), must be zero."""
    key = algebra.neg_table.take(algebra.oplus_table[g].take(algebra.neg_table)).astype(np.intp)
    digits = _certificate(algebra).digits
    taken = digits.take(key, axis=0)
    for j in range(digits.shape[1]):
        if not s >> j & 1:
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
    (S, g) from `_named`, x is keyed by x (.) neg g, its projection onto
    [0, neg g].  The one check (`_checked_key`): the key's digits are
    x's with S's set to 0.  The certificate being an isomorphism, the keying
    is then the projection off S, a homomorphism, which implies the
    congruence, negation and kernel checks this used to make: the kernel,
    digits 0 off S, is the down-set of g, I; negation respects keys; and x
    and rep x share a key, so d(x, rep x) has key 0, in I.  Cost O(n*k), no
    sort, no table: the key (two n-entry gathers and an intp copy), its
    n x k digit rows and `_number_classes`' arrays; no cache is read but
    the certificate.
    """
    s, g = _named(algebra, ideal)
    return _number_classes(_checked_key(algebra, g, s))


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

    For I_S, (S, g) from `_named` (a caller's set that is not an ideal is
    refused), they are the M_j = {x : digits[x, j] = 0} for j outside S, the
    down-sets of neg a_j (a_j coordinate j's atom); the one check is that
    they intersect to the down-set of g, which a certificate at odds with the
    tables fails.  No M_j lies in another, so list order is the descending
    order of their indicator rows: one sort of bit-packed rows.  O(n*k), and
    no member set is built.
    """
    (s, g), cert = _named(algebra, ideal), _certificate(algebra)
    if g == algebra.one:
        raise PreconditionError("the improper ideal has no maximal decomposition")
    above = [j for j in range(len(cert.atoms)) if not s >> j & 1]
    zero_sets = cert.digits.T[above] == 0
    if (zero_sets.all(axis=0) != _down_set(algebra, g)).any():
        raise InternalConsistencyError("maximal decomposition does not intersect to the ideal")
    rows, full = ~np.packbits(zero_sets, axis=1), (1 << len(cert.atoms)) - 1
    return tuple(_node(algebra, full ^ 1 << j, algebra.neg_table.item(cert.atoms[j]))
                 for j in np.take(above, np.argsort(rows.view(f"V{rows.shape[1]}").ravel())).tolist())


def is_regular(algebra: FiniteMVAlgebra) -> bool:
    """Does every prime ideal of the Boolean center generate a prime ideal?
    Always, given the certificate A = prod_{j in K} L_{n_j}: the center's
    prime ideals are the P_j = {c : c_j = 0}, and P_j, central elements being
    idempotent, generates the down-set of its join, M_j = {x : x_j = 0},
    prime as A/M_j is the chain L_{n_j}.  Tables without a certificate raise
    InternalConsistencyError.  Cost: the certificate's, O(n^2) once."""
    _certificate(algebra)
    return True
