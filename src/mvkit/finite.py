"""Finite MV-algebras presented by operation tables.

Carriers are index sets {0..size-1}; the truncated sum is a size x size
table and negation a size-vector, both held as read-only numpy arrays of
exact carrier indices (no floats), in the narrowest dtype that holds them:
uint16 up to size 65536, int32 above (`index_dtype`).  Every construction
builds its tables once at that width.  The order matrix is the one
derived n x n table, computed lazily and cached per algebra; the
element-level join, meet and distance are O(1) formulas on the two tables,
and a meet with a central a is the O(n) column neg(neg x (+) neg a).

`from_tables` is the validating constructor.  Its one acceptance path is the
chain decomposition as a certificate (a finite MV-algebra is a product of
Lukasiewicz chains, and a bijective homomorphism onto such a product proves
every axiom), in O(n^2) whatever the number of atoms.  Only tables it
refuses meet the axiom checks and the O(n^3) associativity sweep, which
report the first failing axiom together with a witness.  Caller tables meet
the CLI's schema checks in `FiniteMVAlgebra` and `from_tables` alike; the
library's own algebras are valid by construction and skip them through
`FiniteMVAlgebra._built`, and tests re-validate each such construction.

The certificate (`Decomposition`: the center atoms, their chain orders and
the n x k digit array) is cached on the algebra under "decomposition".
`from_tables` finds it through `decompose`; `chain_algebra`, `product`
(from its factors' certificates), `center_algebra` and `ideals.quotient`
attach it by construction in O(n*k), so the center, quotients and maximal
ideals are read off the digits without recomputing it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import (
    DecompositionError,
    InternalConsistencyError,
    MVAxiomError,
    NotCentralError,
    ResourceCapError,
    SchemaError,
)

DEFAULT_MAX_SIZE = 4096


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def index_dtype(n: int):
    """uint16 while every index 0..n-1 fits, else int32 (`--max-size` may pass 65536)."""
    return np.uint16 if n <= 65536 else np.int32


def _expect(cond, message, *args):   # formats the message only on refusal
    if not cond:
        raise SchemaError(message.format(*args))


def _all_ints(values) -> bool:
    """Every value's type is int itself, so no bool and no numpy integer; the
    types are gathered and compared at C speed."""
    return {int}.issuperset(map(type, values))


class FiniteMVAlgebra:
    """A finite MV-algebra given by its truncated-sum and negation tables.

    The tables are read-only `index_dtype(size)` arrays, admitted as
    `from_tables` admits them, cap aside.  Immutable once built; the order
    matrix and the certificate are cached lazily, so concurrent readers may
    compute one redundantly but never observe a partial state.
    """

    def __init__(self, size, zero, oplus_table, neg_table, labels=None):
        vars(self).update(vars(_admitted(size, zero, oplus_table, neg_table, labels, None)))

    @classmethod
    def _built(cls, size, zero, oplus, neg, labels=None) -> FiniteMVAlgebra:
        """The algebra on tables the library made, narrowed and frozen, unchecked."""
        algebra, dtype = cls.__new__(cls), index_dtype(size)
        algebra.size, algebra.zero, algebra.labels, algebra._cache = int(size), int(zero), labels, {}
        algebra.oplus_table = _frozen(np.ascontiguousarray(oplus, dtype=dtype))
        algebra.neg_table = _frozen(np.ascontiguousarray(neg, dtype=dtype))
        return algebra

    # -- element-level operations ------------------------------------

    @property
    def one(self) -> int:
        return int(self.neg_table[self.zero])

    def op(self, x: int, y: int) -> int:
        return int(self.oplus_table[x, y])

    def neg(self, x: int) -> int:
        return int(self.neg_table[x])

    def join(self, x: int, y: int) -> int:
        # x v y = neg(neg x (+) y) (+) y
        O, N = self.oplus_table, self.neg_table
        return int(O[N[O[N[x], y]], y])

    def meet(self, x: int, y: int) -> int:
        # x ^ y = neg(neg x v neg y)
        return self.neg(self.join(self.neg(x), self.neg(y)))

    def leq(self, x: int, y: int) -> bool:
        return bool(self.leq_matrix[x, y])

    def dist(self, x: int, y: int) -> int:
        # d(x, y) = neg(neg x (+) y) (+) neg(x (+) neg y)
        O, N = self.oplus_table, self.neg_table
        return int(O[N[O[N[x], y]], N[O[x, N[y]]]])

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    def elements(self):
        return range(self.size)

    @property
    def leq_matrix(self) -> np.ndarray:
        """x <= y iff neg x (+) y = 1, as a read-only n x n bool array: the
        one derived table, built on first use and cached."""
        leq = self._cache.get("leq")
        if leq is None:
            leq = self._cache["leq"] = _frozen(self.oplus_table[self.neg_table] == self.one)
        return leq

    def __repr__(self) -> str:
        return f"FiniteMVAlgebra(size={self.size})"


def as_tables(algebra: FiniteMVAlgebra):
    """Plain-list view (size, zero, oplus rows, neg row) for serialization."""
    return algebra.size, algebra.zero, algebra.oplus_table.tolist(), algebra.neg_table.tolist()


# -- validating constructor ----------------------------------------------


def _admitted(size, zero, oplus, neg, labels, max_size) -> FiniteMVAlgebra:
    """The algebra on a caller's tables after the CLI's schema checks, in its
    order: the fields' types (lists, or integer arrays, whose shape is read
    in O(1)); size >= 1, the shapes and the labels; the cap; then, on the
    unnarrowed tables, so no cast wraps an entry into range, entries past
    int64, the zero index and each entry's range."""
    for key, value in (("size", size), ("zero", zero)):
        _expect(_all_ints([value]), "field {!r} must be an integer", key)
    array = isinstance(oplus, np.ndarray)
    _expect(oplus.ndim == 2 if array else isinstance(oplus, list) and all(isinstance(r, list) for r in oplus),
            "field 'oplus' must be a list of rows")
    _expect(oplus.dtype.kind in "iu" if array else _all_ints(itertools.chain.from_iterable(oplus)),
            "field 'oplus' must contain integers")
    _expect(neg.ndim == 1 and neg.dtype.kind in "iu" if isinstance(neg, np.ndarray)
            else isinstance(neg, list) and _all_ints(neg), "field 'neg' must be a list of integers")
    _expect(size >= 1, "carrier size must be >= 1, got {}", size)
    _expect(len(oplus) == size and (oplus.shape[1] == size if array else all(len(r) == size for r in oplus)),
            "field 'oplus' must be a {}x{} matrix", size, size)
    _expect(len(neg) == size, "field 'neg' must have {} entries", size)
    if labels is not None:
        _expect(isinstance(labels, (list, tuple)) and len(labels) == size
                and all(isinstance(s, str) for s in labels),
                "field 'labels' must be a list of {} strings", size)
        labels = tuple(labels)
    capped_size([size], max_size)
    tables = {"oplus": oplus, "neg": neg}
    for what, table in tables.items():
        try:
            tables[what] = table if isinstance(table, np.ndarray) else np.asarray(table, dtype=np.int64)
        except OverflowError:
            raise SchemaError(f"{what} table contains out-of-range indices") from None
    _expect(0 <= zero < size, "zero index {} out of range for size {}", zero, size)
    for what, table in tables.items():
        _expect(table.max() < size and (table.dtype.kind == "u" or table.min() >= 0),
                "{} table contains out-of-range indices", what)
    return FiniteMVAlgebra._built(size, zero, tables["oplus"], tables["neg"], labels)


def from_tables(size, zero, oplus_table, neg_table, labels=None,
                max_size=DEFAULT_MAX_SIZE) -> FiniteMVAlgebra:
    """Build an algebra from raw tables, verifying every axiom.

    Valid tables are accepted when `decompose` succeeds: a bijective
    (+, neg, 0)-homomorphism onto a product of Lukasiewicz chains carries
    every axiom over, in O(n^2) whatever the number of atoms (the
    certificate stays cached on the algebra).  A one-element carrier is
    accepted outright.  Only tables the certificate refuses are checked
    axiom by axiom, in the order commutative, identity, associative (the
    O(n^3) sweep), involution, mv1, mv2, to report the first failure.

    Raises MVAxiomError naming the first failed axiom and a witness tuple;
    malformed tables raise SchemaError with the CLI's messages (`_admitted`),
    oversize carriers ResourceCapError.
    """
    alg = _admitted(size, zero, oplus_table, neg_table, labels, max_size)
    if alg.size == 1:
        return alg
    try:
        decompose(alg)
        return alg
    except DecompositionError:
        alg._cache.clear()

    O, N = alg.oplus_table, alg.neg_table
    idx = np.arange(alg.size)
    _refuse("commutative", O != O.T)
    _refuse("identity", O[alg.zero] != idx)
    for z in range(alg.size):
        col = O[:, z]
        _refuse("associative", col[O] != O[:, col], z)   # (x (+) y) (+) z against x (+) (y (+) z)
    _refuse("involution", N[N] != idx)
    _refuse("mv1", O[alg.one] != alg.one)
    # neg(neg x (+) y) (+) y is symmetric in (x, y) exactly when the second
    # MV identity holds, so the check is a transpose comparison.
    L = O[N[O[N]], idx[None, :]]
    _refuse("mv2", L != L.T)
    raise InternalConsistencyError("tables satisfy every axiom but have no chain decomposition")


def _refuse(axiom, failed, *tail):
    """MVAxiomError with the first True index of `failed`, then `tail`, as witness."""
    bad = np.argwhere(failed)
    if len(bad):
        raise MVAxiomError(axiom, (*map(int, bad[0]), *tail))


# -- basic constructions ---------------------------------------------------


def trivial_algebra() -> FiniteMVAlgebra:
    """The one-element algebra (the empty product of chains)."""
    return FiniteMVAlgebra._built(1, 0, [[0]], [0], labels=("0",))


def chain_algebra(order: int) -> FiniteMVAlgebra:
    """The Lukasiewicz chain with `order` elements as an operation table.

    Its certificate is attached: the one atom is the top, order - 1, and the
    digit of x is x itself.
    """
    if not _all_ints([order]):
        raise ValueError(f"chain order must be an integer, got {order!r}")
    if order < 2:
        raise ValueError(f"chain order must be >= 2, got {order}")
    labels = tuple(str(Fraction(k, order - 1)) for k in range(order))
    neg = (order - 1) - np.arange(order, dtype=index_dtype(order))
    chain = FiniteMVAlgebra._built(order, 0, _chain_sum(order), neg, labels)
    digits = np.arange(order, dtype=np.int32)[:, None]
    chain._cache["decomposition"] = Decomposition((order - 1,), (order,), _frozen(digits))
    return chain


def _chain_sum(order: int) -> np.ndarray:
    """The chain's sum table at its final width: min(x + y, top) = y + min(x, top - y)."""
    idx = np.arange(order, dtype=index_dtype(order))
    return np.minimum(idx[:, None], (order - 1) - idx) + idx


def _fold(tables, dtype) -> np.ndarray:
    """The product's sum (2-D) or negation (1-D) table, last factor fastest:
    R, the shortest suffix of size b >= sqrt(n) short of all, and L, the rest,
    folded alike, are combined once, P[(i, j), (k, l)] = L[i, k] * b + R[j, l],
    from L * b repeated and R tiled to n columns, so the n x n write runs along
    whole rows: O(n^2), each entry written once.  Each entry is a product
    index, so `dtype` holds it; one-element factors are the identity, skipped."""
    ndim = tables[0].ndim
    tables = [t for t in tables if len(t) > 1]
    if len(tables) <= 1:
        return (tables[0] if tables else np.zeros((1,) * ndim)).astype(dtype, copy=False)
    n, split, b = math.prod(map(len, tables)), len(tables), 1
    while split > 1 and b * b < n:
        split -= 1
        b *= len(tables[split])
    left, right = _fold(tables[:split], dtype) * dtype(b), _fold(tables[split:], dtype)
    if ndim == 2:
        left, right = left.repeat(b, axis=1), right[:, None].repeat(n // b, axis=1).reshape(b, n)
    return (left[:, None] + right[None]).reshape((n,) * ndim)


def capped_size(sizes, max_size=DEFAULT_MAX_SIZE) -> int:
    """The product of `sizes`, refused with ResourceCapError at the first
    running product above `max_size`: callers check it before building."""
    total = 1
    for size in sizes:
        total *= size
        if max_size is not None and total > max_size:
            raise ResourceCapError(total, max_size)
    return total


def chain_product(orders, max_size=DEFAULT_MAX_SIZE) -> FiniteMVAlgebra:
    """The product of the chains of `orders`, a list of ints >= 2, refused by
    the cap before any chain is built, each distinct order's chain built once."""
    _expect(isinstance(orders, list), "field 'orders' must be a list")
    _expect(_all_ints(orders) and min(orders, default=2) >= 2, "chain orders must be integers >= 2")
    capped_size(orders, max_size)
    chains = {order: chain_algebra(order) for order in set(orders)}
    return product([chains[order] for order in orders], max_size=max_size)


def product(factors, max_size=DEFAULT_MAX_SIZE) -> FiniteMVAlgebra:
    """Direct product with componentwise operations, last factor fastest; []
    gives the trivial algebra.

    Tables are folded in the result's `index_dtype`, each entry written once
    (`_fold`): 2^12 takes 12-15 ms, np.ones of its 32 MiB table 7-9 ms.  When
    every nontrivial factor carries a certificate, so does the product, in
    O(n*k): an element's digits are its factors' digits, and each factor's
    atoms sit with the other coordinates at their zero, sorted ascending
    (the certificate `decompose` would find).
    """
    factors = list(factors)
    if not factors:
        return trivial_algebra()
    total = capped_size([f.size for f in factors], max_size)
    dtype = index_dtype(total)
    oplus = _fold([f.oplus_table for f in factors], dtype)
    neg = _fold([f.neg_table for f in factors], dtype)
    zero = int(np.ravel_multi_index([f.zero for f in factors], [f.size for f in factors]))

    labels = None
    if all(f.labels is not None for f in factors):
        heads, tails = ["("], [s + ")" for s in factors[-1].labels]   # n joins of head and tail
        for f in factors[:len(factors) // 2]:
            heads = [h + s + "," for h in heads for s in f.labels]
        for f in reversed(factors[len(factors) // 2:-1]):
            tails = [s + "," + t for s in f.labels for t in tails]
        labels = tuple([h + t for h in heads for t in tails])
    result = FiniteMVAlgebra._built(total, zero, oplus, neg, labels)
    certs = [f._cache.get("decomposition") for f in factors if f.size > 1]
    if certs and None not in certs:
        result._cache["decomposition"] = _product_certificate(factors, total, zero)
    return result


def _product_certificate(factors, total, zero):
    """The composed certificate of `product(factors)`, of size `total` with
    zero index `zero`."""
    atoms, orders, columns = [], [], []
    stride = 1
    for f in reversed(factors):
        if f.size > 1:
            cert = f._cache["decomposition"]
            atoms += [zero + (a - f.zero) * stride for a in cert.atoms]
            orders += cert.chain_orders
            columns += [(stride, f.size, column) for column in cert.digits.T]
        stride *= f.size
    order = np.argsort(atoms)
    digits = np.empty((total, len(atoms)), dtype=np.int32)
    for i, (stride, size, column) in enumerate(columns[j] for j in order):   # at x // stride % size
        digits.reshape(-1, size, stride, len(atoms))[..., i] = column[:, None]
    return Decomposition(tuple(atoms[i] for i in order), tuple(orders[i] for i in order),
                         _frozen(digits))


def relabel(algebra: FiniteMVAlgebra, permutation) -> FiniteMVAlgebra:
    """The same algebra with carrier indices renamed by a bijection."""
    n = algebra.size
    values = permutation.tolist() if isinstance(permutation, np.ndarray) else list(permutation)
    if not _all_ints(values) or sorted(values) != list(range(n)):
        raise ValueError("relabeling must be a permutation of the carrier")
    perm = np.asarray(values, dtype=index_dtype(n))
    old = np.argsort(perm)   # the new element y is the old old[y]
    labels = None if algebra.labels is None else tuple(algebra.labels[x] for x in old)
    return FiniteMVAlgebra._built(n, int(perm[algebra.zero]), perm[algebra.oplus_table[np.ix_(old, old)]],
                                  perm[algebra.neg_table[old]], labels)


# -- Boolean center and intervals ------------------------------------------


def boolean_center(algebra: FiniteMVAlgebra):
    """All a with a ^ neg a = 0, and the atoms of that Boolean subalgebra.

    In a chain only 0 and the top have x ^ neg x = 0, so the members are the
    rows of certificate digits all 0 or top, and the atoms the certificate's:
    O(n*k), no order matrix.  Returns (members, atoms), both as index tuples
    sorted ascending.
    """
    cert = _certificate(algebra)
    tops = np.asarray(cert.chain_orders, dtype=np.int32) - 1
    members = np.flatnonzero(((cert.digits == 0) | (cert.digits == tops)).all(axis=1))
    return tuple(members.tolist()), cert.atoms


def center_algebra(algebra: FiniteMVAlgebra):
    """The Boolean center as an algebra of its own, plus the embedding.

    Returns (center, embedding) with embedding[i] = carrier index in the
    ambient algebra of the center's element i.  When the algebra carries a
    certificate, the center gets one too: the same atoms, each of order 2,
    and the digit 1 wherever the ambient digit is nonzero (O(|B|*k)).
    """
    members, _ = boolean_center(algebra)
    emb = np.asarray(members)
    sub, pos = _subalgebra(algebra, emb, algebra.oplus_table[np.ix_(emb, emb)], algebra.neg_table[emb])
    cert = algebra._cache.get("decomposition")
    if cert is not None:
        sub._cache["decomposition"] = Decomposition(
            tuple(int(pos[a]) for a in cert.atoms), (2,) * len(cert.atoms),
            _frozen((cert.digits[emb] != 0).astype(np.int32)))
    return sub, members


def interval_algebra(algebra: FiniteMVAlgebra, a: int):
    """The relativized algebra on [0, a] for a central element a.

    Operations are x (+)' y = (x (+) y) ^ a and neg' x = (neg x) ^ a, where
    x ^ a = neg(neg x (+) neg a) for central a: one O(n) column, no meet table.
    Returns (interval, embedding) like `center_algebra`.
    """
    if not _all_ints([a]) or not 0 <= a < algebra.size:
        raise NotCentralError(f"element index {a} is out of range 0..{algebra.size - 1}")
    center_members, _ = boolean_center(algebra)
    if a not in center_members:
        raise NotCentralError(
            f"element {algebra.label(a)} is not in the Boolean center"
        )
    O, N = algebra.oplus_table, algebra.neg_table
    emb = np.flatnonzero(algebra.leq_matrix[:, a])
    meet_a = N[O[N, N[a]]]
    sub, _ = _subalgebra(algebra, emb, meet_a[O[np.ix_(emb, emb)]], meet_a[N[emb]])
    return sub, tuple(int(m) for m in emb)


def _subalgebra(algebra, emb, oplus, neg):
    """The algebra on the elements `emb`, a subalgebra, its sum and negation
    given in the ambient indices, and pos with pos[emb[i]] = i (the rest out
    of range).  `pos` is int32 when len(emb) is 65536; `_built` narrows it."""
    pos = np.full(algebra.size, len(emb), dtype=index_dtype(len(emb) + 1))
    pos[emb] = np.arange(len(emb))
    labels = tuple(algebra.label(int(m)) for m in emb) if algebra.labels else None
    return FiniteMVAlgebra._built(len(emb), int(pos[algebra.zero]), pos[oplus], pos[neg], labels), pos


# -- decomposition into chains ---------------------------------------------


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A verified isomorphism onto a product of Lukasiewicz chains: the
    chain-product certificate of one algebra, kept in its cache.

    `chain_orders[i]` is the number of elements of the interval [0, atoms[i]];
    `digits[x, i]` is the position of x ^ atoms[i] in that chain (a read-only
    n x k array), and x -> digits[x] is the isomorphism.  `iso[x]`, the
    numerator tuple of x, is derived from the digits on first use.  The
    multiset of chain orders is a complete isomorphism invariant, exposed
    sorted via `sorted_orders`.  It holds no reference to the algebra, so
    caching it makes no cycle.
    """

    atoms: tuple
    chain_orders: tuple
    digits: np.ndarray

    @cached_property
    def iso(self) -> tuple:
        return tuple(map(tuple, self.digits.tolist()))

    @property
    def sorted_orders(self) -> tuple:
        return tuple(sorted(self.chain_orders))


def _self_meet(algebra: FiniteMVAlgebra) -> np.ndarray:
    """x ^ neg x for every x: neg(u v w), u = neg x, w = neg neg x = neg u,
    u v w = neg(neg u (+) w) (+) w.  The center is where it is zero."""
    O, N = algebra.oplus_table, algebra.neg_table
    w = N[N]
    return N[O[N[O[w, w]], w]]


def decompose(algebra: FiniteMVAlgebra) -> Decomposition:
    """Split a nontrivial finite MV-algebra into its chain factors.

    A certificate already attached (by `chain_algebra`, `product`,
    `center_algebra` or an earlier call) is read back.  Otherwise: the atoms
    of the Boolean center (the a with a ^ neg a = 0, least nonzero in the
    order matrix), each interval below one totally ordered, x's digit
    there the rank of x ^ a = neg(neg x (+) neg a); every meet must lie in
    the interval, zero has digits 0 and the mixed-radix codes must be 0..n-1
    in some order, all O(n*k).  The sum is one comparison, code[x (+) y]
    = P[code x, code y] for P the chain product's sum table (`product`'s
    fold), made in chunks of rows: O(n^2) whatever the number of atoms,
    about 0.1 s at n = 4096.
    These force the negation, which is not compared: the digits read x only
    through neg x, so neg is a bijection, each coordinate following one of x,
    and reflexive orders on the intervals make that x's own, reversed.
    Success proves every axiom; the result is cached and returned later.
    Nor is the center checked closed under the operations: success makes
    the tables an MV-algebra, whose center is a subalgebra, so tables with
    an unclosed center fail one of the checks above.  Every refusal raises
    DecompositionError (`_certificate` makes it InternalConsistencyError
    where a certificate is owed).
    """
    cert = algebra._cache.get("decomposition")
    if cert is not None:
        return cert
    if algebra.size == 1:
        raise DecompositionError("the trivial algebra has no chain decomposition")
    O, N = algebra.oplus_table, algebra.neg_table
    n = algebra.size
    center = np.flatnonzero(_self_meet(algebra) == algebra.zero)

    def refuse(why):
        raise DecompositionError(f"not a product of chains: {why}")

    leq = algebra.leq_matrix
    nonzero = center[center != algebra.zero]
    below = np.count_nonzero(leq[nonzero], axis=0)   # nonzero central elements under each x
    atoms = nonzero[below[nonzero] == 1].tolist()  # nothing nonzero strictly below

    orders, digit_rows = [], []
    for a in atoms:
        members = np.flatnonzero(leq[:, a])
        sub = leq[np.ix_(members, members)]
        if not (sub | sub.T).all():
            refuse("interval below an atom is not totally ordered")
        # position in the chain order = number of elements below (inclusive) - 1
        lookup = np.full(n, -1, dtype=np.int32)
        lookup[members] = sub.sum(axis=0) - 1
        digits = lookup[N[O[N, N[a]]]]
        order = len(members)
        if not ((digits >= 0).all() and digits[algebra.zero] == 0):
            refuse("coordinate map is not a homomorphism")
        orders.append(order)
        digit_rows.append(digits)

    if math.prod(orders) != n or (np.sort(codes := np.ravel_multi_index(digit_rows, orders)) != np.arange(n)).any():
        refuse("coordinate map is not bijective")
    code = codes.astype(index_dtype(n))
    P = _fold([_chain_sum(order) for order in orders], index_dtype(n))
    step = max(1, (1 << 18) // n)   # rows compared at once, so the temporaries stay in cache
    for rows in range(0, n, step):
        if not (code[O[rows:rows + step]] == P[code[rows:rows + step]][:, code]).all():
            refuse("coordinate map is not a homomorphism")

    digits = _frozen(np.stack(digit_rows, axis=1))
    cert = algebra._cache["decomposition"] = Decomposition(tuple(atoms), tuple(orders), digits)
    return cert


def _certificate(algebra: FiniteMVAlgebra) -> Decomposition:
    """The algebra's chain-product certificate, the empty product for the
    trivial algebra; an algebra without one is broken."""
    if algebra.size == 1:
        return Decomposition((), (), np.zeros((1, 0), dtype=np.int32))
    try:
        return decompose(algebra)
    except DecompositionError as exc:
        raise InternalConsistencyError(f"no chain-product certificate: {exc}") from exc


def are_isomorphic(a: FiniteMVAlgebra, b: FiniteMVAlgebra) -> bool:
    """Isomorphism test via the chain-order multiset invariant."""
    if a.size != b.size:
        return False
    if a.size == 1:
        return True
    return decompose(a).sorted_orders == decompose(b).sorted_orders
