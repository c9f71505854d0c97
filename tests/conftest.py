"""Shared fixtures, generators and independent oracles for the test suite.

The oracles here deliberately avoid the implementation's own shortcuts:
ideal enumeration scans raw subsets or closes each element under the sum and
the order, ideals are classified one at a time (maximality by a scan over all
ideals, primality by a sweep over meets of non-members) and decomposed
through a quotient, the Boolean center is found from the tables by the
a ^ neg a = 0 formula with its closure check (`center_by_formula`), the
lattice is read off that center and the order matrix (`lattice_by_center`),
regularity from the two lattices' prime flags (`is_regular_by_lattice`),
classes are numbered by sorting and put
through the congruence, negation and kernel checks the certificate makes
redundant (`classes_by_unique`, `congruence_failures`), ideals are checked
clause by clause, quotients are built
from the distance term and their induced sum checked at all n^2 pairs
(`check_induced_sum`), chain-product certificates are recomputed by
`decompose` on re-validated tables and checked a homomorphism one atom at a
time from the formula's center (`decompose_by_atoms`), products by one
strided gather per factor, table
axioms by the exhaustive sweep (associativity by a loop over z),
isomorphism testing searches for an explicit bijective
homomorphism, completion threads are found by a backtracking search, the
inverse system is built eagerly with every transition checked at every
comparable pair, the center correspondence is checked element by element
with dict-built maps, the center of the completion against the completion
of the center by the center's threads and an isomorphism search
(`center_completion_by_threads`), kernel membership along an ultrafilter
is decided by sublevel sets (`in_kernel_by_sublevels`), strong completeness
by a scan of the residue classes for a constant one
(`decide_by_class_scan`), and lattice facts are recomputed from the numeric order of chain elements.
Chain tables are checked against `Chain`, exact chain arithmetic on integer
numerators with the lattice operations and the order taken through their
defining formulas, and itself checked against `Fraction` arithmetic.
"""

from __future__ import annotations

import itertools
import math
import random
import types
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

import mvkit as mv

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

FAMILY_ORDERS = (2, 3, 4, 5)


def family_combos(max_factors=3):
    for r in range(1, max_factors + 1):
        yield from itertools.combinations_with_replacement(FAMILY_ORDERS, r)


def build_family():
    """All products of chains with orders in 2..5 and at most 3 factors."""
    out = []
    for combo in family_combos():
        out.append((combo, mv.product([mv.chain_algebra(n) for n in combo])))
    return out


@pytest.fixture(scope="session")
def family():
    return build_family()


def shuffled(algebra, rng):
    perm = list(range(algebra.size))
    rng.shuffle(perm)
    return mv.relabel(algebra, perm)


# -- oracles ---------------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    """The Lukasiewicz chain {0, 1/(n-1), ..., 1} with `order` = n >= 2
    elements, its elements stored as integer numerators over n - 1.

    The lattice operations are computed through the defining formulas
        x v y = neg(neg x (+) y) (+) y        x ^ y = neg(neg x v neg y)
    and the order through x <= y  iff  neg x (+) y = 1; the numeric shortcuts
    (max/min/<=) are kept out on purpose, so tests can use them as
    independent oracles.
    """

    order: int

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 2:
            raise ValueError(f"chain order must be an integer >= 2, got {self.order!r}")

    @property
    def denominator(self) -> int:
        return self.order - 1

    def element(self, numerator: int) -> "ChainElement":
        return ChainElement(numerator, self)

    @property
    def zero(self) -> "ChainElement":
        return ChainElement(0, self)

    @property
    def one(self) -> "ChainElement":
        return ChainElement(self.order - 1, self)

    def elements(self):
        return [ChainElement(k, self) for k in range(self.order)]

    def __len__(self) -> int:
        return self.order

    def __iter__(self):
        return iter(self.elements())

    def __repr__(self) -> str:
        return f"Chain({self.order})"


@dataclass(frozen=True)
class ChainElement:
    """The rational numerator/(order-1) inside a fixed chain."""

    numerator: int
    chain: Chain

    def __post_init__(self):
        if not 0 <= self.numerator <= self.chain.order - 1:
            raise ValueError(f"numerator {self.numerator} out of range for {self.chain!r}")

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.chain.denominator)

    def _check(self, other: "ChainElement") -> None:
        if self.chain != other.chain:
            raise mv.MismatchedChainError(f"elements of {self.chain!r} and {other.chain!r} are incompatible")

    def oplus(self, other: "ChainElement") -> "ChainElement":
        """Truncated addition min(x + y, 1)."""
        self._check(other)
        top = self.chain.order - 1
        return ChainElement(min(self.numerator + other.numerator, top), self.chain)

    def neg(self) -> "ChainElement":
        """Negation 1 - x."""
        return ChainElement(self.chain.order - 1 - self.numerator, self.chain)

    def odot(self, other: "ChainElement") -> "ChainElement":
        """Dual multiplication neg(neg x (+) neg y) = max(x + y - 1, 0)."""
        self._check(other)
        return self.neg().oplus(other.neg()).neg()

    def join(self, other: "ChainElement") -> "ChainElement":
        self._check(other)
        return self.neg().oplus(other).neg().oplus(other)

    def meet(self, other: "ChainElement") -> "ChainElement":
        self._check(other)
        return self.neg().join(other.neg()).neg()

    def leq(self, other: "ChainElement") -> bool:
        self._check(other)
        return self.neg().oplus(other).numerator == self.chain.order - 1

    def distance(self, other: "ChainElement") -> "ChainElement":
        """neg(neg x (+) y) (+) neg(x (+) neg y); numerically |x - y|."""
        self._check(other)
        left = self.neg().oplus(other).neg()
        right = self.oplus(other.neg()).neg()
        return left.oplus(right)

    def __repr__(self) -> str:
        return f"L{self.chain.order}({self.value})"



def ideals_by_subset_scan(algebra):
    """Every ideal, found by scanning all 2^size subsets against the clauses."""
    n = algebra.size
    down = []
    for x in range(n):
        m = 0
        for y in range(n):
            if algebra.leq(y, x):
                m |= 1 << y
        down.append(m)
    found = set()
    for mask in range(1, 1 << n):
        if not (mask >> algebra.zero) & 1:
            continue
        members = [x for x in range(n) if (mask >> x) & 1]
        if any(down[x] | mask != mask for x in members):
            continue
        if all((mask >> algebra.op(x, y)) & 1 for x in members for y in members):
            found.add(frozenset(members))
    return found


def ideal_by_closure(algebra, seed):
    """Least ideal containing `seed`: alternate sum-closure and down-closure."""
    mask = np.zeros(algebra.size, dtype=bool)
    mask[list(seed)] = True
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
    return frozenset(int(x) for x in np.flatnonzero(mask))


def ideals_by_closure(algebra):
    """Every ideal, via one principal closure per carrier element, sorted by
    (size, member list)."""
    found = {ideal_by_closure(algebra, (a,)) for a in range(algebra.size)}
    return sorted(found, key=lambda m: (len(m), sorted(m)))


def is_prime_by_meet_sweep(algebra, members):
    """Proper, and no two non-members meet inside the ideal."""
    mask = np.zeros(algebra.size, dtype=bool)
    mask[list(members)] = True
    if mask.all():
        return False
    O, N = algebra.oplus_table, algebra.neg_table
    u = N[np.flatnonzero(~mask)]
    # x ^ y = neg(u v w) for u = neg x, w = neg y, u v w = neg(neg u (+) w) (+) w
    meets = N[O[N[O[N[u][:, None], u[None, :]]], u[None, :]]]
    return not mask[meets].any()


def classify_by_scan(algebra, members, ideals):
    """Flags of one ideal: maximality by a scan over `ideals` (every ideal),
    primality by the meet sweep, the generator as the join of the members."""
    proper = len(members) < algebra.size
    prime = proper and is_prime_by_meet_sweep(algebra, members)
    maximal = proper and not any(
        len(other) < algebra.size and members < other for other in ideals)
    rank = mv.quotient(algebra, mv.Ideal(algebra, members))[0].size if maximal else None
    generator = algebra.zero
    for x in sorted(members):
        generator = algebra.join(generator, x)
    return mv.IdealClassification(proper, prime, maximal, rank, int(generator))


def maximal_decomposition_by_quotient(algebra, members):
    """Decompose the quotient into chains and pull the kernel of each chain
    projection back through the quotient projection; sorted member sets.
    The quotient's tables are decomposed afresh, not through the certificate
    `quotient` attaches (projected from the one maximal_decomposition reads)."""
    quot, proj = mv.quotient(algebra, mv.Ideal(algebra, members))
    dec = mv.decompose(mv.FiniteMVAlgebra(quot.size, quot.zero, quot.oplus_table, quot.neg_table))
    proj_arr = np.asarray(proj, dtype=np.int32)
    result = []
    for i in range(len(dec.chain_orders)):
        digits = np.asarray([dec.iso[c][i] for c in range(quot.size)], dtype=np.int32)
        result.append(frozenset(int(x) for x in np.flatnonzero(digits[proj_arr] == 0)))
    return sorted(result, key=sorted)


def is_ideal_by_clauses(algebra, members):
    """Contains zero, closed under the sum (|I|^2 sums) and downward closed
    (every element below a member, an n x |I| scan of the order)."""
    mask = np.zeros(algebra.size, dtype=bool)
    for x in members:
        if not 0 <= x < algebra.size:
            raise mv.NotAnIdealError(f"element index {x} out of range")
        mask[x] = True
    if not mask[algebra.zero]:
        return False
    idx = np.flatnonzero(mask)
    if not mask[algebra.oplus_table[np.ix_(idx, idx)]].all():
        return False
    below = algebra.leq_matrix[:, idx].any(axis=1)
    return bool((below <= mask).all())


def center_by_formula(algebra):
    """(members, atoms) of the Boolean center from the tables alone: the a
    with a ^ neg a = 0 by the lattice-table formula at the n pairs
    (a, neg a), checked closed under the sum and negation, and the atoms as
    the nonzero members with no nonzero member strictly below in the order
    matrix; raises InternalConsistencyError when the center is not closed."""
    O, N = algebra.oplus_table, algebra.neg_table
    u, w = N, N[N]
    mask = N[O[N[O[N[u], w]], w]] == algebra.zero
    members = np.flatnonzero(mask)
    if not (mask[O[np.ix_(members, members)]].all() and mask[N[members]].all()):
        raise mv.InternalConsistencyError("Boolean center is not closed under the operations")
    nonzero = members[members != algebra.zero]
    atoms = nonzero[algebra.leq_matrix[np.ix_(nonzero, nonzero)].sum(axis=0) == 1]
    return tuple(int(b) for b in members), tuple(int(a) for a in atoms)


def lattice_by_center(algebra):
    """The ideal lattice read off `center_by_formula`: each central element's
    down-set from the order matrix (every center member checked idempotent),
    sorted by (size, member list); inclusion is the order on the generators,
    maximal means no other proper ideal above, prime means proper with the
    ideals above forming a chain."""
    center = np.asarray(center_by_formula(algebra)[0], dtype=np.int64)
    if (algebra.oplus_table[center, center] != center).any():
        raise mv.InternalConsistencyError("a central element is not idempotent")
    leq = algebra.leq_matrix
    downs = [np.flatnonzero(leq[:, g]).tolist() for g in center]
    order = sorted(range(len(center)), key=lambda c: (len(downs[c]), downs[c]))
    generators = center[order]
    subset = leq[np.ix_(generators, generators)]
    proper = generators != algebra.one
    maximal = proper & ((subset & proper).sum(axis=1) == 1)
    # the ideals above one are listed by size, so they form a chain exactly
    # when each lies inside the next
    chain_above = [subset[up[:-1], up[1:]].all() for up in map(np.flatnonzero, subset)]
    prime = proper & np.asarray(chain_above, dtype=bool)
    return types.SimpleNamespace(members=[frozenset(downs[c]) for c in order], generators=generators,
                                 subset=subset, prime=prime, maximal=maximal)


def is_regular_by_lattice(algebra):
    """Does every prime ideal of the Boolean center generate a prime ideal?
    Both primality tests read the two lattices' prime flags: each prime
    ideal of the center algebra is embedded, the ideal it generates found by
    `generated_ideal` and looked up in the algebra's lattice."""
    center, emb = mv.center_algebra(algebra)
    lattice_c, lattice = mv.ideals.ideal_lattice(center), mv.ideals.ideal_lattice(algebra)
    for members, prime in zip(lattice_c.members, lattice_c.prime):
        if not prime:
            continue
        generated = mv.generated_ideal(algebra, {emb[m] for m in members})
        if not lattice.prime[lattice.index[generated.members]]:
            return False
    return True


def congruence_failures(algebra, members, class_of, reps):
    """Which of the checks the certificate check makes redundant fail for
    the partition (class_of, reps) of the carrier against the ideal
    `members`: "congruence" (d(x, rep x) in I), "negation" (the induced
    negation is well defined), "kernel" (the class of 0 is I)."""
    O, N = algebra.oplus_table, algebra.neg_table
    mask = np.zeros(algebra.size, dtype=bool)
    mask[list(members)] = True
    class_of, reps = np.asarray(class_of), np.asarray(reps)
    rep = reps[class_of]
    failed = []
    if not mask[O[N[O[N, rep]], N[O[np.arange(algebra.size), N[rep]]]]].all():
        failed.append("congruence")
    if (class_of[N] != class_of[N[reps]][class_of]).any():
        failed.append("negation")
    if ((class_of == class_of[algebra.zero]) != mask).any():
        failed.append("kernel")
    return failed


def classes_by_unique(algebra, ideal):
    """(class_of, reps) keyed by x (.) neg g, g the join of the members found
    by scalar joins, and numbered by least member with two np.unique sorts."""
    g = algebra.zero
    for x in sorted(ideal.members):
        g = algebra.join(g, x)
    O, N = algebra.oplus_table, algebra.neg_table
    _, first, inverse = np.unique(N[O[g][N]], return_index=True, return_inverse=True)
    reps, class_of = np.unique(first[inverse], return_inverse=True)
    return class_of, reps


def quotient_by_distance(algebra, ideal):
    """Quotient through the distance term: the class of the least unassigned
    x is every y with d(x, y) in I; classes are numbered by least member and
    the induced tables and the kernel are checked as in `mv.quotient`."""
    if not is_ideal_by_clauses(algebra, ideal.members):
        raise mv.NotAnIdealError(f"{ideal.sorted_members} is not an ideal")
    n = algebra.size
    mask = np.zeros(n, dtype=bool)
    mask[list(ideal.members)] = True
    O, N = algebra.oplus_table, algebra.neg_table
    # d(x, y) = neg(neg x (+) y) (+) neg(x (+) neg y) at all n^2 pairs
    related = mask[O[N[O[N]], N[O[:, N]]]]

    class_of = np.full(n, -1, dtype=np.int32)
    reps = []
    for x in range(n):
        if class_of[x] >= 0:
            continue
        cls = np.flatnonzero(related[x])
        if (class_of[cls] >= 0).any():
            raise mv.InternalConsistencyError("congruence classes overlap")
        class_of[cls] = len(reps)
        reps.append(x)
    reps = np.asarray(reps, dtype=np.int32)

    q_op = class_of[algebra.oplus_table[np.ix_(reps, reps)]]
    q_neg = class_of[algebra.neg_table[reps]]
    check_induced_sum(algebra, class_of, q_op)
    if (class_of[algebra.neg_table] != q_neg[class_of]).any():
        raise mv.InternalConsistencyError("induced negation is not well defined")

    kernel = frozenset(int(x) for x in np.flatnonzero(class_of == class_of[algebra.zero]))
    if kernel != ideal.members:
        raise mv.InternalConsistencyError("projection kernel differs from the ideal")

    labels = None
    if algebra.labels is not None:
        labels = tuple(f"[{algebra.label(int(r))}]" for r in reps)
    result = mv.FiniteMVAlgebra(len(reps), int(class_of[algebra.zero]), q_op, q_neg, labels)
    return result, tuple(int(c) for c in class_of)


def check_induced_sum(algebra, class_of, q_op):
    """The class of x (+) y is the quotient sum of the classes of x and y, at
    all n^2 pairs (in row blocks, so n = 4096 builds no n x n temporary);
    raises InternalConsistencyError otherwise."""
    class_of = np.asarray(class_of)
    q_op = np.asarray(q_op)
    n = algebra.size
    step = max(1, (1 << 18) // n)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        if (class_of[algebra.oplus_table[rows]] != q_op[class_of[rows]][:, class_of]).any():
            raise mv.InternalConsistencyError("induced sum is not well defined")


def certificate_by_revalidation(algebra):
    """(atoms, chain orders, iso) of `decompose` on the algebra's tables
    re-validated from scratch, with no certificate attached."""
    dec = mv.decompose(mv.from_tables(*mv.as_tables(algebra), max_size=None))
    return dec.atoms, dec.chain_orders, dec.iso


def decompose_by_atoms(algebra):
    """(atoms, chain orders, digits) of the chain decomposition, the atoms
    from `center_by_formula`, with the sum checked one atom at a time, digits[O] == min(digits + digits, order - 1)
    for each atom's digit row (k n x n comparisons), then bijectivity by
    mixed-radix codes; raises DecompositionError where any check fails, an
    unclosed center included."""
    try:
        _, atoms = center_by_formula(algebra)
    except mv.InternalConsistencyError as exc:
        raise mv.DecompositionError(str(exc)) from exc
    leq = algebra.leq_matrix
    O, N = algebra.oplus_table.astype(np.int64), algebra.neg_table.astype(np.int64)
    n = algebra.size
    orders, rows = [], []
    for a in atoms:
        members = np.flatnonzero(leq[:, a])
        sub = leq[np.ix_(members, members)]
        if not (sub | sub.T).all():
            raise mv.DecompositionError("interval below an atom is not totally ordered")
        lookup = np.full(n, -1, dtype=np.int64)
        lookup[members] = sub.sum(axis=0) - 1
        digits = lookup[N[O[N, N[a]]]]
        order = len(members)
        if not ((digits[O] == np.minimum(digits[:, None] + digits[None, :], order - 1)).all()
                and (digits[N] == (order - 1) - digits).all() and digits[algebra.zero] == 0):
            raise mv.DecompositionError("coordinate map is not a homomorphism")
        orders.append(order)
        rows.append(digits)
    codes = np.zeros(n, dtype=np.int64)
    for order, digits in zip(orders, rows):
        codes = codes * order + digits
    if math.prod(orders) != n or sorted(codes.tolist()) != list(range(n)):
        raise mv.DecompositionError("coordinate map is not bijective")
    return tuple(atoms), tuple(orders), np.stack(rows, axis=1)


def product_by_gather(factors, max_size=mv.DEFAULT_MAX_SIZE):
    """Direct product by mixed-radix digits: one strided n x n gather of each
    factor's table, scaled by its stride and summed."""
    factors = list(factors)
    if not factors:
        return mv.trivial_algebra()
    sizes = [f.size for f in factors]
    total = 1
    for s in sizes:
        total *= s
        if max_size is not None and total > max_size:
            raise mv.ResourceCapError(total, max_size)

    strides = np.empty(len(sizes), dtype=np.int64)
    acc = 1
    for i in range(len(sizes) - 1, -1, -1):
        strides[i] = acc
        acc *= sizes[i]

    idx = np.arange(total, dtype=np.int64)
    digits = [(idx // strides[i]) % sizes[i] for i in range(len(sizes))]

    oplus = np.zeros((total, total), dtype=np.int32)
    neg = np.zeros(total, dtype=np.int32)
    zero = 0
    for i, f in enumerate(factors):
        d = digits[i].astype(np.int32)
        oplus += f.oplus_table[np.ix_(d, d)] * np.int32(strides[i])
        neg += f.neg_table[d] * np.int32(strides[i])
        zero += f.zero * int(strides[i])

    labels = None
    if all(f.labels is not None for f in factors):
        labels = tuple(
            "(" + ",".join(factors[i].labels[int(digits[i][e])] for i in range(len(factors))) + ")"
            for e in range(total)
        )
    return mv.FiniteMVAlgebra(total, zero, oplus, neg, labels)


SWEEP_ORDER = ("commutative", "identity", "associative", "involution", "mv1", "mv2")


def axiom_failure_by_sweep(size, zero, oplus, neg, axioms=SWEEP_ORDER):
    """The first of `axioms` the tables break, as (axiom, witness), else None:
    the exhaustive sweep, with associativity checked by a loop over z."""
    O = np.asarray(oplus, dtype=np.int32)
    N = np.asarray(neg, dtype=np.int32)
    n = size
    one = int(N[zero])
    for axiom in axioms:
        if axiom == "commutative":
            bad = np.argwhere(O != O.T)
        elif axiom == "identity":
            bad = np.flatnonzero(O[zero] != np.arange(n))
        elif axiom == "associative":
            for z in range(n):
                col = O[:, z]
                bad = np.argwhere(col[O] != O[:, col])
                if len(bad):
                    return axiom, (*map(int, bad[0]), z)
            continue
        elif axiom == "involution":
            bad = np.flatnonzero(N[N] != np.arange(n))
        elif axiom == "mv1":
            bad = np.flatnonzero(O[one] != one)
        else:
            L = O[N[O[N]], np.arange(n)[None, :]]
            bad = np.argwhere(L != L.T)
        if len(bad):
            return axiom, tuple(map(int, np.atleast_1d(bad[0])))
    return None


def exists_isomorphism(a, b):
    """Backtracking search for a bijective homomorphism (zero forced to zero)."""
    n = a.size
    if n != b.size:
        return False

    def undo(img, rimg, added):
        for p in added:
            del rimg[img[p]]
            del img[p]

    def extend(img, rimg, x, y):
        """Propagate x -> y through negation and sums; None on conflict."""
        stack = [(x, y)]
        added = []
        while stack:
            p, q = stack.pop()
            if p in img:
                if img[p] != q:
                    undo(img, rimg, added)
                    return None
                continue
            if q in rimg:
                undo(img, rimg, added)
                return None
            img[p] = q
            rimg[q] = p
            added.append(p)
            stack.append((a.neg(p), b.neg(q)))
            for r in list(img):
                stack.append((a.op(p, r), b.op(q, img[r])))
                stack.append((a.op(r, p), b.op(img[r], q)))
        return added

    img, rimg = {}, {}
    if extend(img, rimg, a.zero, b.zero) is None:
        return False

    def search():
        x = next((v for v in range(n) if v not in img), None)
        if x is None:
            return all(
                img[a.op(p, q)] == b.op(img[p], img[q]) for p in range(n) for q in range(n)
            ) and all(img[a.neg(p)] == b.neg(img[p]) for p in range(n))
        for y in range(n):
            if y in rimg:
                continue
            added = extend(img, rimg, x, y)
            if added is not None:
                if search():
                    return True
                undo(img, rimg, added)
        return False

    return search()


def threads_by_search(system):
    """All compatible choices of one quotient class per poset node, sorted.

    Backtracking search over the inverse system's transitions; nodes are
    visited by decreasing ideal size so the coarse quotients constrain the
    fine ones early.
    """
    ideals = system.ideals
    k = len(ideals)
    order = sorted(range(k),
                   key=lambda i: (-len(ideals[i].members), ideals[i].sorted_members))
    position = {node: p for p, node in enumerate(order)}
    ups = [[] for _ in range(k)]    # earlier nodes j with ideals[i] <= ideals[j]
    downs = [[] for _ in range(k)]  # earlier nodes j with ideals[j] <= ideals[i]
    for i in range(k):
        for j in range(k):
            if i == j or position[j] >= position[i]:
                continue
            if system.subset[i, j]:
                ups[i].append(j)
            if system.subset[j, i]:
                downs[i].append(j)

    transitions = dict(system.transitions)   # each map read once; the search reads them often
    sizes = [q.size for q in system.quotients]
    assign = [-1] * k
    threads = []

    def extend(p):
        if p == k:
            threads.append(tuple(assign))
            return
        i = order[p]
        forced = None
        for j in downs[i]:
            v = int(transitions[(j, i)][assign[j]])
            if forced is None:
                forced = v
            elif forced != v:
                return
        candidates = (forced,) if forced is not None else range(sizes[i])
        for v in candidates:
            if all(int(transitions[(i, j)][v]) == assign[j] for j in ups[i]):
                assign[i] = v
                extend(p + 1)
                assign[i] = -1

    extend(0)
    threads.sort()
    return threads


def inverse_system_by_all_pairs(algebra):
    """Every quotient table built, projections as tuples of tuples, and each
    transition read off at the least member of every class and checked well
    defined (proj_j == t_ij o proj_i) at every comparable pair."""
    lattice = mv.ideals.ideal_lattice(algebra)
    quotients, projections, reps = [], [], []
    for ideal in lattice.ideals:
        q, proj = mv.quotient(algebra, ideal)
        quotients.append(q)
        projections.append(np.asarray(proj, dtype=np.int32))
        reps.append(np.unique(projections[-1], return_index=True)[1])

    transitions = {}
    for i, j in zip(*np.nonzero(lattice.subset)):
        t = projections[j][reps[i]]
        if (projections[j] != t[projections[i]]).any():
            raise mv.InternalConsistencyError("transition map is not well defined")
        transitions[(int(i), int(j))] = t
    return types.SimpleNamespace(
        ideals=lattice.ideals, quotients=tuple(quotients),
        projections=tuple(tuple(int(c) for c in p) for p in projections),
        transitions=transitions, subset=lattice.subset)


def center_correspondence_by_loops(algebra):
    """The center correspondence report from dict-built maps: psi from member
    sets, each theta_i element by element with its homomorphism property at
    all m^2 pairs, and the squares at every comparable pair."""
    system = inverse_system_by_all_pairs(algebra)
    ideals_a = system.ideals
    k = len(ideals_a)
    center, emb = mv.center_algebra(algebra)
    pos_in_center = {a: c for c, a in enumerate(emb)}
    lattice_c = mv.ideals.ideal_lattice(center)

    psi = [frozenset(pos_in_center[m] for m in ideal.members if m in pos_in_center)
           for ideal in ideals_a]
    psi_pos = [lattice_c.index.get(mem) for mem in psi]
    well_defined = None not in psi_pos
    injective = len(set(psi)) == k
    surjective = set(psi) == set(lattice_c.index)
    preserves = reverses = False
    if well_defined:
        through_psi = lattice_c.subset[np.ix_(psi_pos, psi_pos)]
        preserves = bool((through_psi | ~system.subset).all())
        reverses = bool((system.subset | ~through_psi).all())

    thetas = [None] * k
    node = []
    isos_ok = well_defined
    for i in range(k):
        quot_ai = system.quotients[i]
        proj_ai = system.projections[i]
        center_q, emb_q = mv.center_algebra(quot_ai)
        pos_q = {a: c for c, a in enumerate(emb_q)}
        quot_c, proj_c = mv.quotient(center, mv.make_ideal(center, psi[i]))
        node.append((proj_c, np.unique(proj_c, return_index=True)[1], emb_q, pos_q))

        theta = [None] * quot_c.size
        ok_i = True
        for c in range(center.size):
            u = proj_c[c]
            image = proj_ai[emb[c]]
            if image not in pos_q:
                ok_i = False
                break
            t = pos_q[image]
            if theta[u] is None:
                theta[u] = t
            elif theta[u] != t:
                ok_i = False
                break
        ok_i = ok_i and None not in theta
        ok_i = ok_i and len(set(theta)) == quot_c.size == center_q.size
        if ok_i:
            ok_i = theta[quot_c.zero] == center_q.zero
            ok_i = ok_i and all(
                theta[quot_c.op(u, v)] == center_q.op(theta[u], theta[v])
                for u in range(quot_c.size) for v in range(quot_c.size)
            )
            ok_i = ok_i and all(
                theta[quot_c.neg(u)] == center_q.neg(theta[u])
                for u in range(quot_c.size)
            )
        thetas[i] = theta
        isos_ok = isos_ok and ok_i

    squares = isos_ok
    for i, j in zip(*np.nonzero(system.subset)) if isos_ok else ():
        _, reps_c_i, emb_q_i, _ = node[i]
        proj_c_j, _, _, pos_q_j = node[j]
        trans_a = system.transitions[(i, j)]
        squares = all(
            thetas[j][proj_c_j[r]] == pos_q_j.get(int(trans_a[emb_q_i[thetas[i][u]]]))
            for u, r in enumerate(reps_c_i))
        if not squares:
            break

    return mv.CenterCorrespondenceReport(
        ideal_count=k,
        center_ideal_count=len(lattice_c.ideals),
        psi_well_defined=well_defined,
        psi_injective=injective,
        psi_surjective=surjective,
        psi_preserves_inclusion=preserves,
        psi_reverses_inclusion=reverses,
        quotient_isos_ok=isos_ok,
        squares_ok=squares,
    )


def center_completion_by_threads(algebra):
    """The center/completion report searched for: the completion of B(A) is
    counted as the threads of B(A)'s eagerly built inverse system
    (`threads_by_search`), and B(completion of A) is compared with B(A) by
    an explicit isomorphism search."""
    center, _ = mv.center_algebra(algebra)
    center_of_completion, _ = mv.center_algebra(mv.profinite_completion(algebra).completion)
    return mv.CenterCompletionReport(
        center_of_completion_size=center_of_completion.size,
        completion_of_center_size=len(threads_by_search(inverse_system_by_all_pairs(center))),
        isomorphic=exists_isomorphism(center_of_completion, center),
    )


def truncadd(x: Fraction, y: Fraction) -> Fraction:
    return min(x + y, Fraction(1))


def in_kernel_by_sublevels(f, ultra):
    """Membership of f in the maximal ideal of the ultrafilter through the
    sublevel sets {x : f(x) < eps}: the ideal contains f exactly when every
    sublevel set belongs to the ultrafilter.  f attains finitely many values,
    so the sublevel sets change only at those values and it suffices to test
    the positive attained values as thresholds."""
    ultra.validate_for(f.spec)
    if ultra.kind == "principal":
        x = ultra.index
        thresholds = {f.value_at(x)} - {Fraction(0)}
        return all(f.value_at(x) < eps for eps in thresholds)
    thresholds = {f.eventual_value(r) for r in range(f.modulus)} - {Fraction(0)}
    target = ultra.residue % f.modulus
    # the residues mod f.modulus on which f is eventually below eps
    return all(target in {r for r in range(f.modulus) if f.eventual_value(r) < eps}
               for eps in thresholds)


def decide_by_class_scan(spec):
    """The strong-completeness verdict from the spec's classes: a finite index
    set qualifies outright; on an infinite one every constant class carries
    free ultrafilters of finite rank, never principal, and the first such
    class is the witness, while unbounded classes force infinite rank."""
    if spec.limit is not None:
        return mv.StrongCompletenessVerdict(True, None)
    for r, cls in enumerate(spec.classes):
        if isinstance(cls, mv.ConstClass):
            witness = mv.MaximalIdealDescriptor(
                "free_class", rank=cls.order, principal=False, residue=r, modulus=spec.period)
            return mv.StrongCompletenessVerdict(False, witness)
    return mv.StrongCompletenessVerdict(True, None)


# -- randomized symbolic data ----------------------------------------------


def random_symbolic_element(spec, rng: random.Random, span=12):
    modulus = spec.period * rng.randint(1, 3)
    values = []
    for r in range(modulus):
        cls = spec.classes[r % spec.period]
        if isinstance(cls, mv.ConstClass):
            values.append(rng.randrange(cls.order))
        else:
            values.append(rng.choice((mv.ZERO, mv.TOP)))
    prefix = {}
    for x in spec.prefix_overrides:
        if spec.limit is None or x < spec.limit:
            prefix[x] = rng.randrange(spec.order_at(x))
    hi = span if spec.limit is None else min(span, spec.limit)
    for _ in range(rng.randint(0, 2)):
        if hi == 0:
            break
        x = rng.randrange(hi)
        prefix[x] = rng.randrange(spec.order_at(x))
    return mv.SymbolicElement(spec, modulus, prefix, values)


def random_ultrafilter(spec, rng: random.Random, span=12):
    if not spec.is_infinite or rng.random() < 0.5:
        hi = span if spec.limit is None else min(span, spec.limit)
        return mv.SymbolicUltrafilter.principal(rng.randrange(max(hi, 1)))
    modulus = spec.period * rng.randint(1, 3)
    return mv.SymbolicUltrafilter.free_on_residue(rng.randrange(modulus), modulus)


def bundled_specs():
    """Name and parsed IndexSpec of every bundled document."""
    from mvkit import data
    from mvkit.cli import parse_algebra_document

    out = []
    for name in data.BUNDLED:
        kind, spec = parse_algebra_document(data.load(name))
        assert kind == "symbolic"
        out.append((name, spec))
    return out
