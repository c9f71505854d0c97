"""Profinite completion of a finite MV-algebra as an explicit inverse limit.

The index poset is every ideal under reverse inclusion.  Under the
chain-product certificate A = prod_{i in K} L_{n_i} an ideal is a coordinate
set S, A/I_S the projection onto the other coordinates and each transition
a further projection: the system is the ideal lattice, each node named by
S, and its classes, quotient tables and transitions are built only when
read.  The completion is A on its own tables: the zero ideal is node 0 and
its projection the identity.  The two Boolean-center reports read A's
system and center members only: B(A) has A's atoms, so I -> I n B(A) is
S -> S, and B(completion of A) is B(A); one O(n) check, that the
certificate names the center, makes every B(A)/(I n B(A)) -> B(A/I) an
isomorphism.  No function here takes a size cap (the cap is checked where
an algebra is admitted): read, `projections` is 2^k <= n rows of n
entries, and the completion shares A's tables.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .finite import FiniteMVAlgebra, _certificate, _frozen, _self_meet, boolean_center
from .ideals import _checked_key, _quotient_algebra, all_ideals, classes, ideal_lattice


class _Nodes(dict):
    """nodes[i] = `classes` of ideals[i], computed on first read and kept: the
    one memo of the system's readers.  It holds the algebra, never the system."""

    def __init__(self, algebra, ideals):   # dict.__new__ made the empty memo
        self.algebra, self.ideals = algebra, ideals

    def __missing__(self, i):
        return self.setdefault(i, classes(self.algebra, self.ideals[i]))


class _Quotients(Sequence):
    """quotients[i], the algebra A/ideals[i], built each time it is read."""

    def __init__(self, nodes):
        self._nodes = nodes

    def __len__(self):
        return len(self._nodes.ideals)

    def __getitem__(self, i):
        return _quotient_algebra(self._nodes.algebra, *self._nodes[range(len(self))[i]])   # one key per node


class _Transitions(Mapping):
    """transitions[(i, j)] = projections[j][reps[i]] on the comparable pairs,
    S_i & ~S_j == 0; any other key, (i, j) not a pair of in-range ints,
    numpy ints included and bools not, raises KeyError."""

    def __init__(self, nodes, supports):
        self._nodes, self._supports = nodes, supports

    def __getitem__(self, pair):
        s = self._supports
        if not (isinstance(pair, tuple) and len(pair) == 2
                and all(type(x) is int or isinstance(x, np.integer) for x in pair)
                and 0 <= min(pair) and max(pair) < len(s)) or s[pair[0]] & ~s[pair[1]]:
            raise KeyError(pair)
        return self._nodes[pair[1]][0][self._nodes[pair[0]][1]]

    def __iter__(self):   # row by row, in the order of subset's nonzero entries
        s = self._supports
        return ((i, j) for i in range(len(s)) for j in np.flatnonzero(s[i] & ~s == 0).tolist())

    def __len__(self):
        """3^k: a coordinate of a comparable pair is in both, neither or the larger only."""
        return 3 ** (len(self._supports).bit_length() - 1)


class InverseSystem:
    """All quotients of one finite algebra with their transition maps.

    `ideals[i]` is the i-th node I_S (canonical all_ideals order),
    `subset[i, j]` says ideals[i] <= ideals[j], and `projections` is a
    read-only K x n `index_dtype` array, projections[i][x] the class of x in
    A/ideals[i] (numbered by least member, reps[i][c] the least member of
    c).  Readers share one memo of `ideals.classes`, called once per node on
    first read; `quotients[i]` builds its O(m^2) algebra on each read;
    `transitions[(i, j)]` is O(m), KeyError unless S_i & ~S_j == 0.  Memo
    and containers hold the algebra, never the system.
    """

    def __init__(self, algebra):
        self.algebra, self.ideals, self._supports = algebra, all_ideals(algebra), ideal_lattice(algebra).supports
        self._nodes = _Nodes(algebra, self.ideals)
        self.quotients, self.transitions = _Quotients(self._nodes), _Transitions(self._nodes, self._supports)

    @functools.cached_property
    def subset(self):
        """The inclusion matrix, subset[i, j] iff S_i & ~S_j == 0, filled row
        by row on first read and kept, read-only: O(4^k) time and 4^k bytes
        (16 MB at 2^12), with one row's temporaries beside it."""
        s = self._supports
        return _frozen(np.fromiter((s[i] & ~s == 0 for i in range(len(s))), dtype=(bool, len(s)), count=len(s)))

    @functools.cached_property
    def _numbering(self):   # (projections, reps), shared by both
        class_of, reps = zip(*map(self._nodes.__getitem__, range(len(self.ideals))))
        projections = _frozen(np.stack(class_of))
        self._nodes.update(enumerate(zip(projections, reps)))   # the memo keeps rows, not copies
        return projections, reps

    projections = property(lambda self: self._numbering[0])
    reps = property(lambda self: self._numbering[1])

    def __repr__(self):
        return f"InverseSystem({len(self.ideals)} ideals over size {self.algebra.size})"


def build_inverse_system(algebra: FiniteMVAlgebra) -> InverseSystem:
    """The ideal lattice as an inverse system: no class numbered, no matrix built.

    Node I_S keys x by x (.) neg g_S (`ideals.classes`), g_S the join of S's
    atoms a_j.  The one check, `classes`' certificate check made once per
    atom: x (.) neg a_j must have x's digits with digit j set to 0 (O(n*k)
    each).  Node S's keying is the composition of these maps over S, as
    neg g_S is the (.) of the neg a_j, so its keys are then the certificate's
    projection off S, whose kernel is the lattice's I_S.  No transition is
    checked: each keying is a homomorphism, and node j's key is node i's key
    (.) neg g_j when ideals[i] <= ideals[j], so proj_j = t_ij o proj_i: t_ij
    is onto, t_ii = id, t_jm o t_ij = t_im.  Cost: the lattice's, and
    O(n*k) per atom.
    """
    for j, atom in enumerate(_certificate(algebra).atoms):
        _checked_key(algebra, atom, 1 << j)
    return InverseSystem(algebra)


@dataclass
class CompletionResult:
    """The inverse limit together with the canonical comparison map."""

    system: InverseSystem
    completion: FiniteMVAlgebra
    canonical_map: tuple
    is_isomorphism: bool

    @property
    def thread_count(self) -> int:
        return self.completion.size


def profinite_completion(algebra: FiniteMVAlgebra) -> CompletionResult:
    """The compatible-thread subalgebra and the canonical map into it.

    The threads are certified, not searched for: the (size, members) order
    puts {0}, the only one-element ideal, at node 0, keyed by x (.) neg 0 =
    x, the identity.  A thread x is fixed by its coordinate there,
    x_j = t_0j(x_0), and each (t_0j(a))_j is compatible as the transitions
    compose, so the threads are these, one per a in A, in lexicographic
    order.  The transitions are homomorphisms (proj_j = t_0j o proj_0), so
    the completion has A's operations: it is built on A's read-only tables,
    with A's certificate if any, and the canonical map is the identity.  Cost:
    build_inverse_system's, which numbers no class; no table is copied.
    """
    system = build_inverse_system(algebra)
    completion = FiniteMVAlgebra._built(algebra.size, algebra.zero, algebra.oplus_table, algebra.neg_table)
    if "decomposition" in algebra._cache:
        completion._cache["decomposition"] = algebra._cache["decomposition"]
    return CompletionResult(system, completion, tuple(range(algebra.size)), True)


# -- Boolean-center verification reports -----------------------------------


@dataclass
class CenterCorrespondenceReport:
    """Outcome of checking the ideal correspondence with the Boolean center.

    Covers: I -> I n B(A) as an inclusion-preserving and reversing bijection
    between the two ideal posets, the induced isomorphisms
    B(A)/(I n B(A)) -> B(A/I), and commutation of those isomorphisms with
    all transition maps.
    """

    ideal_count: int
    center_ideal_count: int
    psi_well_defined: bool
    psi_injective: bool
    psi_surjective: bool
    psi_preserves_inclusion: bool
    psi_reverses_inclusion: bool
    quotient_isos_ok: bool
    squares_ok: bool

    @property
    def ok(self) -> bool:
        """Every flag holds (the two counts are not flags)."""
        return all(v for name, v in vars(self).items() if not name.endswith("_count"))


def verify_center_correspondence(algebra: FiniteMVAlgebra) -> CenterCorrespondenceReport:
    """Check the center ideal correspondence (every finite algebra is regular).

    psi needs no check: B(A), the x whose digits are all 0 or top, has A's
    atoms, so its ideals are the J_S = I_S n B(A); psi is S -> S, a
    bijection onto the 2^k center ideals that preserves and reverses
    inclusion, so the five psi flags hold and the counts agree.  theta_i
    sends a class of B(A)/psi_i to the class in A/I_i of its members, well
    defined and injective as B(A) has A's operations.  It is onto the central
    classes when g_i is central: node i's keying h(x) = x (.) neg g_i is then
    the projection of A = [0, g_i] x [0, neg g_i] onto [0, neg g_i], kernel
    I_i, and hits exactly B([0, neg g_i]) (a b central there is (0, b),
    central in A, and h(b) = b).  The squares commute, as
    proj_j = t_ij o proj_i.  So the one check, O(n), is theta's at node 0,
    whose key is the identity: `boolean_center`'s members are the x with
    x ^ neg x = 0.  With the per-atom check it makes every g_i central, so
    idempotence needs no check of its own: the per-atom check makes
    digits(neg a_j) those of 1, central so all 0 or top, with digit j set to
    0; so neg a_j is central by this check, hence a_j, and g_i is a (+) of
    atoms.  Digits relabeled inside one chain, 0 kept fixed, pass the
    per-atom check, and only this one sees the wrong center.
    """
    system = build_inverse_system(algebra)   # checks the certificate boolean_center reads
    center = np.flatnonzero(_self_meet(algebra) == algebra.zero)
    isos_ok = bool(np.array_equal(boolean_center(algebra)[0], center))
    k = len(system.ideals)   # psi is S -> S: its five flags hold and the counts agree
    return CenterCorrespondenceReport(k, k, True, True, True, True, True, isos_ok, isos_ok)


@dataclass
class CenterCompletionReport:
    """Center of the completion versus completion of the center."""

    center_of_completion_size: int
    completion_of_center_size: int
    isomorphic: bool

    @property
    def ok(self) -> bool:
        return self.isomorphic


def verify_center_completion_commute(algebra: FiniteMVAlgebra) -> CenterCompletionReport:
    """Compare B(completion of A) with the completion of B(A) (every finite
    algebra is regular).  Only A is completed, with its per-atom check.  The
    completion is A on A's tables and certificate, so B(completion of A) is
    B(A); and B(A), a finite Boolean algebra with its certificate, is its
    own completion.  Both are B(A), sized off the certificate in O(n*k)."""
    completed = profinite_completion(algebra).completion   # checks what boolean_center reads
    size = len(boolean_center(completed)[0])
    return CenterCompletionReport(size, size, True)
