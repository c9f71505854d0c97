"""Profinite completion of a finite MV-algebra as an explicit inverse limit.

The index poset is every ideal under reverse inclusion (the improper ideal
adds one forced coordinate, its trivial quotient).  Under the chain-product
certificate A = prod_{i in K} L_{n_i} an ideal is a coordinate set S, A/I_S
the projection onto the other coordinates and each transition a further
projection: the system is the ideal lattice, and each node's classes,
quotient table and transitions are built only when read.  The completion is
A on its own tables: the zero ideal is node 0 and its projection the identity.

Two reports cover the Boolean center (every finite algebra is regular) and
read A's inverse system and center members only: B(A) has A's atoms, so
I -> I n B(A) is S -> S on coordinate sets, and B(completion of A) is B(A).
One check per node: B(A)/(I n B(A)) -> B(A/I) hits exactly the central classes.

No function here takes a size cap: the cap is checked once, where an
algebra is admitted.  Every layer is bounded by A's n x n table: read,
`projections` is 2^k <= n rows of n entries; the completion shares A's tables.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError
from .finite import (
    FiniteMVAlgebra,
    _certificate,
    _frozen,
    _self_meet,
    boolean_center,
)
from .ideals import (
    _key,
    _quotient_algebra,
    classes,
    ideal_lattice,
)


class _Quotients(Sequence):
    """quotients[i], the algebra A/ideals[i], built each time it is read."""

    def __init__(self, algebra, ideals):
        self._algebra, self._ideals = algebra, ideals

    def __len__(self):
        return len(self._ideals)

    def __getitem__(self, i):
        return _quotient_algebra(self._algebra, *classes(self._algebra, self._ideals[i]))


class _Transitions(Mapping):
    """transitions[(i, j)] = projections[j][reps[i]] on the comparable pairs."""

    def __init__(self, algebra, ideals, subset):
        self._algebra, self._ideals, self._subset = algebra, ideals, subset

    def __getitem__(self, pair):
        i, j = pair
        if min(i, j) < 0 or max(i, j) >= len(self._subset) or not self._subset[i, j]:
            raise KeyError(pair)
        return classes(self._algebra, self._ideals[j])[0][classes(self._algebra, self._ideals[i])[1]]

    def __iter__(self):
        return zip(*(a.tolist() for a in np.nonzero(self._subset)))

    def __len__(self):
        return int(np.count_nonzero(self._subset))


class InverseSystem:
    """All quotients of one finite algebra with their transition maps.

    `ideals[i]` is the i-th poset node (canonical all_ideals order) and
    `subset[i, j]` says ideals[i] <= ideals[j].  `projections` is a read-only
    K x n `index_dtype` array, projections[i][x] the class of x in A/ideals[i]
    (classes numbered by least member, reps[i][c] the least member of c);
    both come from `ideals.classes`, one call per node, on first read.
    `quotients[i]` (O(m^2)) and `transitions[(i, j)]` (O(m), defined when
    ideals[i] <= ideals[j], else KeyError) call it on each read and keep
    nothing; these containers hold the algebra and ideals, never the system.
    """

    def __init__(self, algebra, ideals, subset):
        self.algebra = algebra
        self.ideals = ideals
        self.subset = subset
        self.quotients = _Quotients(algebra, ideals)
        self.transitions = _Transitions(algebra, ideals, subset)

    @functools.cached_property
    def _numbering(self):   # (projections, reps), shared by both
        class_of, reps = zip(*(classes(self.algebra, ideal) for ideal in self.ideals))
        return _frozen(np.stack(class_of)), reps

    projections = property(lambda self: self._numbering[0])
    reps = property(lambda self: self._numbering[1])

    def __repr__(self):
        return f"InverseSystem({len(self.ideals)} ideals over size {self.algebra.size})"


def build_inverse_system(algebra: FiniteMVAlgebra) -> InverseSystem:
    """The ideal lattice as an inverse system; no class is numbered here.

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
    lattice = ideal_lattice(algebra)
    cert = _certificate(algebra)
    for j, atom in enumerate(cert.atoms):
        if (cert.digits.take(_key(algebra, atom), axis=0) != cert.digits * (np.arange(len(cert.atoms)) != j)).any():
            raise InternalConsistencyError("class keys are not the certificate's coordinate projection")
    return InverseSystem(algebra, lattice.ideals, lattice.subset)


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

    The threads are certified rather than searched for, with no check: the
    (size, members) order puts {0}, the only one-element ideal and the least
    node, at node 0, keyed by x (.) neg 0 = x, the identity, which numbers
    to itself.  A thread x is then fixed by its coordinate there,
    x_j = t_0j(x_0), and each (t_0j(a))_j is compatible because the
    transitions compose; so the threads are exactly these, one per a in A,
    in lexicographic order.  The transitions are homomorphisms
    (proj_j = t_0j o proj_0), so the operations on threads are A's own: the
    completion is built on A's read-only tables, with A's certificate when A
    has one, and the canonical map is the identity, tuple(range(n)).  Cost:
    build_inverse_system's, which numbers no class; the shared tables are
    not scanned again or copied.
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

    psi_i = ideals[i] n B(A) needs no check: B(A), the x whose digits are
    all 0 or top, has A's atoms, so its ideals are the coordinate sets
    J_S = {c : s(c) inside S} = I_S n B(A).  psi is then S -> S, well
    defined and a bijection onto the 2^k center ideals, and J_S lies in J_T
    iff S lies in T iff I_S lies in I_T, so it preserves and reverses
    inclusion: the five psi flags hold and the two counts are equal.
    theta_i sends a class of B(A)/psi_i to the class in A/I_i of its
    embedded members: B(A) has A's operations, so d(c, c') is central and in
    psi_i iff in I_i, B's classes are A's met with the center, and theta_i
    is well defined and injective by construction.  The one check, O(n) a
    node, is that it hits exactly the central classes ([x] is central iff
    x ^ neg x is in I_i), so it is an isomorphism; the squares commute, both
    ways round sending [c] to [emb c], since proj_j = t_ij o proj_i.  The
    check reads keys, not numbered classes: a class is a key value, and the
    keying is a homomorphism, so key(x ^ neg x) = key x ^ neg key x and the
    check per class is hit[key x] == (key(x ^ neg x) == key 0) for every x.
    The per-atom check does not imply it: digits relabeled inside one chain,
    0 kept fixed, pass that check but name the wrong center, and only this
    check sees it.
    """
    system = build_inverse_system(algebra)   # checks the certificate boolean_center reads
    emb = np.asarray(boolean_center(algebra)[0])
    self_meet = _self_meet(algebra).astype(np.intp)

    def theta_is_iso(ideal):
        key = _key(algebra, ideal.generator)
        hit = np.zeros(algebra.size, dtype=bool)
        hit[key.take(emb)] = True
        return (hit.take(key) == (key.take(self_meet) == key[algebra.zero])).all()

    isos_ok = bool(all(map(theta_is_iso, system.ideals)))
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
