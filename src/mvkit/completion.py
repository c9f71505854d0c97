"""Profinite completion of a finite MV-algebra as an explicit inverse limit.

The index poset is every ideal under reverse inclusion (the improper ideal
adds one forced coordinate, its trivial quotient).  Under the chain-product
certificate A = prod_{i in K} L_{n_i} an ideal is a coordinate set S, A/I_S
the projection onto the other coordinates and each transition a further
projection: the system is one array of class indices, and quotient tables
and transitions are built only when read.  The completion is its value at
the zero ideal, the least node, where the threads are certified.

Two reports cover the Boolean center on regular algebras: the ideal
correspondence I -> I n B(A) with the induced quotient isomorphisms and
their commuting squares (array checks on the two lattices), and the center
of the completion against the completion of the center.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, PreconditionError
from .finite import (
    DEFAULT_MAX_SIZE,
    FiniteMVAlgebra,
    are_isomorphic,
    center_algebra,
)
from .ideals import _is_regular, _quotient_algebra, classes, ideal_lattice


class _Quotients(Sequence):
    """quotients[i], the algebra A/ideals[i], built each time it is read."""

    def __init__(self, algebra, projections, reps):
        self._algebra, self._projections, self._reps = algebra, projections, reps

    def __len__(self):
        return len(self._reps)

    def __getitem__(self, i):
        return _quotient_algebra(self._algebra, self._projections[i], self._reps[i])


class _Transitions(Mapping):
    """transitions[(i, j)] = projections[j][reps[i]] on the comparable pairs."""

    def __init__(self, projections, reps, subset):
        self._projections, self._reps, self._subset = projections, reps, subset

    def __getitem__(self, pair):
        i, j = pair
        if min(i, j) < 0 or max(i, j) >= len(self._subset) or not self._subset[i, j]:
            raise KeyError(pair)
        return self._projections[j][self._reps[i]]

    def __iter__(self):
        return zip(*(a.tolist() for a in np.nonzero(self._subset)))

    def __len__(self):
        return int(np.count_nonzero(self._subset))


class InverseSystem:
    """All quotients of one finite algebra with their transition maps.

    `ideals[i]` is the i-th poset node (canonical all_ideals order) and
    `subset[i, j]` says ideals[i] <= ideals[j].  `projections` is a read-only
    k x n int32 array, projections[i][x] the class of x in A/ideals[i]
    (classes numbered by least member, reps[i][c] the least member of c).
    `quotients[i]` (O(m^2)) and `transitions[(i, j)]` (O(m), defined when
    ideals[i] <= ideals[j], else KeyError) are built on each read and not
    kept; these containers hold the algebra and arrays, never the system.
    """

    def __init__(self, algebra, ideals, projections, reps, subset):
        self.algebra = algebra
        self.ideals = ideals
        self.projections = projections
        self.reps = reps
        self.subset = subset
        self.quotients = _Quotients(algebra, projections, reps)
        self.transitions = _Transitions(projections, reps, subset)

    def __repr__(self):
        return f"InverseSystem({len(self.ideals)} ideals over size {self.algebra.size})"


def build_inverse_system(algebra: FiniteMVAlgebra,
                         max_size=DEFAULT_MAX_SIZE) -> InverseSystem:
    """Every ideal's projection, one `classes` call per node.

    k ideals over n elements with a chain factors cost O(k*n*(a + log n))
    and a k x n array; no quotient table is built.  No transition is
    checked: when ideals[i] <= ideals[j], node j's key digits are a sub-tuple
    of node i's and `classes` pins each key to those digits, so
    proj_j = t_ij o proj_i, which (the projections being onto) makes t_ij
    onto, t_ii = id and t_jm o t_ij = t_im.
    """
    lattice = ideal_lattice(algebra, max_size)
    rows, reps = zip(*(classes(algebra, ideal) for ideal in lattice.ideals))
    projections = np.stack(rows)
    projections.setflags(write=False)
    return InverseSystem(algebra, lattice.ideals, projections, reps, lattice.subset)


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


def profinite_completion(algebra: FiniteMVAlgebra,
                         max_size=DEFAULT_MAX_SIZE) -> CompletionResult:
    """The compatible-thread subalgebra and the canonical map into it.

    The threads are certified rather than searched for.  The zero ideal is
    the least node of the poset (its subset row is all true) and its
    projection is checked injective.  A thread x is then fixed by its
    coordinate there, x_j = t_0j(x_0), and each (t_0j(a))_j is compatible
    because the transitions compose; so the threads are exactly these, one
    per class a at the least node.  The transitions are homomorphisms
    (proj_j = t_0j o proj_0 with proj_0 onto), so componentwise operations on
    threads are the quotient operations at that node.  The least node comes
    first in all_ideals order, so numbering threads by their class there is
    their lexicographic order.

    The canonical map proj_0 is a homomorphism by `classes`' certificate
    check and injective, so an isomorphism once checked onto.  Cost: that of
    build_inverse_system plus O(n^2) for the one quotient table read.
    """
    system = build_inverse_system(algebra, max_size)
    least = np.flatnonzero(system.subset.all(axis=1))
    if len(least) != 1:
        raise InternalConsistencyError("the ideal poset has no least node")
    canonical = system.projections[least[0]]
    if len(np.unique(canonical)) != algebra.size:
        raise InternalConsistencyError("the projection at the least node is not injective")
    at_least = system.quotients[least[0]]
    completion = FiniteMVAlgebra(at_least.size, at_least.zero, at_least.oplus_table, at_least.neg_table)
    completion._cache.update(at_least._cache)  # the quotient's certificate
    iso = np.array_equal(np.unique(canonical), np.arange(completion.size))
    return CompletionResult(system, completion, tuple(canonical.tolist()), iso)


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


def verify_center_correspondence(algebra: FiniteMVAlgebra,
                                 max_size=DEFAULT_MAX_SIZE) -> CenterCorrespondenceReport:
    """Check the center ideal correspondence on a regular finite algebra.

    psi_i = ideals[i] n B(A) is the center ideal generated by g_i, the
    central generator of ideals[i]: a lookup by generator, checked against
    the member masks (O(k*|B|)).  theta_i sends a class of B(A)/psi_i to the
    position in B(A/I_i) of its class in A/I_i ([x] is central iff
    x ^ neg x is in I_i): one scatter, checked consistent with the
    projections (theta_i o proj_c = proj_i o emb) and counted bijective,
    hence a homomorphism as proj_c is an onto one, with no table built.
    With psi an order isomorphism the lattice is Boolean (2^|S| ideals below
    I_S), so the squares are checked on covering pairs |S_j| = |S_i| + 1
    only: both sides' transitions compose.
    """
    center, emb = center_algebra(algebra)
    if not _is_regular(algebra, center, emb, max_size):
        raise PreconditionError("center correspondence requires a regular algebra")

    system = build_inverse_system(algebra, max_size)
    generators = ideal_lattice(algebra, max_size).generators
    emb = np.asarray(emb)
    lattice_c = ideal_lattice(center, max_size)
    center_node = np.full(algebra.size, -1)
    center_node[emb[lattice_c.generators]] = np.arange(len(lattice_c.ideals))
    psi = center_node[generators]
    well_defined = bool((psi >= 0).all() and (
        algebra.leq_matrix[np.ix_(emb, generators)]
        == center.leq_matrix[:, lattice_c.generators[psi]]).all())
    injective = len(set(psi.tolist())) == len(psi)
    surjective = set(psi.tolist()) == set(range(len(lattice_c.ideals)))
    preserves = reverses = isos_ok = squares = False
    if well_defined:
        # the center's inclusion matrix pulled back along psi, against A's
        through_psi = lattice_c.subset[np.ix_(psi, psi)]
        preserves = bool((through_psi | ~system.subset).all())
        reverses = bool((system.subset | ~through_psi).all())
        system_c = build_inverse_system(center, max_size)
        O, N = algebra.oplus_table, algebra.neg_table
        self_meet = N[O[N[O[N[N], N[N]]], N[N]]]  # x ^ neg x, as in boolean_center
        lifts = []  # lifts[i][u]: the class in A/I_i of the center class u
        for proj, reps, c in zip(system.projections, system.reps, psi):
            central = np.flatnonzero(proj[self_meet[reps]] == proj[algebra.zero])
            position = np.full(len(reps), -1)
            position[central] = np.arange(len(central))
            image = position[proj[emb]]
            theta = np.full(len(system_c.reps[c]), -1)
            theta[system_c.projections[c]] = image
            isos_ok = bool((image >= 0).all() and (theta[system_c.projections[c]] == image).all()
                           and len(np.unique(theta)) == len(theta) == len(central))
            if not isos_ok:
                break
            lifts.append(central[theta])
        below = system.subset.sum(axis=0)
        squares = isos_ok and all(
            np.array_equal(lifts[j][system_c.transitions[(psi[i], psi[j])]],
                           system.transitions[(i, j)][lifts[i]])
            for i, j in zip(*np.nonzero(system.subset & (below == 2 * below[:, None]))))

    return CenterCorrespondenceReport(
        ideal_count=len(psi),
        center_ideal_count=len(lattice_c.ideals),
        psi_well_defined=well_defined,
        psi_injective=injective,
        psi_surjective=surjective,
        psi_preserves_inclusion=preserves,
        psi_reverses_inclusion=reverses,
        quotient_isos_ok=isos_ok,
        squares_ok=squares,
    )


@dataclass
class CenterCompletionReport:
    """Center of the completion versus completion of the center."""

    center_of_completion_size: int
    completion_of_center_size: int
    isomorphic: bool

    @property
    def ok(self) -> bool:
        return self.isomorphic


def verify_center_completion_commute(algebra: FiniteMVAlgebra,
                                     max_size=DEFAULT_MAX_SIZE) -> CenterCompletionReport:
    """Compare B(completion of A) with the completion of B(A), both computed."""
    center, emb = center_algebra(algebra)
    if not _is_regular(algebra, center, emb, max_size):
        raise PreconditionError("center/completion comparison requires a regular algebra")
    completed = profinite_completion(algebra, max_size).completion
    center_of_completion, _ = center_algebra(completed)
    completed_center = profinite_completion(center, max_size).completion
    return CenterCompletionReport(
        center_of_completion_size=center_of_completion.size,
        completion_of_center_size=completed_center.size,
        isomorphic=are_isomorphic(center_of_completion, completed_center),
    )
