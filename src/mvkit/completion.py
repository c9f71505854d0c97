"""Profinite completion of a finite MV-algebra as an explicit inverse limit.

The index poset is the full ideal set ordered by reverse inclusion (for a
finite algebra every quotient is finite, and the improper ideal contributes
one forced coordinate through its trivial quotient).  The completion is
realized concretely as the subalgebra of compatible threads inside the
product of all quotients; the threads are certified at the zero ideal, the
least node, instead of searched for.  The canonical map a -> ([a]_I)_I is
checked for injectivity, surjectivity and the homomorphism property rather
than inferred from structure theory.

Two verification reports cover the interaction with the Boolean center on
regular algebras: the ideal-poset correspondence I -> I n B(A) together with
the induced quotient isomorphisms and their commuting squares, and the
isomorphism between the center of the completion and the completion of the
center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, PreconditionError
from .finite import (
    DEFAULT_MAX_SIZE,
    FiniteMVAlgebra,
    are_isomorphic,
    center_algebra,
)
from .ideals import ideal_lattice, is_regular, make_ideal, quotient


class InverseSystem:
    """All quotients of one finite algebra with their transition maps.

    `ideals[i]` is the i-th poset node (canonical all_ideals order);
    `transitions[(i, j)]`, defined whenever ideals[i] <= ideals[j], maps a
    class of A/ideals[i] to the class of A/ideals[j] containing it.
    """

    def __init__(self, algebra, ideals, quotients, projections, transitions, subset):
        self.algebra = algebra
        self.ideals = ideals
        self.quotients = quotients
        self.projections = projections
        self.transitions = transitions
        self.subset = subset

    def __repr__(self):
        return f"InverseSystem({len(self.ideals)} ideals over size {self.algebra.size})"


def build_inverse_system(algebra: FiniteMVAlgebra,
                         max_size=DEFAULT_MAX_SIZE) -> InverseSystem:
    """Quotients by every ideal plus verified transition maps.

    For each comparable pair ideals[i] <= ideals[j] the transition t_ij is
    read off at the least member of every class of A/ideals[i] and checked
    to be well defined: proj_j == t_ij o proj_i.  Every projection is onto
    (`quotient` numbers classes by their least member), so that one equation
    already forces t_ij onto, t_ii = id and t_jm o t_ij = t_im.

    Cost for k ideals over n elements: O(k * n^2) for the quotients, plus
    O(c * n) for the c comparable pairs; the subset matrix is the lattice's
    inclusion matrix (O(k^2), see `ideal_lattice`).
    """
    lattice = ideal_lattice(algebra, max_size)
    quotients = []
    projections = []
    reps = []
    for ideal in lattice.ideals:
        q, proj = quotient(algebra, ideal)
        quotients.append(q)
        projections.append(np.asarray(proj, dtype=np.int32))
        reps.append(np.unique(projections[-1], return_index=True)[1])

    transitions = {}
    for i, j in zip(*np.nonzero(lattice.subset)):
        t = projections[j][reps[i]]
        if (projections[j] != t[projections[i]]).any():
            raise InternalConsistencyError("transition map is not well defined")
        transitions[(int(i), int(j))] = t

    return InverseSystem(algebra, lattice.ideals, tuple(quotients),
                         tuple(tuple(int(c) for c in p) for p in projections),
                         transitions, lattice.subset)


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

    The canonical map is then checked surjective and a homomorphism; being
    injective, it is then an isomorphism, with no further comparison.  Cost:
    that of build_inverse_system plus O(n^2) for the final check.
    """
    system = build_inverse_system(algebra, max_size)
    least = np.flatnonzero(system.subset.all(axis=1))
    if len(least) != 1:
        raise InternalConsistencyError("the ideal poset has no least node")
    node = least[0]
    at_least = system.quotients[node]
    canonical = system.projections[node]
    if len(set(canonical)) != algebra.size:
        raise InternalConsistencyError("the projection at the least node is not injective")
    m = at_least.size
    completion = FiniteMVAlgebra(m, at_least.zero, at_least.oplus_table, at_least.neg_table)

    can_arr = np.asarray(canonical, dtype=np.int32)
    surjective = set(canonical) == set(range(m))
    hom = (
        (completion.oplus_table[np.ix_(can_arr, can_arr)] == can_arr[algebra.oplus_table]).all()
        and (completion.neg_table[can_arr] == can_arr[algebra.neg_table]).all()
        and completion.zero == canonical[algebra.zero]
    )
    iso = bool(surjective and hom)
    return CompletionResult(system, completion, canonical, iso)


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
        return (
            self.psi_well_defined and self.psi_injective and self.psi_surjective
            and self.psi_preserves_inclusion and self.psi_reverses_inclusion
            and self.quotient_isos_ok and self.squares_ok
        )


def verify_center_correspondence(algebra: FiniteMVAlgebra,
                                 max_size=DEFAULT_MAX_SIZE) -> CenterCorrespondenceReport:
    """Check the center ideal correspondence on a regular finite algebra."""
    if not is_regular(algebra, max_size):
        raise PreconditionError("center correspondence requires a regular algebra")

    system = build_inverse_system(algebra, max_size)
    ideals_a = system.ideals
    k = len(ideals_a)
    center, emb = center_algebra(algebra)
    pos_in_center = {a: c for c, a in enumerate(emb)}
    lattice_c = ideal_lattice(center, max_size)

    psi = [frozenset(pos_in_center[m] for m in ideal.members if m in pos_in_center)
           for ideal in ideals_a]
    # psi lands on center ideals exactly when each image is in the center's list
    psi_pos = [lattice_c.index.get(mem) for mem in psi]
    well_defined = None not in psi_pos
    injective = len(set(psi)) == k
    surjective = set(psi) == set(lattice_c.index)
    preserves = reverses = False
    if well_defined:
        # the center's inclusion matrix pulled back along psi, against A's
        through_psi = lattice_c.subset[np.ix_(psi_pos, psi_pos)]
        preserves = bool((through_psi | ~system.subset).all())
        reverses = bool((system.subset | ~through_psi).all())

    # per-node data for the induced center isomorphisms
    thetas = [None] * k
    node = []
    isos_ok = well_defined
    for i in range(k):
        quot_ai = system.quotients[i]
        proj_ai = system.projections[i]
        center_q, emb_q = center_algebra(quot_ai)
        pos_q = {a: c for c, a in enumerate(emb_q)}
        quot_c, proj_c = quotient(center, make_ideal(center, psi[i]))
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
        # class u of C/psi_i goes to class proj_c_j[reps_c_i[u]] of C/psi_j
        squares = all(
            thetas[j][proj_c_j[r]] == pos_q_j.get(int(trans_a[emb_q_i[thetas[i][u]]]))
            for u, r in enumerate(reps_c_i))
        if not squares:
            break

    return CenterCorrespondenceReport(
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
    if not is_regular(algebra, max_size):
        raise PreconditionError("center/completion comparison requires a regular algebra")
    completed = profinite_completion(algebra, max_size).completion
    center_of_completion, _ = center_algebra(completed)
    center, _ = center_algebra(algebra)
    completed_center = profinite_completion(center, max_size).completion
    return CenterCompletionReport(
        center_of_completion_size=center_of_completion.size,
        completion_of_center_size=completed_center.size,
        isomorphic=are_isomorphic(center_of_completion, completed_center),
    )
