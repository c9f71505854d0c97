"""Inverse systems, the profinite completion, and the center verifications."""

import dataclasses
import gc
import inspect
import itertools
import random
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import mvkit as mv
from mvkit.errors import DecompositionError, InternalConsistencyError

from conftest import (
    center_completion_by_threads,
    center_correspondence_by_loops,
    certificate_by_revalidation,
    inclusion_by_members,
    inverse_system_by_all_pairs,
    shuffled,
    threads_by_search,
)


def L(n):
    return mv.chain_algebra(n)


def test_inverse_system_of_a_chain():
    system = mv.build_inverse_system(L(3))
    assert len(system.ideals) == 2
    assert sorted(q.size for q in system.quotients) == [1, 3]
    # comparable pairs: (0,0), (0,improper), (improper,improper)
    assert len(system.transitions) == 3


def test_inverse_system_of_boolean_square():
    system = mv.build_inverse_system(mv.product([L(2), L(2)]))
    assert len(system.ideals) == 4
    sizes = sorted(len(i.members) for i in system.ideals)
    assert sizes == [1, 2, 2, 4]
    # Boolean square: zero below both maximals, improper above everything
    assert int(system.subset.sum()) == 4 + 5


def test_inverse_system_of_trivial_algebra():
    system = mv.build_inverse_system(mv.trivial_algebra())
    assert len(system.ideals) == 1
    assert system.quotients[0].size == 1


def test_transition_composition():
    A = mv.product([L(2), L(3)])
    system = mv.build_inverse_system(A)
    k = len(system.ideals)
    for i in range(k):
        for j in range(k):
            if not system.subset[i, j]:
                continue
            for m in range(k):
                if system.subset[j, m]:
                    left = system.transitions[(j, m)][system.transitions[(i, j)]]
                    assert np.array_equal(left, system.transitions[(i, m)])


def test_inverse_system_matches_all_pairs_oracle(family):
    rng = random.Random(59)
    for combo, algebra in family:
        A = shuffled(algebra, rng)
        system = mv.build_inverse_system(A)
        want = inverse_system_by_all_pairs(A)
        assert [i.members for i in system.ideals] == [i.members for i in want.ideals], combo
        assert system.projections.shape == (len(want.ideals), A.size)
        assert system.projections.tolist() == [list(p) for p in want.projections], combo
        assert len(system.quotients) == len(want.quotients)
        for q, w in zip(system.quotients, want.quotients):
            assert (q.size, q.zero, q.labels) == (w.size, w.zero, w.labels), combo
            assert np.array_equal(q.oplus_table, w.oplus_table), combo
            assert np.array_equal(q.neg_table, w.neg_table), combo
        assert len(system.transitions) == len(want.transitions), combo
        assert list(system.transitions) == list(want.transitions), combo
        for pair, t in want.transitions.items():
            assert np.array_equal(system.transitions[pair], t), (combo, pair)


def test_transitions_outside_the_comparable_pairs_raise_key_error():
    system = mv.build_inverse_system(mv.product([L(2), L(3)]))
    k = len(system.ideals)
    improper = k - 1
    assert (0, improper) in system.transitions
    assert (np.int64(0), np.uint16(improper)) in system.transitions   # as np.nonzero(system.subset) yields them
    malformed = ((0.5, 1), ("a", 0), 0, (True, 3), (np.True_, 3), (1,), (0, 1, 2), [0, improper], None)
    for pair in ((improper, 0), (1, 2), (2, 1), (0, k), (-1, 0)) + malformed:
        assert pair not in system.transitions
        assert system.transitions.get(pair) is None
        with pytest.raises(KeyError):
            system.transitions[pair]


def test_quotients_carry_the_decompose_certificate(family):
    rng = random.Random(61)
    for combo, algebra in family:
        for A in (algebra, shuffled(algebra, rng)):
            for ideal in mv.all_ideals(A):
                quot, _ = mv.quotient(A, ideal)
                cert = quot._cache.get("decomposition")
                if quot.size == 1:
                    assert cert is None
                    continue
                assert (cert.atoms, cert.chain_orders, cert.iso) == \
                    certificate_by_revalidation(quot), (combo, ideal)
                assert cert.digits.flags.c_contiguous and not cert.digits.flags.writeable
            completion = mv.profinite_completion(A).completion
            cert = completion._cache["decomposition"]
            assert (cert.atoms, cert.chain_orders, cert.iso) == \
                certificate_by_revalidation(completion), combo


def certified_threads(result):
    """Thread u of the completion: the classes of any preimage of u at every node."""
    system = result.system
    preimage = {u: a for a, u in enumerate(result.canonical_map)}
    return [tuple(p[preimage[u]] for p in system.projections)
            for u in range(result.thread_count)]


def test_thread_enumeration_matches_filter_oracle():
    for algebra in (L(3), mv.product([L(2), L(2)]), mv.product([L(2), L(3)])):
        result = mv.profinite_completion(algebra)
        system = result.system
        k = len(system.ideals)
        expected = set()
        for combo in itertools.product(*(range(q.size) for q in system.quotients)):
            ok = all(
                system.transitions[(i, j)][combo[i]] == combo[j]
                for i in range(k) for j in range(k)
                if system.subset[i, j]
            )
            if ok:
                expected.add(combo)
        assert set(threads_by_search(system)) == expected
        assert set(certified_threads(result)) == expected


def test_certified_threads_match_search_oracle(family):
    rng = random.Random(23)
    for combo, algebra in family:
        twisted = shuffled(algebra, rng)
        result = mv.profinite_completion(twisted)
        threads = certified_threads(result)
        # same threads, numbered in the oracle's (lexicographic) order
        assert threads == threads_by_search(result.system), combo
        # the completion tables are the componentwise operations on threads
        T = np.asarray(threads, dtype=np.int64)
        comp = result.completion
        for j, q in enumerate(result.system.quotients):
            col = T[:, j]
            assert np.array_equal(T[comp.oplus_table, j], q.oplus_table[np.ix_(col, col)]), combo
            assert np.array_equal(T[comp.neg_table, j], q.neg_table[col]), combo
        assert T[comp.zero].tolist() == [q.zero for q in result.system.quotients]


def test_completion_needs_no_deep_recursion():
    # 128 ideals: a search recursing once per ideal overflows this limit
    algebra = mv.product([L(2)] * 7)
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 80)
    try:
        result = mv.profinite_completion(algebra)
    finally:
        sys.setrecursionlimit(old_limit)
    assert len(result.system.ideals) == 128
    assert result.thread_count == 128 and result.is_isomorphism


def test_completion_examples():
    res = mv.profinite_completion(L(3))
    assert res.thread_count == 3 and res.is_isomorphism

    A = mv.product([L(2), L(3)])
    res = mv.profinite_completion(A)
    assert res.is_isomorphism
    assert mv.are_isomorphic(res.completion, A)

    res = mv.profinite_completion(mv.trivial_algebra())
    assert res.thread_count == 1 and res.is_isomorphism


def test_completion_is_the_algebra_on_its_own_tables(family):
    """Node 0 is the zero ideal, the least node, and its projection is the
    identity, so the canonical map is the identity and the completion has
    A's tables and certificate; the trivial algebra's completion has none."""
    rng = random.Random(47)
    for combo, algebra in family:
        for A in (algebra, shuffled(algebra, rng)):
            result = mv.profinite_completion(A)
            system, completion = result.system, result.completion
            assert system.ideals[0].members == frozenset({A.zero}), combo
            assert system.subset[0].all(), combo
            assert np.array_equal(system.projections[0], np.arange(A.size)), combo
            assert result.canonical_map == tuple(range(A.size)), combo
            assert completion.zero == A.zero, combo
            assert np.array_equal(completion.oplus_table, A.oplus_table), combo
            assert np.array_equal(completion.neg_table, A.neg_table), combo
            got, want = completion._cache["decomposition"], mv.decompose(A)
            assert (got.atoms, got.chain_orders) == (want.atoms, want.chain_orders), combo
            assert np.array_equal(got.digits, want.digits), combo
    with pytest.raises(DecompositionError):
        mv.decompose(mv.profinite_completion(mv.trivial_algebra()).completion)


def test_completion_canonical_map_kernel_and_image(family):
    rng = random.Random(11)
    for combo, algebra in family:
        if algebra.size > 48:
            continue
        res = mv.profinite_completion(algebra)
        can = res.canonical_map
        zero_pre = [a for a in range(algebra.size) if can[a] == res.completion.zero]
        assert zero_pre == [algebra.zero]
        assert set(can) == set(range(res.thread_count))


def test_completion_threads_form_valid_algebra(family):
    for combo, algebra in family:
        if algebra.size > 36:
            continue
        res = mv.profinite_completion(algebra)
        mv.from_tables(*mv.as_tables(res.completion))


def test_completion_of_shuffled_algebras(family):
    rng = random.Random(3)
    for combo, algebra in family:
        if algebra.size > 36:
            continue
        twisted = shuffled(algebra, rng)
        assert mv.profinite_completion(twisted).is_isomorphism


def test_center_correspondence_examples():
    A = mv.product([L(2), L(3)])
    report = mv.verify_center_correspondence(A)
    assert report.ok
    assert report.ideal_count == report.center_ideal_count == 4

    report = mv.verify_center_correspondence(L(5))
    assert report.ok and report.ideal_count == 2

    square = mv.product([L(2), L(2)])
    report = mv.verify_center_correspondence(square)
    assert report.ok and report.ideal_count == 4


def test_center_verifications_survive_relabeling():
    rng = random.Random(77)
    for combo in [(2, 3), (2, 2, 3), (4, 5)]:
        algebra = mv.product([L(n) for n in combo])
        twisted = shuffled(algebra, rng)
        assert mv.verify_center_correspondence(twisted).ok
        assert mv.verify_center_completion_commute(twisted).ok


def test_center_correspondence_matches_loop_oracle(family):
    rng = random.Random(67)
    for combo, algebra in family:
        A = shuffled(algebra, rng)
        assert vars(mv.verify_center_correspondence(A)) == \
            vars(center_correspondence_by_loops(A)), combo


def test_center_completion_matches_thread_oracle(family):
    rng = random.Random(71)
    for combo, algebra in family:
        A = shuffled(algebra, rng)
        assert vars(mv.verify_center_completion_commute(A)) == \
            vars(center_completion_by_threads(A)), combo
    for A in (mv.trivial_algebra(), L(7)):
        assert vars(mv.verify_center_completion_commute(A)) == vars(center_completion_by_threads(A))


def test_center_completion_examples():
    A = mv.product([L(2), L(3)])
    report = mv.verify_center_completion_commute(A)
    assert report.ok
    assert report.center_of_completion_size == report.completion_of_center_size == 4

    for n in (2, 4, 6):
        report = mv.verify_center_completion_commute(L(n))
        assert report.ok and report.center_of_completion_size == 2

    cube = mv.product([L(2)] * 3)
    report = mv.verify_center_completion_commute(cube)
    assert report.ok and report.center_of_completion_size == 8


def test_algebra_is_freed_without_the_cycle_collector():
    """The ideal lattice cached on an algebra holds no reference back to it."""
    gc.disable()
    try:
        alg = mv.product([mv.chain_algebra(3), mv.chain_algebra(4)])
        for ideal in mv.all_ideals(alg):
            mv.classify(alg, ideal)
        system = mv.build_inverse_system(alg)
        system.quotients[0]
        system.transitions[(0, len(system.ideals) - 1)]
        system.projections, system.reps
        mv.profinite_completion(alg)
        assert "ideal_lattice" in alg._cache
        ref = weakref.ref(alg)
        del alg, ideal, system
        assert ref() is None
    finally:
        gc.enable()


def test_node_classes_are_numbered_on_first_read_only():
    """Building the system, alone or inside the completion, numbers no
    class: `projections` and `reps` come from `ideals.classes` on first read
    and are kept, read-only."""
    A = mv.product([L(2), L(3), L(2)])
    for system in (mv.build_inverse_system(A), mv.profinite_completion(A).system):
        assert "projections" not in vars(system) and "reps" not in vars(system)
        first = system.projections
        assert system.projections is first and not first.flags.writeable
        assert system.reps is system.reps and not any(r.flags.writeable for r in system.reps)


def test_inclusion_matrix_is_built_on_first_read_only(family):
    """On 2^12 (4096 ideals) building the system, alone or inside the
    completion, both center reports, a transition and `len(transitions)`
    (3^12, read off the bitmask test) build no 4^k inclusion matrix: none
    is kept and the traced peak stays under half its 16 MB.  `subset` is
    built on first read, kept and read-only, and on the shuffled family it
    is the member-set inclusion."""
    A = mv.product([L(2)] * 12)
    tracemalloc.start()
    try:
        systems = [mv.build_inverse_system(A), mv.profinite_completion(A).system]
        assert mv.verify_center_correspondence(A).ok and mv.verify_center_completion_commute(A).ok
        assert systems[0].transitions[(0, 4095)].tolist() == [0] * 4096
        assert len(systems[0].transitions) == 3 ** 12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 ** 12 // 2 and not any("subset" in vars(system) for system in systems)
    first = systems[0].subset
    assert systems[0].subset is first and not first.flags.writeable and first.shape == (4096, 4096)
    rng = random.Random(113)
    for combo, algebra in family:
        system = mv.build_inverse_system(shuffled(algebra, rng))
        assert np.array_equal(system.subset, inclusion_by_members(system.ideals)), combo
        assert list(system.transitions) == list(zip(*(a.tolist() for a in np.nonzero(system.subset)))), combo
        assert len(system.transitions) == int(system.subset.sum()), combo


def test_projections_and_reps_share_one_numbering(monkeypatch):
    """Reading both `projections` and `reps` numbers each node once."""
    calls = []
    counted = mv.completion.classes
    monkeypatch.setattr(mv.completion, "classes", lambda *args: calls.append(1) or counted(*args))
    system = mv.build_inverse_system(mv.product([L(3), L(2), L(4)]))
    system.projections, system.reps
    assert len(calls) == len(system.ideals) == 8


def test_every_reader_numbers_each_node_once(monkeypatch):
    """Reading every transition numbers each node once; the quotients (by
    index and negative index), `projections` and `reps` read after them
    number nothing more, and each transition is still projections[j][reps[i]]."""
    calls = []
    counted = mv.completion.classes
    monkeypatch.setattr(mv.completion, "classes", lambda *args: calls.append(1) or counted(*args))
    system = mv.build_inverse_system(mv.product([L(3), L(2), L(4)]))
    transitions = {pair: system.transitions[pair] for pair in system.transitions}
    assert len(calls) == len(system.ideals) == 8
    quotients = list(system.quotients) + [system.quotients[-1]]
    projections, reps = system.projections, system.reps
    assert len(calls) == 8 and [q.size for q in quotients] == [len(r) for r in reps + reps[-1:]]
    for (i, j), transition in transitions.items():
        assert transition.tolist() == projections[j][reps[i]].tolist() == system.transitions[(i, j)].tolist()


def test_inverse_system_rejects_a_corrupted_certificate():
    """The digit-row swaps of `test_quotient_rejects_a_corrupted_certificate`
    (two elements in different classes of a proper nonzero ideal) are caught
    by the per-atom check alone, with the lattice of the valid certificate
    kept, and again with the lattice rebuilt from the corrupted one."""
    A = mv.product([L(3), L(2), L(4)])
    ideals = mv.all_ideals(A)
    cert, core = A._cache["decomposition"], A._cache["ideal_lattice"]
    pairs = set()
    for ideal in ideals:
        if len(ideal) not in (1, A.size):
            proj = mv.quotient(A, ideal)[1]
            pairs |= {(x, y) for x, y in itertools.combinations(range(A.size), 2) if proj[x] != proj[y]}
    assert pairs
    try:
        for x, y in sorted(pairs):
            digits = np.array(cert.digits)
            digits[[x, y]] = digits[[y, x]]
            A._cache["decomposition"] = dataclasses.replace(cert, digits=digits)
            for build in (mv.build_inverse_system, mv.profinite_completion,
                          mv.verify_center_correspondence, mv.verify_center_completion_commute):
                A._cache["ideal_lattice"] = core
                with pytest.raises(InternalConsistencyError):
                    build(A)
                del A._cache["ideal_lattice"]
                with pytest.raises(InternalConsistencyError):
                    build(A)
    finally:
        A._cache.update(decomposition=cert, ideal_lattice=core)


def test_center_check_catches_digits_relabeled_inside_a_chain():
    """Relabeling one chain's digits, 0 kept fixed, commutes with zeroing a
    coordinate, so the per-atom check of `build_inverse_system` passes; but
    the certificate then names a wrong center, and theta's check reports it."""
    A = mv.product([L(3), L(2)])
    cert = A._cache["decomposition"]
    assert mv.verify_center_correspondence(A).ok
    digits = np.array(cert.digits)
    col = cert.chain_orders.index(3)
    digits[:, col] = np.array([0, 2, 1])[digits[:, col]]   # 1/2 and 1 swapped
    try:
        A._cache.clear()
        A._cache["decomposition"] = dataclasses.replace(cert, digits=digits)
        mv.build_inverse_system(A)
        report = mv.verify_center_correspondence(A)
        assert not report.quotient_isos_ok and not report.squares_ok
        assert report.psi_well_defined and report.ideal_count == 4
    finally:
        A._cache.clear()
        A._cache["decomposition"] = cert


def center_keys_by_nodes(algebra):
    """The per-node check the center correspondence made before its one
    check: at every node, keyed by x (.) neg g, the keys of the center's
    members are exactly the keys whose class is central (key(x ^ neg x)
    equals key 0)."""
    system = mv.build_inverse_system(algebra)
    emb = np.asarray(mv.boolean_center(algebra)[0])
    self_meet = mv.finite._self_meet(algebra).astype(np.intp)
    for ideal in system.ideals:
        key = algebra.neg_table.take(algebra.oplus_table[ideal.generator].take(algebra.neg_table)).astype(np.intp)
        hit = np.zeros(algebra.size, dtype=bool)
        hit[key.take(emb)] = True
        if not (hit.take(key) == (key.take(self_meet) == key[algebra.zero])).all():
            return False
    return True


def test_center_check_matches_the_per_node_key_check(family):
    """The one center check reads as the per-node key check it replaced, on
    the shuffled family, on 2^10 x L4 (2048 nodes, a center that is not A)
    and on the chain-relabeled certificate both refuse."""
    rng = random.Random(107)
    cases = [shuffled(algebra, rng) for _, algebra in family]
    cases += [mv.product([L(2)] * 10 + [L(4)]), mv.trivial_algebra()]
    for A in cases:
        report = mv.verify_center_correspondence(A)
        assert report.quotient_isos_ok is report.squares_ok is center_keys_by_nodes(A) is True, A.size
    A = mv.product([L(3), L(2)])
    cert = A._cache["decomposition"]
    digits = np.array(cert.digits)
    col = cert.chain_orders.index(3)
    digits[:, col] = np.array([0, 2, 1])[digits[:, col]]   # 1/2 and 1 swapped
    A._cache.clear()
    A._cache["decomposition"] = dataclasses.replace(cert, digits=digits)
    assert mv.verify_center_correspondence(A).quotient_isos_ok is center_keys_by_nodes(A) is False


def test_lattice_readers_build_no_member_set(monkeypatch):
    """On 2^12 (4096 ideals) the completion, both center reports and the
    maximal decomposition of the zero ideal read no ideal's member set: the
    cached lattice is arrays, and a library `Ideal` builds its members on
    first read only, as the digit-zero sets for the maximal ideals."""
    reads = []
    members = mv.ideals.Ideal.members
    monkeypatch.setattr(mv.ideals.Ideal, "members", property(lambda ideal: reads.append(1) or members.fget(ideal)))
    A = mv.product([L(2)] * 12)
    result = mv.profinite_completion(A)
    assert mv.verify_center_completion_commute(A).ok and mv.verify_center_correspondence(A).ok
    parts = mv.maximal_decomposition(A, mv.zero_ideal(A))
    assert reads == [] and result.thread_count == len(result.system.ideals) == 4096
    assert all(ideal._members is None for ideal in result.system.ideals + parts)
    assert all(isinstance(value, np.ndarray) for value in vars(A._cache["ideal_lattice"]).values())
    digits = A._cache["decomposition"].digits
    assert sorted(sorted(p.members) for p in parts) == sorted(np.flatnonzero(col == 0).tolist() for col in digits.T)
    assert len(reads) == 12


def test_analysis_layers_take_an_algebra_past_the_default_cap():
    """The carrier cap is checked where an algebra is admitted and nowhere
    after: a chain built past the default cap of 4096 goes through every
    lattice and completion layer, which agree with `generated_ideal`."""
    A = L(mv.DEFAULT_MAX_SIZE + 1)
    zero, whole = mv.generated_ideal(A, [A.zero]), mv.generated_ideal(A, [A.one])
    assert mv.all_ideals(A) == (zero, whole)
    assert mv.classify(A, zero) == mv.IdealClassification(True, True, True, A.size, A.zero)
    assert mv.classify(A, whole) == mv.IdealClassification(False, False, False, None, A.one)
    assert mv.is_regular(A)
    system = mv.build_inverse_system(A)
    assert system.ideals == (zero, whole)
    assert [q.size for q in system.quotients] == [A.size, 1]
    result = mv.profinite_completion(A)
    assert result.is_isomorphism and result.thread_count == A.size
    assert result.system.ideals == (zero, whole)
    report = mv.verify_center_correspondence(A)
    assert report.ok and report.ideal_count == report.center_ideal_count == 2
    commute = mv.verify_center_completion_commute(A)
    assert commute.ok and commute.center_of_completion_size == commute.completion_of_center_size == 2
