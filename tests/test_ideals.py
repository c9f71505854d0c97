"""Ideal generation, enumeration, classification, quotients, decomposition."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

import mvkit as mv
from mvkit import data
from mvkit.cli import parse_algebra_document
from mvkit.errors import (
    InternalConsistencyError,
    NotAnIdealError,
    PreconditionError,
)

from conftest import (
    check_induced_sum,
    classes_by_unique,
    classify_by_scan,
    congruence_failures,
    ideal_by_closure,
    ideals_by_closure,
    ideals_by_subset_scan,
    is_ideal_by_clauses,
    is_regular_by_lattice,
    lattice_by_center,
    maximal_decomposition_by_quotient,
    quotient_by_distance,
    shuffled,
)


def L(n):
    return mv.chain_algebra(n)


def two_by_three():
    return mv.product([L(2), L(3)])


def test_generated_ideal_example():
    A = two_by_three()
    half = A.labels.index("(0,1/2)")
    ideal = mv.generated_ideal(A, {half})
    assert {A.label(m) for m in ideal.members} == {"(0,0)", "(0,1/2)", "(0,1)"}


def test_generated_ideal_degenerate_seeds():
    A = two_by_three()
    assert mv.generated_ideal(A, set()).members == {A.zero}
    assert mv.generated_ideal(A, {A.zero}).members == {A.zero}
    assert len(mv.generated_ideal(A, {A.one})) == A.size


def test_generated_ideal_is_downset_of_sum_multiples(family):
    for combo, algebra in family:
        if algebra.size > 27:
            continue
        for a in range(algebra.size):
            # saturate a (+) ... (+) a and take the downset
            acc = a
            seen = {acc}
            while True:
                nxt = algebra.op(acc, a)
                if nxt in seen:
                    break
                seen.add(nxt)
                acc = nxt
            expected = frozenset(
                x for x in range(algebra.size) if algebra.leq(x, acc)
            )
            assert mv.generated_ideal(algebra, {a}).members == expected


def test_all_ideals_examples():
    A = two_by_three()
    ideals = mv.all_ideals(A)
    assert len(ideals) == 4
    member_sets = {i.members for i in ideals}
    by_label = lambda *names: frozenset(A.labels.index(n) for n in names)
    assert by_label("(0,0)") in member_sets
    assert by_label("(0,0)", "(1,0)") in member_sets
    assert by_label("(0,0)", "(0,1/2)", "(0,1)") in member_sets
    assert frozenset(range(6)) in member_sets

    for n in (2, 3, 5, 7):
        assert len(mv.all_ideals(L(n))) == 2
    assert len(mv.all_ideals(mv.trivial_algebra())) == 1


def test_all_ideals_matches_subset_oracle():
    samples = [
        two_by_three(),
        mv.product([L(4), L(2)]),
        mv.product([L(3), L(3)]),
        mv.product([L(2), L(2), L(3)]),
        mv.product([L(2)] * 4),
        L(16),
        mv.product([L(4), L(4)]),
    ]
    for algebra in samples:
        assert algebra.size <= 16
        expected = ideals_by_subset_scan(algebra)
        got = {i.members for i in mv.all_ideals(algebra)}
        assert got == expected


def test_classify_examples():
    A = two_by_three()
    first_kernel = mv.make_ideal(A, [A.labels.index("(0,0)"), A.labels.index("(1,0)")])
    cls = mv.classify(A, first_kernel)
    assert cls.maximal and cls.prime and cls.proper and cls.rank == 3

    zero = mv.zero_ideal(A)
    cls = mv.classify(A, zero)
    assert cls.proper and not cls.prime and not cls.maximal and cls.rank is None

    cls = mv.classify(L(4), mv.zero_ideal(L(4)))
    assert cls.maximal and cls.rank == 4

    improper = mv.classify(A, mv.improper_ideal(A))
    assert not improper.proper and not improper.prime and not improper.maximal


def test_classification_implications(family):
    for combo, algebra in family:
        for ideal in mv.all_ideals(algebra):
            cls = mv.classify(algebra, ideal)
            if cls.maximal:
                assert cls.prime
            if cls.prime:
                assert cls.proper
            # principal generator regenerates the ideal
            assert mv.generated_ideal(algebra, {cls.principal_generator}).members == ideal.members


def test_quotient_examples():
    A = two_by_three()
    second_kernel = mv.make_ideal(
        A, [A.labels.index(n) for n in ("(0,0)", "(0,1/2)", "(0,1)")])
    Q, proj = mv.quotient(A, second_kernel)
    assert mv.are_isomorphic(Q, L(2))

    same, proj = mv.quotient(A, mv.zero_ideal(A))
    assert mv.are_isomorphic(same, A)
    assert sorted(proj) == list(range(A.size))

    one_point, proj = mv.quotient(A, mv.improper_ideal(A))
    assert one_point.size == 1 and set(proj) == {0}


def test_quotient_projection_is_homomorphism(family):
    for combo, algebra in family:
        if algebra.size > 27:
            continue
        for ideal in mv.all_ideals(algebra):
            quot, proj = mv.quotient(algebra, ideal)
            mv.from_tables(*mv.as_tables(quot), labels=quot.labels)
            for x in range(algebra.size):
                assert quot.neg(proj[x]) == proj[algebra.neg(x)]
                for y in range(algebra.size):
                    assert quot.op(proj[x], proj[y]) == proj[algebra.op(x, y)]
            kernel = {x for x in range(algebra.size) if proj[x] == proj[algebra.zero]}
            assert kernel == set(ideal.members)


def test_quotient_classes_match_two_sided_congruence_oracle(family):
    # d(x,y) in I decomposes as: both one-sided differences land in I
    for combo, algebra in family:
        if algebra.size > 36:
            continue
        for ideal in mv.all_ideals(algebra):
            quot, proj = mv.quotient(algebra, ideal)
            for x in range(algebra.size):
                for y in range(algebra.size):
                    left = algebra.neg(algebra.op(algebra.neg(x), y))
                    right = algebra.neg(algebra.op(x, algebra.neg(y)))
                    related = left in ideal.members and right in ideal.members
                    assert related == (proj[x] == proj[y])


def test_quotient_size_equals_rank(family):
    for combo, algebra in family:
        for ideal in mv.all_ideals(algebra):
            cls = mv.classify(algebra, ideal)
            if cls.maximal:
                assert mv.quotient(algebra, ideal)[0].size == cls.rank


def test_maximal_decomposition_examples():
    A = two_by_three()
    parts = mv.maximal_decomposition(A, mv.zero_ideal(A))
    assert {p.members for p in parts} == {
        i.members for i in mv.all_ideals(A)
        if mv.classify(A, i).maximal
    }

    # a maximal ideal decomposes as itself
    for ideal in mv.all_ideals(A):
        if mv.classify(A, ideal).maximal:
            assert mv.maximal_decomposition(A, ideal) == (ideal,)

    B = mv.product([L(2), L(2), L(3)])
    # kernel of the first two projections: elements zero in coordinates 0 and 1
    members = [x for x in range(B.size) if B.labels[x].startswith("(0,0,")]
    ideal = mv.make_ideal(B, members)
    parts = mv.maximal_decomposition(B, ideal)
    maximals_containing = [
        i.members for i in mv.all_ideals(B)
        if mv.classify(B, i).maximal and ideal.members <= i.members
    ]
    assert len(parts) == 2
    assert {p.members for p in parts} == set(maximals_containing)


def test_maximal_decomposition_rejects_improper():
    A = two_by_three()
    with pytest.raises(PreconditionError):
        mv.maximal_decomposition(A, mv.improper_ideal(A))


def test_maximal_intersection_both_directions(family):
    for combo, algebra in family:
        ideals = mv.all_ideals(algebra)
        maximals = [i for i in ideals if mv.classify(algebra, i).maximal]
        assert len(maximals) == len(combo)
        ranks = sorted(mv.classify(algebra, m).rank for m in maximals)
        assert ranks == sorted(combo)
        for ideal in ideals:
            if not ideal.is_proper:
                continue
            parts = mv.maximal_decomposition(algebra, ideal)
            meet = frozenset(range(algebra.size))
            for p in parts:
                meet &= p.members
            assert meet == ideal.members
        for r in range(1, len(maximals) + 1):
            for subset in itertools.combinations(maximals, r):
                meet = frozenset(range(algebra.size))
                for p in subset:
                    meet &= p.members
                assert mv.is_ideal(algebra, meet)


def test_non_ideals_rejected():
    A = two_by_three()
    with pytest.raises(NotAnIdealError):
        mv.make_ideal(A, [A.labels.index("(0,1/2)")])      # missing zero
    with pytest.raises(NotAnIdealError):
        mv.quotient(A, mv.Ideal(A, frozenset({A.zero, A.one})))  # not downward closed
    with pytest.raises(NotAnIdealError):
        mv.make_ideal(A, [0, 99])
    with pytest.raises(NotAnIdealError, match=r"is not an ideal"):
        mv.classify(A, mv.Ideal(A, frozenset({A.zero, A.one})))


def test_member_mask_matches_the_loop_it_replaced():
    """The whole-array mask equals the per-member loop, and an out-of-range
    index is reported as the loop did: the first one in iteration order."""
    from mvkit.ideals import _member_mask

    def loop_mask(n, members):
        mask = np.zeros(n, dtype=bool)
        for x in members:
            if not 0 <= x < n:
                return f"element index {x} out of range"
            mask[x] = True
        return mask.tolist()

    A = mv.product([L(2), L(3)])
    rng = random.Random(41)
    for _ in range(300):
        members = [rng.choice([-2**70, -1, 0, 3, 5, 6, 2**40]) if rng.random() < 0.2 else rng.randrange(6)
                   for _ in range(rng.randrange(5))]
        for container in (list, frozenset, iter):
            try:
                got = _member_mask(A, container(members)).tolist()
            except NotAnIdealError as exc:
                got = str(exc)
            assert got == loop_mask(A.size, container(members)), members


def test_quotient_guards_table_corruption():
    import numpy as np

    from mvkit.errors import InternalConsistencyError

    broken = np.array(mv.chain_algebra(4).oplus_table)
    broken[1, 2] = broken[2, 1] = 1
    corrupt = mv.FiniteMVAlgebra(4, 0, broken, [3, 2, 1, 0])
    with pytest.raises(InternalConsistencyError):
        mv.quotient(corrupt, mv.Ideal(corrupt, frozenset({0})))


def test_is_regular_examples(family):
    assert mv.is_regular(two_by_three())
    for n in (2, 3, 4, 7):
        assert mv.is_regular(L(n))
    assert mv.is_regular(mv.product([L(2)] * 3))
    for combo, algebra in family:
        if algebra.size <= 48:
            assert mv.is_regular(algebra)


def test_is_regular_matches_lattice_oracle(family):
    rng = random.Random(43)
    cases = [shuffled(algebra, rng) for _, algebra in family]
    cases += [L(n) for n in range(2, 9)] + [mv.trivial_algebra()]
    for A in cases:
        assert mv.is_regular(A) == is_regular_by_lattice(A), A.size


def test_ideal_lattice_matches_oracles(family):
    rng = random.Random(31)
    for combo, algebra in family:
        A = shuffled(algebra, rng)
        lattice, ideals = mv.ideals.ideal_lattice(A), mv.all_ideals(A)
        subset = mv.build_inverse_system(A).subset
        expected = ideals_by_closure(A)
        assert [i.members for i in ideals] == expected, combo
        for i, mi in enumerate(expected):
            cls = classify_by_scan(A, mi, expected)
            assert lattice.generators[i] == cls.principal_generator, combo
            assert mv.classify(A, ideals[i]) == cls, combo
            for j, mj in enumerate(expected):
                assert subset[i, j] == (mi <= mj), combo
            if cls.proper:
                parts = mv.maximal_decomposition(A, ideals[i])
                assert [p.members for p in parts] == maximal_decomposition_by_quotient(A, mi), combo
        for _ in range(8):
            seed = rng.sample(range(A.size), rng.randint(0, min(3, A.size)))
            assert mv.generated_ideal(A, seed).members == ideal_by_closure(A, seed), combo


def test_quotient_matches_distance_oracle(family):
    rng = random.Random(47)
    for combo, algebra in family:
        A = shuffled(algebra, rng)
        for ideal in mv.all_ideals(A):
            quot, proj = mv.quotient(A, ideal)
            want, want_proj = quotient_by_distance(A, ideal)
            assert proj == want_proj, (combo, ideal)
            assert (quot.size, quot.zero, quot.labels) == (want.size, want.zero, want.labels), combo
            assert (quot.oplus_table == want.oplus_table).all(), (combo, ideal)
            assert (quot.neg_table == want.neg_table).all(), (combo, ideal)


def test_is_ideal_matches_clause_oracle(family):
    rng = random.Random(53)
    for combo, algebra in family:
        A = shuffled(algebra, rng)
        ideals = mv.all_ideals(A)
        cases = [rng.sample(range(A.size), rng.randint(0, A.size)) for _ in range(20)]
        for ideal in ideals:
            x = rng.randrange(A.size)
            cases.append(sorted(ideal.members ^ {x}))           # one element more or less
            cases.append(sorted(ideal.members - {A.zero}))      # without zero
        for members in cases:
            assert mv.is_ideal(A, members) == is_ideal_by_clauses(A, members), (combo, members)
        assert all(mv.is_ideal(A, ideal.members) for ideal in ideals)


def test_quotient_at_cap_builds_no_distance_table():
    A = mv.product([L(2)] * 12)
    assert A.size == 4096
    first_digit_zero = mv.Ideal(A, frozenset(range(2048)))    # a maximal ideal
    quot, proj = mv.quotient(A, first_digit_zero)
    assert quot.size == 2 and proj == tuple(x // 2048 for x in range(4096))
    assert set(A._cache) == {"decomposition"}     # no order matrix or other n x n table
    check_induced_sum(A, proj, quot.oplus_table)


def test_certificate_readers_match_oracles():
    """quotient and maximal_decomposition read off a product's composed
    certificate agree with the distance-table and quotient oracles."""
    rng = random.Random(83)
    for orders in ([2] * 8, [3, 3, 3], [4, 2, 3], [5, 5], [2, 2, 3, 3], [4, 4, 4], [2, 5, 2, 3],
                   [2, 3, 4, 5, 6], [2, 2, 2, 4, 2, 6, 2]):    # the last two: cap's n = 720 and 768
        A = mv.product([L(n) for n in orders])
        assert "decomposition" in A._cache, orders
        for maximal in mv.maximal_decomposition(A, mv.zero_ideal(A)):
            mv.quotient(A, maximal)
        assert "leq" not in A._cache, orders    # neither reader built the order matrix
        ideals = mv.all_ideals(A)
        for ideal in rng.sample(ideals, min(24, len(ideals))):
            quot, proj = mv.quotient(A, ideal)
            want, want_proj = quotient_by_distance(A, ideal)
            assert proj == want_proj, (orders, ideal)
            assert (quot.size, quot.zero, quot.labels) == (want.size, want.zero, want.labels)
            assert (quot.oplus_table == want.oplus_table).all(), (orders, ideal)
            assert (quot.neg_table == want.neg_table).all(), (orders, ideal)
            if ideal.is_proper:
                parts = mv.maximal_decomposition(A, ideal)
                assert [p.members for p in parts] == maximal_decomposition_by_quotient(A, ideal.members)


def test_quotient_rejects_a_corrupted_certificate():
    """Swapping the digit rows of two elements in different classes is caught.
    The zero ideal is left out: its classes are single elements, so its
    quotient is the identity whatever the digits say."""
    A = mv.product([L(3), L(2), L(4)])
    cert = A._cache["decomposition"]
    for ideal in mv.all_ideals(A):
        if len(ideal) in (1, A.size):
            continue
        _, proj = mv.quotient(A, ideal)
        for x, y in itertools.combinations(range(A.size), 2):
            if proj[x] == proj[y]:
                continue
            digits = np.array(cert.digits)
            digits[[x, y]] = digits[[y, x]]
            A._cache["decomposition"] = dataclasses.replace(cert, digits=digits)
            with pytest.raises(InternalConsistencyError):
                mv.quotient(A, ideal)
        A._cache["decomposition"] = cert


def test_ideal_lattice_matches_center_oracle(family):
    """The coordinate-set lattice equals the one read off the Boolean center."""
    rng = random.Random(89)
    for combo, algebra in family + [((), mv.trivial_algebra())]:
        A = shuffled(algebra, rng)
        lattice, ideals, want = mv.ideals.ideal_lattice(A), mv.all_ideals(A), lattice_by_center(A)
        assert [i.members for i in ideals] == want.members, combo
        assert [i.generator for i in ideals] == want.generators.tolist(), combo
        flags = [mv.classify(A, i) for i in ideals]
        for got, expected in ((lattice.generators, want.generators),
                              (mv.build_inverse_system(A).subset, want.subset),
                              ([f.prime for f in flags], want.prime), ([f.maximal for f in flags], want.maximal)):
            assert np.array_equal(got, expected), combo


def test_classes_match_the_checked_oracle(family):
    """`classes` equals the sorted numbering, the partition passes the three
    checks the certificate check implies, and a caller's `Ideal` (no
    generator) gets the same classes as the lattice's.  Besides the family,
    the maximal ideals of a shuffled n = 720 product, the size the cap
    benchmark quotients at."""
    rng = random.Random(97)
    cases = []
    for combo, algebra in family:
        A = shuffled(algebra, rng)
        cases.append((combo, A, mv.all_ideals(A)))
    big = shuffled(mv.product([L(n) for n in (2, 3, 4, 5, 6)]), rng)
    cases.append(((2, 3, 4, 5, 6), big, mv.maximal_decomposition(big, mv.zero_ideal(big))))
    for combo, A, ideals in cases:
        for ideal in ideals:
            class_of, reps = mv.ideals.classes(A, ideal)
            want_class_of, want_reps = classes_by_unique(A, ideal)
            assert class_of.tolist() == want_class_of.tolist() and reps.tolist() == want_reps.tolist()
            assert congruence_failures(A, ideal.members, class_of, reps) == [], (combo, ideal)
            bare = mv.Ideal(A, ideal.members)
            assert bare.generator is None and bare == ideal
            assert mv.ideals.classes(A, bare)[0].tolist() == class_of.tolist()


def test_quotient_path_keeps_its_array_contract():
    """`classes` returns a read-only, C-contiguous `index_dtype(n)` class_of
    and read-only, ascending intp reps; `quotient` returns read-only
    `index_dtype(m)` tables, C-contiguous read-only certificate digits and a
    tuple of Python ints equal to class_of.  On every maximal ideal of cap's
    two mid-size shapes, shuffled (n = 720 and 768), and of a labeled
    truncation, and on the trivial algebra."""
    rng = random.Random(101)
    spec = parse_algebra_document(data.load("example_4_5"))[1]
    cases = [shuffled(mv.product([L(n) for n in orders]), rng) for orders in ([2, 3, 4, 5, 6], [2, 2, 2, 4, 2, 6, 2])]
    cases += [mv.truncate(spec, 4), mv.trivial_algebra()]
    assert [A.size for A in cases] == [720, 768, 120, 1] and cases[2].labels is not None
    for A in cases:
        ideals = mv.maximal_decomposition(A, mv.zero_ideal(A)) if A.size > 1 else [mv.zero_ideal(A)]
        for ideal in ideals:
            class_of, reps = mv.ideals.classes(A, ideal)
            assert class_of.dtype == mv.finite.index_dtype(A.size) and class_of.flags.c_contiguous
            assert not class_of.flags.writeable and not reps.flags.writeable
            assert reps.dtype == np.intp and (np.diff(reps) > 0).all()
            quot, proj = mv.quotient(A, ideal)
            for table in (quot.oplus_table, quot.neg_table):
                assert table.dtype == mv.finite.index_dtype(quot.size) and not table.flags.writeable
            if quot.size > 1:
                digits = quot._cache["decomposition"].digits
                assert digits.flags.c_contiguous and not digits.flags.writeable
            assert type(proj) is tuple and all(type(c) is int for c in proj)
            assert list(proj) == class_of.tolist()


def test_certificate_check_catches_what_the_three_checks_catch():
    """On the digit-row swaps of `test_quotient_rejects_a_corrupted_certificate`
    the classes the corrupted certificate asserts (x grouped by its digits off
    the ideal's coordinates) fail one of the congruence, negation and kernel
    checks, and `classes` refuses the corruption by its key check alone."""
    A = mv.product([L(3), L(2), L(4)])
    cert = A._cache["decomposition"]
    try:
        for ideal in mv.all_ideals(A):
            if len(ideal) in (1, A.size):
                continue
            A._cache["decomposition"] = cert
            proj = mv.quotient(A, ideal)[1]
            for x, y in itertools.combinations(range(A.size), 2):
                if proj[x] == proj[y]:
                    continue
                digits = np.array(cert.digits)
                digits[[x, y]] = digits[[y, x]]
                A._cache["decomposition"] = dataclasses.replace(cert, digits=digits)
                kept = digits * (digits[ideal.generator] == 0)
                _, first, inverse = np.unique(kept, axis=0, return_index=True, return_inverse=True)
                reps, class_of = np.unique(first[inverse.ravel()], return_inverse=True)
                assert congruence_failures(A, ideal.members, class_of, reps), (ideal, x, y)
                with pytest.raises(InternalConsistencyError):
                    mv.ideals.classes(A, ideal)
    finally:
        A._cache["decomposition"] = cert


def test_maximal_decomposition_on_a_corrupted_certificate():
    """A genuine ideal whose intersection check fails under a digit-row swap
    is a broken certificate (InternalConsistencyError), whether the `Ideal`
    came from the lattice or from the caller; a set that is not an ideal is
    still NotAnIdealError."""
    A = mv.product([L(3), L(2), L(4)])
    cert = A._cache["decomposition"]
    proper = [ideal for ideal in mv.all_ideals(A) if ideal.is_proper]
    refused = 0
    try:
        for x, y in itertools.combinations(range(A.size), 2):
            digits = np.array(cert.digits)
            digits[[x, y]] = digits[[y, x]]
            A._cache["decomposition"] = dataclasses.replace(cert, digits=digits)
            for ideal in proper:
                for given in (ideal, mv.Ideal(A, ideal.members)):
                    try:
                        mv.maximal_decomposition(A, given)
                    except InternalConsistencyError:
                        refused += 1
        assert refused
        with pytest.raises(NotAnIdealError):
            mv.maximal_decomposition(A, mv.Ideal(A, frozenset({A.zero, A.one})))
    finally:
        A._cache["decomposition"] = cert


def test_ideal_lattice_checks_generator_supports():
    """Swapping the digit rows of two atoms gives the generators of {0} and
    {1} the wrong supports, and the lattice pass refuses the certificate."""
    A = mv.product([L(3), L(2), L(4)])
    cert = A._cache["decomposition"]
    digits = np.array(cert.digits)
    digits[list(cert.atoms[:2])] = digits[list(cert.atoms[1::-1])]
    A._cache["decomposition"] = dataclasses.replace(cert, digits=digits)
    with pytest.raises(InternalConsistencyError):
        mv.ideals.ideal_lattice(A)


def test_library_ideals_read_as_caller_ideals(family):
    """A library `Ideal` (a lattice node, a generated, maximal, zero, improper
    or made ideal), named by its coordinates and generator, reads as the
    caller's `Ideal` of the same member set, the down-set of its generator
    by closure: members, sorted members, size, properness, membership,
    equality, hash, repr and classification."""
    rng = random.Random(109)
    for combo, algebra in family:
        A = shuffled(algebra, rng)
        built = [*mv.all_ideals(A), *mv.maximal_decomposition(A, mv.zero_ideal(A)), mv.zero_ideal(A),
                 mv.improper_ideal(A), mv.generated_ideal(A, rng.sample(range(A.size), 2))]
        built.append(mv.make_ideal(A, sorted(built[-1].members)))
        for ideal in built:
            size, proper, cls = len(ideal), ideal.is_proper, mv.classify(A, ideal)   # read off S and g
            assert ideal.coordinates is not None and ideal.generator is not None, combo
            bare = mv.Ideal(A, frozenset(ideal_by_closure(A, {ideal.generator})))
            assert (size, proper, cls) == (len(bare), bare.is_proper, mv.classify(A, bare)), (combo, ideal)
            assert ideal.members == bare.members and ideal.sorted_members == bare.sorted_members
            assert [x in ideal for x in (-1, *range(A.size), A.size, "0")] == \
                [x in bare for x in (-1, *range(A.size), A.size, "0")]
            assert ideal == bare and bare == ideal and hash(ideal) == hash(bare) and repr(ideal) == repr(bare)
            assert ideal != mv.Ideal(A, bare.members ^ {A.one}) and ideal != mv.Ideal(shuffled(A, rng), bare.members)
