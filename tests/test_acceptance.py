"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Every check is exact (zero tolerance).  The family used throughout is every
product of Lukasiewicz chains with orders in 2..5 and at most three factors
(34 algebras, largest carrier 125).

The truncation-oracle suite runs each bundled presentation at lengths 4, 8
and 12 under the default carrier cap of 4096: combinations that fit are
checked for census/classification agreement, combinations that exceed the
cap are required to raise the documented resource-cap error (their explicit
tables would need up to 13!^2 entries, beyond any hardware).
"""

import itertools
import random
from contextlib import contextmanager

import pytest

import mvkit as mv
from mvkit.errors import MVAxiomError, ResourceCapError

from conftest import (
    bundled_specs,
    ideals_by_subset_scan,
    in_kernel_by_sublevels,
    random_symbolic_element,
    random_ultrafilter,
    shuffled,
    truncadd,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    print(f"[acceptance] criterion {number} ({label}): PASS")


def test_criterion_1_axiom_suite(family):
    with criterion(1, "axiom suite"):
        assert len(family) == 34
        for combo, algebra in family:
            assert algebra.size <= 125
            mv.from_tables(*mv.as_tables(algebra), labels=algebra.labels)

        with pytest.raises(MVAxiomError) as info:
            mv.from_tables(3, 0,
                           [[0, 1, 2], [1, 1, 2], [2, 2, 2]],   # join, not truncated sum
                           [2, 1, 0])
        err = info.value
        assert err.axiom == "mv2"
        assert sorted(err.witness) == [1, 2]
        O, N = [[0, 1, 2], [1, 1, 2], [2, 2, 2]], [2, 1, 0]
        x, y = err.witness
        assert O[N[O[N[x]][y]]][y] != O[N[O[N[y]][x]]][x]


def test_criterion_2_decomposition_suite(family):
    with criterion(2, "decomposition suite"):
        rng = random.Random(20260808)
        for combo, algebra in family:
            for _ in range(5):
                twisted = shuffled(algebra, rng)
                dec = mv.decompose(twisted)
                assert dec.sorted_orders == tuple(sorted(combo))
                for atom, order in zip(dec.atoms, dec.chain_orders):
                    sub, _ = mv.interval_algebra(twisted, atom)
                    assert mv.are_isomorphic(sub, mv.chain_algebra(order))


def test_criterion_3_ideal_intersection_suite(family):
    with criterion(3, "maximal-intersection suite"):
        for combo, algebra in family:
            ideals = mv.all_ideals(algebra)
            maximals = [i for i in ideals if mv.classify(algebra, i).maximal]
            everything = frozenset(range(algebra.size))
            for ideal in ideals:
                if not ideal.is_proper:
                    continue
                parts = mv.maximal_decomposition(algebra, ideal)
                meet = everything
                for p in parts:
                    meet &= p.members
                    assert mv.classify(algebra, p).maximal
                assert meet == ideal.members
            for r in range(1, len(maximals) + 1):
                for subset in itertools.combinations(maximals, r):
                    meet = everything
                    for p in subset:
                        meet &= p.members
                    assert mv.is_ideal(algebra, meet)
                    # the quotient by this intersection exists and is finite
                    quot, _ = mv.quotient(algebra, mv.make_ideal(algebra, meet))
                    assert quot.size >= 1


def test_criterion_4_completion_suite(family):
    with criterion(4, "completion suite"):
        rng = random.Random(404)
        for combo, algebra in family:
            assert mv.profinite_completion(algebra).is_isomorphism
            assert mv.profinite_completion(shuffled(algebra, rng)).is_isomorphism


def test_criterion_5_center_suites(family):
    with criterion(5, "center correspondence and completion-center suite"):
        for combo, algebra in family:
            assert mv.is_regular(algebra)
            report = mv.verify_center_correspondence(algebra)
            assert report.ok, (combo, report)
            assert report.ideal_count == report.center_ideal_count
            swap = mv.verify_center_completion_commute(algebra)
            assert swap.ok, (combo, swap)


def test_criterion_6_bundled_examples():
    with criterion(6, "bundled-presentation verdicts"):
        specs = dict(bundled_specs())

        verdict = mv.decide_strongly_complete(specs["example_4_5"])
        assert verdict.strongly_complete and verdict.witness is None

        verdict = mv.decide_strongly_complete(specs["example_4_6"])
        assert not verdict.strongly_complete
        witness = verdict.witness
        # the witness class is the one carrying the 2-element chains
        assert witness.kind == "free_class" and not witness.principal
        assert witness.rank == 2 and witness.residue == 0 and witness.modulus == 2

        const_spec = specs["example_const_2"]
        census = mv.maximal_ideal_census(const_spec, principal_limit=12)
        assert all(d.rank != mv.INFINITE for d in census)
        assert not mv.decide_strongly_complete(const_spec).strongly_complete


def test_criterion_7_limit_homomorphism_suite():
    with criterion(7, "ultrafilter-limit homomorphism suite"):
        rng = random.Random(20260808)
        for name, spec in bundled_specs():
            for _ in range(200):
                f = random_symbolic_element(spec, rng)
                g = random_symbolic_element(spec, rng)
                ultra = random_ultrafilter(spec, rng)
                lim_f = mv.ultrafilter_limit(f, ultra)
                lim_g = mv.ultrafilter_limit(g, ultra)
                assert mv.ultrafilter_limit(f.oplus(g), ultra) == truncadd(lim_f, lim_g)
                assert mv.ultrafilter_limit(f.neg(), ultra) == 1 - lim_f
            for _ in range(100):
                f = random_symbolic_element(spec, rng)
                ultra = random_ultrafilter(spec, rng)
                zero_limit = mv.ultrafilter_limit(f, ultra) == 0
                assert mv.in_kernel(f, ultra) == in_kernel_by_sublevels(f, ultra) == zero_limit


def test_criterion_8_truncation_oracle_suite():
    with criterion(8, "truncation-oracle suite"):
        checked = 0
        capped = 0
        for name, spec in bundled_specs():
            for count in (4, 8, 12):
                size = 1
                for x in range(count):
                    size *= spec.order_at(x)
                if size > mv.DEFAULT_MAX_SIZE:
                    with pytest.raises(ResourceCapError):
                        mv.truncate(spec, count)
                    capped += 1
                    continue
                algebra = mv.truncate(spec, count)
                maximals = mv.maximal_decomposition(algebra, mv.zero_ideal(algebra))
                ranks = sorted(mv.quotient(algebra, m)[0].size for m in maximals)
                census = mv.maximal_ideal_census(spec, principal_limit=count)
                expected = sorted(
                    d.rank for d in census if d.kind == "principal" and d.index < count)
                assert len(maximals) == count
                assert ranks == expected
                checked += 1
        assert checked == 5 and capped == 4  # 4_5@4, 4_6@4, const_2@{4,8,12} fit the cap

        # ideal enumeration versus the exhaustive-subset oracle, up to size 16
        L = mv.chain_algebra
        for algebra in (mv.product([L(2), L(3)]),
                        mv.product([L(4), L(2)]),
                        mv.product([L(2), L(2), L(3)]),
                        mv.product([L(2)] * 4),
                        L(16),
                        mv.product([L(4), L(4)])):
            assert algebra.size <= 16
            assert {i.members for i in mv.all_ideals(algebra)} == ideals_by_subset_scan(algebra)
