"""Table-level algebras: validation, products, center, intervals, decomposition."""

import gc
import math
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvkit as mv
from mvkit.errors import (
    DecompositionError,
    InternalConsistencyError,
    MVAxiomError,
    NotAnIdealError,
    NotCentralError,
    ResourceCapError,
    SchemaError,
)

from conftest import (
    SWEEP_ORDER,
    Chain,
    axiom_failure_by_sweep,
    build_family,
    bundled_specs,
    center_by_formula,
    certificate_by_revalidation,
    decompose_by_atoms,
    exists_isomorphism,
    product_by_gather,
    shuffled,
)

# commutative, with identity 0, an involution, mv1 and mv2, but
# (2 (+) 1) (+) 1 = 0 (+) 1 = 1 while 2 (+) (1 (+) 1) = 2 (+) 3 = 3
NON_ASSOCIATIVE = dict(
    size=4, zero=0,
    oplus_table=[[0, 1, 2, 3], [1, 3, 0, 3], [2, 0, 3, 3], [3, 3, 3, 3]],
    neg_table=[3, 1, 2, 0],
)

MAX_OPLUS_DOC = dict(
    size=3, zero=0,
    oplus_table=[[0, 1, 2], [1, 1, 2], [2, 2, 2]],   # join instead of truncated sum
    neg_table=[2, 1, 0],
)


def revalidate(algebra):
    return mv.from_tables(*mv.as_tables(algebra), labels=algebra.labels)


def test_chain_tables_accepted():
    for n in range(2, 8):
        revalidate(mv.chain_algebra(n))


def test_chain_tables_match_chain_arithmetic():
    for n in range(2, 7):
        alg = mv.chain_algebra(n)
        chain = Chain(n)
        for i in range(n):
            assert alg.neg(i) == chain.element(i).neg().numerator
            for j in range(n):
                a, b = chain.element(i), chain.element(j)
                assert alg.op(i, j) == a.oplus(b).numerator
                assert alg.dist(i, j) == a.distance(b).numerator
                assert alg.join(i, j) == a.join(b).numerator
                assert alg.meet(i, j) == a.meet(b).numerator
                assert alg.leq(i, j) == a.leq(b)


def test_max_oplus_pseudo_algebra_rejected_with_witness():
    with pytest.raises(MVAxiomError) as info:
        mv.from_tables(**MAX_OPLUS_DOC)
    err = info.value
    assert err.axiom == "mv2"
    assert sorted(err.witness) == [1, 2]
    # the reported witness genuinely falsifies neg(neg x (+) y) (+) y = neg(neg y (+) x) (+) x
    O = MAX_OPLUS_DOC["oplus_table"]
    N = MAX_OPLUS_DOC["neg_table"]
    x, y = err.witness
    assert O[N[O[N[x]][y]]][y] != O[N[O[N[y]][x]]][x]


def test_trivial_tables_accepted():
    alg = mv.from_tables(1, 0, [[0]], [0])
    assert alg.size == 1 and alg.one == 0


def test_malformed_tables_raise_schema_errors():
    with pytest.raises(SchemaError):
        mv.from_tables(2, 0, [[0, 1]], [1, 0])            # wrong shape
    with pytest.raises(SchemaError):
        mv.from_tables(2, 0, [[0, 1], [1, 5]], [1, 0])    # out of range
    with pytest.raises(SchemaError):
        mv.from_tables(2, 3, [[0, 1], [1, 1]], [1, 0])    # bad zero
    with pytest.raises(SchemaError):
        mv.from_tables(2, 0, [[0, 1], [1, 1]], [1, 0], labels=("a",))


@pytest.mark.parametrize("entry", [-1, 2, 65536, 2**31, 2**70, -10**20])
def test_out_of_range_entries_raise_schema_errors_before_narrowing(entry):
    """Checked on the wide input: no entry wraps into range on the cast to
    uint16, and none beyond int64 escapes as an OverflowError."""
    for oplus, neg, what in (([[0, 1], [1, entry]], [1, 0], "oplus"), ([[0, 1], [1, 1]], [1, entry], "neg")):
        with pytest.raises(SchemaError, match=f"{what} table contains out-of-range indices"):
            mv.from_tables(2, 0, oplus, neg)
        if -2**63 <= entry < 2**63:
            with pytest.raises(SchemaError, match=what):
                mv.FiniteMVAlgebra(2, 0, np.array(oplus), np.array(neg))


def test_chain_order_and_relabeling_are_checked():
    with pytest.raises(ValueError, match="chain order must be >= 2, got 1"):
        mv.chain_algebra(1)
    with pytest.raises(ValueError, match="relabeling must be a permutation of the carrier"):
        mv.relabel(mv.chain_algebra(3), [0, 0, 1])


L3 = mv.chain_algebra(3)


@pytest.mark.parametrize("call, error, message", [
    (lambda: mv.chain_algebra(2.5), ValueError, "chain order must be an integer, got 2.5"),
    (lambda: mv.chain_algebra(np.int64(3)), ValueError, "chain order must be an integer, got np.int64(3)"),
    (lambda: mv.chain_algebra(True), ValueError, "chain order must be an integer, got True"),
    (lambda: mv.relabel(L3, [0.0, 2.0, 1.0]), ValueError, "relabeling must be a permutation of the carrier"),
    (lambda: mv.relabel(L3, [True, False, 2]), ValueError, "relabeling must be a permutation of the carrier"),
    (lambda: mv.make_ideal(L3, [0.7]), NotAnIdealError, "element index 0.7 out of range"),
    (lambda: mv.make_ideal(L3, [0, True]), NotAnIdealError, "element index True out of range"),
    (lambda: mv.is_ideal(L3, np.array([0.0])), NotAnIdealError, "element index 0.0 out of range"),
    (lambda: mv.generated_ideal(L3, [1.5]), NotAnIdealError, "element index 1.5 out of range"),
    (lambda: mv.interval_algebra(L3, 2.0), NotCentralError, "element index 2.0 is out of range 0..2"),
])
def test_finite_entry_points_refuse_non_integers(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_integer_arrays_still_name_indices():
    assert mv.relabel(L3, np.array([2, 1, 0])).zero == 2
    assert mv.make_ideal(L3, np.array([0])).members == {0}


def test_index_dtype_is_uint16_up_to_65536_elements():
    assert mv.finite.index_dtype(1) == np.uint16
    assert mv.finite.index_dtype(65536) == np.uint16
    assert mv.finite.index_dtype(65537) == np.int32


def test_fold_skips_one_element_factors_at_the_uint16_limit():
    # the negation fold of [trivial] + [L2] * 16: 65536 elements, the largest
    # uint16 carrier, where scaling by the one-element factor's partial size
    # (65536) would overflow; 1-D only, so no table of that size is built
    neg2 = mv.chain_algebra(2).neg_table
    trivial = mv.trivial_algebra().neg_table
    for tables in ([trivial] + [neg2] * 16, [neg2] * 8 + [trivial] + [neg2] * 8):
        got = mv.finite._fold(tables, np.uint16)
        assert got.dtype == np.uint16
        assert (got == np.arange(65536)[::-1]).all()
    assert mv.finite._fold([trivial, trivial], np.uint16).tolist() == [0]


def test_every_construction_builds_uint16_tables():
    L2, L3 = mv.chain_algebra(2), mv.chain_algebra(3)
    A = mv.product([L2, L3])
    half = A.labels.index("(1,0)")   # central, with [0, half] = L2
    _, spec = next(iter(bundled_specs()))
    built = {
        "from_tables lists": mv.from_tables(*mv.as_tables(A)),
        "from_tables int64": mv.from_tables(A.size, A.zero, A.oplus_table.astype(np.int64),
                                            A.neg_table.astype(np.int64)),
        "chain_algebra": L3,
        "product": A,
        "relabel": mv.relabel(A, [5, 3, 1, 0, 2, 4]),
        "quotient": mv.quotient(A, mv.generated_ideal(A, {half}))[0],
        "center_algebra": mv.center_algebra(A)[0],
        "interval_algebra": mv.interval_algebra(A, half)[0],
        "truncate": mv.truncate(spec, 3),
        "profinite_completion": mv.profinite_completion(A).completion,
    }
    for name, algebra in built.items():
        for table in (algebra.oplus_table, algebra.neg_table):
            assert table.dtype == np.uint16, name
            assert table.flags.c_contiguous and not table.flags.writeable, name
            assert table.max() < algebra.size, name


def test_public_constructor_range_checks_uint16_and_list_entries():
    """FiniteMVAlgebra(...) stays the checking entry point after library
    constructions stopped re-checking: a 7 in a size-4 table is refused
    given as a uint16 array, where no sign check applies, and as lists."""
    L4 = mv.chain_algebra(4)
    for what in ("oplus", "neg"):
        oplus, neg = np.array(L4.oplus_table), np.array(L4.neg_table)
        (oplus if what == "oplus" else neg)[-1] = 7
        assert oplus.dtype == neg.dtype == np.uint16
        for tables in ((oplus, neg), (oplus.tolist(), neg.tolist())):
            with pytest.raises(SchemaError, match=f"{what} table contains out-of-range indices"):
                mv.FiniteMVAlgebra(4, 0, *tables)


def test_decompose_matches_per_atom_oracle(family):
    """The one-gather sum check finds the per-atom oracle's atoms, orders and
    digits on every shuffled family algebra, and refuses exactly the seeded
    single-entry corruptions the oracle refuses."""
    rng = random.Random(20261019)

    def outcome(decomposer, n, zero, oplus, neg):
        try:
            found = decomposer(mv.FiniteMVAlgebra(n, zero, oplus, neg))
        except (DecompositionError, InternalConsistencyError) as exc:
            return type(exc).__name__
        if isinstance(found, mv.Decomposition):
            found = found.atoms, found.chain_orders, found.digits
        atoms, orders, digits = found
        return atoms, orders, digits.tolist()

    refused = 0
    for combo, algebra in family:
        A = shuffled(algebra, rng)
        n, zero = A.size, A.zero
        oplus, neg = np.array(A.oplus_table), np.array(A.neg_table)
        want = outcome(decompose_by_atoms, n, zero, oplus, neg)
        assert outcome(mv.decompose, n, zero, oplus, neg) == want, combo
        for kind in ("symmetric", "asymmetric", "neg"):
            for _ in range(4):
                bad_oplus, bad_neg = oplus.copy(), neg.copy()
                x, y = rng.randrange(n), rng.randrange(n)
                if kind == "neg":
                    bad_neg[x] = rng.choice([w for w in range(n) if w != neg[x]])
                else:
                    bad_oplus[x, y] = rng.choice([w for w in range(n) if w != oplus[x, y]])
                    if kind == "symmetric":
                        bad_oplus[y, x] = bad_oplus[x, y]
                want = outcome(decompose_by_atoms, n, zero, bad_oplus, bad_neg)
                refused += want == "DecompositionError"
                assert outcome(mv.decompose, n, zero, bad_oplus, bad_neg) == want, (combo, kind, x, y)
    assert refused > 100


def test_each_axiom_detected():
    with pytest.raises(MVAxiomError) as info:
        mv.from_tables(3, 0, [[0, 1, 2], [2, 1, 2], [2, 2, 2]], [2, 1, 0])
    assert info.value.axiom == "commutative"
    with pytest.raises(MVAxiomError) as info:
        mv.from_tables(3, 1, [[0, 1, 2], [1, 1, 2], [2, 2, 2]], [2, 1, 0])
    assert info.value.axiom == "identity"
    with pytest.raises(MVAxiomError) as info:
        # negation that is not an involution
        mv.from_tables(3, 0, [[0, 1, 2], [1, 2, 2], [2, 2, 2]], [2, 2, 0])
    assert info.value.axiom == "involution"
    with pytest.raises(MVAxiomError) as info:
        # identity negation is an involution but breaks neg 0 (+) x = neg 0
        mv.from_tables(3, 0, [[0, 1, 2], [1, 2, 2], [2, 2, 2]], [0, 1, 2])
    assert info.value.axiom == "mv1"
    # only associativity fails, so validation falls back to the sweep
    others = tuple(a for a in SWEEP_ORDER if a != "associative")
    assert axiom_failure_by_sweep(*NON_ASSOCIATIVE.values(), axioms=others) is None
    with pytest.raises(MVAxiomError) as info:
        mv.from_tables(**NON_ASSOCIATIVE)
    assert (info.value.axiom, info.value.witness) == ("associative", (2, 1, 1))
    O = NON_ASSOCIATIVE["oplus_table"]
    x, y, z = info.value.witness
    assert O[O[x][y]][z] != O[x][O[y][z]]


def test_from_tables_respects_cap():
    alg = mv.chain_algebra(6)
    with pytest.raises(ResourceCapError):
        mv.from_tables(*mv.as_tables(alg), max_size=5)


def test_product_examples():
    assert mv.product([mv.chain_algebra(2), mv.chain_algebra(3)]).size == 6
    assert mv.product([]).size == 1
    square = mv.product([mv.chain_algebra(2)] * 2)
    members, atoms = mv.boolean_center(square)
    assert len(members) == 4 and len(atoms) == 2          # Boolean 2x2


def test_product_cap():
    with pytest.raises(ResourceCapError):
        mv.product([mv.chain_algebra(5)] * 6, max_size=4096)


def test_family_products_pass_validation(family):
    for combo, algebra in family:
        revalidate(algebra)


def test_boolean_center_examples():
    A = mv.product([mv.chain_algebra(2), mv.chain_algebra(3)])
    members, atoms = mv.boolean_center(A)
    assert {A.label(m) for m in members} == {"(0,0)", "(0,1)", "(1,0)", "(1,1)"}
    assert {A.label(a) for a in atoms} == {"(0,1)", "(1,0)"}

    L5 = mv.chain_algebra(5)
    members, atoms = mv.boolean_center(L5)
    assert members == (0, 4) and atoms == (4,)

    cube = mv.product([mv.chain_algebra(2)] * 3)
    members, atoms = mv.boolean_center(cube)
    assert len(members) == 8 and len(atoms) == 3


def test_center_size_counts_factors(family):
    for combo, algebra in family:
        members, atoms = mv.boolean_center(algebra)
        assert len(members) == 2 ** len(combo)
        assert len(atoms) == len(combo)


def test_boolean_center_matches_formula_oracle(family):
    """The center read off the certificate is the table formula's on the
    shuffled family (certificate found by `decompose`), its quotients and
    center algebras (certificates attached by construction) and relabeled
    `from_tables` inputs."""
    rng = random.Random(41)
    for combo, algebra in family:
        A = shuffled(algebra, rng)
        cases = [A, mv.center_algebra(A)[0], mv.from_tables(*mv.as_tables(shuffled(algebra, rng)))]
        cases += [mv.quotient(A, ideal)[0] for ideal in mv.all_ideals(A)]
        for B in cases:
            assert mv.boolean_center(B) == center_by_formula(B), (combo, B.size)


def test_interval_algebra_examples():
    A = mv.product([mv.chain_algebra(2), mv.chain_algebra(3)])
    label_to_index = {lbl: i for i, lbl in enumerate(A.labels)}

    sub, emb = mv.interval_algebra(A, label_to_index["(0,1)"])
    assert mv.are_isomorphic(sub, mv.chain_algebra(3))
    revalidate(sub)

    whole, _ = mv.interval_algebra(A, A.one)
    assert whole.size == A.size and mv.are_isomorphic(whole, A)

    bottom, _ = mv.interval_algebra(A, A.zero)
    assert bottom.size == 1

    with pytest.raises(NotCentralError):
        mv.interval_algebra(A, label_to_index["(0,1/2)"])
    # an index out of range is named, not read as a label (-1 would name the central top)
    for a in (-1, 6, 99):
        with pytest.raises(NotCentralError, match=rf"element index {a} is out of range 0\.\.5"):
            mv.interval_algebra(A, a)


def test_interval_algebras_reproduce_factors(family):
    for combo, algebra in family:
        dec = mv.decompose(algebra)
        for atom, order in zip(dec.atoms, dec.chain_orders):
            sub, _ = mv.interval_algebra(algebra, atom)
            assert mv.are_isomorphic(sub, mv.chain_algebra(order))


def test_decompose_examples():
    assert mv.decompose(mv.chain_algebra(7)).sorted_orders == (7,)
    cube = mv.product([mv.chain_algebra(2)] * 3)
    assert mv.decompose(cube).sorted_orders == (2, 2, 2)
    with pytest.raises(DecompositionError):
        mv.decompose(mv.trivial_algebra())


def test_decompose_iso_is_bijective_homomorphism(family):
    for combo, algebra in family:
        dec = mv.decompose(algebra)
        assert len(set(dec.iso)) == algebra.size
        # spot-check the homomorphism law on a sample of pairs
        rng = random.Random(7)
        for _ in range(20):
            x, y = rng.randrange(algebra.size), rng.randrange(algebra.size)
            expected = tuple(
                min(a + b, n - 1)
                for a, b, n in zip(dec.iso[x], dec.iso[y], dec.chain_orders)
            )
            assert dec.iso[algebra.op(x, y)] == expected


def test_decompose_recovers_orders_after_shuffles(family):
    rng = random.Random(20260808)
    for combo, algebra in family:
        for _ in range(3):
            twisted = shuffled(algebra, rng)
            assert mv.decompose(twisted).sorted_orders == tuple(sorted(combo))


def test_relabel_by_inverse_restores_tables():
    A = mv.product([mv.chain_algebra(3), mv.chain_algebra(4)])
    rng = random.Random(5)
    perm = list(range(A.size))
    rng.shuffle(perm)
    twisted = mv.relabel(A, perm)
    inverse = [0] * A.size
    for x, y in enumerate(perm):
        inverse[y] = x
    back = mv.relabel(twisted, inverse)
    assert np.array_equal(back.oplus_table, A.oplus_table)
    assert np.array_equal(back.neg_table, A.neg_table)
    assert back.zero == A.zero


def test_are_isomorphic_examples():
    A = mv.product([mv.chain_algebra(2), mv.chain_algebra(3)])
    B = mv.product([mv.chain_algebra(3), mv.chain_algebra(2)])
    assert mv.are_isomorphic(A, B)
    assert mv.are_isomorphic(A, A)
    assert not mv.are_isomorphic(mv.chain_algebra(4),
                                 mv.product([mv.chain_algebra(2)] * 2))
    assert not mv.are_isomorphic(mv.chain_algebra(6), A)


def test_are_isomorphic_agrees_with_search_oracle():
    candidates = [alg for combo, alg in build_family() if alg.size <= 12]
    rng = random.Random(99)
    candidates += [shuffled(a, rng) for a in candidates if a.size <= 9]
    for a in candidates:
        for b in candidates:
            assert mv.are_isomorphic(a, b) == exists_isomorphism(a, b), (
                a.size, b.size)


def test_decompose_guards_table_corruption():
    # constructed directly, bypassing the axiom sweep
    pseudo = mv.FiniteMVAlgebra(3, 0, [[0, 1, 2], [1, 1, 2], [2, 2, 2]], [2, 1, 0])
    with pytest.raises(DecompositionError):
        mv.decompose(pseudo)

    broken = np.array(mv.chain_algebra(4).oplus_table)
    broken[1, 2] = broken[2, 1] = 1
    corrupt = mv.FiniteMVAlgebra(4, 0, broken, [3, 2, 1, 0])
    with pytest.raises(DecompositionError):
        mv.decompose(corrupt)


def test_derived_order_is_a_distributive_lattice():
    for alg in (mv.product([mv.chain_algebra(2), mv.chain_algebra(3)]),
                mv.chain_algebra(4),
                mv.product([mv.chain_algebra(2)] * 3)):
        leq = alg.leq_matrix
        n = alg.size
        assert all(leq[x, x] for x in range(n))
        for x in range(n):
            for y in range(n):
                if leq[x, y] and leq[y, x]:
                    assert x == y
                for z in range(n):
                    if leq[x, y] and leq[y, z]:
                        assert leq[x, z]
                    j, m = alg.join(y, z), alg.meet(y, z)
                    assert alg.meet(x, j) == alg.join(alg.meet(x, y), alg.meet(x, z))
        for x in range(n):
            for y in range(n):
                j, m = alg.join(x, y), alg.meet(x, y)
                assert leq[x, j] and leq[y, j] and leq[m, x] and leq[m, y]
                for z in range(n):
                    if leq[x, z] and leq[y, z]:
                        assert leq[j, z]
                    if leq[z, x] and leq[z, y]:
                        assert leq[z, m]


def test_product_matches_gather_oracle():
    rng = random.Random(61)
    L2, L3 = mv.chain_algebra(2), mv.chain_algebra(3)
    two_by_three = mv.product([L2, L3])
    pool = [L2, L3, mv.chain_algebra(4), mv.chain_algebra(5), two_by_three,
            mv.relabel(two_by_three, [5, 3, 1, 0, 2, 4]), mv.trivial_algebra(),
            mv.FiniteMVAlgebra(3, 0, L3.oplus_table, L3.neg_table)]   # no labels
    for _ in range(150):
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        cap = rng.choice((None, mv.DEFAULT_MAX_SIZE, 40, 12))
        try:
            want = product_by_gather(factors, max_size=cap)
        except ResourceCapError as exc:
            with pytest.raises(ResourceCapError) as got:
                mv.product(factors, max_size=cap)
            assert (got.value.needed, got.value.cap, str(got.value)) == (exc.needed, exc.cap, str(exc))
            continue
        got = mv.product(factors, max_size=cap)
        assert (got.size, got.zero, got.labels) == (want.size, want.zero, want.labels)
        assert got.oplus_table.dtype == want.oplus_table.dtype
        assert (got.oplus_table == want.oplus_table).all()
        assert (got.neg_table == want.neg_table).all()


# `_fold` splits the nontrivial factors once, the right part the shortest
# suffix with at least half of n's digits.  These put that split after every
# factor for 5 and 6 factors, and wherever n <= 2048 leaves room for 7 to 11
# (after the 6th of 7 needs n = 4096); [2] * 12 splits after the 6th.
SPLIT_SIZES = [
    (3, 3, 2, 2, 2), (2,) * 5, (2, 2, 2, 2, 4), (2, 2, 2, 2, 16),
    (8, 3, 2, 2, 2, 2), (2, 3, 2, 2, 2, 2), (2,) * 6, (2, 2, 2, 2, 2, 8), (2, 2, 2, 2, 2, 32),
    (3, 16, 2, 2, 2, 2, 2), (3, 3, 2, 2, 2, 2, 2), (2,) * 7, (2,) * 6 + (4,), (2,) * 6 + (16,),
    (8, 2, 3, 2, 2, 2, 2, 2), (2, 2, 2, 3, 2, 2, 2, 2), (2,) * 8, (2,) * 7 + (8,),
    (2, 2, 3, 3, 2, 2, 2, 2, 2), (2,) * 9, (2, 2, 2, 2, 2, 4, 2, 2, 2),
    (3,) + (2,) * 9, (2,) * 10, (2,) * 11, (2,) * 12,
    (2, 3, 4, 5, 6), (2, 2, 2, 4, 2, 6, 2),   # the truncations example_4_5@5, example_4_6@7
]


def test_product_matches_gather_oracle_at_every_split():
    """Labels and tables, on chains, with 4-element factors the shuffled
    L2 x L2; up to n = 512 also the certificate, and again with one-element
    factors at both ends and in the middle."""
    rng = random.Random(18)
    square = revalidate(shuffled(mv.product([mv.chain_algebra(2)] * 2), rng))
    one = mv.trivial_algebra()
    for sizes in SPLIT_SIZES:
        factors = [square if s == 4 else mv.chain_algebra(s) for s in sizes]
        variants = [factors]
        if math.prod(sizes) <= 512:
            middle = len(factors) // 2
            variants.append([one] + factors[:middle] + [one] + factors[middle:] + [one])
        for factors in variants:
            got, want = mv.product(factors), product_by_gather(factors)
            assert (got.size, got.zero, got.labels) == (want.size, want.zero, want.labels), sizes
            assert (got.oplus_table == want.oplus_table).all(), sizes
            assert (got.neg_table == want.neg_table).all(), sizes
            if got.size <= 512:
                dec = got._cache["decomposition"]
                assert (dec.atoms, dec.chain_orders, dec.iso) == certificate_by_revalidation(got), sizes


def test_composed_certificates_match_revalidation(family):
    """chain_algebra, product and center_algebra attach exactly the
    certificate `decompose` finds on the re-validated tables; a product
    carries one only when every nontrivial factor does."""
    rng = random.Random(71)
    L = mv.chain_algebra
    pool = [L(2), L(3), L(4), L(5), mv.trivial_algebra(),
            revalidate(shuffled(mv.product([L(2), L(3)]), rng)),
            revalidate(shuffled(mv.product([L(3), L(3), L(2)]), rng)),
            revalidate(shuffled(L(4), rng)),
            mv.FiniteMVAlgebra(3, 0, L(3).oplus_table, L(3).neg_table)]   # no certificate
    for _ in range(300):
        factors = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
        try:
            A = mv.product(factors, max_size=300)
        except ResourceCapError:
            continue
        certified = A.size > 1 and all("decomposition" in f._cache for f in factors if f.size > 1)
        assert ("decomposition" in A._cache) == certified, [f.size for f in factors]
        if not certified:
            continue
        assert not A._cache["decomposition"].digits.flags.writeable
        dec = mv.decompose(A)
        assert (dec.atoms, dec.chain_orders, dec.iso) == certificate_by_revalidation(A)
        if A.size <= 36 and len(pool) < 40:
            pool.append(A)     # nested products

    for combo, algebra in family:
        for A in (algebra, revalidate(shuffled(algebra, rng))):
            center, _ = mv.center_algebra(A)
            assert "decomposition" in center._cache, combo
            dec = mv.decompose(center)
            assert (dec.atoms, dec.chain_orders, dec.iso) == certificate_by_revalidation(center)


def test_decompose_and_intervals_build_no_lattice_tables(family):
    for combo, algebra in family:
        A = mv.relabel(algebra, list(range(algebra.size)))      # fresh cache
        mv.decompose(A)
        for a in mv.boolean_center(A)[0]:
            mv.interval_algebra(A, a)
        for x in range(A.size):
            A.join(x, A.one), A.meet(x, A.zero), A.dist(x, A.neg(x)), A.leq(x, A.one)
        assert set(A._cache) <= {"leq", "decomposition"}, combo


def test_formula_accessors_match_certificate_digits(family):
    """join, meet and dist are the componentwise max, min and |a - b| of the
    digits, at every pair of every shuffled family algebra."""
    rng = random.Random(20261019)
    for combo, algebra in family:
        A = shuffled(algebra, rng)
        digits = mv.decompose(A).digits
        n = A.size
        dx, dy = digits[:, None, :], digits[None, :, :]
        for accessor, want in ((A.join, np.maximum(dx, dy)), (A.meet, np.minimum(dx, dy)),
                               (A.dist, np.abs(dx - dy))):
            got = np.array([[accessor(x, y) for y in range(n)] for x in range(n)])
            assert (digits[got] == want).all(), (combo, accessor.__name__)


def certificate(dec):
    return dec.atoms, dec.chain_orders, dec.iso


def test_certified_validation_matches_sweep_oracle(family):
    """Valid tables are accepted with their decomposition cached; single-entry
    corruptions report exactly the exhaustive sweep's axiom and witness."""
    rng = random.Random(20261018)
    for combo, algebra in family:
        twisted = shuffled(algebra, rng)
        n, zero = twisted.size, twisted.zero
        oplus, neg = np.array(twisted.oplus_table), np.array(twisted.neg_table)
        accepted = mv.from_tables(n, zero, oplus, neg)
        assert "decomposition" in accepted._cache, combo
        fresh = mv.FiniteMVAlgebra(n, zero, oplus, neg)
        assert certificate(mv.decompose(accepted)) == certificate(mv.decompose(fresh)), combo
        assert mv.decompose(accepted).iso is mv.decompose(accepted).iso

        for kind in ("symmetric", "asymmetric", "neg"):
            for _ in range(2):
                bad_oplus, bad_neg = oplus.copy(), neg.copy()
                x, y = rng.randrange(n), rng.randrange(n)
                if kind == "neg":
                    bad_neg[x] = rng.choice([w for w in range(n) if w != neg[x]])
                else:
                    w = rng.choice([w for w in range(n) if w != oplus[x, y]])
                    bad_oplus[x, y] = w
                    if kind == "symmetric":
                        bad_oplus[y, x] = w
                want = axiom_failure_by_sweep(n, zero, bad_oplus, bad_neg)
                if want is None:
                    mv.from_tables(n, zero, bad_oplus, bad_neg)
                    continue
                with pytest.raises(MVAxiomError) as info:
                    mv.from_tables(n, zero, bad_oplus, bad_neg)
                assert (info.value.axiom, info.value.witness) == want, (combo, kind)


def test_non_associative_tables_take_the_sweep():
    others = tuple(a for a in SWEEP_ORDER if a != "associative")
    # (0,1) (+) (0,1) := (0,1/2) in L2 x L3 breaks only associativity too, and
    # leaves the Boolean center unclosed: the certificate fails by
    # InternalConsistencyError, and the sweep still names the axiom
    L2L3 = mv.product([mv.chain_algebra(2), mv.chain_algebra(3)])
    oplus, neg = np.array(L2L3.oplus_table), L2L3.neg_table
    oplus[2, 2] = 1
    with pytest.raises(InternalConsistencyError):
        mv.boolean_center(mv.FiniteMVAlgebra(6, L2L3.zero, oplus, neg))
    assert axiom_failure_by_sweep(6, L2L3.zero, oplus, neg, axioms=others) is None
    with pytest.raises(MVAxiomError) as info:
        mv.from_tables(6, L2L3.zero, oplus, neg)
    assert (info.value.axiom, info.value.witness) == ("associative", (2, 1, 1))

    # product does not validate, so it builds a larger non-associative table
    pseudo = mv.FiniteMVAlgebra(**NON_ASSOCIATIVE)
    rng = random.Random(12)
    for _ in range(5):
        twisted = shuffled(mv.product([pseudo, mv.chain_algebra(3)]), rng)
        tables = (twisted.size, twisted.zero, twisted.oplus_table, twisted.neg_table)
        want = axiom_failure_by_sweep(*tables)
        assert want[0] == "associative"
        with pytest.raises(MVAxiomError) as info:
            mv.from_tables(*tables)
        assert (info.value.axiom, info.value.witness) == want


def test_decompose_refuses_an_unclosed_center_like_any_table():
    """Every refusal of `decompose` is a DecompositionError, on the
    unclosed-center witness too; the center report, which owes a
    certificate, makes it an InternalConsistencyError."""
    L2L3 = mv.product([mv.chain_algebra(2), mv.chain_algebra(3)])
    oplus = np.array(L2L3.oplus_table)
    oplus[2, 2] = 1
    A = mv.FiniteMVAlgebra(6, L2L3.zero, oplus, L2L3.neg_table)
    with pytest.raises(InternalConsistencyError, match="not closed"):
        center_by_formula(A)
    with pytest.raises(DecompositionError, match="not a product of chains"):
        mv.decompose(A)
    with pytest.raises(InternalConsistencyError, match="no chain-product certificate"):
        mv.boolean_center(A)


def test_random_tables_meet_the_certificate_then_the_sweep():
    """Every table meets `decompose` before any axiom check.  Over random
    tables with n <= 6 (raw, symmetrised, symmetrised with a forced identity
    row, all with a random negation, and shuffled valid tables with one entry
    changed or none), `from_tables` accepts exactly when the sweep finds no
    failure, and otherwise raises the sweep's axiom and witness."""
    rng = random.Random(20261020)
    pool = [A for combo, A in build_family() if A.size <= 6]
    verdicts = set()
    for trial in range(3000):
        kind = trial % 4
        if kind < 3:
            n = rng.randint(1, 6)
            zero = rng.randrange(n)
            oplus = np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)])
            if kind > 0:
                oplus = np.triu(oplus) + np.triu(oplus, 1).T
            if kind == 2:
                oplus[zero] = oplus[:, zero] = np.arange(n)
            neg = np.array([rng.randrange(n) for _ in range(n)])
        else:
            A = shuffled(rng.choice(pool), rng)
            n, zero = A.size, A.zero
            oplus, neg = np.array(A.oplus_table), np.array(A.neg_table)
            x, y, w = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            change = rng.choice(("none", "neg", "asymmetric", "symmetric"))
            if change == "neg":
                neg[x] = w
            elif change != "none":
                oplus[x, y] = w
                if change == "symmetric":
                    oplus[y, x] = w
        want = axiom_failure_by_sweep(n, zero, oplus, neg)
        verdicts.add(want and want[0])
        if want is None:
            mv.from_tables(n, zero, oplus, neg)
            continue
        with pytest.raises(MVAxiomError) as info:
            mv.from_tables(n, zero, oplus, neg)
        assert (info.value.axiom, info.value.witness) == want, (n, zero, oplus.tolist(), neg.tolist())
    assert verdicts == {None, *SWEEP_ORDER}


def test_failed_certificate_on_valid_tables_is_internal_error(monkeypatch):
    def refuse(algebra):
        raise DecompositionError("refused")

    valid = mv.product([mv.chain_algebra(3), mv.chain_algebra(2)])
    monkeypatch.setattr(mv.finite, "decompose", refuse)
    with pytest.raises(InternalConsistencyError):
        mv.from_tables(*mv.as_tables(valid))


def test_validated_algebra_is_freed_without_the_cycle_collector():
    source = mv.product([mv.chain_algebra(4), mv.chain_algebra(3)])
    gc.disable()
    try:
        alg = mv.from_tables(*mv.as_tables(source))
        mv.decompose(alg)
        ref = weakref.ref(alg)
        del alg
        assert ref() is None
    finally:
        gc.enable()


SMALL_ORDERS = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 3), (2, 4), (2, 2, 2)]


@settings(derandomize=True, max_examples=300)
@given(st.data())
def test_negation_corruptions_meet_the_sweep(data):
    """A derandomized search over negation-only corruptions of the chain
    products with n <= 8, under a relabeling: `from_tables` accepts exactly
    when the sweep finds no failing axiom, else raises the sweep's axiom and
    witness."""
    orders = data.draw(st.sampled_from(SMALL_ORDERS))
    A = mv.product([mv.chain_algebra(o) for o in orders])
    A = mv.relabel(A, data.draw(st.permutations(range(A.size))))
    n, zero, oplus = A.size, A.zero, np.array(A.oplus_table)
    neg = np.array(A.neg_table)
    changes = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                 min_size=1, max_size=3))
    for x, value in changes:
        neg[x] = value
    want = axiom_failure_by_sweep(n, zero, oplus, neg)
    if want is None:
        assert mv.from_tables(n, zero, oplus, neg).size == n
    else:
        with pytest.raises(MVAxiomError) as info:
            mv.from_tables(n, zero, oplus, neg)
        assert (info.value.axiom, info.value.witness) == want
