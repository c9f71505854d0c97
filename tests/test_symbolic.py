"""Symbolic products: index laws, element arithmetic, limits, census, verdicts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mvkit as mv
from mvkit.errors import (
    IndexRangeError,
    MismatchedChainError,
    ResourceCapError,
    SchemaError,
    UltrafilterError,
)

from conftest import (
    bundled_specs,
    decide_by_class_scan,
    in_kernel_by_sublevels,
    random_symbolic_element,
    random_ultrafilter,
    truncadd,
)


def spec_4_5():
    return mv.IndexSpec(1, [mv.UnboundedClass(1, 2)])


def spec_4_6():
    return mv.IndexSpec(2, [mv.ConstClass(2), mv.UnboundedClass(2, 2)])


def spec_const(n=2):
    return mv.IndexSpec(1, [mv.ConstClass(n)])


def finite_const_2(limit=4):
    return mv.IndexSpec(1, [mv.ConstClass(2)], limit=limit)


# -- index specifications ----------------------------------------------------


def test_chain_order_laws():
    assert [spec_4_5().order_at(x) for x in range(5)] == [2, 3, 4, 5, 6]
    assert spec_4_5().order_at(3) == 5
    assert [spec_4_6().order_at(x) for x in range(6)] == [2, 2, 2, 4, 2, 6]
    withp = mv.IndexSpec(1, [mv.ConstClass(3)], {5: 7})
    assert withp.order_at(5) == 7
    assert withp.order_at(4) == 3


@pytest.mark.parametrize("call, error, message", [
    (lambda: mv.IndexSpec(1, [mv.ConstClass(2)], {-1: 3}), SchemaError, "override index -1 must be a natural number"),
    (lambda: mv.SymbolicElement(spec_4_6(), 3, {}, (0, 0, 0)), SchemaError,
     "modulus must be a positive multiple of the period 2, got 3"),
    (lambda: mv.SymbolicElement(spec_const(), 2, {}, (0,)), SchemaError, "1 class values for modulus 2"),
    (lambda: mv.SymbolicElement(spec_const(), 2, {}, (0, 1)).with_modulus(3), SchemaError,
     "3 does not refine modulus 2"),
    (lambda: mv.SymbolicUltrafilter.principal(-1), UltrafilterError,
     "principal index must be a natural number, got -1"),
    (lambda: mv.truncate(spec_const(), -1), IndexRangeError, "truncation length must be a natural number, got -1"),
    (lambda: mv.truncate(mv.IndexSpec(1, [mv.ConstClass(2)], limit=4), 5), IndexRangeError,
     "truncation length 5 exceeds the index set"),
    # non-integer indices and type-before-range order
    (lambda: mv.SymbolicElement(spec_const(), 1, {"0": 1}, (0,)), SchemaError, "prefix index '0' must be an integer"),
    (lambda: mv.IndexSpec(1, [mv.ConstClass(2)], {"0": 3}), SchemaError,
     "override index '0' must be a natural number"),
    (lambda: mv.IndexSpec(1, [2]), SchemaError, "unknown class kind 2"),
    # every type before any range: a zero period, a one-element chain and an
    # override of order 1 are range faults, the float limit a type fault
    (lambda: mv.IndexSpec(0, [mv.ConstClass(1)], {0: 1}, limit=2.5), SchemaError, "field 'limit' must be an integer"),
    # every type before the first index is looked up (IndexRangeError, exit 2)
    (lambda: mv.SymbolicElement(finite_const_2(), 1, {9: 0.5}, (0,)), SchemaError,
     "prefix value for 9 must be an integer"),
    (lambda: mv.SymbolicUltrafilter.principal(1.5), UltrafilterError, "principal index must be a natural number, got 1.5"),
    (lambda: mv.SymbolicUltrafilter.principal(True), UltrafilterError,
     "principal index must be a natural number, got True"),
    (lambda: mv.SymbolicUltrafilter.free_on_residue(0.0, 2), UltrafilterError, "residue 0.0 mod 2 is not a residue class"),
    (lambda: mv.SymbolicUltrafilter.free_on_residue(1, 2.0), UltrafilterError, "residue 1 mod 2.0 is not a residue class"),
    (lambda: mv.SymbolicUltrafilter.free_on_residue(False, True), UltrafilterError,
     "residue False mod True is not a residue class"),
    (lambda: mv.truncate(spec_const(), 2.5), IndexRangeError, "truncation length must be a natural number, got 2.5"),
    (lambda: mv.truncate(spec_const(), True), IndexRangeError, "truncation length must be a natural number, got True"),
    # the census window, an index and a truncation length are checked by the library
    (lambda: mv.maximal_ideal_census(spec_const(), principal_limit=2.5), SchemaError,
     "--principal-limit must be >= 0, got 2.5"),
    (lambda: mv.maximal_ideal_census(spec_const(), principal_limit=True), SchemaError,
     "--principal-limit must be >= 0, got True"),
    (lambda: mv.maximal_ideal_census(spec_const(), principal_limit=-3), SchemaError,
     "--principal-limit must be >= 0, got -3"),
    (lambda: spec_const().order_at(1.5), IndexRangeError, "index 1.5 outside the index set"),
    (lambda: mv.zero_element(spec_const()).value_at(True), IndexRangeError, "index True outside the index set"),
    (lambda: mv.truncate_element(mv.zero_element(spec_const()), 2.5), IndexRangeError,
     "truncation length must be a natural number, got 2.5"),
])
def test_symbolic_refusals_report_exactly(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# Each type fault the CLI reports for a full_product document or an element,
# as a library call with the bad value in that field, and the CLI's message.
TYPE_FAULTS = {
    "period": (lambda v: mv.IndexSpec(v, [mv.ConstClass(2)]), lambda v: "field 'period' must be an integer"),
    "order": (lambda v: mv.IndexSpec(1, [mv.ConstClass(v)]), lambda v: "field 'order' must be an integer"),
    "step": (lambda v: mv.IndexSpec(1, [mv.UnboundedClass(v, 2)]), lambda v: "field 'step' must be an integer"),
    "start": (lambda v: mv.IndexSpec(1, [mv.UnboundedClass(1, v)]), lambda v: "field 'start' must be an integer"),
    "override value": (lambda v: mv.IndexSpec(1, [mv.ConstClass(2)], {0: v}),
                       lambda v: "override value for 0 must be an integer"),
    "limit": (finite_const_2, lambda v: "field 'limit' must be an integer"),
    "modulus": (lambda v: mv.SymbolicElement(spec_const(), v, {}, (0,)), lambda v: "field 'modulus' must be an integer"),
    "class value": (lambda v: mv.SymbolicElement(spec_const(), 1, {}, (v,)),
                    lambda v: f"class value {v!r} must be an integer, 'zero' or 'top'"),
    "prefix value": (lambda v: mv.SymbolicElement(spec_const(), 1, {0: v}, (0,)),
                     lambda v: "prefix value for 0 must be an integer"),
}


@pytest.mark.parametrize("bad", [1.0, 1.5, True, False, "1"], ids=repr)
@pytest.mark.parametrize("field", TYPE_FAULTS)
def test_library_refuses_non_integers_with_the_cli_message(field, bad):
    call, message = TYPE_FAULTS[field]
    with pytest.raises(SchemaError) as info:
        call(bad)
    assert str(info.value) == message(bad)


def test_index_spec_validation():
    with pytest.raises(SchemaError):
        mv.IndexSpec(0, [])
    with pytest.raises(SchemaError):
        mv.IndexSpec(1, [mv.ConstClass(1)])
    with pytest.raises(SchemaError):
        mv.IndexSpec(1, [mv.UnboundedClass(0, 2)])
    with pytest.raises(SchemaError):
        mv.IndexSpec(1, [mv.ConstClass(2)], {3: 1})
    with pytest.raises(SchemaError):
        mv.IndexSpec(1, [mv.ConstClass(2)], {9: 4}, limit=5)
    with pytest.raises(IndexRangeError):
        mv.IndexSpec(1, [mv.ConstClass(2)], limit=5).order_at(5)
    with pytest.raises(IndexRangeError):
        spec_4_5().order_at(-1)


# -- symbolic elements -------------------------------------------------------


def test_element_validation():
    spec = spec_4_6()
    with pytest.raises(SchemaError):
        mv.SymbolicElement(spec, 3, {}, (0, 0, 0))        # modulus not multiple of 2
    with pytest.raises(SchemaError):
        mv.SymbolicElement(spec, 2, {}, (2, mv.ZERO))     # numerator out of range
    with pytest.raises(SchemaError):
        mv.SymbolicElement(spec, 2, {}, (0, 1))           # int on an unbounded class
    withp = mv.IndexSpec(1, [mv.ConstClass(3)], {5: 7})
    with pytest.raises(SchemaError):
        mv.SymbolicElement(withp, 1, {}, (2,))            # override index lacks prefix
    ok = mv.SymbolicElement(withp, 1, {5: 6}, (2,))
    assert ok.value_at(5) == Fraction(1) and ok.value_at(4) == Fraction(1)


def test_element_values_and_ops():
    spec = spec_4_6()
    f = mv.SymbolicElement(spec, 2, {}, (1, mv.TOP))      # all-top element
    assert f.value_at(0) == 1 and f.value_at(3) == 1
    g = f.neg()
    assert g.class_values == (0, mv.ZERO)
    assert g.value_at(5) == 0
    assert g.neg().equals(f)

    zero = mv.zero_element(spec)
    assert f.oplus(zero).equals(f)
    assert zero.oplus(zero).equals(zero)
    assert f.oplus(g).equals(mv.top_element(spec))        # x (+) neg x = 1 on chains? no:
    # on each coordinate k (+) (n-1-k) >= n-1 truncates to the top, so f (+) neg f = top here


def test_const_class_truncation():
    spec = spec_const(3)
    half = mv.SymbolicElement(spec, 1, {}, (1,))
    assert half.oplus(half).class_values == (2,)          # 1/2 (+) 1/2 = 1


def test_ops_at_prefix_indices():
    spec = spec_4_5()
    f = mv.SymbolicElement(spec, 1, {2: 3}, (mv.ZERO,))   # 3/3 at index 2, zero elsewhere
    g = mv.SymbolicElement(spec, 1, {2: 2}, (mv.ZERO,))
    s = f.oplus(g)
    assert s.prefix[2] == 3                               # truncated at the 4-element chain top
    assert s.value_at(2) == 1
    assert s.value_at(7) == 0


def test_modulus_refinement():
    spec = spec_4_5()
    f = mv.SymbolicElement(spec, 2, {}, (mv.ZERO, mv.TOP))
    g = mv.SymbolicElement(spec, 3, {}, (mv.ZERO, mv.ZERO, mv.TOP))
    s = f.oplus(g)
    assert s.modulus == 6
    for x in range(24):
        expected = truncadd(f.value_at(x), g.value_at(x))
        assert s.value_at(x) == expected


def test_mismatched_specs_rejected():
    with pytest.raises(MismatchedChainError):
        mv.zero_element(spec_4_5()).oplus(mv.zero_element(spec_4_6()))


# -- ultrafilter limits ------------------------------------------------------


def test_principal_limit_is_evaluation():
    spec = spec_4_6()
    rng = random.Random(41)
    for _ in range(25):
        f = random_symbolic_element(spec, rng)
        x = rng.randrange(12)
        assert mv.ultrafilter_limit(f, mv.SymbolicUltrafilter.principal(x)) == f.value_at(x)


def test_free_limit_on_const_class():
    spec = spec_4_6()
    f = mv.SymbolicElement(spec, 2, {}, (1, mv.ZERO))
    free = mv.SymbolicUltrafilter.free_on_residue(0, 2)
    assert mv.ultrafilter_limit(f, free) == 1
    assert not mv.in_kernel(f, free)


def test_free_limit_via_canonical_refinement():
    spec = spec_4_5()
    f = mv.SymbolicElement(spec, 3, {}, (mv.ZERO, mv.TOP, mv.ZERO))
    # a free ultrafilter on 1 mod 2 concentrates on 1 mod 6, where f is TOP
    assert mv.ultrafilter_limit(f, mv.SymbolicUltrafilter.free_on_residue(1, 2)) == 1
    # on 0 mod 2 it concentrates on 0 mod 6, where f is ZERO
    assert mv.ultrafilter_limit(f, mv.SymbolicUltrafilter.free_on_residue(0, 2)) == 0


def test_free_ultrafilters_at_finer_resolution():
    spec = spec_4_6()
    f = mv.SymbolicElement(spec, 4, {}, (0, mv.TOP, 1, mv.ZERO))
    # free:1:2 concentrates on 1 mod 4 by the filtration convention
    assert mv.ultrafilter_limit(f, mv.SymbolicUltrafilter.free_on_residue(1, 2)) == 1
    assert mv.ultrafilter_limit(f, mv.SymbolicUltrafilter.free_on_residue(1, 4)) == 1
    # free:3:4 names a different family inside the same mod-2 class
    assert mv.ultrafilter_limit(f, mv.SymbolicUltrafilter.free_on_residue(3, 4)) == 0
    assert mv.ultrafilter_limit(f, mv.SymbolicUltrafilter.free_on_residue(0, 2)) == 0
    assert mv.ultrafilter_limit(f, mv.SymbolicUltrafilter.free_on_residue(2, 4)) == 1


def test_census_default_window_covers_overrides():
    spec = mv.IndexSpec(1, [mv.ConstClass(2)], {9: 5})
    census = mv.maximal_ideal_census(spec)
    principal = [d for d in census if d.kind == "principal"]
    assert len(principal) == 10
    assert principal[9].rank == 5


def test_free_limits_ignore_prefix():
    spec = spec_const(4)
    f = mv.SymbolicElement(spec, 1, {0: 3, 7: 2}, (1,))
    free = mv.SymbolicUltrafilter.free_on_residue(0, 1)
    assert mv.ultrafilter_limit(f, free) == Fraction(1, 3)
    assert mv.ultrafilter_limit(f, mv.SymbolicUltrafilter.principal(0)) == 1


def test_ultrafilter_validation():
    finite = mv.IndexSpec(1, [mv.ConstClass(2)], limit=4)
    with pytest.raises(UltrafilterError):
        mv.ultrafilter_limit(
            mv.zero_element(finite), mv.SymbolicUltrafilter.free_on_residue(0, 1))
    with pytest.raises(UltrafilterError):
        mv.ultrafilter_limit(
            mv.zero_element(finite), mv.SymbolicUltrafilter.principal(9))
    with pytest.raises(UltrafilterError):
        mv.ultrafilter_limit(
            mv.zero_element(spec_4_6()), mv.SymbolicUltrafilter.free_on_residue(0, 3))


def test_limit_homomorphism_randomized():
    rng = random.Random(20260808)
    for name, spec in bundled_specs():
        for _ in range(60):
            f = random_symbolic_element(spec, rng)
            g = random_symbolic_element(spec, rng)
            ultra = random_ultrafilter(spec, rng)
            assert mv.ultrafilter_limit(f.oplus(g), ultra) == truncadd(
                mv.ultrafilter_limit(f, ultra), mv.ultrafilter_limit(g, ultra))
            assert mv.ultrafilter_limit(f.neg(), ultra) == 1 - mv.ultrafilter_limit(f, ultra)


def test_kernel_membership_matches_zero_limit():
    rng = random.Random(7)
    for name, spec in bundled_specs():
        for _ in range(40):
            f = random_symbolic_element(spec, rng)
            ultra = random_ultrafilter(spec, rng)
            zero_limit = mv.ultrafilter_limit(f, ultra) == 0
            assert mv.in_kernel(f, ultra) == in_kernel_by_sublevels(f, ultra) == zero_limit


def test_symbolic_elements_closed_under_ops():
    rng = random.Random(13)
    for name, spec in bundled_specs():
        for _ in range(30):
            f = random_symbolic_element(spec, rng)
            g = random_symbolic_element(spec, rng)
            s = f.oplus(g)       # constructor re-validates the result
            t = f.neg()
            for x in rng.sample(range(18), 4):
                assert s.value_at(x) == truncadd(f.value_at(x), g.value_at(x))
                assert t.value_at(x) == 1 - f.value_at(x)


# -- census and verdicts -----------------------------------------------------


def test_census_bundled_families():
    census = mv.maximal_ideal_census(spec_4_5(), principal_limit=5)
    principal = [d for d in census if d.kind == "principal"]
    free = [d for d in census if d.kind == "free_class"]
    assert [d.rank for d in principal] == [2, 3, 4, 5, 6]
    assert all(d.principal for d in principal)
    assert len(free) == 1 and free[0].rank == mv.INFINITE and not free[0].principal

    census = mv.maximal_ideal_census(spec_4_6(), principal_limit=4)
    free = {d.residue: d.rank for d in census if d.kind == "free_class"}
    assert free == {0: 2, 1: mv.INFINITE}


def test_census_all_const_has_no_infinite_rank():
    census = mv.maximal_ideal_census(spec_const(3), principal_limit=6)
    assert all(d.rank != mv.INFINITE for d in census)
    assert {d.rank for d in census} == {3}


def test_census_finite_index_set():
    finite = mv.IndexSpec(2, [mv.ConstClass(2), mv.ConstClass(3)], limit=5)
    census = mv.maximal_ideal_census(finite)
    assert len(census) == 5
    assert all(d.kind == "principal" for d in census)
    assert [d.rank for d in census] == [2, 3, 2, 3, 2]


def test_decide_strongly_complete():
    assert mv.decide_strongly_complete(spec_4_5()).strongly_complete
    verdict = mv.decide_strongly_complete(spec_4_6())
    assert not verdict.strongly_complete
    w = verdict.witness
    assert w.kind == "free_class" and w.rank == 2 and not w.principal and w.residue == 0
    assert not mv.decide_strongly_complete(spec_const(4)).strongly_complete
    finite = mv.IndexSpec(1, [mv.ConstClass(4)], limit=3)
    assert mv.decide_strongly_complete(finite).strongly_complete


@given(st.integers(2, 9), st.integers(1, 3), st.integers(2, 6))
def test_adding_const_class_never_restores_completeness(order, step, start):
    base = mv.IndexSpec(2, [mv.ConstClass(order), mv.UnboundedClass(step, start)])
    assert not mv.decide_strongly_complete(base).strongly_complete
    extended = mv.IndexSpec(3, list(base.classes) + [mv.ConstClass(order)])
    assert not mv.decide_strongly_complete(extended).strongly_complete


SPEC_CLASSES = st.one_of(
    st.builds(mv.ConstClass, st.integers(2, 6)),
    st.builds(mv.UnboundedClass, st.integers(1, 3), st.integers(2, 5)),
)


@st.composite
def index_specs(draw):
    """Periods 1-4, constant and unbounded classes, up to two overrides, and
    a finite (0-8 indices) or infinite index set."""
    period = draw(st.integers(1, 4))
    classes = draw(st.lists(SPEC_CLASSES, min_size=period, max_size=period))
    limit = draw(st.none() | st.integers(0, 8))
    overrides = {}
    if limit != 0:
        last = 7 if limit is None else limit - 1
        overrides = draw(st.dictionaries(st.integers(0, last), st.integers(2, 6), max_size=2))
    return mv.IndexSpec(period, classes, overrides, limit)


@settings(derandomize=True, max_examples=200)
@given(index_specs())
def test_verdicts_read_off_the_census_match_the_class_scan(spec):
    """`decide_strongly_complete` and `completion_report`, both read off the
    census's free classes, against the scan for a constant class; the
    report's free families are the constant classes of an infinite set."""
    want = decide_by_class_scan(spec)
    assert mv.decide_strongly_complete(spec) == want
    report = mv.completion_report(spec)
    assert (report.strongly_complete, report.witness) == (want.strongly_complete, want.witness)
    families = [(r, spec.period, cls.order) for r, cls in enumerate(spec.classes)
                if spec.is_infinite and isinstance(cls, mv.ConstClass)]
    assert [(f.residue, f.modulus, f.order) for f in report.free_families] == families


def test_completion_reports():
    report = mv.completion_report(mv.IndexSpec(2, [mv.ConstClass(2), mv.ConstClass(3)], limit=2))
    assert report.strongly_complete and report.finite_orders == (2, 3)
    assert report.free_families == ()

    report = mv.completion_report(spec_4_5())
    assert report.strongly_complete and report.free_families == ()
    assert report.finite_orders is None

    report = mv.completion_report(spec_4_6())
    assert not report.strongly_complete
    assert len(report.free_families) == 1
    fam = report.free_families[0]
    assert fam.residue == 0 and fam.order == 2 and fam.modulus == 2
    assert "ultrafilter" in fam.multiplicity


# -- truncations -------------------------------------------------------------


def test_truncate_examples():
    assert mv.decompose(mv.truncate(spec_4_6(), 4)).sorted_orders == (2, 2, 2, 4)
    assert mv.decompose(mv.truncate(spec_4_5(), 3)).sorted_orders == (2, 3, 4)
    assert mv.truncate(spec_4_5(), 0).size == 1


def test_truncate_caps(monkeypatch):
    def no_chain(order):
        raise AssertionError(f"chain of order {order} built past the cap")

    # every case is refused before a chain is built, an order of 10^6 too
    monkeypatch.setattr(mv.finite, "chain_algebra", no_chain)   # the name `chain_product` reads
    with pytest.raises(ResourceCapError):
        mv.truncate(spec_4_5(), 8, max_size=4096)
    with pytest.raises(ResourceCapError, match="truncation length 20 exceeds the index cap of 16"):
        mv.truncate(spec_const(2), 20)                    # over the index window cap
    with pytest.raises(IndexRangeError):
        mv.truncate(mv.IndexSpec(1, [mv.ConstClass(2)], limit=3), 4)
    with pytest.raises(ResourceCapError, match="carrier size 1000000 exceeds the cap of 4096"):
        mv.truncate(spec_const(10**6), 1)
    with pytest.raises(ResourceCapError, match="carrier size 2000000 exceeds the cap of 4096"):
        mv.truncate(mv.IndexSpec(2, [mv.ConstClass(2), mv.ConstClass(10**6)]), 2)


def test_truncate_element_digits():
    spec = spec_4_6()
    rng = random.Random(23)
    for _ in range(20):
        f = random_symbolic_element(spec, rng)
        algebra = mv.truncate(spec, 4)
        idx = mv.truncate_element(f, 4)
        # decode the big-endian mixed-radix index back into numerators
        digits = []
        for x in reversed(range(4)):
            n = spec.order_at(x)
            digits.append(idx % n)
            idx //= n
        digits.reverse()
        assert digits == [f.numerator_at(x) for x in range(4)]
        assert 0 <= mv.truncate_element(f, 4) < algebra.size


def test_census_agrees_with_truncation_classification_smallscale():
    for name, spec in bundled_specs():
        algebra = mv.truncate(spec, 4)
        maximals = mv.maximal_decomposition(algebra, mv.zero_ideal(algebra))
        ranks = sorted(mv.quotient(algebra, m)[0].size for m in maximals)
        census = mv.maximal_ideal_census(spec, principal_limit=4)
        expected = sorted(d.rank for d in census if d.kind == "principal" and d.index < 4)
        assert len(maximals) == 4
        assert ranks == expected
