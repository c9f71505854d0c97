"""Symbolically presented infinite products of Lukasiewicz chains.

An IndexSpec assigns a chain order to every index x in an index set (all of
the naturals, or an initial segment): indices are grouped into residue
classes modulo a period, each class carries either a constant order or a
strictly increasing affine law, and finitely many indices may be overridden.
Elements of the product are represented only when eventually periodic: a
finite prefix of explicit numerators plus one value per residue class of the
element's own modulus.  On classes with unbounded orders the eventual value
is restricted to the two constants 0 and 1, which keeps every pointwise
operation and every ultrafilter limit exact and total.

Ultrafilters are definable ones only: principal at an index, or free and
concentrated on a residue class.  `free_on_residue(r, m)` stands for any
free ultrafilter containing every arithmetic progression {x = r mod M} with
M a multiple of m; all such ultrafilters give the same limit to every
representable element, so limits are well defined without choosing one.
Every free ultrafilter contains exactly one residue class modulo the spec
period (the classes partition the index set), so the census of maximal
ideals at period resolution already determines every quotient rank: a
constant class of order n yields rank n, an unbounded class yields infinite
rank because the orders grow without bound along every infinite subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    IndexRangeError,
    MismatchedChainError,
    ResourceCapError,
    SchemaError,
    UltrafilterError,
)
from .finite import DEFAULT_MAX_SIZE, FiniteMVAlgebra, _all_ints, _expect, chain_product

ZERO = "zero"
TOP = "top"
INFINITE = "infinite"

DEFAULT_MAX_TRUNCATION = 16


@dataclass(frozen=True)
class ConstClass:
    """A residue class all of whose members carry the same chain order."""

    order: int

    def order_at(self, k: int) -> int:
        return self.order


@dataclass(frozen=True)
class UnboundedClass:
    """A residue class whose k-th member carries order step*k + start."""

    step: int
    start: int

    def order_at(self, k: int) -> int:
        return self.step * k + self.start


class IndexSpec:
    """Eventually periodic assignment of chain orders to indices.

    `classes[r]` governs the indices congruent to r modulo `period`;
    `prefix_overrides` replaces the order at finitely many indices; `limit`
    is None for the full natural-number index set or the number of indices.
    Every type is checked before any range, with the CLI's messages (floats
    and bools are not integers): the one admission path for presentations.
    """

    def __init__(self, period, classes, prefix_overrides=None, limit=None):
        classes = tuple(classes)
        overrides = dict(prefix_overrides or {})
        _expect(_all_ints([period]), "field 'period' must be an integer")
        for cls in classes:
            _expect(isinstance(cls, (ConstClass, UnboundedClass)), "unknown class kind {!r}", cls)
            for name, value in vars(cls).items():
                _expect(_all_ints([value]), "field {!r} must be an integer", name)
        for x, order in overrides.items():
            _expect(_all_ints([x]), "override index {!r} must be a natural number", x)
            _expect(_all_ints([order]), "override value for {} must be an integer", x)
        _expect(limit is None or _all_ints([limit]), "field 'limit' must be an integer")
        _expect(period >= 1, "period must be a positive integer, got {!r}", period)
        _expect(len(classes) == period, "{} classes for period {}", len(classes), period)
        for cls in classes:
            if isinstance(cls, ConstClass):
                _expect(cls.order >= 2, "constant class order must be >= 2, got {}", cls.order)
            else:
                _expect(cls.step >= 1 and cls.start >= 2,
                        "unbounded class needs step >= 1 and start >= 2, got {!r}", cls)
        for x, order in overrides.items():
            _expect(x >= 0, "override index {!r} must be a natural number", x)
            _expect(order >= 2, "override order at {} must be >= 2, got {!r}", x, order)
        if limit is not None:
            _expect(limit >= 0, "index-set limit must be a natural number, got {!r}", limit)
            for x in overrides:
                _expect(x < limit, "override index {} outside the finite index set", x)
        self.period = period
        self.classes = classes
        self.prefix_overrides = overrides
        self.limit = limit

    @property
    def is_infinite(self) -> bool:
        return self.limit is None

    def class_at(self, x: int):
        return self.classes[x % self.period]

    def order_at(self, x: int) -> int:
        if not _all_ints([x]) or x < 0 or (self.limit is not None and x >= self.limit):
            raise IndexRangeError(f"index {x!r} outside the index set")
        if x in self.prefix_overrides:
            return self.prefix_overrides[x]
        return self.classes[x % self.period].order_at(x // self.period)

    def __eq__(self, other):
        return (
            isinstance(other, IndexSpec)
            and self.period == other.period
            and self.classes == other.classes
            and self.prefix_overrides == other.prefix_overrides
            and self.limit == other.limit
        )

    def __repr__(self):
        tail = "infinite" if self.is_infinite else f"limit={self.limit}"
        return f"IndexSpec(period={self.period}, {tail})"


class SymbolicElement:
    """An eventually periodic element of the presented product.

    `class_values[r]` gives the value on the indices congruent to r modulo
    the element's own modulus (a multiple of the spec period): a numerator on
    constant classes, ZERO or TOP on unbounded ones.  `prefix` overrides
    finitely many indices with explicit numerators; every index whose chain
    order is overridden in the spec must appear in the prefix, so class
    values are always interpreted in the chain their class law dictates.
    Checked as `IndexSpec` is, every type before the first `spec.order_at`.
    """

    def __init__(self, spec, modulus, prefix=None, class_values=()):
        class_values = tuple(class_values)
        prefix = dict(prefix or {})
        _expect(_all_ints([modulus]), "field 'modulus' must be an integer")
        for v in class_values:
            _expect(_all_ints([v]) or v in (ZERO, TOP), "class value {!r} must be an integer, 'zero' or 'top'", v)
        for x, v in prefix.items():
            _expect(_all_ints([x]), "prefix index {!r} must be an integer", x)
            _expect(_all_ints([v]), "prefix value for {} must be an integer", x)
        _expect(modulus >= 1 and modulus % spec.period == 0,
                "modulus must be a positive multiple of the period {}, got {!r}", spec.period, modulus)
        _expect(len(class_values) == modulus, "{} class values for modulus {}", len(class_values), modulus)
        for x, v in prefix.items():
            order = spec.order_at(x)  # raises on out-of-range indices
            _expect(0 <= v <= order - 1, "prefix value {} invalid in the {}-element chain at {}", v, order, x)
        for x in spec.prefix_overrides:
            _expect(x in prefix, "index {} has an overridden chain order and needs an explicit prefix value", x)
        for r, v in enumerate(class_values):
            cls = spec.class_at(r)
            if isinstance(cls, ConstClass):
                _expect(isinstance(v, int) and 0 <= v <= cls.order - 1,
                        "class value {!r} at residue {} invalid in a {}-element chain", v, r, cls.order)
            else:
                _expect(v in (ZERO, TOP), "class value {!r} at residue {}: unbounded classes take only ZERO/TOP", v, r)
        self.spec = spec
        self.modulus = modulus
        self.prefix = prefix
        self.class_values = class_values

    # -- pointwise evaluation ------------------------------------------

    def numerator_at(self, x: int) -> int:
        order = self.spec.order_at(x)
        if x in self.prefix:
            return self.prefix[x]
        v = self.class_values[x % self.modulus]
        if v == ZERO:
            return 0
        if v == TOP:
            return order - 1
        return v

    def value_at(self, x: int) -> Fraction:
        return Fraction(self.numerator_at(x), self.spec.order_at(x) - 1)

    def eventual_value(self, residue: int) -> Fraction:
        """The constant value taken on residue class `residue` past the prefix."""
        v = self.class_values[residue % self.modulus]
        if v == ZERO:
            return Fraction(0)
        if v == TOP:
            return Fraction(1)
        cls = self.spec.class_at(residue)
        return Fraction(v, cls.order - 1)

    # -- pointwise operations ------------------------------------------

    def with_modulus(self, new_modulus: int) -> "SymbolicElement":
        if new_modulus % self.modulus:
            raise SchemaError(f"{new_modulus} does not refine modulus {self.modulus}")
        values = tuple(self.class_values[r % self.modulus] for r in range(new_modulus))
        return SymbolicElement(self.spec, new_modulus, self.prefix, values)

    def _check_spec(self, other: "SymbolicElement") -> None:
        if self.spec != other.spec:
            raise MismatchedChainError("elements belong to different index specifications")

    def oplus(self, other: "SymbolicElement") -> "SymbolicElement":
        self._check_spec(other)
        lcm = math.lcm(self.modulus, other.modulus)
        f, g = self.with_modulus(lcm), other.with_modulus(lcm)
        values = []
        for r in range(lcm):
            cls = self.spec.class_at(r)
            a, b = f.class_values[r], g.class_values[r]
            if isinstance(cls, ConstClass):
                values.append(min(a + b, cls.order - 1))
            else:
                values.append(TOP if TOP in (a, b) else ZERO)
        prefix = {}
        for x in sorted(set(f.prefix) | set(g.prefix)):
            order = self.spec.order_at(x)
            prefix[x] = min(f.numerator_at(x) + g.numerator_at(x), order - 1)
        return SymbolicElement(self.spec, lcm, prefix, values)

    def neg(self) -> "SymbolicElement":
        values = []
        for r in range(self.modulus):
            cls = self.spec.class_at(r)
            v = self.class_values[r]
            if isinstance(cls, ConstClass):
                values.append(cls.order - 1 - v)
            else:
                values.append(ZERO if v == TOP else TOP)
        prefix = {x: self.spec.order_at(x) - 1 - v for x, v in self.prefix.items()}
        return SymbolicElement(self.spec, self.modulus, prefix, values)

    # -- normalization and comparison ----------------------------------

    def canonical(self) -> tuple:
        """Hashable normal form: prefix entries agreeing with their class value dropped."""
        prefix = {}
        for x, v in sorted(self.prefix.items()):
            cls_v = self.class_values[x % self.modulus]
            if x in self.spec.prefix_overrides:
                prefix[x] = v
                continue
            if cls_v == ZERO:
                implied = 0
            elif cls_v == TOP:
                implied = self.spec.order_at(x) - 1
            else:
                implied = cls_v
            if v != implied:
                prefix[x] = v
        return (self.modulus, tuple(sorted(prefix.items())), self.class_values)

    def equals(self, other: "SymbolicElement") -> bool:
        self._check_spec(other)
        lcm = math.lcm(self.modulus, other.modulus)
        return self.with_modulus(lcm).canonical() == other.with_modulus(lcm).canonical()

    def __repr__(self):
        return f"SymbolicElement(mod {self.modulus}, prefix {self.prefix}, {self.class_values})"


def zero_element(spec: IndexSpec) -> SymbolicElement:
    values = tuple(0 if isinstance(c, ConstClass) else ZERO for c in spec.classes)
    prefix = {x: 0 for x in spec.prefix_overrides}
    return SymbolicElement(spec, spec.period, prefix, values)


def top_element(spec: IndexSpec) -> SymbolicElement:
    values = tuple(c.order - 1 if isinstance(c, ConstClass) else TOP for c in spec.classes)
    prefix = {x: spec.order_at(x) - 1 for x in spec.prefix_overrides}
    return SymbolicElement(spec, spec.period, prefix, values)


@dataclass(frozen=True)
class SymbolicUltrafilter:
    """Principal at an index, or free and concentrated on a residue class."""

    kind: str
    index: int | None = None
    residue: int | None = None
    modulus: int | None = None

    @staticmethod
    def principal(index: int) -> "SymbolicUltrafilter":
        if not _all_ints([index]) or index < 0:
            raise UltrafilterError(f"principal index must be a natural number, got {index}")
        return SymbolicUltrafilter("principal", index=index)

    @staticmethod
    def free_on_residue(residue: int, modulus: int) -> "SymbolicUltrafilter":
        if not _all_ints([residue, modulus]) or modulus < 1 or not 0 <= residue < modulus:
            raise UltrafilterError(f"residue {residue} mod {modulus} is not a residue class")
        return SymbolicUltrafilter("free", residue=residue, modulus=modulus)

    def validate_for(self, spec: IndexSpec) -> None:
        if self.kind == "principal":
            if spec.limit is not None and self.index >= spec.limit:
                raise UltrafilterError(f"principal index {self.index} outside the index set")
        else:
            if not spec.is_infinite:
                raise UltrafilterError("free ultrafilters require an infinite index set")
            if self.modulus % spec.period:
                raise UltrafilterError(
                    f"free ultrafilter modulus {self.modulus} must be a multiple of the period {spec.period}")


def ultrafilter_limit(f: SymbolicElement, ultra: SymbolicUltrafilter) -> Fraction:
    """The limit of f along the described ultrafilter, as an exact rational.

    Principal ultrafilters evaluate; a free ultrafilter on r mod m sees the
    eventual value of f on the residue class r modulo lcm(m, modulus of f),
    which by the filtration convention is the class the ultrafilter
    concentrates on.  Prefix entries never matter for free limits because
    free ultrafilters contain every cofinite set.
    """
    ultra.validate_for(f.spec)
    if ultra.kind == "principal":
        return f.value_at(ultra.index)
    return f.eventual_value(ultra.residue % f.modulus)


def in_kernel(f: SymbolicElement, ultra: SymbolicUltrafilter) -> bool:
    """Membership of f in the maximal ideal of the ultrafilter U, which is
    {f : lim_U f = 0}: the ideal contains f exactly when every sublevel set
    {x : f(x) < eps}, eps > 0, belongs to U, that is when lim_U f < eps for
    every eps > 0.
    """
    return ultrafilter_limit(f, ultra) == 0


@dataclass(frozen=True)
class MaximalIdealDescriptor:
    """One maximal ideal of the presented product, up to definability.

    kind "principal": the kernel of the projection at `index` (always a
    principal ideal, rank = chain order there).  kind "free_class": the
    common shape of the kernels of all free ultrafilters concentrated on
    `residue` mod `modulus` (never principal; rank is the class order for
    constant classes and INFINITE for unbounded ones).
    """

    kind: str
    rank: object
    principal: bool
    index: int | None = None
    residue: int | None = None
    modulus: int | None = None


def maximal_ideal_census(spec: IndexSpec, principal_limit=None) -> tuple:
    """Descriptors for the definable maximal ideals.

    Finite index sets get one principal descriptor per index and nothing
    else.  Infinite index sets additionally get one free-class descriptor per
    residue class modulo the period; their principal family is infinite, so
    only the indices below `principal_limit` (default: a window covering all
    overrides plus two periods) are materialized; it must be an int >= 0,
    with the CLI's message, on any index set.
    """
    if principal_limit is None:
        principal_limit = max(2 * spec.period, max(spec.prefix_overrides, default=0) + 1)
    _expect(_all_ints([principal_limit]) and principal_limit >= 0,
            "--principal-limit must be >= 0, got {}", principal_limit)
    window = principal_limit if spec.limit is None else spec.limit
    out = [
        MaximalIdealDescriptor("principal", rank=spec.order_at(x), principal=True, index=x)
        for x in range(window)
    ]
    out += _free_classes(spec)
    return tuple(out)


def _free_classes(spec: IndexSpec):
    """The census's free classes: one per residue class modulo the period of
    an infinite index set, of rank INFINITE on an unbounded class."""
    if spec.is_infinite:
        for r, cls in enumerate(spec.classes):
            rank = cls.order if isinstance(cls, ConstClass) else INFINITE
            yield MaximalIdealDescriptor(
                "free_class", rank=rank, principal=False, residue=r, modulus=spec.period)


@dataclass(frozen=True)
class StrongCompletenessVerdict:
    strongly_complete: bool
    witness: MaximalIdealDescriptor | None


def decide_strongly_complete(spec: IndexSpec) -> StrongCompletenessVerdict:
    """Is the presented product isomorphic to its own profinite completion?

    The product is profinite by construction, so the question reduces to
    whether every finite-rank maximal ideal is principal: the census's free
    classes are the non-principal ones, and the witness is the first of
    finite rank.  Finite index sets have none; on an infinite one a constant
    class has finite rank, an unbounded class infinite rank (every order
    occurs at finitely many indices).
    """
    witness = next((d for d in _free_classes(spec) if d.rank != INFINITE), None)
    return StrongCompletenessVerdict(witness is None, witness)


@dataclass(frozen=True)
class FreeFactorFamily:
    """A family of identical chain factors of the completion, one per free
    ultrafilter on a residue class; the multiplicity is reported symbolically
    because it is never a computable cardinal."""

    residue: int
    modulus: int
    order: int
    multiplicity: str = "one chain factor per free ultrafilter on this residue class"


@dataclass(frozen=True)
class CompletionReport:
    """Description of the profinite completion of the presented product.

    The completion is the product over all finite-rank maximal ideals of the
    corresponding quotient chains: the principal family (the spec itself)
    plus one factor family per constant class of an infinite index set.  The
    verdict is positive exactly when no extra family appears; for finite
    index sets `finite_orders` lists the completion exactly.
    """

    strongly_complete: bool
    witness: MaximalIdealDescriptor | None
    spec: IndexSpec
    free_families: tuple
    finite_orders: tuple | None


def completion_report(spec: IndexSpec) -> CompletionReport:
    verdict = decide_strongly_complete(spec)
    families = tuple(
        FreeFactorFamily(residue=d.residue, modulus=d.modulus, order=d.rank)
        for d in _free_classes(spec)
        if d.rank != INFINITE
    )
    finite_orders = None
    if spec.limit is not None:
        finite_orders = tuple(spec.order_at(x) for x in range(spec.limit))
    return CompletionReport(
        strongly_complete=verdict.strongly_complete,
        witness=verdict.witness,
        spec=spec,
        free_families=families,
        finite_orders=finite_orders,
    )


def truncate(spec: IndexSpec, count: int, max_size=DEFAULT_MAX_SIZE,
             max_indices=DEFAULT_MAX_TRUNCATION) -> FiniteMVAlgebra:
    """The finite product of the chains at indices 0..count-1, built by
    `chain_product`: refused by the cap before any chain is built."""
    if not _all_ints([count]) or count < 0:
        raise IndexRangeError(f"truncation length must be a natural number, got {count}")
    if spec.limit is not None and count > spec.limit:
        raise IndexRangeError(f"truncation length {count} exceeds the index set")
    if max_indices is not None and count > max_indices:
        raise ResourceCapError(count, max_indices,
                               f"truncation length {count} exceeds the index cap of {max_indices}")
    return chain_product([spec.order_at(x) for x in range(count)], max_size)


def truncate_element(f: SymbolicElement, count: int) -> int:
    """Carrier index of the truncated element inside truncate(spec, count)."""
    if not _all_ints([count]) or count < 0:
        raise IndexRangeError(f"truncation length must be a natural number, got {count}")
    index = 0
    for x in range(count):
        index = index * f.spec.order_at(x) + f.numerator_at(x)
    return index
