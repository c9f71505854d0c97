"""Exception hierarchy shared by all mvkit modules.

The CLI maps these onto exit codes: SchemaError -> 3, ResourceCapError -> 4,
DomainError (and subclasses) -> 2.  InternalConsistencyError signals a bug in
mvkit itself and is never caught.
"""


class MVKitError(Exception):
    """Base class for all mvkit errors."""


class SchemaError(MVKitError):
    """Malformed input document or structurally invalid operation tables."""


class ResourceCapError(MVKitError):
    """A computation would exceed a configured cap (carrier size, index window)."""

    def __init__(self, needed, cap, message=None):
        super().__init__(message or f"carrier size {needed} exceeds the cap of {cap}")
        self.needed = needed
        self.cap = cap


class DomainError(MVKitError):
    """Domain-level negative result or violated precondition."""


class MVAxiomError(DomainError):
    """Operation tables violate an MV-algebra axiom.

    `axiom` is one of "commutative", "associative", "identity", "involution",
    "mv1", "mv2"; `witness` is the offending element-index tuple.
    """

    def __init__(self, axiom, witness, message=None):
        super().__init__(message or f"axiom {axiom!r} fails at witness {witness}")
        self.axiom = axiom
        self.witness = tuple(witness)


class MismatchedChainError(DomainError):
    """Two chain elements from incompatible carriers were combined."""


class NotCentralError(DomainError):
    """Interval operations require an element of the Boolean center."""


class NotAnIdealError(DomainError):
    """A carrier subset fails one of the two ideal closure clauses."""


class DecompositionError(DomainError):
    """The algebra is not a product of chains (or is trivial)."""


class PreconditionError(DomainError):
    """An operation's stated precondition does not hold."""


class UltrafilterError(DomainError):
    """Ultrafilter description invalid for the given index specification."""


class IndexRangeError(DomainError):
    """Index outside the index set of a symbolic presentation."""


class InternalConsistencyError(MVKitError):
    """Invariant that must hold by construction was violated (a bug)."""
