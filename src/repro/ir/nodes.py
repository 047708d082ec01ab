"""IR node definitions for the vertex/edge → linear algebra translation.

The paper's methodology is two steps: (1) rewrite vertex- and edge-centric
constructs as linear-algebra expressions; (2) map those expressions onto
GraphBLAS calls.  This module defines the intermediate form between the
two — a small expression/statement language over named sparse objects:

Expressions (evaluate to a Vector/Matrix/Scalar):
    ``Ref``, ``ApplyUnary``, ``EWiseAdd``, ``EWiseMult``, ``EWiseUnion``,
    ``VxM``, ``MxV``, ``MxM``, ``Reduce``, ``TransposeExpr``, ``SelectExpr``

Statements (mutate the environment):
    ``Declare``, ``Assign``, ``SetElement``, ``Clear``, ``SetScalar``,
    ``While``

Operator references inside nodes may be literal operator objects or
*thunks* — callables receiving the scalar environment — so loop-dependent
operators (the paper's ``delta_irange`` with its ``i*delta`` bounds) stay
first-class without re-building the program each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "Expr",
    "Ref",
    "ApplyUnary",
    "EWiseAdd",
    "EWiseMult",
    "EWiseUnion",
    "VxM",
    "MxV",
    "MxM",
    "Reduce",
    "TransposeExpr",
    "SelectExpr",
    "Statement",
    "Declare",
    "Assign",
    "SetElement",
    "Clear",
    "SetScalar",
    "While",
    "NvalsNonzero",
    "Program",
]


class Expr:
    """Base class of IR expressions."""

    def children(self) -> tuple["Expr", ...]:
        return ()


@dataclass(frozen=True)
class Ref(Expr):
    """Reference to a named object in the environment."""

    name: str

    def __repr__(self) -> str:
        return self.name


def _as_expr(x) -> Expr:
    return x if isinstance(x, Expr) else Ref(str(x))


@dataclass(frozen=True)
class ApplyUnary(Expr):
    """``op(a)`` element-wise over stored values (``GrB_apply``)."""

    op: object  # UnaryOp or thunk(env) -> UnaryOp
    a: Expr

    def children(self):
        return (self.a,)


@dataclass(frozen=True)
class EWiseAdd(Expr):
    """Union element-wise combine."""

    op: object
    a: Expr
    b: Expr

    def children(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class EWiseMult(Expr):
    """Intersection element-wise combine (Hadamard)."""

    op: object
    a: Expr
    b: Expr

    def children(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class EWiseUnion(Expr):
    """Union combine with fill values: *alpha* stands in for a missing
    *a* entry and *beta* for a missing *b* entry."""

    op: object
    a: Expr
    alpha: float
    b: Expr
    beta: float

    def children(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class VxM(Expr):
    """``v' ⊕.⊗ M``."""

    semiring: object
    v: Expr
    m: Expr

    def children(self):
        return (self.v, self.m)


@dataclass(frozen=True)
class MxV(Expr):
    """``M ⊕.⊗ v``."""

    semiring: object
    m: Expr
    v: Expr

    def children(self):
        return (self.m, self.v)


@dataclass(frozen=True)
class MxM(Expr):
    """``A ⊕.⊗ B``."""

    semiring: object
    a: Expr
    b: Expr

    def children(self):
        return (self.a, self.b)


@dataclass(frozen=True)
class Reduce(Expr):
    """Monoid reduction to a scalar."""

    monoid: object
    a: Expr

    def children(self):
        return (self.a,)


@dataclass(frozen=True)
class TransposeExpr(Expr):
    """Explicit transpose."""

    a: Expr

    def children(self):
        return (self.a,)


@dataclass(frozen=True)
class SelectExpr(Expr):
    """Index-unary filtering (``GrB_select``)."""

    op: object
    a: Expr
    thunk: object = None

    def children(self):
        return (self.a,)


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class of IR statements."""


@dataclass(frozen=True)
class Declare(Statement):
    """Create an empty named Vector/Matrix: ``Declare("t", "vector", FP64,
    size_of="A")`` — dimensions borrowed from an existing object or given
    literally via ``size``/``shape``."""

    name: str
    kind: str  # "vector" | "matrix"
    dtype: object
    size_of: str | None = None
    size: int | None = None
    shape: tuple[int, int] | None = None


@dataclass(frozen=True)
class Assign(Statement):
    """``target<mask> (=|accum=) expr`` with optional REPLACE semantics.

    ``mask`` is a name (or None); ``complement``/``structural`` qualify it.
    """

    target: str
    expr: Expr
    mask: str | None = None
    accum: object = None
    replace: bool = False
    complement: bool = False
    structural: bool = False


@dataclass(frozen=True)
class SetElement(Statement):
    """``target[index] = value`` (value/index may be thunks of env)."""

    target: str
    index: object
    value: object


@dataclass(frozen=True)
class Clear(Statement):
    """Drop all entries of a named object."""

    target: str


@dataclass(frozen=True)
class SetScalar(Statement):
    """Bind a scalar environment entry; ``value`` may be a thunk of env."""

    name: str
    value: object


@dataclass(frozen=True)
class NvalsNonzero:
    """Loop condition: the named object has stored entries."""

    name: str


@dataclass(frozen=True)
class While(Statement):
    """``pre; while cond: body; pre`` — *pre* computes the condition's
    inputs (the paper's outer-loop filter+nvals idiom) and re-runs after
    each body pass."""

    cond: NvalsNonzero
    pre: tuple[Statement, ...]
    body: tuple[Statement, ...]


@dataclass(frozen=True)
class Program:
    """A straight-line sequence of statements (possibly holding loops)."""

    statements: tuple[Statement, ...]
    name: str = "program"

    def __iter__(self):
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)
