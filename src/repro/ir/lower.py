"""Step 2 of the paper's methodology: IR → GraphBLAS call sequence.

Lowering turns each IR statement into explicit :class:`GrBCall` records —
one per GraphBLAS C API invocation — preserving the paper's observation
that *filters cost two calls* and every operation materializes its
output.  The result is a call tree (straight-line lists plus
:class:`LoweredWhile` nodes) that the interpreter executes and the fusion
pass (:mod:`repro.ir.fusion`) rewrites.

Nested expressions are flattened through generated temporaries
(``_tmp0``, ``_tmp1``, ...), mirroring how a C programmer against the
GraphBLAS API must introduce scratch objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .nodes import (
    ApplyUnary,
    Assign,
    Clear,
    Declare,
    EWiseAdd,
    EWiseMult,
    EWiseUnion,
    Expr,
    MxM,
    MxV,
    Program,
    Reduce,
    Ref,
    SelectExpr,
    SetElement,
    SetScalar,
    TransposeExpr,
    VxM,
    While,
)

__all__ = ["GrBCall", "LoweredWhile", "LoweredProgram", "lower_program", "count_calls"]


@dataclass
class GrBCall:
    """One GraphBLAS API invocation.

    ``fn`` is the operation name (``apply``, ``ewise_add``, ``vxm``...),
    ``out`` the destination object, ``args`` the operation-specific
    payload (operator/semiring references, input names, mask/accum/desc
    flags).  ``fused_from`` records provenance after the fusion pass.
    """

    fn: str
    out: str
    args: dict = field(default_factory=dict)
    mask: str | None = None
    accum: object = None
    replace: bool = False
    complement: bool = False
    structural: bool = False
    fused_from: tuple[str, ...] = ()

    def reads(self) -> set[str]:
        """Names this call reads (inputs + mask)."""
        names = {v for k, v in self.args.items() if k.startswith("in") and isinstance(v, str)}
        if self.mask:
            names.add(self.mask)
        return names

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ins = ", ".join(str(v) for k, v in sorted(self.args.items()) if k.startswith("in"))
        m = f", mask={self.mask}" if self.mask else ""
        return f"{self.fn}({self.out} <- {ins}{m})"


@dataclass
class LoweredWhile:
    """A lowered loop: run *pre*, test nvals(cond_name) ≠ 0, run *body*."""

    cond_name: str
    pre: list
    body: list


@dataclass
class LoweredProgram:
    """Call tree plus the declarations needed to run it."""

    calls: list
    name: str = "program"


class _Lowerer:
    def __init__(self):
        self._tmp = 0

    def fresh(self) -> str:
        name = f"_tmp{self._tmp}"
        self._tmp += 1
        return name

    # -- expressions --------------------------------------------------------

    def lower_expr(self, expr: Expr, out: str, calls: list, *, mask=None, accum=None, replace=False, complement=False, structural=False) -> None:
        """Emit calls computing *expr* into *out* (with write modifiers)."""
        kw = dict(mask=mask, accum=accum, replace=replace, complement=complement, structural=structural)
        if isinstance(expr, Ref):
            calls.append(GrBCall("apply", out, {"op": "IDENTITY", "in0": expr.name}, **kw))
        elif isinstance(expr, ApplyUnary):
            a = self._operand(expr.a, calls)
            calls.append(GrBCall("apply", out, {"op": expr.op, "in0": a}, **kw))
        elif isinstance(expr, EWiseAdd):
            a = self._operand(expr.a, calls)
            b = self._operand(expr.b, calls)
            calls.append(GrBCall("ewise_add", out, {"op": expr.op, "in0": a, "in1": b}, **kw))
        elif isinstance(expr, EWiseMult):
            a = self._operand(expr.a, calls)
            b = self._operand(expr.b, calls)
            calls.append(GrBCall("ewise_mult", out, {"op": expr.op, "in0": a, "in1": b}, **kw))
        elif isinstance(expr, EWiseUnion):
            a = self._operand(expr.a, calls)
            b = self._operand(expr.b, calls)
            args = {"op": expr.op, "in0": a, "alpha": expr.alpha, "in1": b, "beta": expr.beta}
            calls.append(GrBCall("ewise_union", out, args, **kw))
        elif isinstance(expr, VxM):
            v = self._operand(expr.v, calls)
            m = self._operand(expr.m, calls)
            calls.append(GrBCall("vxm", out, {"semiring": expr.semiring, "in0": v, "in1": m}, **kw))
        elif isinstance(expr, MxV):
            m = self._operand(expr.m, calls)
            v = self._operand(expr.v, calls)
            calls.append(GrBCall("mxv", out, {"semiring": expr.semiring, "in0": m, "in1": v}, **kw))
        elif isinstance(expr, MxM):
            a = self._operand(expr.a, calls)
            b = self._operand(expr.b, calls)
            calls.append(GrBCall("mxm", out, {"semiring": expr.semiring, "in0": a, "in1": b}, **kw))
        elif isinstance(expr, Reduce):
            a = self._operand(expr.a, calls)
            calls.append(GrBCall("reduce", out, {"monoid": expr.monoid, "in0": a}, **kw))
        elif isinstance(expr, TransposeExpr):
            a = self._operand(expr.a, calls)
            calls.append(GrBCall("transpose", out, {"in0": a}, **kw))
        elif isinstance(expr, SelectExpr):
            a = self._operand(expr.a, calls)
            calls.append(GrBCall("select", out, {"op": expr.op, "in0": a, "thunk": expr.thunk}, **kw))
        else:
            raise TypeError(f"cannot lower expression {expr!r}")

    def _operand(self, expr: Expr, calls: list) -> str:
        """Flatten a sub-expression to a name, materializing temporaries."""
        if isinstance(expr, Ref):
            return expr.name
        tmp = self.fresh()
        self.lower_expr(expr, tmp, calls)
        return tmp

    # -- statements -----------------------------------------------------------

    def lower_statements(self, statements) -> list:
        calls: list = []
        for st in statements:
            if isinstance(st, Declare):
                calls.append(
                    GrBCall(
                        "declare",
                        st.name,
                        {
                            "kind": st.kind,
                            "dtype": st.dtype,
                            "size_of": st.size_of,
                            "size": st.size,
                            "shape": st.shape,
                        },
                    )
                )
            elif isinstance(st, Assign):
                self.lower_expr(
                    st.expr,
                    st.target,
                    calls,
                    mask=st.mask,
                    accum=st.accum,
                    replace=st.replace,
                    complement=st.complement,
                    structural=st.structural,
                )
            elif isinstance(st, SetElement):
                calls.append(GrBCall("set_element", st.target, {"index": st.index, "value": st.value}))
            elif isinstance(st, Clear):
                calls.append(GrBCall("clear", st.target, {}))
            elif isinstance(st, SetScalar):
                calls.append(GrBCall("set_scalar", st.name, {"value": st.value}))
            elif isinstance(st, While):
                calls.append(
                    LoweredWhile(
                        cond_name=st.cond.name,
                        pre=self.lower_statements(st.pre),
                        body=self.lower_statements(st.body),
                    )
                )
            else:
                raise TypeError(f"cannot lower statement {st!r}")
        return calls


def lower_program(program: Program) -> LoweredProgram:
    """Lower a full IR program to its GraphBLAS call tree."""
    return LoweredProgram(calls=_Lowerer().lower_statements(program), name=program.name)


def count_calls(calls, *, include_bookkeeping: bool = False) -> int:
    """Static GraphBLAS call count (loops counted once — the *program
    text* size, which is what fusion shrinks)."""
    bookkeeping = {"declare", "set_scalar"}
    total = 0
    for c in calls:
        if isinstance(c, LoweredWhile):
            total += count_calls(c.pre, include_bookkeeping=include_bookkeeping)
            total += count_calls(c.body, include_bookkeeping=include_bookkeeping)
        elif include_bookkeeping or c.fn not in bookkeeping:
            total += 1
    return total
