"""Executes lowered GraphBLAS call trees against the real substrate.

The interpreter is the runtime of the translation pipeline: it walks the
call tree from :mod:`repro.ir.lower` (possibly rewritten by
:mod:`repro.ir.fusion`), resolves operator thunks against the scalar
environment, materializes outputs on demand with inferred shapes/domains,
and dispatches to :mod:`repro.graphblas.operations`.  It also counts
executed calls — the dynamic complement to the static call counts the
fusion report quotes.
"""

from __future__ import annotations

import numpy as np

from ..graphblas import operations as ops
from ..graphblas.binaryop import BinaryOp
from ..graphblas.descriptor import Descriptor, NULL_DESC
from ..graphblas.indexunaryop import IndexUnaryOp
from ..graphblas.matrix import Matrix
from ..graphblas.monoid import Monoid
from ..graphblas.semiring import Semiring
from ..graphblas.types import BOOL, FP64
from ..graphblas.unaryop import IDENTITY, UnaryOp
from ..graphblas.vector import Vector
from .lower import GrBCall, LoweredProgram, LoweredWhile

__all__ = ["Interpreter", "run_program"]

_OP_TYPES = (UnaryOp, BinaryOp, Monoid, Semiring, IndexUnaryOp)


class Interpreter:
    """Stateful executor for one program run.

    ``env`` maps names to Vector/Matrix objects and Python scalars.  Seed
    it with the graph's adjacency (``{"A": matrix}``) and any run
    parameters before calling :meth:`run`.
    """

    def __init__(self, env: dict | None = None):
        self.env: dict = dict(env or {})
        self.calls_executed = 0
        self.calls_by_fn: dict[str, int] = {}

    # -- helpers ------------------------------------------------------------

    def _resolve_op(self, op):
        """Literal operator, named builtin, or thunk(env) → operator."""
        if op == "IDENTITY":
            return IDENTITY
        if isinstance(op, _OP_TYPES):
            return op
        if callable(op):
            return op(self.env)
        raise TypeError(f"cannot resolve operator {op!r}")

    def _resolve_value(self, value):
        return value(self.env) if callable(value) else value

    def _obj(self, name: str):
        try:
            return self.env[name]
        except KeyError:
            raise KeyError(f"IR object {name!r} not defined") from None

    def _ensure_out(self, name: str, like, dtype) -> object:
        """Materialize the output object if the name is unbound."""
        if name in self.env:
            return self.env[name]
        if isinstance(like, Vector):
            obj = Vector(dtype, like.size)
        elif isinstance(like, Matrix):
            obj = Matrix(dtype, like.nrows, like.ncols)
        else:
            raise TypeError(f"cannot infer output shape for {name!r}")
        self.env[name] = obj
        return obj

    def _desc(self, call: GrBCall) -> Descriptor:
        if not (call.replace or call.complement or call.structural):
            return NULL_DESC
        return Descriptor(
            replace=call.replace,
            mask_complement=call.complement,
            mask_structure=call.structural,
        )

    def _mask(self, call: GrBCall):
        return self._obj(call.mask) if call.mask else None

    # -- dispatch -------------------------------------------------------------

    def run(self, program: LoweredProgram | list) -> dict:
        """Execute and return the environment."""
        calls = program.calls if isinstance(program, LoweredProgram) else program
        self._run_calls(calls)
        return self.env

    def _run_calls(self, calls) -> None:
        for call in calls:
            if isinstance(call, LoweredWhile):
                self._run_while(call)
            else:
                self._dispatch(call)

    def _run_while(self, loop: LoweredWhile) -> None:
        while True:
            self._run_calls(loop.pre)
            cond_obj = self._obj(loop.cond_name)
            if cond_obj.nvals == 0:
                return
            self._run_calls(loop.body)

    def _count(self, fn: str) -> None:
        self.calls_executed += 1
        self.calls_by_fn[fn] = self.calls_by_fn.get(fn, 0) + 1

    def _dispatch(self, call: GrBCall) -> None:
        fn = call.fn
        if fn == "declare":
            self._declare(call)
            return
        if fn == "set_scalar":
            self.env[call.out] = self._resolve_value(call.args["value"])
            return
        self._count(fn)
        if fn == "clear":
            self._obj(call.out).clear()
        elif fn == "set_element":
            self._obj(call.out).set_element(
                self._resolve_value(call.args["index"]),
                self._resolve_value(call.args["value"]),
            )
        elif fn == "apply":
            op = self._resolve_op(call.args["op"])
            a = self._obj(call.args["in0"])
            out = self._ensure_out(call.out, a, op.result_type(a.dtype))
            ops.apply(out, op, a, mask=self._mask(call), accum=call.accum, desc=self._desc(call))
        elif fn == "select":
            op = self._resolve_op(call.args["op"])
            a = self._obj(call.args["in0"])
            out = self._ensure_out(call.out, a, a.dtype)
            ops.select(out, op, a, call.args.get("thunk"), mask=self._mask(call), accum=call.accum, desc=self._desc(call))
        elif fn in ("ewise_add", "ewise_mult", "ewise_union"):
            op = self._resolve_op(call.args["op"])
            a = self._obj(call.args["in0"])
            b = self._obj(call.args["in1"])
            binop = op.binaryop if isinstance(op, Monoid) else op
            out = self._ensure_out(call.out, a, binop.result_type(a.dtype, b.dtype))
            kw = dict(mask=self._mask(call), accum=call.accum, desc=self._desc(call))
            if fn == "ewise_union":
                ops.ewise_union(out, op, a, call.args["alpha"], b, call.args["beta"], **kw)
            else:
                impl = ops.ewise_add if fn == "ewise_add" else ops.ewise_mult
                impl(out, op, a, b, **kw)
        elif fn == "vxm":
            sr = self._resolve_op(call.args["semiring"])
            v = self._obj(call.args["in0"])
            m = self._obj(call.args["in1"])
            out = self.env.get(call.out)
            if out is None:
                out = Vector(sr.result_type(v.dtype, m.dtype), m.ncols)
                self.env[call.out] = out
            ops.vxm(out, sr, v, m, mask=self._mask(call), accum=call.accum, desc=self._desc(call))
        elif fn == "mxv":
            sr = self._resolve_op(call.args["semiring"])
            m = self._obj(call.args["in0"])
            v = self._obj(call.args["in1"])
            out = self.env.get(call.out)
            if out is None:
                out = Vector(sr.result_type(m.dtype, v.dtype), m.nrows)
                self.env[call.out] = out
            ops.mxv(out, sr, m, v, mask=self._mask(call), accum=call.accum, desc=self._desc(call))
        elif fn == "mxm":
            sr = self._resolve_op(call.args["semiring"])
            a = self._obj(call.args["in0"])
            b = self._obj(call.args["in1"])
            out = self.env.get(call.out)
            if out is None:
                out = Matrix(sr.result_type(a.dtype, b.dtype), a.nrows, b.ncols)
                self.env[call.out] = out
            ops.mxm(out, sr, a, b, mask=self._mask(call), accum=call.accum, desc=self._desc(call))
        elif fn == "reduce":
            monoid = self._resolve_op(call.args["monoid"])
            a = self._obj(call.args["in0"])
            if isinstance(a, Vector):
                self.env[call.out] = ops.reduce_vector_to_scalar(monoid, a)
            else:
                self.env[call.out] = ops.reduce_matrix_to_scalar(monoid, a)
        elif fn == "transpose":
            a = self._obj(call.args["in0"])
            out = self.env.get(call.out)
            if out is None:
                out = Matrix(a.dtype, a.ncols, a.nrows)
                self.env[call.out] = out
            ops.transpose(out, a, mask=self._mask(call), accum=call.accum, desc=self._desc(call))
        elif fn == "fused_filter":
            # fusion.py product: predicate+masked-identity in one select
            op = self._resolve_op(call.args["op"])
            a = self._obj(call.args["in0"])
            pred = IndexUnaryOp.define(lambda v, i, j, t, _u=op: _u(v), name=f"sel[{op.name}]")
            out = self._ensure_out(call.out, a, a.dtype)
            ops.select(out, pred, a, None, mask=self._mask(call), accum=call.accum, desc=self._desc(call))
        elif fn == "fused_masked_vxm":
            # fusion.py product: (t ∘ b) feeding vxm without a temporary
            sr = self._resolve_op(call.args["semiring"])
            v = self._obj(call.args["in0"])
            mask_vec = self._obj(call.args["in_mask"])
            m = self._obj(call.args["in1"])
            masked = Vector(v.dtype, v.size)
            ops.apply(masked, IDENTITY, v, mask=mask_vec, desc=Descriptor(replace=True))
            out = self.env.get(call.out)
            if out is None:
                out = Vector(sr.result_type(v.dtype, m.dtype), m.ncols)
                self.env[call.out] = out
            ops.vxm(out, sr, masked, m, mask=self._mask(call), accum=call.accum, desc=self._desc(call))
        else:
            raise ValueError(f"unknown call {fn!r}")

    def _declare(self, call: GrBCall) -> None:
        args = call.args
        dtype = args["dtype"] or FP64
        if args["kind"] == "vector":
            if args["size_of"] is not None:
                ref = self._obj(args["size_of"])
                size = ref.size if isinstance(ref, Vector) else ref.nrows
            else:
                size = args["size"]
            self.env[call.out] = Vector(dtype, size)
        else:
            if args["size_of"] is not None:
                ref = self._obj(args["size_of"])
                shape = (ref.nrows, ref.ncols)
            else:
                shape = args["shape"]
            self.env[call.out] = Matrix(dtype, *shape)


def run_program(program, env: dict | None = None) -> Interpreter:
    """Convenience: build an :class:`Interpreter`, run, return it."""
    interp = Interpreter(env)
    interp.run(program)
    return interp
