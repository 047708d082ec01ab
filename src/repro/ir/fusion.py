"""Call-level fusion pass (§VI.B, as a program transformation).

The paper identifies two fusion opportunities in the unfused call
sequence and reports a 3.7× average speedup from applying them by hand in
C.  This pass applies the same rewrites mechanically on the lowered call
tree:

1. **Filter fusion** — the two-call filter idiom

   .. code-block:: none

       apply(P, pred, X)            # predicate materialized
       apply(Y<P, REPLACE>, IDENTITY, X)

   becomes one ``fused_filter(Y, pred, X)`` (a ``GrB_select``), provided
   the predicate temporary ``P`` is dead afterwards.

2. **Hadamard + vxm fusion** — the relaxation input

   .. code-block:: none

       apply(M<B, REPLACE>, IDENTITY, T)    # t ∘ tBi materialized
       vxm(R, semiring, M, A)

   becomes ``fused_masked_vxm(R, semiring, T, B, A)``, eliding the
   masked temporary ``M``.

Liveness is loop-aware: eliding a temporary is only legal if no later
read observes it — including reads at *earlier* textual positions that
re-execute on the next iteration of an enclosing loop.  A later read is
harmless when a *clobbering* write (unmasked, or masked with REPLACE and
no accumulator — i.e. one whose result is independent of the old value)
reaches it first.  The equivalence tests run both pipelines on real
graphs and compare distances, guarding the analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lower import GrBCall, LoweredProgram, LoweredWhile, count_calls

__all__ = ["fuse_program", "FusionReport"]


@dataclass
class FusionReport:
    """What the pass did — quoted by the fusion example and ``repro translate``."""

    calls_before: int
    calls_after: int
    filters_fused: int
    masked_vxm_fused: int

    @property
    def calls_removed(self) -> int:
        return self.calls_before - self.calls_after


def _is_identity(op) -> bool:
    """Accept both the literal IDENTITY operator and its lowered name."""
    if op == "IDENTITY":
        return True
    return getattr(op, "name", None) == "IDENTITY"


def _clobbers(call: GrBCall, name: str) -> bool:
    """True when *call* overwrites *name* with no dependence on its old
    value (unmasked, or masked REPLACE without accumulate)."""
    if call.out != name or call.fn in ("declare", "set_scalar"):
        return False
    if call.fn == "clear":
        return True
    if call.accum is not None:
        return False
    return call.mask is None or call.replace


def _first_event(calls, name: str) -> str | None:
    """First observation of *name* in execution order of a call sequence.

    Returns ``"read"``, ``"clobber"``, or ``None`` (no event).  Loops are
    walked as pre → cond-read → body (one unrolling is enough: if the
    first event in an iteration is a clobber, every iteration's reads see
    the new value; if it is a read, the elision is unsafe regardless).
    """
    for c in calls:
        if isinstance(c, LoweredWhile):
            ev = _first_event(c.pre, name)
            if ev:
                return ev
            if c.cond_name == name:
                return "read"
            ev = _first_event(c.body, name)
            if ev:
                return ev
        else:
            if name in c.reads():
                return "read"
            if _clobbers(c, name):
                return "clobber"
    return None


class _Fuser:
    def __init__(self):
        self.filters = 0
        self.masked_vxm = 0

    def fuse_calls(self, calls: list, loop_scopes: tuple[list, ...]) -> list:
        """Rewrite one call sequence.

        *loop_scopes* holds the full (pre, cond, body) call lists of every
        enclosing loop, innermost first — the sequences that re-execute
        after this one finishes an iteration.
        """
        out: list = []
        k = 0
        while k < len(calls):
            cur = calls[k]
            nxt = calls[k + 1] if k + 1 < len(calls) else None
            if isinstance(cur, LoweredWhile):
                inner_scope = (cur,)
                out.append(
                    LoweredWhile(
                        cond_name=cur.cond_name,
                        pre=self.fuse_calls(cur.pre, loop_scopes + inner_scope),
                        body=self.fuse_calls(cur.body, loop_scopes + inner_scope),
                    )
                )
                k += 1
                continue
            rest = calls[k + 2 :]
            if isinstance(nxt, GrBCall) and self._dead_after(cur.out, rest, loop_scopes):
                fused = self._try_fuse_pair(cur, nxt)
                if fused is not None:
                    out.append(fused)
                    k += 2
                    continue
            out.append(cur)
            k += 1
        return out

    def _dead_after(self, name: str, rest: list, loop_scopes: tuple) -> bool:
        """Is *name* dead once the candidate pair completes?"""
        ev = _first_event(rest, name)
        if ev == "read":
            return False
        if ev == "clobber":
            return True
        # fell off the end of this sequence: enclosing loops re-execute
        for scope in loop_scopes:
            ev = _first_event([scope], name)
            if ev == "read":
                return False
            if ev == "clobber":
                return True
        return True

    def _try_fuse_pair(self, cur: GrBCall, nxt: GrBCall) -> GrBCall | None:
        # Pattern 1: predicate apply + masked identity apply → select
        if (
            cur.fn == "apply"
            and nxt.fn == "apply"
            and _is_identity(nxt.args.get("op"))
            and nxt.mask == cur.out
            and not nxt.complement
            and not nxt.structural
            and nxt.accum is None
            and nxt.replace  # full overwrite: select-without-mask is equivalent
            and nxt.args.get("in0") == cur.args.get("in0")
            and cur.mask is None
            and cur.accum is None
        ):
            self.filters += 1
            return GrBCall(
                "fused_filter",
                nxt.out,
                {"op": cur.args["op"], "in0": cur.args["in0"]},
                replace=nxt.replace,
                fused_from=("apply", "apply"),
            )
        # Pattern 2: masked identity apply + vxm → fused masked vxm
        if (
            cur.fn == "apply"
            and _is_identity(cur.args.get("op"))
            and cur.mask is not None
            and not cur.complement
            and cur.accum is None
            and nxt.fn == "vxm"
            and nxt.args.get("in0") == cur.out
        ):
            self.masked_vxm += 1
            return GrBCall(
                "fused_masked_vxm",
                nxt.out,
                {
                    "semiring": nxt.args["semiring"],
                    "in0": cur.args["in0"],
                    "in_mask": cur.mask,
                    "in1": nxt.args["in1"],
                },
                mask=nxt.mask,
                accum=nxt.accum,
                replace=nxt.replace,
                fused_from=("apply", "vxm"),
            )
        return None


def fuse_program(program: LoweredProgram) -> tuple[LoweredProgram, FusionReport]:
    """Apply both fusion rewrites; returns the new program and a report."""
    before = count_calls(program.calls)
    fuser = _Fuser()
    fused_calls = fuser.fuse_calls(program.calls, loop_scopes=())
    fused = LoweredProgram(calls=fused_calls, name=f"{program.name}-fused")
    report = FusionReport(
        calls_before=before,
        calls_after=count_calls(fused_calls),
        filters_fused=fuser.filters,
        masked_vxm_fused=fuser.masked_vxm,
    )
    return fused, report
