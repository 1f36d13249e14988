"""Span recording for traced benchmark runs, and the per-layer metrics.

A traced child calls ``install()``, which replaces module-global
references inside ``vsdepth`` with wrappers that record one span per
call, so the package sources stay untouched.  A span is the list
``[name, start, end, parent, extra]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``extra`` holds counts taken at the
boundary (sets in, members enumerated, bytes, solver nodes, errors).
Spans stay in memory and the child writes them out when it ends.

``layer_metrics`` turns the spans of one pass into the per-layer metrics.
The ops are serial and single-threaded, so no layer has a queue and
waiting time does not apply.
"""
from __future__ import annotations

import statistics
import time

# name -> unit of every per-layer metric a traced run reports
LAYER_UNITS = {
    "setcore.size_masks.calls": "count",
    "setcore.size_masks.s": "s",
    "blocks.f_int.calls": "count",
    "blocks.f_int.s": "s",
    "blocks.f_int.sets_per_s": "1/s",
    "matching.chain_succ.calls": "count",
    "matching.chain_succ.s": "s",
    "matching.chain_succ.sets_per_s": "1/s",
    "matching.chain_succ.c2_share": "ratio",
    "intervals.verify.calls": "count",
    "intervals.verify.s": "s",
    "intervals.verify.members": "count",
    "intervals.verify.members_per_s": "1/s",
    "intervals.verify.reject_s": "s",
    "intervals.verify.wall_share": "ratio",
    "intervals.format.s": "s",
    "intervals.format.mb_per_s": "MB/s",
    "intervals.parse.s": "s",
    "intervals.parse.mb_per_s": "MB/s",
    "construct.general.self_s": "s",
    "construct.base.self_s": "s",
    "construct.compose.calls": "count",
    "construct.compose.self_s": "s",
    "construct.verifies_per_compose": "ratio",
    "solver.calls": "count",
    "solver.nodes": "count",
    "solver.s": "s",
    "solver.nodes_per_s": "1/s",
    "solver.verify.s": "s",
    "solver.failed": "count",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, before=None, after=None, **fixed):
        """``fn`` recording a span per call.

        ``before(args)`` and ``after(result)`` return dicts merged into
        the span's extra; ``before`` runs ahead of the span's start.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            extra = dict(fixed)
            if before is not None:
                extra.update(before(args))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, extra]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                extra["error"] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                extra.update(after(result))
            return result

        return traced

    def close_open(self) -> None:
        """End every open span now, marking it killed (the op hit its limit)."""
        now = time.perf_counter()
        for index in self._stack:
            self.spans[index][2] = now
            self.spans[index][4]["error"] = "killed"
        self._stack.clear()


def install(tracer: Tracer) -> None:
    """Wrap the module-global references that the layers call through.

    A reference that does not exist is skipped, so a later refactor of
    the package leaves the affected metrics at zero instead of failing.
    """
    import numpy as np
    from vsdepth import cli, construct, intervals, setcore, solver

    def members(args):
        cert = args[0]
        dims = setcore.popcount_array(cert.top_masks & ~cert.bottom_masks)
        counts = np.bincount(dims)
        return {"members": sum(int(c) << dim for dim, c in enumerate(counts))}

    def sets_in(position):
        return lambda args: {"sets": len(args[position])}

    def patch(module, attr, name, **kw):
        fn = getattr(module, attr, None)
        if fn is None:
            return None
        wrapped = tracer.wrap(fn, name, **kw)
        setattr(module, attr, wrapped)
        return wrapped

    verify_kw = dict(before=members, after=lambda r: {"valid": bool(r.valid)})
    for module in (construct, intervals, solver, cli):
        patch(module, "verify_certificate", "intervals.verify", **verify_kw)
    for module in (construct, intervals):
        patch(module, "size_masks_array", "setcore.size_masks")
    patch(construct, "f_int_masks", "blocks.f_int", before=sets_in(2))
    patch(construct, "chain_successor_bits", "matching.chain_succ", before=sets_in(0))
    patch(construct, "compose_plus1", "construct.compose")
    patch(construct, "construct_general", "construct.general")
    builders = getattr(construct, "_BASE_BUILDERS", {})
    for c in (2, 3, 4):
        wrapped = patch(construct, f"construct_c{c}", "construct.base", c=c)
        if wrapped is not None and c in builders:
            builders[c] = wrapped
    patch(solver, "certify_at_least", "solver.certify",
          after=lambda r: {"nodes": int(r.nodes_explored), "status": r.status})
    patch(cli, "format_certificate", "intervals.format",
          after=lambda text: {"bytes": len(text)})
    patch(cli, "parse_certificate", "intervals.parse", before=lambda args: {"bytes": len(args[0])})
    patch(cli, "run", "cli.run")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def layer_metrics(ops: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``ops`` holds, per op, its ``spans``, ``import_s`` and charged
    ``wall_s``.  Times named ``.s`` include the span's children; those
    named ``self_s`` exclude them.
    """
    m = {name: 0.0 for name in LAYER_UNITS}
    sets = {"blocks.f_int": 0, "matching.chain_succ": 0}
    fmt_bytes = parse_bytes = compose_verifies = 0
    c2_build_s = c2_chain_s = 0.0
    for op in ops:
        spans = op.get("spans") or []
        child_s = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, extra) in enumerate(spans):
            dur = end - start
            self_s = dur - child_s[i]
            up = spans[parent] if parent >= 0 else None
            if name in ("setcore.size_masks", "blocks.f_int", "matching.chain_succ"):
                m[name + ".calls"] += 1
                m[name + ".s"] += dur
                if name in sets:
                    sets[name] += extra.get("sets", 0)
                if name == "matching.chain_succ" and up and up[0] == "construct.base" \
                        and up[4].get("c") == 2:
                    c2_chain_s += dur
            elif name == "intervals.verify":
                m["intervals.verify.calls"] += 1
                m["intervals.verify.s"] += dur
                m["intervals.verify.members"] += extra.get("members", 0)
                if not extra.get("valid", True):
                    m["intervals.verify.reject_s"] += dur
                if up and up[0] == "construct.compose":
                    compose_verifies += 1
                if up and up[0] == "solver.certify":
                    m["solver.verify.s"] += dur
            elif name == "intervals.format":
                m["intervals.format.s"] += dur
                fmt_bytes += extra.get("bytes", 0)
            elif name == "intervals.parse":
                m["intervals.parse.s"] += dur
                parse_bytes += extra.get("bytes", 0)
            elif name == "construct.general":
                m["construct.general.self_s"] += self_s
            elif name == "construct.base":
                m["construct.base.self_s"] += self_s
                if extra.get("c") == 2:
                    c2_build_s += dur
            elif name == "construct.compose":
                m["construct.compose.calls"] += 1
                m["construct.compose.self_s"] += self_s
            elif name == "solver.certify":
                m["solver.calls"] += 1
                m["solver.s"] += dur
                m["solver.nodes"] += extra.get("nodes", 0)
                m["solver.failed"] += "error" in extra
            elif name == "cli.run":
                m["cli.self_s"] += self_s
    for name, count in sets.items():
        m[name + ".sets_per_s"] = _ratio(count, m[name + ".s"])
    m["matching.chain_succ.c2_share"] = _ratio(c2_chain_s, c2_build_s)
    m["intervals.verify.members_per_s"] = _ratio(m["intervals.verify.members"],
                                                m["intervals.verify.s"])
    m["intervals.verify.wall_share"] = _ratio(m["intervals.verify.s"],
                                             sum(op["wall_s"] for op in ops))
    m["intervals.format.mb_per_s"] = _ratio(fmt_bytes / 1e6, m["intervals.format.s"])
    m["intervals.parse.mb_per_s"] = _ratio(parse_bytes / 1e6, m["intervals.parse.s"])
    m["construct.verifies_per_compose"] = _ratio(compose_verifies,
                                                m["construct.compose.calls"])
    m["solver.nodes_per_s"] = _ratio(m["solver.nodes"], m["solver.s"])
    imports = [op["import_s"] for op in ops if op.get("import_s") is not None]
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    return m
