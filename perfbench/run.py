#!/usr/bin/env python3
"""End-to-end benchmark of vsdepth.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from ``src/`` beside this
directory.  Workloads: base-build, compose, cert-io, search (see
``WORKLOADS``).  The loop is closed with one client: one op at a time,
each in its own child process (``child.py``) that imports ``vsdepth``
from ``src/`` with ``VSDEPTH_THREADS`` unset.  A run repeats whole passes
over the workload's ops until the next pass would end after ``--seconds``
(at least one pass; two with ``--trace 1``).  Every op's output is
checked; an op that crashes, fails its check or is killed at its time
limit is charged that limit.

The last line of stdout is one JSON object: ``correct`` (no op gave an
answer its check refutes), ``attempted`` and ``failed`` (ops over all
passes) and ``metrics``.  With ``--trace 0`` the metrics are end to end:

- ``wall_s``: charged time of one pass, summed over the ops of each op's
  median over passes (a slow spell of the host then costs one op, not
  the whole pass);
- ``peak_rss_mb``: median over passes of the largest peak RSS of a child;
- ``ok_ratio``: ops that passed their check over ops attempted
  (``fail_ratio`` is one minus it, printed in the report line);
- ``setup_s``: median over all children of the time from spawning a child
  until ``vsdepth.cli`` is imported.

With ``--trace 1`` the run alternates untraced and traced passes and the
metrics are the per-layer ones of ``tracing.LAYER_UNITS`` (medians over
the traced passes), with ``trace.overhead_s`` the traced minus the
untraced ``wall_s``.  The line before the last is a ``report``
object: environment, code size, per-op times and verdicts, quartiles.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
GRACE_S = 2.0  # after SIGTERM at the limit, wait this long before SIGKILL

NOTES = [
    "closed loop, one client: one op at a time, each in its own process, "
    "VSDEPTH_THREADS unset",
    "waiting time: not applicable; ops are serial and single-threaded, so "
    "no layer has a queue",
    "an op that crashes, fails its check or hits its limit is charged its "
    "limit in wall_s",
    "baseline rows and left-out cases: perfbench/baseline.json",
]


class OpFailed(Exception):
    """The op gave no answer that could be checked: crash, kill, no output."""


class WrongAnswer(OpFailed):
    """The op answered, and its check refutes the answer."""


@dataclass
class Op:
    name: str
    spec: dict  # {"cli": argv} or {"api": ..., ...}, see child.py
    limit_s: float  # well above what a correct run needs on a 2-core host
    check: Callable[["OpRun"], None]  # raises OpFailed or WrongAnswer
    prepare: Optional[Callable[[], None]] = None  # untimed, in this process


@dataclass
class OpRun:
    rc: int
    stdout: str
    stderr: str
    record: dict
    elapsed_s: float
    cpu_s: float
    rss_mb: float
    killed: bool


@dataclass
class Outcome:
    name: str
    status: str  # ok | failed | wrong
    reason: str
    charged_s: float
    cpu_s: float
    rss_mb: float
    killed: bool
    setup_s: Optional[float]
    import_s: Optional[float]
    spans: list


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome]
    real_s: float

    @property
    def wall_s(self) -> float:
        return sum(o.charged_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        """Largest peak RSS of a child; a child killed at its limit counts
        only if every child was, as its size depends on when it was killed."""
        finished = [o.rss_mb for o in self.outcomes if not o.killed]
        return max(finished or [o.rss_mb for o in self.outcomes])


@dataclass
class Context:
    """Where a run writes, what its seed picked, and the package sources
    the children import."""

    work: str
    seed: int
    src: str = SRC
    picks: dict = field(init=False)
    mutated: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        rng = random.Random(self.seed)
        self.picks = {"drop": rng.randrange(1 << 30), "dup": rng.randrange(1 << 30)}

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)


# ---------------------------------------------------------------- checks

def _vs():
    """The package under test, imported here only for untimed checks."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import vsdepth

    return vsdepth


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _expect_rc(run: OpRun, rc: int, line: str) -> None:
    if run.rc != rc:
        raise OpFailed(f"exit {run.rc}, expected {rc}: {line!r}")


def check_wrote(path: str) -> Callable[[OpRun], None]:
    def check(run: OpRun) -> None:
        _expect_rc(run, 0, _last_line(run.stderr))
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            raise OpFailed(f"no certificate written to {os.path.basename(path)}")
    return check


def check_valid(n: int, d: int) -> Callable[[OpRun], None]:
    """`verify` accepts, with depth at least the certified lower bound."""
    lower = _vs().bounds(n, d).lower_certified

    def check(run: OpRun) -> None:
        line = _last_line(run.stdout)
        if line.startswith("INVALID"):
            raise WrongAnswer(f"constructed certificate rejected: {line}")
        m = re.fullmatch(r"VALID depth=(\d+)", line)
        if not m:
            raise OpFailed(f"exit {run.rc}, no verdict: {_last_line(run.stderr)!r}")
        _expect_rc(run, 0, line)
        if int(m[1]) < lower:
            raise WrongAnswer(f"depth {m[1]} below the certified lower bound {lower}")
    return check


def check_invalid(expect: str) -> Callable[[OpRun], None]:
    """`verify` rejects a mutant with the ``INVALID`` line ``expect``..."""
    def check(run: OpRun) -> None:
        line = _last_line(run.stdout)
        if line.startswith("VALID"):
            raise WrongAnswer(f"mutant accepted: {line}")
        if not line.startswith("INVALID "):
            raise OpFailed(f"exit {run.rc}, no verdict: {_last_line(run.stderr)!r}")
        _expect_rc(run, 1, line)
        if not line.startswith(expect):
            raise WrongAnswer(f"expected {expect!r}, got {line!r}")
    return check


def check_api(n: int, d: int, violation: Optional[list] = None) -> Callable[[OpRun], None]:
    """An API op's verdict: valid with depth >= the lower bound, or the
    expected violation."""
    lower = _vs().bounds(n, d).lower_certified

    def check(run: OpRun) -> None:
        result = run.record.get("result")
        if run.rc != 0 or result is None:
            raise OpFailed(f"exit {run.rc}: {_last_line(run.stderr)!r}")
        if (result["n"], result["d"]) != (n, d):
            raise WrongAnswer(f"built (n,d)=({result['n']},{result['d']}), not ({n},{d})")
        if violation is None:
            if not result["valid"]:
                raise WrongAnswer(f"construction rejected: {result.get('violation')}")
            if result["depth"] < lower:
                raise WrongAnswer(f"depth {result['depth']} below lower bound {lower}")
        elif result["valid"]:
            raise WrongAnswer("mutant accepted")
        elif result.get("violation", [])[:len(violation)] != violation:
            raise WrongAnswer(f"expected {violation}, got {result.get('violation')}")
    return check


def _reverify(path: str, n: int, d: int, depth: int) -> None:
    """Re-check a certificate the solver wrote, in this process, untimed."""
    vs = _vs()
    try:
        with open(path) as fh:
            cert = vs.parse_certificate(fh.read())
    except OSError:
        raise OpFailed("proved, but wrote no certificate") from None
    except vs.errors.VsdepthError as exc:
        raise WrongAnswer(f"unreadable certificate: {exc}") from None
    report = vs.verify_certificate(cert)
    if (cert.universe_size, cert.min_generator_size) != (n, d):
        raise WrongAnswer(f"certificate is for ({cert.universe_size},{cert.min_generator_size})")
    if not report.valid or report.achieved_depth < depth:
        raise WrongAnswer(f"certificate does not verify at depth {depth}: "
                          f"{report.first_violation or report.achieved_depth}")


def check_exact(n: int, d: int, path: str) -> Callable[[OpRun], None]:
    """`sdepth --exact` proves the known exact value; its certificate verifies."""
    exact = _vs().bounds(n, d).known_exact

    def check(run: OpRun) -> None:
        line = _last_line(run.stdout)
        m = re.fullmatch(r"sdepth(>=)?(\d+) status=(\S+) nodes=\d+", line)
        if not m:
            raise OpFailed(f"exit {run.rc}, no result: {_last_line(run.stderr)!r}")
        if m[3] != "proved":
            raise OpFailed(f"no exact value: {line}")
        _expect_rc(run, 0, line)
        if exact is not None and int(m[2]) != exact:
            raise WrongAnswer(f"sdepth {m[2]}, known exact value {exact}")
        _reverify(path, n, d, int(m[2]))
    return check


def check_claim(n: int, d: int, k: int, path: str,
                allowed: tuple[str, ...]) -> Callable[[OpRun], None]:
    """`sdepth --k` ends with one of ``allowed``; a proof's certificate
    verifies.  A provable k must not be disproved, nor the reverse."""
    upper = _vs().bounds(n, d).upper

    def check(run: OpRun) -> None:
        line = _last_line(run.stdout)
        m = re.fullmatch(rf"k={k} status=(\S+) nodes=\d+", line)
        if not m:
            raise OpFailed(f"exit {run.rc}, no result: {_last_line(run.stderr)!r}")
        status = m[1]
        _expect_rc(run, 0 if status == "proved" else 1, line)
        if status == "proved" and k > upper:
            raise WrongAnswer(f"k={k} proved above the counting bound {upper}")
        if status not in allowed:
            kind = WrongAnswer if status in ("proved", "disproved") else OpFailed
            raise kind(f"expected {' or '.join(allowed)}: {line}")
        if status == "proved":
            _reverify(path, n, d, k)
    return check


def check_scan(max_n: int) -> Callable[[OpRun], None]:
    """`scan` proves every cell, matching the known exact values."""
    vs = _vs()
    cells = [(n, d) for n in range(1, max_n + 1) for d in range(1, n + 1)]
    exact = {cell: vs.bounds(*cell).known_exact for cell in cells}

    def check(run: OpRun) -> None:
        rows = run.stdout.strip().splitlines()[1:]
        seen = []
        for row in rows:
            parts = row.split()
            try:
                n, d, proved = int(parts[0]), int(parts[1]), int(parts[3])
                known = exact[(n, d)]
            except (ValueError, IndexError, KeyError):
                raise OpFailed(f"unreadable row {row!r}") from None
            seen.append((n, d))
            if parts[4] != "proved":
                raise OpFailed(f"cell ({n},{d}) not solved: {row.strip()}")
            if "DISCREPANCY" in row or known not in (None, proved):
                raise WrongAnswer(f"cell ({n},{d}): {row.strip()}, known {known}")
        if seen != cells:
            raise OpFailed(f"{len(seen)} rows, expected {len(cells)}")
        _expect_rc(run, 0, rows[-1] if rows else "")
    return check


# ------------------------------------------------------------- workloads

def _cli(*args) -> dict:
    return {"cli": [str(a) for a in args]}


def base_build(ctx: Context) -> list[Op]:
    """c2(12), c3(8), c4(6) built and verified through the API, plus two
    seeded mutants of c4(6): one bottom-rank-(d+2) interval dropped
    (expect gap-at-rank d+2) and one duplicated (expect overlap)."""
    saved = ctx.path("c4-6.npz")
    ops = []
    for c, d, limit in ((2, 12, 20.0), (3, 8, 10.0), (4, 6, 20.0)):
        spec = {"api": "build", "c": c, "d": d}
        if c == 4:
            spec["save"] = saved
        ops.append(Op(f"c{c}({d})", spec, limit, check_api(c * d + c - 1, d)))
    for mode, violation in (("drop", ["gap-at-rank", 8]), ("dup", ["overlap"])):
        spec = {"api": "mutant", "load": saved, "mode": mode, "pick": ctx.picks[mode]}
        ops.append(Op(f"c4(6)-{mode}", spec, 20.0, check_api(27, 6, violation)))
    return ops


def _construct_verify(ctx: Context, cells, limit_s: float) -> list[Op]:
    ops = []
    for n, d in cells:
        cert = ctx.path(f"cert-{n}-{d}.txt")
        ops.append(Op(f"construct({n},{d})", _cli("construct", "--n", n, "--d", d,
                                                 "--out", cert), limit_s, check_wrote(cert)))
        ops.append(Op(f"verify({n},{d})", _cli("verify", "--cert", cert), limit_s,
                      check_valid(n, d)))
    return ops


def compose(ctx: Context) -> list[Op]:
    """construct then verify through the CLI where construct_general
    composes: (21,1), (22,2), (21,3)."""
    return _construct_verify(ctx, ((21, 1), (22, 2), (21, 3)), 20.0)


def _text_mutant(ctx: Context, src: str, dst: str, mode: str, rank: int) -> Callable[[], None]:
    """Delete or duplicate one `interval` line whose bottom has ``rank``
    points; the seed picks the line."""
    def prepare() -> None:
        try:
            with open(src) as fh:
                lines = fh.read().splitlines(keepends=True)
        except OSError:
            raise OpFailed("no certificate to mutate") from None
        at_rank = [i for i, line in enumerate(lines)
                   if line.startswith("interval {") and line.split()[1].count(",") + 1 == rank]
        if not at_rank:
            raise OpFailed(f"no interval line at bottom rank {rank}")
        i = at_rank[ctx.picks[mode] % len(at_rank)]
        ctx.mutated[mode] = {"line": i + 1, "text": lines[i].strip()}
        if mode == "dup":
            lines.insert(i, lines[i])
        else:
            del lines[i]
        with open(dst, "w") as fh:
            fh.writelines(lines)
    return prepare


def cert_io(ctx: Context) -> list[Op]:
    """construct then verify through the CLI on the base constructions
    c2(9), c3(7), c4(5) (5.6, 13.4 and 9.0 MB of text), plus two text
    mutants of the c4(5) file: a bottom-rank-7 line deleted (expect
    gap-at-rank 7) and one duplicated (expect overlap)."""
    ops = _construct_verify(ctx, ((19, 9), (23, 7), (23, 5)), 30.0)
    src = ctx.path("cert-23-5.txt")
    for mode, expect in (("drop", "INVALID gap-at-rank 7 "), ("dup", "INVALID overlap ")):
        dst = ctx.path(f"mutant-{mode}.txt")
        ops.append(Op(f"verify(23,5)-{mode}", _cli("verify", "--cert", dst), 30.0,
                      check_invalid(expect), prepare=_text_mutant(ctx, src, dst, mode, 7)))
    return ops


def search(ctx: Context) -> list[Op]:
    """Exact search through the CLI: scan to n=12, sdepth --exact at n=13,
    two deep --k proofs, one disproof and one 1 s budget."""
    ops = [Op("scan(12)", _cli("scan", "--max-n", 12), 15.0, check_scan(12))]
    for d in range(1, 7):
        cert = ctx.path(f"exact-13-{d}.txt")
        ops.append(Op(f"exact(13,{d})", _cli("sdepth", "--n", 13, "--d", d, "--exact",
                                             "--out", cert), 6.0, check_exact(13, d, cert)))
    for n, d, k, limit, allowed in ((14, 1, 7, 10.0, ("proved",)),
                                    (14, 2, 6, 12.0, ("proved",)),
                                    (13, 2, 6, 5.0, ("disproved",))):
        cert = ctx.path(f"k-{n}-{d}-{k}.txt")
        ops.append(Op(f"k({n},{d},{k})", _cli("sdepth", "--n", n, "--d", d, "--k", k,
                                              "--out", cert), limit,
                      check_claim(n, d, k, cert, allowed)))
    cert = ctx.path("budget.txt")
    ops.append(Op("budget(18,2,7)", _cli("sdepth", "--n", 18, "--d", 2, "--k", 7,
                                          "--budget-secs", 1, "--out", cert), 5.0,
                  check_claim(18, 2, 7, cert, ("budget-exhausted", "proved"))))
    return ops


WORKLOADS = {"base-build": base_build, "compose": compose, "cert-io": cert_io,
             "search": search}


# ---------------------------------------------------------------- runner

def _child_env(src: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "VSDEPTH_THREADS"}
    env["PYTHONPATH"] = src
    return env


def spawn(op: Op, ctx: Context, trace: bool) -> OpRun:
    """Run one op's child, killing it at its limit; always reaps it."""
    base = ctx.path(op.name)
    spec = dict(op.spec, record=base + ".rec", trace=trace)
    out_flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, base + ".out", out_flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, base + ".err", out_flags, 0o644)]
    argv = [sys.executable, CHILD, json.dumps(spec)]
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, _child_env(ctx.src), file_actions=actions)
    pidfd = os.pidfd_open(pid)
    exited = killed = False
    try:
        exited = bool(select.select([pidfd], [], [], op.limit_s)[0])
        elapsed = time.monotonic() - t0
        if not exited:
            killed = True
            signal.pidfd_send_signal(pidfd, signal.SIGTERM)
            exited = bool(select.select([pidfd], [], [], GRACE_S)[0])
    finally:
        if not exited:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        os.close(pidfd)
    record: dict = {}
    if os.path.exists(spec["record"]):
        with open(spec["record"]) as fh:
            for line in fh:
                if line.endswith("\n"):
                    record.update(json.loads(line))
    with open(base + ".out") as fh:
        stdout = fh.read()
    with open(base + ".err") as fh:
        stderr = fh.read()
    if "ready" in record:
        record["setup_s"] = record["ready"] - t0
    return OpRun(os.waitstatus_to_exitcode(status), stdout, stderr, record,
                 elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, killed)


def judge(op: Op, run: OpRun) -> tuple[str, str]:
    try:
        if run.killed:
            raise OpFailed(f"killed at its {op.limit_s:g} s limit")
        if "Traceback (most recent call last)" in run.stderr:
            raise OpFailed(f"crash, exit {run.rc}: {_last_line(run.stderr)}")
        op.check(run)
    except WrongAnswer as exc:
        return "wrong", str(exc)
    except OpFailed as exc:
        return "failed", str(exc)
    return "ok", ""


def run_op(op: Op, ctx: Context, trace: bool) -> Outcome:
    try:
        if op.prepare is not None:
            op.prepare()
    except OpFailed as exc:
        return Outcome(op.name, "failed", str(exc), op.limit_s, 0.0, 0.0, False, None, None, [])
    run = spawn(op, ctx, trace)
    status, reason = judge(op, run)
    mutated = run.record.get("result", {}).get("mutated")
    if mutated:
        ctx.mutated[op.spec["mode"]] = mutated
    charged = run.elapsed_s - run.record.get("untimed_s", 0.0) if status == "ok" else op.limit_s
    return Outcome(op.name, status, reason, charged, run.cpu_s, run.rss_mb, run.killed,
                   run.record.get("setup_s"), run.record.get("import_s"),
                   run.record.get("spans", []))


def run_pass(ops: list[Op], ctx: Context, trace: bool) -> Pass:
    for name in os.listdir(ctx.work):
        os.remove(ctx.path(name))
    t0 = time.monotonic()
    outcomes = [run_op(op, ctx, trace) for op in ops]
    return Pass(trace, outcomes, time.monotonic() - t0)


# ---------------------------------------------------------------- report

def median_pass_s(passes: list[Pass]) -> float:
    """Sum over ops of each op's median charged time across ``passes``."""
    return sum(statistics.median(p.outcomes[i].charged_s for p in passes)
               for i in range(len(passes[0].outcomes)))


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    lines = {}
    for path in sorted(glob.glob(os.path.join(SRC, "vsdepth", "*.py"))):
        with open(path, "rb") as fh:
            data = fh.read()
        digest.update(data)
        lines[os.path.basename(path)[:-3]] = data.count(b"\n")
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit or None, "src_sha256": digest.hexdigest(),
        "src_lines": lines, "src_lines_total": sum(lines.values()),
    }


def _op_table(passes: list[Pass]) -> list[dict]:
    table = []
    for i, first in enumerate(passes[0].outcomes):
        runs = [p.outcomes[i] for p in passes]
        statuses = [o.status for o in runs]
        table.append({
            "op": first.name,
            "charged_s": statistics.median(o.charged_s for o in runs),
            "cpu_s": statistics.median(o.cpu_s for o in runs),
            "rss_mb": max(o.rss_mb for o in runs),
            "ok": statuses.count("ok"), "failed": statuses.count("failed"),
            "wrong": statuses.count("wrong"),
            "reason": next((o.reason for o in runs if o.reason), ""),
        })
    return table


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vsdepth", "cli.py")):
        print(f"error: no package sources at {SRC}/vsdepth", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    ctx = Context(work, args.seed)
    try:
        ops = WORKLOADS[args.workload](ctx)
        passes: list[Pass] = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(ops, ctx, bool(args.trace) and len(passes) % 2 == 1))
            spent = time.monotonic() - start
            if len(passes) >= 1 + args.trace and spent + passes[-1].real_s > args.seconds:
                break
    finally:
        shutil.rmtree(work)

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(o.status != "ok" for o in outcomes)
    walls = [p.wall_s for p in plain]
    setups = [o.setup_s for p in plain for o in p.outcomes if o.setup_s is not None]
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "seconds_spent": round(spent, 3),
        "pass_wall_s": _quartiles(walls),
        "fail_ratio": failed / attempted,
        "mutated": ctx.mutated or {"picks": ctx.picks},
        "ops": _op_table(plain),
        "environment": environment(),
        "notes": NOTES,
    }
    if args.trace:
        layers = [tracing.layer_metrics([
            {"spans": o.spans, "import_s": o.import_s, "wall_s": o.charged_s}
            for o in p.outcomes]) for p in traced]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in tracing.LAYER_UNITS}
        values["trace.overhead_s"] = median_pass_s(traced) - median_pass_s(plain)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.LAYER_UNITS.items()}
        spans_path = os.path.join(ROOT, ".perfbench_work",
                                  f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump([{"pass": i, "op": o.name, "spans": o.spans}
                       for i, p in enumerate(traced) for o in p.outcomes], fh)
        report["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        metrics = {
            "wall_s": {"value": median_pass_s(plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in plain),
                            "unit": "MB"},
            "ok_ratio": {"value": 1 - failed / attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    for row in report["ops"]:
        print(f"{row['op']:<18} {row['charged_s']:8.3f} s  cpu {row['cpu_s']:7.3f} s  ok {row['ok']}"
              f"/{row['ok'] + row['failed'] + row['wrong']}  {row['reason']}")
    if args.trace:
        print(f"traced: intervals.verify {values['intervals.verify.wall_share']:.0%} of wall_s,"
              f" matching.chain_succ {values['matching.chain_succ.c2_share']:.0%} of the c2"
              f" builds, tracing overhead {values['trace.overhead_s']:+.3f} s")
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": not any(o.status == "wrong" for o in outcomes),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
