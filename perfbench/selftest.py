#!/usr/bin/env python3
"""Self-test of the benchmark's checker and failure accounting, at toy sizes.

    python3 perfbench/selftest.py

Runs a few ops through the same runner and checks as ``run.py``: some
against the real package, some against a stand-in ``vsdepth`` package
that answers wrongly, crashes or hangs.  It shows that the checker fails
an op on a wrong verdict, on a wrong depth and on a crash that exits 1,
and that an op killed at its limit is charged exactly that limit.  Exits
0 when every case is judged as expected.
"""
from __future__ import annotations

import os
import shutil
import sys

import run
from run import Context, Op, check_api, check_claim, check_invalid, check_valid, check_wrote

STAND_IN = '''
import time

def run(argv):
    if argv[0] == "verify":
        print("VALID depth=1")
        return 0
    if argv[0] == "sleep":
        time.sleep(60)
    raise RuntimeError("stand-in crash")
'''


def main() -> int:
    root = os.path.join(run.ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
    real = Context(os.path.join(root, "real"), seed=0)
    fake = Context(os.path.join(root, "fake"), seed=0, src=os.path.join(root, "stand-in"))
    os.makedirs(real.work)
    os.makedirs(fake.work)
    os.makedirs(os.path.join(fake.src, "vsdepth"))
    for name, text in (("__init__.py", ""), ("cli.py", STAND_IN)):
        with open(os.path.join(fake.src, "vsdepth", name), "w") as fh:
            fh.write(text)

    cert = real.path("cert-5-1.txt")
    mutant = real.path("mutant-drop.txt")
    cli = run._cli
    cases = [
        # (context, op, expected status, expected charge or None)
        (real, Op("construct(5,1)", cli("construct", "--n", 5, "--d", 1, "--out", cert),
                  30.0, check_wrote(cert)), "ok", None),
        (real, Op("verify(5,1)", cli("verify", "--cert", cert), 30.0, check_valid(5, 1)),
         "ok", None),
        (real, Op("verify(5,1)-drop", cli("verify", "--cert", mutant), 30.0,
                  check_invalid("INVALID gap-at-rank 1 "),
                  prepare=run._text_mutant(real, cert, mutant, "drop", 1)), "ok", None),
        (real, Op("c4(1)-build", {"api": "build", "c": 4, "d": 1,
                                  "save": real.path("c4-1.npz")}, 30.0, check_api(7, 1)),
         "ok", None),
        (real, Op("c4(1)-drop", {"api": "mutant", "load": real.path("c4-1.npz"),
                                 "mode": "drop", "pick": 5}, 30.0,
                  check_api(7, 1, ["gap-at-rank", 3])), "ok", None),
        (real, Op("k(4,2,3)", cli("sdepth", "--n", 4, "--d", 2, "--k", 3), 30.0,
                  check_claim(4, 2, 3, real.path("none"), ("disproved",))), "ok", None),
        # a mutant accepted: wrong verdict
        (fake, Op("wrong-verdict", cli("verify", "--cert", mutant), 30.0,
                  check_invalid("INVALID gap-at-rank 1 ")), "wrong", None),
        # VALID, but below the certified lower bound 3 of (5,1): wrong depth
        (fake, Op("wrong-depth", cli("verify", "--cert", cert), 30.0, check_valid(5, 1)),
         "wrong", None),
        # a traceback with exit 1 is a crash, never a disproof
        (fake, Op("crash-exit-1", cli("sdepth", "--n", 4, "--d", 2, "--k", 3), 7.5,
                  check_claim(4, 2, 3, fake.path("none"), ("disproved",))), "failed", 7.5),
        # killed at its limit: charged the limit
        (fake, Op("killed", cli("sleep"), 0.5, check_valid(5, 1)), "failed", 0.5),
    ]
    bad = 0
    try:
        for ctx, op, status, charge in cases:
            out = run.run_op(op, ctx, trace=False)
            good = out.status == status and (charge is None or out.charged_s == charge)
            if op.name == "crash-exit-1":
                good = good and out.reason.startswith("crash, exit 1:")
            bad += not good
            print(f"{'PASS' if good else 'FAIL'} {op.name:<18} judged {out.status}"
                  f" (expected {status}), charged {out.charged_s:.3f} s  {out.reason}")
    finally:
        shutil.rmtree(root)
    print(f"{len(cases) - bad}/{len(cases)} cases as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
