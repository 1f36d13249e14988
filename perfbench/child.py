"""One benchmark op in its own process.

    python child.py SPEC_JSON

with ``PYTHONPATH`` set to the package sources.  The spec names either a
CLI argv, run through ``vsdepth.cli.run`` exactly as the ``vsdepth``
console script runs it (an uncaught exception prints a traceback and
exits 1), or an API op of the base-build workload.

The child appends JSON lines to ``spec["record"]``: first the moment
``vsdepth.cli`` is imported and ready, then, when it ends or is sent
SIGTERM at its time limit, its API result, the seconds it spent on
untimed preparation, and its spans when traced.
"""
import json
import os
import signal
import sys
import time

spec = json.loads(sys.argv[1])
_record = open(spec["record"], "w")


def emit(obj):
    _record.write(json.dumps(obj) + "\n")
    _record.flush()


_t0 = time.perf_counter()
import vsdepth.cli  # noqa: E402

emit({"ready": time.monotonic(), "import_s": time.perf_counter() - _t0})

tracer = None
if spec["trace"]:
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)


def spans():
    return tracer.spans if tracer is not None else []


def on_term(signum, frame):
    if tracer is not None:
        tracer.close_open()
    emit({"killed": True, "spans": spans()})
    os._exit(128 + signum)


signal.signal(signal.SIGTERM, on_term)


def verdict(report):
    out = {"valid": bool(report.valid), "depth": report.achieved_depth}
    if report.first_violation:
        tag, *detail = report.first_violation
        out["violation"] = [tag] + [x for x in detail if isinstance(x, int)]
    return out


def api_build(construct, intervals, np):
    """Build a base construction and verify it; optionally save its arrays."""
    cert = getattr(construct, f"construct_c{spec['c']}")(spec["d"])
    out = verdict(intervals.verify_certificate(cert))
    out.update(n=cert.universe_size, d=cert.min_generator_size,
               intervals=cert.num_explicit)
    if spec.get("save"):
        t = time.perf_counter()
        with open(spec["save"], "wb") as fh:
            np.savez(fh, bottoms=cert.bottom_masks, tops=cert.top_masks,
                     ndk=np.array([cert.universe_size, cert.min_generator_size,
                                   cert.claimed_depth]))
        out["untimed_s"] = time.perf_counter() - t
    return out


def api_mutant(construct, intervals, np):
    """Verify a saved certificate with one interval at bottom rank d+2
    dropped or duplicated; the spec's ``pick`` chooses which."""
    from vsdepth.setcore import popcount_array

    t = time.perf_counter()
    with np.load(spec["load"]) as saved:
        bottoms, tops = saved["bottoms"], saved["tops"]
        n, d, k = (int(x) for x in saved["ndk"])
    candidates = np.flatnonzero(popcount_array(bottoms) == d + 2)
    i = int(candidates[spec["pick"] % len(candidates)])
    mutated = {"bottom": int(bottoms[i]), "top": int(tops[i])}
    if spec["mode"] == "drop":
        bottoms, tops = np.delete(bottoms, i), np.delete(tops, i)
    else:
        bottoms, tops = np.insert(bottoms, i, bottoms[i]), np.insert(tops, i, tops[i])
    cert = intervals.Certificate.from_arrays(n, d, k, bottoms, tops)
    untimed_s = time.perf_counter() - t
    out = verdict(intervals.verify_certificate(cert))
    out.update(n=n, d=d, mutated=mutated, untimed_s=untimed_s)
    return out


def main():
    if "cli" in spec:
        rc = 1
        try:
            rc = vsdepth.cli.run(spec["cli"])
        finally:
            sys.stdout.flush()
            emit({"spans": spans()})
        return rc
    import numpy as np
    from vsdepth import construct, intervals

    api = {"build": api_build, "mutant": api_mutant}[spec["api"]]
    try:
        out = api(construct, intervals, np)
    finally:
        emit({"spans": spans()})
    emit({"result": out, "untimed_s": out.pop("untimed_s", 0.0)})
    return 0


sys.exit(main())
