import os
import re
import resource
import shlex
import subprocess
import sys
import time

import pytest

from vsdepth import construct, intervals, solver
from vsdepth.cli import run
from vsdepth.errors import MatchingFailed
from vsdepth.intervals import Certificate, format_certificate

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


def run_capped(*argv, timeout=30.0):
    """``python -m vsdepth argv`` in a child whose address space is capped
    at 1 GiB, so that a blow-up fails on its exit code, not by exhausting
    the machine; returns (exit code, stdout, stderr, seconds)."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=SRC)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "vsdepth", *map(str, argv)],
        capture_output=True, text=True, env=env, preexec_fn=cap, timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


class TestBlocks:
    def test_example(self, capsys):
        code = run(["blocks", "--n", "8", "--set", "{1,4,5,8}", "--density", "3/2"])
        assert code == 0
        assert out_lines(capsys) == [
            "blocks {1},{4},{5},{8}",
            "gaps {2,3},{},{6,7},{}",
            "f {1,2,3,4,5,6,7,8}",
        ]

    def test_integer_density(self, capsys):
        code = run(["blocks", "--n", "5", "--set", "{1}", "--density", "3"])
        assert code == 0
        assert out_lines(capsys)[2] == "f {1,4,5}"

    def test_bad_density_is_usage_error(self, capsys):
        assert run(["blocks", "--n", "5", "--set", "{1}", "--density", "1/2"]) == 2

    def test_malformed_density_is_usage_error(self, capsys):
        assert run(["blocks", "--n", "5", "--set", "{1}", "--density", "x"]) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestConstructVerifyRender:
    def test_round_trip(self, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.txt")
        assert run(["construct", "--n", "5", "--d", "1", "--out", cert_path]) == 0
        assert run(["verify", "--cert", cert_path]) == 0
        assert out_lines(capsys)[-1] == "VALID depth=3"
        assert run(["render", "--cert", cert_path]) == 0
        rendered = capsys.readouterr().out
        assert "·K[" in rendered

    def test_construct_is_byte_stable(self, tmp_path):
        p1, p2 = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        run(["construct", "--n", "9", "--d", "2", "--out", p1])
        run(["construct", "--n", "9", "--d", "2", "--out", p2])
        assert open(p1).read() == open(p2).read()

    def test_tampered_certificate_fails(self, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.txt")
        run(["construct", "--n", "5", "--d", "1", "--out", cert_path])
        lines = open(cert_path).read().splitlines()
        body = [ln for ln in lines if ln.startswith("interval ")]
        keep = [ln for ln in lines if not ln.startswith("interval ")]
        tampered = keep[:1] + keep[1:2] + body[1:] + keep[2:]
        open(cert_path, "w").write("\n".join(tampered) + "\n")
        assert run(["verify", "--cert", cert_path]) == 1
        assert out_lines(capsys)[-1].startswith("INVALID gap-at-rank")

    def test_render_names_the_violation_as_verify_does(self, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.txt")
        with open(cert_path, "w") as fh:
            fh.write("VSDEPTH-CERT v1\nn=3 d=1 k=2\ntrivial-completion\n")
        assert run(["verify", "--cert", cert_path]) == 1
        assert out_lines(capsys) == ["INVALID gap-at-rank 1 {1}"]
        assert run(["render", "--cert", cert_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: certificate does not verify: gap-at-rank 1 {1}\n"

    def test_missing_file(self, capsys):
        assert run(["verify", "--cert", "/nonexistent/cert.txt"]) == 2

    @pytest.mark.parametrize("params", ["n=3 d=5 k=5", "n=70 d=2 k=2", "n=4 d=2 k=1"])
    def test_parameters_outside_domain(self, params, tmp_path, capsys):
        cert_path = tmp_path / "cert.txt"
        cert_path.write_text(f"VSDEPTH-CERT v1\n{params}\ntrivial-completion\n")
        assert run(["verify", "--cert", str(cert_path)]) == 2
        assert capsys.readouterr().out == ""

    def test_members_outside_universe_refused(self, tmp_path, capsys):
        # the text path refuses {3} over [2] at parse time, so the
        # verifier's outside-universe verdict never reaches INVALID
        cert_path = tmp_path / "cert.txt"
        cert_path.write_text(
            "VSDEPTH-CERT v1\nn=2 d=1 k=2\n"
            "interval {1} {1,2}\ninterval {3} {2,3}\ntrivial-completion\n"
        )
        assert run(["verify", "--cert", str(cert_path)]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_not_utf8_refused(self, command, tmp_path, capsys):
        cert_path = tmp_path / "cert.txt"
        cert_path.write_bytes(
            b"VSDEPTH-CERT v1\nn=3 d=1 k=2\ninterval {1} {1,\xff}\ntrivial-completion\n"
        )
        assert run([command, "--cert", str(cert_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "UTF-8" in captured.err

    def test_universe_above_63_refused(self, capsys):
        assert run(["construct", "--n", "64", "--d", "63"]) == 2
        assert run(["bounds", "--n", "64", "--d", "3"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n,d", [(40, 3), (63, 2), (63, 7), (63, 31)])
    def test_oversized_construct_refused(self, n, d, capsys):
        construct.plan.cache_clear()
        start = time.perf_counter()
        assert run(["construct", "--n", str(n), "--d", str(d)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and "above the limit" in captured.err

    @pytest.mark.parametrize("command", ["verify", "render"])
    def test_big_cube_refused(self, command, tmp_path):
        # [{1}, [40]] has 2^39 members; the verifier refuses to list them
        cert_path = tmp_path / "cert.txt"
        cert_path.write_text(
            "VSDEPTH-CERT v1\nn=40 d=1 k=2\n"
            f"interval {{1}} {{{','.join(map(str, range(1, 41)))}}}\n"
            "trivial-completion\n"
        )
        code, out, err, secs = run_capped(command, "--cert", cert_path)
        assert (code, out) == (2, "") and "above the limit" in err
        assert secs < 1.0

    def test_matching_failure_is_internal_error(self, monkeypatch, capsys):
        def fail(masks, n):
            raise MatchingFailed("a set has no unmatched opening position")

        monkeypatch.setattr(construct, "chain_successor_bits", fail)
        assert run(["construct", "--n", "5", "--d", "2"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" in captured.err and "MatchingFailed" in captured.err

    def test_unverified_construction_is_internal_error(self, monkeypatch, capsys):
        def dropped(d):
            cert = construct.construct_c3(d)
            return Certificate.from_arrays(
                cert.universe_size, d, cert.claimed_depth,
                cert.bottom_masks[1:], cert.top_masks[1:],
            )

        monkeypatch.setitem(construct._BASE_BUILDERS, 3, dropped)
        assert run(["construct", "--n", "6", "--d", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "AssertionError" in captured.err

    @pytest.mark.parametrize("one_interval", [True, False])
    def test_gap_witness_at_n40(self, one_interval, tmp_path, capsys):
        # rank 20 of [40] has C(40, 20) sets; the witness comes from a
        # colex prefix, not from listing the rank
        def literal(members):
            return "{" + ",".join(map(str, members)) + "}"

        lines = ["VSDEPTH-CERT v1", "n=40 d=20 k=21", "trivial-completion", ""]
        if one_interval:
            lines.insert(2, f"interval {literal(range(1, 21))} {literal(range(1, 22))}")
        cert_path = tmp_path / "cert.txt"
        cert_path.write_text("\n".join(lines))
        start = time.perf_counter()
        assert run(["verify", "--cert", str(cert_path)]) == 1
        assert time.perf_counter() - start < 2.0
        least = [*range(1, 20), 21 if one_interval else 20]
        assert out_lines(capsys) == [f"INVALID gap-at-rank 20 {literal(least)}"]

    def test_stdout_output(self, capsys):
        assert run(["construct", "--n", "3", "--d", "1"]) == 0
        lines = out_lines(capsys)
        assert lines[0] == "VSDEPTH-CERT v1"
        assert lines[1] == "n=3 d=1 k=2"

    def test_stdout_bytes_match_file(self, tmp_path):
        # a real stdout, not a capture: the text goes to its byte buffer
        cert_path = tmp_path / "cert.txt"
        env = dict(os.environ, PYTHONPATH=SRC)
        argv = [sys.executable, "-m", "vsdepth", "construct", "--n", "9", "--d", "2"]
        out = subprocess.run(argv, capture_output=True, env=env, check=True).stdout
        subprocess.run([*argv, "--out", str(cert_path)], env=env, check=True)
        assert out == cert_path.read_bytes()
        assert out == format_certificate(construct.construct_general(9, 2))


class TestBounds:
    def test_exact(self, capsys):
        assert run(["bounds", "--n", "11", "--d", "3"]) == 0
        assert out_lines(capsys) == ["lower=5 upper=5 exact=5 conjectured=5"]

    def test_unknown(self, capsys):
        assert run(["bounds", "--n", "24", "--d", "4"]) == 0
        assert out_lines(capsys) == ["lower=7 upper=8 exact=unknown conjectured=8"]

    def test_bad_params(self, capsys):
        assert run(["bounds", "--n", "2", "--d", "5"]) == 2


class TestSdepth:
    def test_exact_small(self, capsys):
        assert run(["sdepth", "--n", "7", "--d", "2", "--exact"]) == 0
        assert out_lines(capsys)[0].startswith("sdepth3 status=proved")

    def test_certify_k(self, capsys):
        assert run(["sdepth", "--n", "5", "--d", "1", "--k", "3"]) == 0
        assert out_lines(capsys)[0].startswith("k=3 status=proved")

    def test_disproved_exit_code(self, capsys):
        assert run(["sdepth", "--n", "4", "--d", "2", "--k", "3"]) == 1
        assert out_lines(capsys)[0].startswith("k=3 status=disproved")

    def test_exact_and_k_refused_together(self, capsys):
        # one command cannot both descend to the exact value and certify k
        assert run(["sdepth", "--n", "6", "--d", "2", "--exact", "--k", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err

    def test_rank_k_prune_disproves_at_root(self, capsys):
        # bounds gives upper=4 at (7,4); only the rank-k count shows it
        assert run(["sdepth", "--n", "7", "--d", "4", "--k", "5"]) == 1
        assert out_lines(capsys)[0] == "k=5 status=disproved nodes=1"

    def test_budget_kept_at_n26(self):
        # no table of the 2^25 sets of ranks 1..12 is built before searching
        code, out, _, secs = run_capped(
            "sdepth", "--n", 26, "--d", 1, "--k", 13, "--budget-secs", 1
        )
        assert code == 1 and out.startswith("k=13 status=budget-exhausted")
        assert secs < 3.0

    def test_past_member_limit_refused(self):
        code, out, err, secs = run_capped("sdepth", "--n", 34, "--d", 2, "--k", 11)
        assert (code, out) == (2, "") and "above the limit" in err
        assert secs < 1.0

    def test_scan_reports_member_limit_per_cell(self, monkeypatch, capsys):
        # at a limit of 130 the cells (9, d <= 4) are past it: each row
        # says so, with its proved lower bound, and the scan still exits 0
        monkeypatch.setattr(intervals, "MAX_MEMBERS", 130)
        start = time.perf_counter()
        assert run(["scan", "--max-n", "9"]) == 0
        assert time.perf_counter() - start < 1.0
        rows = [line.split() for line in out_lines(capsys)[1:]]
        assert len(rows) == 45
        assert [row[:4] for row in rows if row[4] == "member-limit"] == [
            ["9", "1", "5", "3"], ["9", "2", "4", "3"],
            ["9", "3", "4", "3"], ["9", "4", "5", "4"],
        ]
        assert all(row[4:] == ["proved"] for row in rows if row[4] != "member-limit")

    def test_exact_descends_below_member_limit(self):
        # k = 14..10 are past the limit; k = 9, whose certificate has about
        # 1.0e8 members, spends the one budget, so the lower bound is d
        code, out, _, secs = run_capped("sdepth", "--n", 40, "--d", 2,
                                        "--budget-secs", 0.2, timeout=60.0)
        assert code == 1
        assert re.fullmatch(r"sdepth>=2 status=member-limit nodes=\d+\n", out)
        # the 0.2 s budget plus the interpreter's start
        assert secs < 2.0

    def test_writes_certificate(self, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.txt")
        assert run(["sdepth", "--n", "5", "--d", "1", "--out", cert_path]) == 0
        capsys.readouterr()
        assert run(["verify", "--cert", cert_path]) == 0


class TestScanAndUsage:
    def test_scan_table(self, capsys):
        assert run(["scan", "--max-n", "4"]) == 0
        lines = out_lines(capsys)
        assert lines[0].split() == ["n", "d", "conjectured", "proved", "status"]
        assert len(lines) == 1 + 10
        assert all("proved" in ln and "DISCREPANCY" not in ln for ln in lines[1:])

    @pytest.mark.parametrize("argv", [
        ["sdepth", "--n", "23", "--d", "2", "--k", "9"],
        ["scan", "--max-n", "3"],
    ])
    def test_nan_budget_refused(self, argv, capsys):
        start = time.perf_counter()
        assert run([*argv, "--budget-secs", "nan"]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and "budget limits must be positive" in captured.err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run(["bounds", "--n", "3"]) == 2

    def test_crash_is_internal_error(self, monkeypatch, capsys):
        def crash(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(solver, "certify_at_least", crash)
        assert run(["sdepth", "--n", "5", "--d", "1", "--k", "3"]) == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "RecursionError" in err

    def test_python_m_vsdepth(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "vsdepth", "bounds", "--n", "11", "--d", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout == "lower=5 upper=5 exact=5 conjectured=5\n"


class TestReadme:
    def test_cli_block_runs_as_documented(self, tmp_path, monkeypatch, capsys):
        # each line of the sh block under "## CLI", in order, in one
        # directory: exit 1 exactly where its comment says so, and a
        # comment that shows output is that output
        with open(os.path.join(SRC, "..", "README.md"), encoding="utf-8") as fh:
            readme = fh.read()
        block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        lines = block.splitlines()
        assert len(lines) == 9
        for line in lines:
            argv = shlex.split(line, comments=True)
            comment = line.partition("#")[2].strip()
            if argv[:3] == ["python", "-m", "vsdepth"]:
                argv = argv[2:]
            assert argv[0] == "vsdepth", line
            assert run(argv[1:]) == (1 if "exit 1" in comment else 0), line
            out = capsys.readouterr().out
            if argv[1:] == ["bounds", "--n", "24", "--d", "4"]:
                assert out == comment + "\n"
