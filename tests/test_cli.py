import os
import subprocess
import sys

import pytest

from vsdepth import construct, solver
from vsdepth.cli import run
from vsdepth.intervals import Certificate

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def out_lines(capsys):
    return capsys.readouterr().out.splitlines()


class TestBlocks:
    def test_example(self, capsys):
        code = run(["blocks", "--n", "8", "--set", "{1,4,5,8}", "--density", "3/2"])
        lines = out_lines(capsys)
        assert code == 0
        assert lines[0].startswith("blocks ")
        assert lines[2].startswith("f ")

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

    def test_missing_file(self, capsys):
        assert run(["verify", "--cert", "/nonexistent/cert.txt"]) == 2

    @pytest.mark.parametrize("params", ["n=3 d=5 k=5", "n=70 d=2 k=2", "n=4 d=2 k=1"])
    def test_parameters_outside_domain(self, params, tmp_path, capsys):
        cert_path = tmp_path / "cert.txt"
        cert_path.write_text(f"VSDEPTH-CERT v1\n{params}\ntrivial-completion\n")
        assert run(["verify", "--cert", str(cert_path)]) == 2
        assert capsys.readouterr().out == ""

    def test_universe_above_63_refused(self, capsys):
        assert run(["construct", "--n", "64", "--d", "63"]) == 2
        assert run(["bounds", "--n", "64", "--d", "3"]) == 2
        assert capsys.readouterr().out == ""

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

    def test_stdout_output(self, capsys):
        assert run(["construct", "--n", "3", "--d", "1"]) == 0
        lines = out_lines(capsys)
        assert lines[0] == "VSDEPTH-CERT v1"
        assert lines[1] == "n=3 d=1 k=2"


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

    def test_rank_k_prune_disproves_at_root(self, capsys):
        # bounds gives upper=4 at (7,4); only the rank-k count shows it
        assert run(["sdepth", "--n", "7", "--d", "4", "--k", "5"]) == 1
        assert out_lines(capsys)[0] == "k=5 status=disproved nodes=1"

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
