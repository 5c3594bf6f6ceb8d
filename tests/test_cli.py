"""Command-line surface: CSV output, exit codes, reports, determinism."""

import io
import json
import math

import numpy as np
import pytest

from scalekit.cli import CASES, main


def run_cli(argv):
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestEval:
    def test_ig_route_csv(self):
        code, out = run_cli(["eval", "--model", "gtsc", "--alpha", "1/2",
                             "--gamma", "1", "--c", "1", "--q", "0",
                             "--x-max", "4", "--points", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,W,Wprime,route,q"
        assert len(lines) == 6
        assert all(ln.split(",")[3] == "ig" for ln in lines[1:])
        xs = [float(ln.split(",")[0]) for ln in lines[1:]]
        assert xs == sorted(xs)

    def test_catalog_stable_values(self):
        code, out = run_cli(["eval", "--model", "catalog:stable", "--beta", "1.5",
                             "--q", "0", "--x-min", "1", "--x-max", "4",
                             "--points", "4"])
        assert code == 0
        for ln in out.strip().splitlines()[1:]:
            x, w = (float(t) for t in ln.split(",")[:2])
            assert w == pytest.approx(x ** 0.5 / math.gamma(1.5), rel=1e-10)

    def test_invalid_params_exit_2(self):
        code, _ = run_cli(["eval", "--model", "gtsc", "--kappa", "1",
                           "--varphi", "1"])
        assert code == 2

    def test_rational_route_selected(self):
        code, out = run_cli(["eval", "--model", "gtsc", "--alpha", "1/3",
                             "--q", "1", "--x-max", "2", "--points", "3"])
        assert code == 0
        assert all(ln.split(",")[3] == "rational-ML"
                   for ln in out.strip().splitlines()[1:])

    def test_bromwich_route_agrees(self):
        common = ["--alpha", "1/3", "--kappa", "1", "--q", "0.5",
                  "--x-min", "0.5", "--x-max", "2", "--points", "3"]
        code_b, out_b = run_cli(["eval", "--model", "gtsc", "--route", "bromwich"]
                                + common)
        code_r, out_r = run_cli(["eval", "--model", "gtsc", "--route", "rational"]
                                + common)
        assert code_b == 0 and code_r == 0
        for lb, lr in zip(out_b.strip().splitlines()[1:],
                          out_r.strip().splitlines()[1:]):
            wb, wr = float(lb.split(",")[1]), float(lr.split(",")[1])
            assert wb == pytest.approx(wr, rel=1e-7)
        assert out_b.splitlines()[1].split(",")[3] == "bromwich"


class TestFigures:
    def test_files_and_determinism(self, tmp_path):
        args = ["figures", "--q", "0", "--alphas", "1/2,2/3",
                "--out", str(tmp_path / "a"), "--points", "21"]
        assert main(args) == 0
        args2 = ["figures", "--q", "0", "--alphas", "1/2,2/3",
                 "--out", str(tmp_path / "b"), "--points", "21"]
        assert main(args2) == 0
        for label in CASES:
            f1 = (tmp_path / "a" / f"case_{label}_q0.csv").read_bytes()
            f2 = (tmp_path / "b" / f"case_{label}_q0.csv").read_bytes()
            assert f1 == f2
            text = f1.decode()
            assert text.splitlines()[0] == "x,alpha,W"
            assert len(text.splitlines()) == 1 + 2 * 21
            assert "\r" not in text

    def test_values_match_pointwise_eval(self, tmp_path):
        from fractions import Fraction

        from scalekit.gtsc import w_rational
        from scalekit.polyfrac import RationalAlpha

        assert main(["figures", "--q", "1", "--alphas", "1/3,3/4",
                     "--out", str(tmp_path), "--points", "31"]) == 0
        xs = np.linspace(0.0, 5.0, 31)    # the grid the CSV was written from
        for label, case in CASES.items():
            rows = (tmp_path / f"case_{label}_q1.csv").read_text().strip().splitlines()[1:]
            assert len(rows) == 2 * xs.size
            for frac, block in zip((Fraction(1, 3), Fraction(3, 4)), (rows[:31], rows[31:])):
                scale = w_rational(case.params(float(frac)),
                                   RationalAlpha(frac.numerator, frac.denominator), 1.0)
                for x, row in zip(xs, block):
                    got = float(row.split(",")[2])
                    assert got == pytest.approx(scale.eval(float(x)), rel=1e-11, abs=1e-300)

    def test_case_b_tail_approaches_inverse_kappa(self, tmp_path):
        assert main(["figures", "--q", "0", "--alphas", "1/2",
                     "--out", str(tmp_path), "--x-max", "50",
                     "--points", "26"]) == 0
        rows = (tmp_path / "case_B_q0.csv").read_text().strip().splitlines()[1:]
        last = rows[-1].split(",")
        assert float(last[2]) == pytest.approx(1.0, abs=2e-3)


class TestVerify:
    def test_laplace_suite_json(self):
        code, out = run_cli(["verify", "--suite", "laplace", "--model", "gtsc",
                             "--alpha", "1/2", "--gamma", "1", "--c", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["pass"] is True
        assert len(rep["checks"]) == 4
        for chk in rep["checks"]:
            assert set(chk) == {"name", "target", "achieved", "tolerance", "pass"}
            assert chk["achieved"] <= 1e-6

    def test_routes_suite(self):
        code, out = run_cli(["verify", "--suite", "routes", "--model", "gtsc",
                             "--alpha", "1/4", "--q", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["checks"][0]["achieved"] <= 1e-6

    def test_asymptotics_suite(self):
        code, out = run_cli(["verify", "--suite", "asymptotics", "--model", "gtsc",
                             "--alpha", "1/2", "--kappa", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["checks"][0]["name"] == "limit_at_infinity"
        assert rep["pass"]

    def test_mc_suite(self):
        code, out = run_cli(["verify", "--suite", "mc", "--model", "gtsc",
                             "--alpha", "1/2", "--paths", "8000", "--a", "2.0"])
        rep = json.loads(out)
        assert rep["checks"][-1]["achieved"] <= 3.0
        assert code == 0


class TestApps:
    def test_exit_brownian(self):
        code, out = run_cli(["apps", "--compute", "exit", "--model",
                             "catalog:brownian", "--sigma", "1", "--mu", "0",
                             "--x", "0.5", "--a", "1"])
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(0.5, rel=1e-12)

    def test_zq_trivial(self):
        code, out = run_cli(["apps", "--compute", "zq", "--model", "gtsc",
                             "--alpha", "1/2", "--q", "0", "--x", "3"])
        assert code == 0
        assert json.loads(out)["Z"] == 1.0

    def test_barrier_case_e(self):
        code, out = run_cli(["apps", "--compute", "barrier", "--model", "gtsc",
                             "--alpha", "1/2", "--case", "E", "--q", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["a_star"] > 0.0
        assert rep["Wq_prime_at_a_star"] > 0.0

    def test_barrier_without_minimizer_exits_1(self, monkeypatch):
        from scalekit import cli
        from scalekit.gtsc import ScaleFunction

        stub = ScaleFunction(q=1.0, phi_q=0.0, route="stub",
                             eval_fn=lambda x: 1.0 - math.exp(-x),
                             deriv_fn=lambda x: math.exp(-x))
        monkeypatch.setattr(cli, "_build_scale", lambda args: stub)
        code, _ = run_cli(["apps", "--compute", "barrier", "--q", "1"])
        assert code == 1

    def test_ruin_cl(self):
        code, out = run_cli(["apps", "--compute", "ruin", "--model",
                             "catalog:cramer_lundberg", "--x", "1"])
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(
            0.5 * math.exp(-0.5), rel=1e-10)


class TestParser:
    def test_unknown_case(self):
        code, _ = run_cli(["apps", "--compute", "ruin", "--case", "Z"])
        assert code == 2

    def test_thread_cap_env(self, monkeypatch):
        from scalekit.cli import thread_cap

        monkeypatch.setenv("SCALEKIT_THREADS", "3")
        assert thread_cap() == 3
        monkeypatch.setenv("SCALEKIT_THREADS", "0")
        assert thread_cap() == 1