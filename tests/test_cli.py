"""Command-line surface: CSV output, exit codes, reports, determinism."""

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from scalekit.catalog import catalog_families, w_brownian
from scalekit.cli import CASES, main
from scalekit.errors import ParameterError
from scalekit.fluctuation import dividend_value, z_q
from scalekit.gtsc import GtscParams
from scalekit.levy import big_phi


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

    @pytest.mark.parametrize("alpha,case,flag,q,orders", [("1/3", "B", "--kappa", "1", [0]),
                                                          ("3/4", "D", "--zeta", "0", [0, 1])])
    def test_rational_grid_one_pass_per_chunk(self, monkeypatch, alpha, case, flag, q, orders):
        # W and W' on each chunk share one Mittag-Leffler pass per order, on grids of one
        # chunk and more, and the CSV equals W and W' from fresh instances, bit for bit
        from scalekit import gtsc
        from scalekit.scale import _CHUNK
        from scalekit.special import mittag_leffler_deriv

        asked = []

        def counted(a, b, j, z):
            asked.append(j)
            return mittag_leffler_deriv(a, b, j, z)

        monkeypatch.setattr(gtsc, "mittag_leffler_deriv", counted)

        def fresh():
            return gtsc.scale_function(CASES[case].params(float(Fraction(alpha))), float(q))

        for points in (64, 101, 500):
            asked.clear()
            code, out = run_cli(["eval", "--alpha", alpha, flag, "1", "--q", q,
                                 "--x-max", "6", "--points", str(points)])
            assert code == 0
            assert asked == orders * math.ceil(points / _CHUNK), points
            xs = np.linspace(0.0, 6.0, points)
            assert out.splitlines()[1:] == [
                f"{x:.12g},{w:.12g},{wp:.12g},rational-ML,{q}"
                for x, w, wp in zip(xs, fresh().eval(xs), fresh().eval_deriv(xs))]

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

    @pytest.mark.parametrize("family", catalog_families())
    def test_catalog_default_grid(self, family):
        # the default grid starts at x = 0, where W'(0+) may be infinite
        code, out = run_cli(["eval", "--model", f"catalog:{family}"])
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert len(rows) == 101
        assert all(math.isfinite(float(row[1])) for row in rows)

    def test_alpha_zero_q1_auto_matches_bromwich(self):
        common = ["--alpha", "0", "--q", "1", "--x-min", "0.5", "--x-max", "2",
                  "--points", "3"]
        code_a, out_a = run_cli(["eval"] + common)
        code_b, out_b = run_cli(["eval", "--route", "bromwich"] + common)
        assert code_a == 0 and code_b == 0
        assert out_a == out_b
        assert all(math.isfinite(float(ln.split(",")[1])) for ln in out_a.splitlines()[1:])

    def test_bromwich_starts_at_w0(self):
        # alpha = -1, c = gamma = 1: W = 1 + x, so W(0+) = W'(0+) = 1
        code, out = run_cli(["eval", "--alpha=-1", "--points", "3", "--x-max", "1"])
        assert code == 0
        x, w, wp, route, _ = out.splitlines()[1].split(",")
        assert (float(x), float(w), route) == (0.0, 1.0, "bromwich")
        assert float(wp) == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("alpha", ["1/3", "-1/3"])
    def test_closed_route_slope_infinite_at_zero(self, alpha):
        code, out = run_cli(["eval", "--route", "closed", f"--alpha={alpha}",
                             "--points", "3", "--x-max", "1"])
        assert code == 0
        rows = [ln.split(",") for ln in out.splitlines()[1:]]
        assert float(rows[0][0]) == 0.0 and float(rows[0][2]) == math.inf
        assert all(math.isfinite(float(row[2])) for row in rows[1:])

    def test_columns_in_one_call_each(self, monkeypatch):
        from scalekit import cli
        from scalekit.errors import NumericalError
        from scalekit.scale import ScaleFunction

        calls = []

        def w(x):
            calls.append(("w", x.size))
            return 2.0 * x

        def dw(x):
            calls.append(("dw", x.size))
            if (x > 1.0).any():
                raise NumericalError("no slope beyond 1")
            return np.full(x.shape, 2.0)

        stub = ScaleFunction(0.0, 0.0, "stub", w, dw, w_brownian(1.0, 0.0).psi)   # W = 2x
        monkeypatch.setattr(cli, "_build_model", lambda args: (stub, {}))
        code, out = run_cli(["eval", "--x-max", "2", "--points", "5"])
        assert code == 0
        assert calls[:2] == [("w", 5), ("dw", 5)]
        rows = [[float(v) for v in ln.split(",")[:3]] for ln in out.splitlines()[1:]]
        assert [row[1] for row in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]
        slopes = [row[2] for row in rows]
        assert slopes[:3] == [2.0, 2.0, 2.0] and all(math.isnan(v) for v in slopes[3:])

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

    @pytest.mark.parametrize("alphas", ["abc", "1/0", "5/4"])
    def test_bad_alphas_exit_2(self, tmp_path, alphas):
        code, _ = run_cli(["figures", "--alphas", alphas, "--out", str(tmp_path)])
        assert code == 2

    def test_case_b_tail_approaches_inverse_kappa(self, tmp_path):
        assert main(["figures", "--q", "0", "--alphas", "1/2",
                     "--out", str(tmp_path), "--x-max", "50",
                     "--points", "26"]) == 0
        rows = (tmp_path / "case_B_q0.csv").read_text().strip().splitlines()[1:]
        last = rows[-1].split(",")
        assert float(last[2]) == pytest.approx(1.0, abs=2e-3)


class TestUntempered:
    """gamma = 0, admitted for alpha > 0: the ladder exponent has phi_L'(0+) = inf."""

    def test_eval_exit_code(self):
        code, out = run_cli(["eval", "--alpha", "1/3", "--gamma", "0", "--kappa", "1",
                             "--x-max", "2", "--points", "5"])
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert all(r[3] == "rational-ML" and math.isfinite(float(r[1])) for r in rows)

    def test_auto_skips_ig(self):
        code, out = run_cli(["eval", "--alpha", "1/2", "--gamma", "0", "--points", "3"])
        assert code == 0
        assert all(ln.split(",")[3] == "rational-ML" for ln in out.strip().splitlines()[1:])
        assert run_cli(["eval", "--alpha", "1/2", "--gamma", "0", "--route", "ig"])[0] == 2

    @pytest.mark.parametrize("flags", [["--alpha", "1/3", "--kappa", "1"],
                                       ["--alpha", "1/2", "--varphi", "1"],
                                       ["--alpha", "2/3", "--zeta", "1"],
                                       ["--alpha", "1/4", "--kappa", "1", "--q", "1"]])
    def test_transform_identity(self, flags):
        code, out = run_cli(["verify", "--suite", "laplace", "--gamma", "0", *flags])
        assert code == 0
        assert json.loads(out)["pass"] is True


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

    def test_laplace_saturation_is_json_with_notes(self):
        # Phi(60) = 11.29, so W at the truncation point x = 90 overflows: every check fails,
        # with no number to report and the overflow named in its notes
        code, out = run_cli(["verify", "--suite", "laplace", "--alpha", "1/3", "--q", "60"])
        assert code == 1

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        rep = json.loads(out, parse_constant=refuse)
        assert rep["pass"] is False and len(rep["checks"]) == 4
        for chk in rep["checks"]:
            assert chk["pass"] is False and chk["achieved"] is None
            assert len(chk["notes"]) == 1 and "overflow" in chk["notes"][0]

    def test_routes_suite(self):
        code, out = run_cli(["verify", "--suite", "routes", "--model", "gtsc",
                             "--alpha", "1/4", "--q", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["checks"][0]["achieved"] <= 1e-6

    @pytest.mark.parametrize("alpha", ["0.7071067811865476", "1/13"])
    def test_routes_suite_checks_bromwich_against_the_line(self, alpha, monkeypatch):
        from scalekit import gtsc

        argv = ["verify", "--suite", "routes", "--alpha", alpha, "--q", "1"]
        code, out = run_cli(argv)
        check = json.loads(out)["checks"][0]
        assert check["name"] == "route_agreement[bromwich vs shifted-line]"
        assert 0.0 < check["achieved"] <= 1e-6
        assert code == 0

        # the route's W and W' call the hyperbola through the name gtsc binds
        hyperbola = gtsc._invert_hyperbola

        def off(*args):
            value, err = hyperbola(*args)
            return value * (1.0 + 1e-5), err

        monkeypatch.setattr(gtsc, "_invert_hyperbola", off)
        code, out = run_cli(argv)
        assert json.loads(out)["checks"][0]["achieved"] > 1e-6
        assert code == 1

    def test_asymptotics_suite(self):
        code, out = run_cli(["verify", "--suite", "asymptotics", "--model", "gtsc",
                             "--alpha", "1/2", "--kappa", "1"])
        assert code == 0
        rep = json.loads(out)
        assert rep["checks"][0]["name"] == "limit_at_infinity"
        assert rep["pass"]

    def test_asymptotics_power_law_approach_refused(self, capsys):
        # untempered jumps (gamma = 0): W(50) = 0.477 is still far from W(inf) = 1/kappa = 1
        code, out = run_cli(["verify", "--suite", "asymptotics", "--alpha", "1/3",
                             "--gamma", "0", "--kappa", "1"])
        assert code == 1 and out == ""
        assert "power law" in capsys.readouterr().err

    @pytest.mark.parametrize("jump", ["0.3", "0.2"])
    def test_laplace_fixed_jumps(self, jump):
        # W has a kink at every multiple of the jump; a panel across one misses the bound here
        code, out = run_cli(["verify", "--suite", "laplace", "--model", "catalog:fixed_jumps",
                             "--jump", jump])
        assert max(chk["achieved"] for chk in json.loads(out)["checks"]) <= 1e-6
        assert code == 0

    def test_asymptotics_linear_growth(self):
        # case A at q = 0 has psi'(0+) = 0: W grows with slope 1/phi_L'(0+) = 1/Gamma(3/4)
        code, out = run_cli(["verify", "--suite", "asymptotics", "--alpha", "1/4", "--q", "0"])
        check = json.loads(out)["checks"][0]
        assert check["name"] == "linear_growth_slope"
        assert check["target"] == pytest.approx(1.0 / math.gamma(0.75), rel=1e-12)
        assert code == 0

    def test_mc_suite(self):
        code, out = run_cli(["verify", "--suite", "mc", "--model", "gtsc",
                             "--alpha", "1/2", "--paths", "8000", "--a", "2.0"])
        rep = json.loads(out)
        assert rep["checks"][-1]["achieved"] <= 3.0
        assert code == 0

    def test_mc_warnings_become_notes(self):
        import warnings

        # c = 0.005 slows the process down 200-fold, so some paths are still inside
        # (0, 2) at the horizon
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(["verify", "--suite", "mc", "--alpha=-1/2", "--c", "0.005",
                                 "--paths", "2000"])
        check = json.loads(out)["checks"][0]
        assert [note for note in check["notes"] if "censored at the horizon" in note]
        assert code == 0

    def test_mc_untempered_tilted_parent(self):
        # gamma = 0 with varphi > 0: no first moment above the cutoff, a finite engine drift
        code, out = run_cli(["verify", "--suite", "mc", "--alpha", "1/2", "--gamma", "0",
                             "--varphi", "1"])
        assert json.loads(out)["checks"][0]["achieved"] <= 3.0
        assert code == 0

    @pytest.mark.parametrize("suite", ["routes", "asymptotics", "mc"])
    def test_suite_without_catalog_checks_does_not_apply(self, suite, capsys):
        code, out = run_cli(["verify", "--suite", suite, "--model", "catalog:brownian"])
        assert (code, out) == (1, "")
        assert capsys.readouterr().err.startswith("not applicable: ")

    def test_all_names_the_suites_it_ran(self):
        code, out = run_cli(["verify", "--suite", "all", "--model", "catalog:brownian"])
        rep = json.loads(out)
        assert rep["suites"] == ["laplace"]
        assert sorted(rep["not_applicable"]) == ["asymptotics", "mc", "routes"]
        assert rep["checks"] and rep["pass"]
        assert code == 0

    def test_report_without_checks_fails(self, monkeypatch):
        from scalekit import cli

        monkeypatch.setattr(cli, "_suite_checks", lambda *args: [])
        code, out = run_cli(["verify", "--suite", "laplace"])
        assert json.loads(out)["pass"] is False
        assert code == 1

    def test_readme_all_suites_at_q1(self):
        # the mc check simulates the discounted exit E_x[e^{-q tau}; up first],
        # the quantity W^(q)(x)/W^(q)(a) it is compared with
        code, out = run_cli(["verify", "--suite", "all", "--model", "gtsc",
                             "--alpha", "1/4", "--q", "1"])
        rep = json.loads(out)
        assert rep["checks"][-1]["name"].startswith("mc_exit")
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
                             w=lambda x: 1.0 - np.exp(-x), dw=lambda x: np.exp(-x),
                             psi=w_brownian(1.0, 0.0).psi)
        monkeypatch.setattr(cli, "_build_model", lambda args: (stub, {}))
        code, _ = run_cli(["apps", "--compute", "barrier", "--q", "1"])
        assert code == 1

    def test_ruin_cl(self):
        code, out = run_cli(["apps", "--compute", "ruin", "--model",
                             "catalog:cramer_lundberg", "--x", "1"])
        assert code == 0
        assert json.loads(out)["probability"] == pytest.approx(
            0.5 * math.exp(-0.5), rel=1e-10)


    def test_workload_cl(self):
        # the stationary workload cdf is the complement of the ruin probability
        code, out = run_cli(["apps", "--compute", "workload", "--model",
                             "catalog:cramer_lundberg", "--x", "1"])
        assert code == 0
        assert json.loads(out)["cdf"] == pytest.approx(1.0 - 0.5 * math.exp(-0.5), rel=1e-10)

    @pytest.mark.parametrize("a,x", [(None, 0.2), (2.0, 3.0)])
    def test_value(self, a, x):
        from scalekit.fluctuation import dividend_barrier
        from scalekit.gtsc import scale_function

        scale = scale_function(CASES["E"].params(0.5), 1.0)
        argv = ["apps", "--compute", "value", "--alpha", "1/2", "--case", "E", "--q", "1",
                "--x", str(x)]
        code, out = run_cli(argv + ([] if a is None else ["--a", str(a)]))
        assert code == 0
        rep = json.loads(out)
        a = dividend_barrier(scale) if a is None else a
        assert rep["a"] == a
        # reflected at a: W(x)/W'(a) below a, and one unit per unit of x above it
        ref = scale.eval(min(x, a)) / scale.eval_deriv(a) + max(x - a, 0.0)
        assert rep["value"] == pytest.approx(ref, rel=1e-12)


class TestParser:
    def test_unknown_case(self):
        code, _ = run_cli(["apps", "--compute", "ruin", "--case", "Z"])
        assert code == 2

    @pytest.mark.parametrize("flag", ["--c", "--gamma", "--kappa", "--varphi", "--zeta"])
    def test_case_refuses_explicit_ladder_flags(self, flag, capsys):
        # --case sets c, gamma, kappa, varphi and zeta; a flag it would override is refused
        code, out = run_cli(["apps", "--compute", "ruin", "--case", "B", flag, "2", "--x", "1"])
        assert code == 2 and out == ""
        assert flag in capsys.readouterr().err
        code, out = run_cli(["apps", "--compute", "ruin", "--case", "B", "--x", "1"])
        assert code == 0 and json.loads(out)["probability"] == 0.5265715760173593

    @pytest.mark.parametrize("argv", [
        ["--alpha", "abc"],
        ["--alpha", "1/0"],
        ["--alpha", "1e400"],
        ["--model", "catalog:brownian", "--q", "-1"],
        ["--model", "catalog:stable", "--q", "-1"],
        ["--model", "catalog:cramer_lundberg", "--q", "-1"],
        ["--model", "catalog:cramer_lundberg", "--q", "1"],
        ["--model", "catalog:nope"],
    ])
    def test_outside_input_exits_2(self, argv):
        code, _ = run_cli(["eval", "--points", "3"] + argv)
        assert code == 2

    @pytest.mark.parametrize("argv,unread", [
        (["eval", "--model", "catalog:stable", "--route", "bromwich"], "--route"),
        (["eval", "--model", "gtsc", "--beta", "1.9"], "--beta"),
        (["eval", "--model", "catalog:brownian", "--alpha", "3/4", "--kappa", "5"],
         "--alpha, --kappa"),
        (["apps", "--compute", "ruin", "--model", "catalog:cramer_lundberg", "--case", "B"],
         "--case"),
    ])
    def test_flag_the_model_does_not_read_exits_2(self, argv, unread, capsys):
        code, out = run_cli(argv)
        assert code == 2 and out == ""
        assert f"does not read {unread}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "catalog:stable_drift", "--c", "2", "--points", "3"],
        ["eval", "--model", "catalog:brownian", "--sigma", "2", "--q", "1", "--points", "3"],
        ["eval", "--model", "gtsc", "--alpha", "1/3", "--route", "bromwich", "--kappa", "1",
         "--points", "3"],
    ])
    def test_flag_the_model_reads_is_accepted(self, argv):
        code, out = run_cli(argv)
        assert code == 0 and len(out.splitlines()) == 4

    def test_other_scalekit_error_exits_1(self, capsys):
        # a CapabilityError (n = 13 is past the rational route) is neither a ParameterError
        # nor a NotApplicableError: the generic branch, exit 1
        code, out = run_cli(["eval", "--route", "rational", "--alpha", "1/13", "--points", "3"])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("numerical failure: ")

    @pytest.mark.parametrize("case", [
        *[pytest.param(argv, id=" ".join(argv)) for argv in (
            ["eval", "--points", "-1"],
            ["figures", "--out", "{tmp}", "--points", "-2"],
            ["eval", "--alpha", "1/3", "--gamma", "nan"],
            ["eval", "--alpha", "1/3", "--gamma", "inf"],
            ["eval", "--alpha", "1/3", "--q", "nan"],
            ["eval", "--alpha", "1/3", "--q", "inf"],
            ["eval", "--alpha", "1/2", "--q", "nan"],
            ["eval", "--alpha", "1/3", "--route", "bromwich", "--q", "-1"],
            ["eval", "--model", "catalog:brownian", "--sigma", "nan"],
            ["eval", "--model", "catalog:brownian", "--mu", "inf"],
            ["apps", "--compute", "zq", "--x", "nan", "--q", "1"],
            ["apps", "--compute", "ruin", "--model", "catalog:cramer_lundberg", "--x", "inf"],
            ["apps", "--compute", "exit", "--model", "catalog:cramer_lundberg", "--a", "inf"],
            ["verify", "--suite", "mc", "--dt", "inf", "--paths", "200"])],
        pytest.param(lambda: big_phi(w_brownian(1.0, 0.5).psi, math.nan), id="big_phi-nan"),
        pytest.param(lambda: dividend_value(w_brownian(1.0, 0.5, 1.0), 1.0, math.nan),
                     id="dividend_value-nan"),
        pytest.param(lambda: z_q(w_brownian(1.0, 0.5, 1.0), math.nan), id="z_q-nan"),
        *[pytest.param(lambda name=name, v=v: GtscParams(**{"alpha": 1 / 3, "gamma": 1.0,
                                                            "c": 1.0, name: v}),
                       id=f"GtscParams-{name}-{v}")
          for name, v in (("gamma", math.nan), ("gamma", math.inf), ("zeta", math.nan),
                          ("kappa", math.nan), ("varphi", math.nan))],
    ])
    def test_non_finite_or_negative_input_is_a_parameter_error(self, case, tmp_path, capsys):
        # a typed ParameterError, exit 2 on the command line: not a traceback from numpy,
        # a NumericalError, an exit 1 or a silent value
        if callable(case):
            with pytest.raises(ParameterError):
                case()
        else:
            code, _ = run_cli([tok.replace("{tmp}", str(tmp_path)) for tok in case])
            assert code == 2
            assert capsys.readouterr().err.startswith("error: ")
