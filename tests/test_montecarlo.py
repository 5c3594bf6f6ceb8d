"""Monte Carlo engines: reproducibility, distributional checks, benchmarks."""

import math
import warnings

import numpy as np
import pytest
from scipy import special as sps

from scalekit import montecarlo
from scalekit.errors import NotApplicableError, NumericalError, ParameterError
from scalekit.gtsc import GtscParams, w_rational
from scalekit.levy import LevyTriple, build_parent
from scalekit.montecarlo import (SimConfig, _ComponentSampler, _JumpModel, simulate_exit,
                                 simulate_ruin)
from scalekit.polyfrac import RationalAlpha
from scalekit.special import upper_gamma

BROWNIAN = LevyTriple(a=0.0, sigma=1.0, pi_tail=lambda x: 0.0,
                      pi_density=lambda x: 0.0)


def cl_triple(ccoef=2.0, lam=1.0, mu=1.0, sigma=0.0):
    # E X_1 = ccoef - lam/mu; the location a makes the mean come out right
    mean = ccoef - lam / mu
    a = -(mean + lam * math.exp(-mu) * (1.0 + 1.0 / mu))
    return LevyTriple(a=a, sigma=sigma,
                      pi_tail=lambda x: lam * math.exp(-mu * x),
                      pi_density=lambda x: lam * mu * math.exp(-mu * x),
                      jump_components=(("exponential", lam, mu),))


def exp_claims_w(ccoef, lam, mu, sigma, q):
    """W^(q) of c t + sigma B_t minus Exp(mu) claims at rate lam.

    psi(theta) = c theta + sigma^2 theta^2 / 2 - lam theta / (mu + theta), and
    W^(q)(x) = sum_i e^{theta_i x} / psi'(theta_i) over the roots of
    (psi(theta) - q)(mu + theta), a polynomial of degree 3 (2 when sigma = 0).
    """
    s2 = sigma ** 2
    roots = np.roots([0.5 * s2, ccoef + 0.5 * s2 * mu, ccoef * mu - q - lam, -q * mu])
    dpsi = ccoef + s2 * roots - lam * mu / (mu + roots) ** 2
    return lambda x: float(np.sum(np.exp(roots * x) / dpsi).real)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            SimConfig(n_paths=0)
        with pytest.raises(ParameterError):
            SimConfig(dt=-1.0)


class TestSampler:
    def test_tempered_power_distribution(self):
        comp = ("tempered_power", 1.5, 1.5, 1.0)
        s = _ComponentSampler(comp, 0.02)
        rng = np.random.default_rng(5)
        n = 200_000
        smp = s.sample(rng, n)
        for u in (0.03, 0.1, 0.3):
            emp = (smp > u).mean()
            ana = 1.5 * upper_gamma(-1.5, u) / s.rate
            se = math.sqrt(ana * (1.0 - ana) / n)
            assert abs(emp - ana) <= 4.0 * se
        assert smp.mean() == pytest.approx((s.moment_to_1 + s.moment_past_1) / s.rate, rel=0.01)

    def test_untempered_pareto_tail(self):
        # gamma = 0: density c u^{-a-1} above eps, a Pareto law with no tail piece
        c, a, eps, n = 1.0, 1.5, 0.02, 200_000
        s = _ComponentSampler(("tempered_power", c, a, 0.0), eps)
        assert s.u0 == math.inf
        assert s.rate == pytest.approx(c * eps ** (-a) / a, rel=1e-15)
        assert s.moment_to_1 + s.moment_past_1 == pytest.approx(c * eps ** (1.0 - a) / (a - 1.0),
                                                                rel=1e-15)
        assert s.small_var == pytest.approx(c * eps ** (2.0 - a) / (2.0 - a), rel=1e-15)
        smp = s.sample(np.random.default_rng(3), n)
        assert smp.min() > eps
        for u in (0.03, 0.1, 1.0):
            ana = (u / eps) ** (-a)
            assert abs((smp > u).mean() - ana) <= 4.0 * math.sqrt(ana * (1.0 - ana) / n)

    def test_alpha_zero_exponential_integral_tail(self):
        # a = 0: density c u^{-1} e^{-gamma u}, the log-uniform proposal below u0 = 1/gamma
        c, gamma, eps, n = 1.0, 1.0, 0.02, 200_000
        s = _ComponentSampler(("tempered_power", c, 0.0, gamma), eps)
        assert s.rate == pytest.approx(c * sps.exp1(gamma * eps), rel=1e-14)
        assert s.moment_to_1 + s.moment_past_1 == pytest.approx(c * math.exp(-gamma * eps) / gamma,
                                                                rel=1e-14)
        smp = s.sample(np.random.default_rng(3), n)
        assert smp.min() > eps
        for u in (0.05, 0.5, 1.0, 3.0):
            ana = sps.exp1(gamma * u) / sps.exp1(gamma * eps)
            assert abs((smp > u).mean() - ana) <= 4.0 * math.sqrt(ana * (1.0 - ana) / n)

    def test_tail_share_is_the_tail_mass(self):
        # each size picks the power piece or the exponential tail beyond u0 by mass
        n = 200_000
        for comp in (("tempered_power", 1.5, 0.5, 1.0), ("tempered_power", 1.0, 0.0, 1.0),
                     ("tempered_power", 1.5, 1.5, 1.0)):
            s = _ComponentSampler(comp, 0.02)
            share = s.mass_tail / s.rate
            emp = (s.sample(np.random.default_rng(8), n) > s.u0).mean()
            assert abs(emp - share) <= 4.0 * math.sqrt(share * (1.0 - share) / n)

    def test_jump_model_mixes_components_by_rate(self):
        # the case-A parent: c(gamma) u^{-3/2} e^{-u} + c(3/2) u^{-5/2} e^{-u} above eps
        triple, _ = GtscParams(alpha=0.5, gamma=1.0, c=1.0).parent_triple()
        model = _JumpModel(triple, 0.02)
        n = 200_000
        smp = model.sample(np.random.default_rng(9), n)
        assert smp.min() > 0.02
        for u in (0.03, 0.3, 1.0, 2.5):
            ana = (upper_gamma(-0.5, u) + 1.5 * upper_gamma(-1.5, u)) / model.rate
            assert abs((smp > u).mean() - ana) <= 4.0 * math.sqrt(ana * (1.0 - ana) / n)

    def test_exponential_component(self):
        s = _ComponentSampler(("exponential", 1.0, 2.0), 0.01)
        rng = np.random.default_rng(6)
        smp = s.sample(rng, 100_000)
        assert smp.min() >= 0.01
        assert smp.mean() == pytest.approx(0.01 + 0.5, rel=0.02)


class TestReproducibility:
    def test_bitwise_identical(self):
        cfg = SimConfig(n_paths=2000, dt=1e-3, horizon=50.0, seed=42)
        e1 = simulate_exit(BROWNIAN, 0.5, 1.0, cfg)
        e2 = simulate_exit(BROWNIAN, 0.5, 1.0, cfg)
        assert e1.p_hat == e2.p_hat
        assert e1.stderr == e2.stderr
        e3 = simulate_exit(BROWNIAN, 0.5, 1.0,
                           SimConfig(n_paths=2000, dt=1e-3, horizon=50.0, seed=43))
        assert e3.p_hat != e1.p_hat
        # a jump model: jump clocks and the size pool follow the seed too
        triple, _ = GtscParams(alpha=0.5, gamma=1.0, c=1.0).parent_triple()
        cfg = SimConfig(n_paths=1000, dt=1e-3, small_jump_cutoff=0.02,
                        horizon=50.0, seed=42)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            j1 = simulate_exit(triple, 1.0, 2.0, cfg, q=0.5)
            j2 = simulate_exit(triple, 1.0, 2.0, cfg, q=0.5)
            j3 = simulate_exit(triple, 1.0, 2.0,
                               SimConfig(n_paths=1000, dt=1e-3, small_jump_cutoff=0.02,
                                         horizon=50.0, seed=43), q=0.5)
        assert (j1.p_hat, j1.stderr, j1.n_censored) == (j2.p_hat, j2.stderr, j2.n_censored)
        assert j3.p_hat != j1.p_hat


def drift_only(mu):
    return LevyTriple(a=-mu, sigma=0.0, pi_tail=lambda x: 0.0, pi_density=lambda x: 0.0)


def exit_step(x, a, shift):
    """The grid step at which x + shift + shift + ... first reaches a."""
    steps = 0
    while x < a:
        x, steps = x + shift, steps + 1
    return steps


class TestBlockStepping:
    """The grid engine advances the live paths by blocks of min(64, 2^15 // live) steps."""

    @pytest.mark.parametrize("n_paths", [1, 100, 1000, 100_000])
    def test_drift_exit_at_its_own_step(self, n_paths):
        # sigma = 0 and no jumps: every path leaves at the same step t, whatever
        # block it falls in (widths 64, 64, 32 and 1), and weighs e^{-q t dt}
        mu, x, a, dt, q = 0.7, 0.9, 1.0, 1e-3, 0.8
        t = exit_step(x, a, mu * dt)
        est = simulate_exit(drift_only(mu), x, a,
                            SimConfig(n_paths=n_paths, dt=dt, horizon=1.0, seed=1), q=q)
        assert est.n_censored == 0
        assert est.p_hat == pytest.approx(math.exp(-q * t * dt), rel=1e-12)
        assert est.stderr < 1e-7

    def test_horizon_not_a_multiple_of_the_width(self):
        # 1000 paths step in blocks of 32; the exit step is not a multiple of 32
        mu, x, a, dt = 0.7, 0.9, 1.0, 1e-3
        t = exit_step(x, a, mu * dt)
        assert t % 32
        est = simulate_exit(drift_only(mu), x, a,
                            SimConfig(n_paths=1000, dt=dt, horizon=(t - 0.5) * dt, seed=1))
        assert (est.p_hat, est.n_censored) == (1.0, 0)
        with pytest.raises(NumericalError, match="censored"):
            simulate_exit(drift_only(mu), x, a,
                          SimConfig(n_paths=1000, dt=dt, horizon=(t - 1.5) * dt, seed=1))

    @pytest.mark.parametrize("n_paths", [500, 2000])
    def test_censored_share_at_a_ragged_horizon(self, n_paths):
        # zero-drift BM from 1/2 in (0, 1) outlives t = 0.1 with probability
        # sum_{n odd} 4/(n pi) sin(n pi/2) e^{-n^2 pi^2 t/2}.  The horizon is 100 steps,
        # in blocks of 64 (500 paths) or of 16 that widen as paths leave (2000 paths)
        t = 0.1
        survive = sum(4.0 / (n * math.pi) * math.sin(n * math.pi / 2)
                      * math.exp(-n * n * math.pi ** 2 * t / 2) for n in range(1, 40, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = simulate_exit(BROWNIAN, 0.5, 1.0,
                                SimConfig(n_paths=n_paths, dt=1e-3, horizon=t, seed=3))
        sd = math.sqrt(n_paths * survive * (1.0 - survive))
        assert abs(est.n_censored - n_paths * survive) <= 4.0 * sd

    @pytest.mark.parametrize("n_paths", [200, 2000])
    def test_jumps_per_block_are_poisson(self, n_paths):
        # jumps of 0.1 at rate 100 and no drift (the location a = 10 cancels the
        # compensator): from 0.45 the fifth jump ruins, so a path outlives t = 0.04
        # when at most four jumps fall in (0, t], with probability P(Poisson(4) <= 4).
        # About 6 jumps per path fall in one 64-step block, so this needs every
        # jump after a path's clock
        lam, t = 100.0, 0.04
        tri = LevyTriple(a=lam * 0.1, sigma=1e-3, pi_tail=lambda x: lam if x < 0.1 else 0.0,
                         jump_components=(("fixed", lam, 0.1),))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = simulate_exit(tri, 0.45, 1.0,
                                SimConfig(n_paths=n_paths, dt=1e-3, horizon=t, seed=4))
        survive = sum(math.exp(-lam * t) * (lam * t) ** j / math.factorial(j) for j in range(5))
        sd = math.sqrt(n_paths * survive * (1.0 - survive))
        assert est.p_hat == 0.0
        assert abs(est.n_censored - n_paths * survive) <= 4.0 * sd

    def test_jump_lands_in_its_own_step(self):
        # a drift of 1 reaches a at step 66, two steps into the second 64-step block,
        # unless a jump of 10 at rate 10 ruins the path first: up with probability
        # e^{-10 * 65 dt}, as no jump may fall in the first 65 steps
        lam, mu, dt = 10.0, 1.0, 1e-3
        tri = LevyTriple(a=-mu, sigma=1e-6, pi_tail=lambda x: lam if x < 10.0 else 0.0,
                         jump_components=(("fixed", lam, 10.0),))
        est = simulate_exit(tri, 1.0 - 65.5 * mu * dt, 1.0,
                            SimConfig(n_paths=500, dt=dt, horizon=1.0, seed=5))
        assert abs(est.p_hat - math.exp(-lam * 65 * dt)) <= 4.0 * est.stderr

    def test_one_normal_draw_per_block(self, monkeypatch):
        # the first gtsc_a call of the simulate benchmark at seed 1: each block draws
        # its (b, live) increments at once, under a quarter of the 6 890 draws of an
        # engine that steps one grid step per pass
        shapes = []
        make = np.random.default_rng

        class Counted:
            def __init__(self, seed):
                self.rng = make(seed)

            def __getattr__(self, name):
                return getattr(self.rng, name)

            def standard_normal(self, *args, **kwargs):
                shapes.append(kwargs["out"].shape if "out" in kwargs else args)
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", Counted)
        triple, _ = GtscParams(alpha=0.5, gamma=1.0, c=1.0).parent_triple()
        est = simulate_exit(triple, 1.0, 2.0, SimConfig(n_paths=12_000, dt=5e-4,
                                                        small_jump_cutoff=0.02,
                                                        horizon=400.0, seed=1731038949))
        assert est.n_censored == 0
        assert len(shapes) < 6890 / 4
        for width, live in shapes:
            assert width == min(64, max(1, 2 ** 15 // live))
        assert shapes[0] == (2, 12_000)


class TestBrownianBenchmark:
    def test_exit_within_three_sigma(self):
        cfg = SimConfig(n_paths=40_000, dt=2e-4, horizon=50.0, seed=7)
        est = simulate_exit(BROWNIAN, 0.5, 1.0, cfg)
        assert abs(est.p_hat - 0.5) <= 3.0 * est.stderr
        assert est.n_censored == 0

    def test_convergence_rate(self):
        cfg1 = SimConfig(n_paths=4000, dt=1e-3, horizon=50.0, seed=11)
        cfg4 = SimConfig(n_paths=16000, dt=1e-3, horizon=50.0, seed=11)
        e1 = simulate_exit(BROWNIAN, 0.5, 1.0, cfg1)
        e4 = simulate_exit(BROWNIAN, 0.5, 1.0, cfg4)
        assert e4.stderr == pytest.approx(e1.stderr / 2.0, rel=0.2)

    def test_dt_halving_sanity(self):
        cfg_a = SimConfig(n_paths=20_000, dt=1e-3, horizon=50.0, seed=13)
        cfg_b = SimConfig(n_paths=20_000, dt=5e-4, horizon=50.0, seed=13)
        ea = simulate_exit(BROWNIAN, 0.5, 1.0, cfg_a)
        eb = simulate_exit(BROWNIAN, 0.5, 1.0, cfg_b)
        assert abs(ea.p_hat - eb.p_hat) <= ea.stderr

    def test_ruin_with_drift(self):
        # mu > 0: ruin from x is exp(-2 mu x / sigma^2)
        tri = LevyTriple(a=-0.5, sigma=1.0, pi_tail=lambda x: 0.0,
                         pi_density=lambda x: 0.0)
        cfg = SimConfig(n_paths=30_000, dt=5e-4, horizon=200.0, seed=17)
        est = simulate_ruin(tri, 1.0, cfg, a_upper=12.0)
        assert abs(est.p_hat - math.exp(-2.0 * 0.5 * 1.0)) <= 3.5 * est.stderr

    @pytest.mark.parametrize("x, seed", [(0.02, 101), (0.98, 102)])
    def test_exit_near_a_barrier(self, x, seed):
        # zero drift: P_x(up first) = x/a exactly.  Started 0.02 off a barrier
        # with sqrt(dt) = 0.03, most paths leave between grid points, so this
        # is the bridge correction and its e^-40 cut at work
        cfg = SimConfig(n_paths=40_000, dt=1e-3, horizon=50.0, seed=seed)
        est = simulate_exit(BROWNIAN, x, 1.0, cfg)
        assert est.n_censored == 0
        assert abs(est.p_hat - x) <= 3.5 * est.stderr

    def test_all_censored_raises(self):
        with pytest.raises(NumericalError, match="censored"):
            simulate_exit(BROWNIAN, 0.5, 1.0, SimConfig(n_paths=100, horizon=1e-3))


class TestCompoundPoisson:
    def test_cl_ruin_exact_engine(self):
        cfg = SimConfig(n_paths=60_000, seed=11, horizon=3000.0)
        est = simulate_ruin(cl_triple(), 1.0, cfg, a_upper=17.0)
        target = 0.5 * math.exp(-0.5)
        assert abs(est.p_hat - target) <= 3.0 * est.stderr

    def test_drift_condition(self):
        tri = cl_triple(ccoef=0.5, lam=1.0, mu=1.0)
        with pytest.raises(NotApplicableError):
            simulate_ruin(tri, 1.0, SimConfig(n_paths=100), a_upper=12.0)

    def test_brownian_plus_exponential_jumps(self):
        # sigma = 1 with Exp(beta) claims at rate lam: jump clocks on the grid engine
        cfg = SimConfig(n_paths=20_000, dt=1e-3, horizon=50.0, seed=211)
        est = simulate_exit(cl_triple(1.5, 2.0, 2.0, sigma=1.0), 0.5, 1.0, cfg)
        target = exp_claims_w(1.5, 2.0, 2.0, 1.0, 0.0)
        assert est.n_censored == 0
        assert abs(est.p_hat - target(0.5) / target(1.0)) <= 3.5 * est.stderr

    def test_event_driven_past_100k_passes(self):
        # 5e4 tiny fixed jumps per unit time against a drift of 1: the paths
        # climb from 0.5 to 1.7 in about 2.4 time units, i.e. 1.2e5 jumps each
        lam, size = 5e4, 1e-5
        tri = LevyTriple(a=-0.5, sigma=0.0,
                         pi_tail=lambda x: lam if x < size else 0.0,
                         jump_components=(("fixed", lam, size),))
        cfg = SimConfig(n_paths=4, small_jump_cutoff=1e-6, horizon=10.0, seed=5)
        est = simulate_exit(tri, 0.5, 1.7, cfg)
        assert (est.p_hat, est.n_censored) == (1.0, 0)

    def test_event_driven_all_censored_raises(self):
        with pytest.raises(NumericalError, match="censored"):
            simulate_exit(cl_triple(), 0.5, 1.0, SimConfig(n_paths=100, horizon=1e-9))


class TestDiscounted:
    def test_brownian_laplace_transform(self):
        # zero-drift BM: E_x[e^{-q tau}; up first] = sinh(x r) / sinh(a r), r = sqrt(2q)
        q, r = 1.0, math.sqrt(2.0)
        cfg = SimConfig(n_paths=20_000, dt=1e-3, horizon=50.0, seed=307)
        est = simulate_exit(BROWNIAN, 0.5, 1.0, cfg, q=q)
        assert abs(est.p_hat - math.sinh(0.5 * r) / math.sinh(r)) <= 3.5 * est.stderr

    def test_event_driven_discounted(self):
        cfg = SimConfig(n_paths=40_000, horizon=200.0, seed=311)
        est = simulate_exit(cl_triple(), 0.5, 1.0, cfg, q=1.0)
        w = exp_claims_w(2.0, 1.0, 1.0, 0.0, 1.0)
        assert abs(est.p_hat - w(0.5) / w(1.0)) <= 3.5 * est.stderr

    def test_q_validated(self):
        with pytest.raises(ParameterError):
            simulate_exit(BROWNIAN, 0.5, 1.0, SimConfig(n_paths=10), q=-1.0)


class TestGtscBenchmark:
    def test_case_a_exit(self):
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0)
        w = w_rational(params, RationalAlpha(1, 2), 0.0)
        target = w.eval(1.0) / w.eval(2.0)
        triple, _ = params.parent_triple()
        cfg = SimConfig(n_paths=30_000, dt=5e-4, small_jump_cutoff=0.02,
                        horizon=400.0, seed=3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = simulate_exit(triple, 1.0, 2.0, cfg)
        assert abs(est.p_hat - target) <= 3.0 * est.stderr

    def test_case_b_ruin(self):
        # kappa = 1: psi'(0+) = 1 and ruin(x) = 1 - W(x)
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0)
        w = w_rational(params, RationalAlpha(1, 2), 0.0)
        target = 1.0 - w.eval(1.0)
        triple, _ = params.parent_triple()
        # upper barrier so W(x)/W(a) residual is < 1e-3 of the target
        a_up = 14.0
        assert (1.0 - w.eval(1.0) / w.eval(a_up)) - target < 1e-3 * target
        cfg = SimConfig(n_paths=30_000, dt=5e-4, small_jump_cutoff=0.02,
                        horizon=800.0, seed=23)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            est = simulate_ruin(triple, 1.0, cfg, a_upper=a_up)
        assert abs(est.p_hat - target) <= 3.0 * est.stderr

    @pytest.mark.parametrize("alpha", [-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("kappa,varphi,zeta", [(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                                   (0, 0, 1), (1, 0, 1), (0, 1, 1)])
    def test_engine_mean_is_psi_prime(self, alpha, kappa, varphi, zeta):
        # the E X_1 that simulate_ruin reads from its one jump model, -a - int_{u>1} u Pi(du),
        # is psi'(0+); at psi'(0+) = 0 (cases A and D) round-off is measured against the location
        for gamma in (0.5, 1.0, 2.0):
            triple, psi = GtscParams(alpha=alpha, gamma=gamma, c=1.3, zeta=zeta, kappa=kappa,
                                     varphi=varphi).parent_triple()
            mean_x1 = -triple.a - _JumpModel(triple, SimConfig().small_jump_cutoff).moment_past_1
            assert mean_x1 == pytest.approx(
                psi.drift_at_zero, rel=1e-13, abs=1e-13 * abs(triple.a))

    @pytest.mark.parametrize("kappa", [0.0, 1.0])
    def test_jumps_without_components_refused(self, kappa):
        # build_parent's triple carries the jump tail but no components, so the engine
        # would see a pure drift; parent_triple adds the components
        params = GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=kappa)
        triple, _ = build_parent(params.ladder(), 0.0)
        cfg = SimConfig(n_paths=1000, dt=5e-4, small_jump_cutoff=0.02, horizon=50.0, seed=3)
        assert triple.pi_tail(cfg.small_jump_cutoff) > 0
        with pytest.raises(ParameterError, match="jump_components"):
            simulate_exit(triple, 1.0, 2.0, cfg)
        with pytest.raises(ParameterError, match="jump_components"):
            simulate_ruin(triple, 1.0, cfg, a_upper=14.0)

    def test_one_jump_model_per_call(self, monkeypatch):
        built = []

        class Counted(_JumpModel):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(montecarlo, "_JumpModel", Counted)
        cfg = SimConfig(n_paths=200, dt=1e-2, small_jump_cutoff=0.05, horizon=20.0, seed=1)
        exit_triple, _ = GtscParams(alpha=0.5, gamma=1.0, c=1.0).parent_triple()
        simulate_exit(exit_triple, 1.0, 2.0, cfg)
        assert len(built) == 1
        ruin_triple, _ = GtscParams(alpha=0.5, gamma=1.0, c=1.0, kappa=1.0).parent_triple()
        simulate_ruin(ruin_triple, 1.0, cfg, a_upper=4.0)
        assert len(built) == 2

    def test_benchmark_gtsc_a_call_warns_nothing(self):
        # the simulate benchmark's case-A call: no warning at the cutoff 0.02
        triple, _ = GtscParams(alpha=0.5, gamma=1.0, c=1.0).parent_triple()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate_exit(triple, 1.0, 2.0,
                                SimConfig(n_paths=12_000, dt=5e-4, small_jump_cutoff=0.02,
                                          horizon=400.0, seed=1))
        assert est.n_censored == 0


class TestUntemperedTilted:
    """gamma = 0, varphi > 0: the component c varphi u^{-alpha-1} has no first moment above
    any cutoff, so psi'(0+) = -inf, but the engine drift -a + int_{eps<u<=1} u Pi(du) is finite."""

    CASES = [(0.5, 1.0, RationalAlpha(1, 2)), (0.75, 0.5, RationalAlpha(3, 4))]

    @pytest.mark.parametrize("alpha, varphi, frac", CASES)
    def test_exit_within_three_sigma(self, alpha, varphi, frac):
        params = GtscParams(alpha=alpha, gamma=0.0, c=1.0, varphi=varphi)
        w = w_rational(params, frac, 0.0)
        cfg = SimConfig(n_paths=8000, dt=5e-4, horizon=400.0, seed=1)
        est = simulate_exit(params.parent_triple()[0], 1.0, 2.0, cfg)
        assert est.n_censored == 0
        assert abs(est.p_hat - w.eval(1.0) / w.eval(2.0)) <= 3.0 * est.stderr

    @pytest.mark.parametrize("alpha, varphi", [case[:2] for case in CASES])
    def test_ruin_not_applicable(self, alpha, varphi):
        triple, psi = GtscParams(alpha=alpha, gamma=0.0, c=1.0, varphi=varphi).parent_triple()
        assert psi.drift_at_zero == -math.inf
        with pytest.raises(NotApplicableError, match="-inf"):
            simulate_ruin(triple, 1.0, SimConfig(n_paths=100), a_upper=12.0)
