"""Monte Carlo verification oracle for exit and ruin probabilities.

Paths of the parent process are simulated as drift + Gaussian part +
compensated small jumps (folded into the Gaussian by moment matching)
minus a compound Poisson process of jumps above the cutoff.  Barrier
crossings of the continuous part between grid points get the
Brownian-bridge correction; purely jump-driven (zero-variance) models are
simulated event-by-event, which is exact.

The grid engine steps all live paths at once.  Each path carries a jump
clock, the time of its next jump above the cutoff; a path whose clock falls
in a step takes a jump at the end of that step and its clock moves on by an
Exp(rate) wait, so the number of jumps per step is Poisson(rate dt) and
independent across steps.  Jump sizes are drawn in bulk into a pool and
taken in order.  The bridge probability is only evaluated for paths within
reach of a barrier; for the others it is below e^-40 (see ``_BRIDGE_CUT``).
With ``q > 0`` an upward exit at time t has weight e^{-q t}; the grid engine
takes t as the end of the exit step.

One jump model at the cutoff eps per call reads the jump law from
``LevyTriple.jump_components``, which a triple with jumps must carry.  The
engines drive with -a + int_{eps<u<=1} u Pi(du), finite for every Levy measure;
``simulate_ruin`` also needs E X_1 = -a - int_{u>1} u Pi(du), -inf without a first moment:

* ("tempered_power", c, a, gamma)  -- density c u^{-a-1} e^{-gamma u};
  sampled by inverse-power proposals with exponential-tempering thinning.
* ("exponential", rate, mu)        -- rate * mu e^{-mu u}.
* ("fixed", rate, size)            -- point mass.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special as sps

from .errors import NotApplicableError, NumericalError, ParameterError
from .levy import LevyTriple
from .special import upper_gamma

__all__ = ["SimConfig", "ExitEstimate", "simulate_exit", "simulate_ruin"]


# jump sizes per bulk draw of the grid engine's pool (128 kB of float64)
_POOL_SIZE = 1 << 14
# The bridge crossing probability of a step from distance d1 to d2 off a
# barrier is p = exp(-2 d1 d2 / var_dt).  Beyond 2 d1 d2 / var_dt = 40,
# p < e^-40 < 2^-53, and a uniform draw from rng.random() (a multiple of
# 2^-53) falls below p only when it is exactly 0; skipping those paths
# changes a decision with probability at most 2^-53 per path-step.
_BRIDGE_CUT = 40.0


@dataclass(frozen=True)
class SimConfig:
    n_paths: int = 100_000
    dt: float = 1e-3
    small_jump_cutoff: float = 0.01
    horizon: float = 500.0
    seed: int = 20_240_901

    def __post_init__(self):
        if not (self.n_paths > 0 and all(0.0 < v < math.inf for v in
                                         (self.dt, self.small_jump_cutoff, self.horizon))):
            raise ParameterError("simulation parameters must be positive and finite")


@dataclass(frozen=True)
class ExitEstimate:
    p_hat: float
    stderr: float
    n_censored: int


# ---------------------------------------------------------------------------
# jump component statistics and samplers
# ---------------------------------------------------------------------------

class _ComponentSampler:
    """Sampler for one jump component restricted to sizes > eps, with its first moments
    ``moment_to_1`` = int_{eps<u<=1} u Pi(du) (-int_{1<u<=eps} when eps > 1) and
    ``moment_past_1`` = int_{u>1} u Pi(du) (inf without a first moment)."""

    def __init__(self, comp: tuple, eps: float):
        kind = comp[0]
        self.kind = kind
        self.eps = eps
        if kind == "tempered_power":
            _, c, a, gamma = comp
            self.a, self.gamma = a, gamma
            if gamma > 0:
                self.rate = c * gamma ** a * upper_gamma(-a, gamma * eps)
                # int_{u>t} u Pi(du) = c gamma^{a-1} Gamma(1-a, gamma t)
                tail_eps, tail_1 = (c * gamma ** (a - 1.0) * upper_gamma(1.0 - a, gamma * t)
                                    for t in (eps, 1.0))
                self.moment_to_1, self.moment_past_1 = tail_eps - tail_1, tail_1
                # sigma_eps^2 = c gamma^{a-2} * lower_gamma(2-a, gamma*eps)
                self.small_var = c * gamma ** (a - 2.0) \
                    * sps.gammainc(2.0 - a, gamma * eps) * math.gamma(2.0 - a)
                self.u0 = max(2.0 * eps, 1.0 / gamma)
                self.mass_tail = c * gamma ** a * upper_gamma(-a, gamma * self.u0)
                self.mass_mid = self.rate - self.mass_tail
            else:
                if a <= 0:
                    raise ParameterError("untempered component needs a > 0")
                self.rate = c * eps ** (-a) / a
                # int_eps^1 c u^{-a} du = c (1 - eps^{1-a}) / (1-a), and -c log(eps) at a = 1
                self.moment_to_1 = -c * (math.expm1((1.0 - a) * math.log(eps)) / (1.0 - a)
                                         if a != 1.0 else math.log(eps))
                self.moment_past_1 = c / (a - 1.0) if a > 1.0 else math.inf
                self.small_var = c * eps ** (2.0 - a) / (2.0 - a)
                self.u0 = math.inf
                self.mass_mid, self.mass_tail = self.rate, 0.0
        elif kind == "exponential":
            _, rate, mu = comp
            self.mu = mu
            self.rate = rate * math.exp(-mu * eps)
            # int_{u>t} u Pi(du) = rate e^{-mu t} (t + 1/mu)
            tail_eps, tail_1 = (rate * math.exp(-mu * t) * (t + 1.0 / mu) for t in (eps, 1.0))
            self.moment_to_1, self.moment_past_1 = tail_eps - tail_1, tail_1
            # small part: rate * int_0^eps u^2 mu e^{-mu u} du
            self.small_var = rate * sps.gammainc(3.0, mu * eps) * 2.0 / mu ** 2
        elif kind == "fixed":
            _, rate, size = comp
            self.size = size
            self.rate, self.small_var = (rate, 0.0) if size > eps else (0.0, rate * size ** 2)
            # a point mass in (eps, 1] adds to moment_to_1, one in (1, eps] subtracts
            sign = (eps < size <= 1.0) - (1.0 < size <= eps)
            self.moment_to_1 = sign * rate * size
            self.moment_past_1 = rate * size if size > 1.0 else 0.0
        else:
            raise ParameterError(f"unknown jump component kind '{kind}'")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n == 0:
            return np.empty(0)
        if self.kind == "exponential":
            return self.eps + rng.exponential(1.0 / self.mu, size=n)
        if self.kind == "fixed":
            return np.full(n, self.size)
        return self._sample_tempered(rng, n)

    def _sample_mid(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Power proposal on (eps, u0], thinned by the tempering factor."""
        a, gamma, eps, u0 = self.a, self.gamma, self.eps, self.u0

        def draw(batch: int) -> np.ndarray:
            v = rng.random(batch)
            if abs(a) > 1e-12:      # u0 = inf only when gamma = 0 < a, and inf^(-a) = 0
                u = (eps ** (-a) + v * (u0 ** (-a) - eps ** (-a))) ** (-1.0 / a)
            else:
                u = eps * (u0 / eps) ** v
            return u[rng.random(batch) <= np.exp(-gamma * (u - eps))] if gamma > 0 else u

        return _accept_reject(draw, n)

    def _sample_tail(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Shifted-exponential proposal beyond u0, thinned by the power factor."""
        a, gamma, u0 = self.a, self.gamma, self.u0

        def draw(batch: int) -> np.ndarray:
            u = u0 + rng.exponential(1.0 / gamma, size=batch)
            return u[rng.random(batch) <= (u / u0) ** (-a - 1.0)]

        return _accept_reject(draw, n)

    def _sample_tempered(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # choose the piece by its true mass, then retry *within* the piece:
        # pieces have different acceptance rates, so a shared retry pool
        # would distort the mixture weights
        if not math.isfinite(self.u0):
            return self._sample_mid(rng, n)
        n_mid = int(rng.binomial(n, self.mass_mid / self.rate))
        out = np.concatenate([self._sample_mid(rng, n_mid),
                              self._sample_tail(rng, n - n_mid)])
        return rng.permutation(out)


def _accept_reject(draw, n: int) -> np.ndarray:
    """n accepted sizes; draw(batch) makes batch proposals and returns those it accepts."""
    out = np.empty(n)
    filled = 0
    while filled < n:
        u = draw(max(64, 2 * (n - filled)))
        take = min(n - filled, u.size)
        out[filled:filled + take] = u[:take]
        filled += take
    return out


class _JumpModel:
    def __init__(self, triple: LevyTriple, eps: float):
        if not triple.jump_components and triple.pi_tail(eps) > 0:
            raise ParameterError("the triple has jumps above the cutoff but no jump_components")
        self.samplers = [_ComponentSampler(c, eps) for c in triple.jump_components]
        self.rate = sum(s.rate for s in self.samplers)
        self.moment_to_1 = sum(s.moment_to_1 for s in self.samplers)
        self.moment_past_1 = sum(s.moment_past_1 for s in self.samplers)
        self.small_var = sum(s.small_var for s in self.samplers)
        self.weights = np.array([s.rate for s in self.samplers]) / self.rate \
            if self.rate > 0 else np.empty(0)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n == 0 or not self.samplers:
            return np.empty(0)
        if len(self.samplers) == 1:
            return self.samplers[0].sample(rng, n)
        which = rng.choice(len(self.samplers), size=n, p=self.weights)
        out = np.empty(n)
        for i, s in enumerate(self.samplers):
            m = which == i
            out[m] = s.sample(rng, int(m.sum()))
        return out


class _SizePool:
    """Jump sizes drawn _POOL_SIZE at a time and handed out in draw order.

    The sizes are iid, so taking them in order from a bulk draw has the law
    of drawing them one step at a time.
    """

    def __init__(self, jumps: _JumpModel, rng: np.random.Generator):
        self.jumps, self.rng = jumps, rng
        self.buf, self.at = np.empty(0), 0

    def take(self, n: int) -> np.ndarray:
        if self.at + n > self.buf.size:
            fresh = self.jumps.sample(self.rng, max(_POOL_SIZE, n))
            self.buf, self.at = np.concatenate([self.buf[self.at:], fresh]), 0
        self.at += n
        return self.buf[self.at - n:self.at]


class _Exits:
    """Exit counts, and at q > 0 the sums of e^{-q t} and e^{-2 q t} over
    the exit times t of the paths that leave upward."""

    def __init__(self, q: float):
        self.q = q
        self.up = self.down = 0
        self.w1 = self.w2 = 0.0

    def add(self, n_up: int, n_down: int, t_up=0.0) -> None:
        """``t_up``: the common exit time of the n_up upward exits, or one per exit."""
        self.up += n_up
        self.down += n_down
        if self.q > 0 and n_up:
            w = np.broadcast_to(np.exp(-self.q * np.asarray(t_up)), (n_up,))
            self.w1 += float(w.sum())
            self.w2 += float(np.square(w).sum())

    def estimate(self, censored: int, cfg: SimConfig) -> ExitEstimate:
        n = self.up + self.down
        if n == 0:
            raise NumericalError(f"all {cfg.n_paths} paths censored at the horizon "
                                 f"{cfg.horizon}; no exit to estimate from")
        if censored > 0.01 * cfg.n_paths:
            warnings.warn(f"{censored} of {cfg.n_paths} paths censored at the horizon; "
                          "estimates may be unreliable", stacklevel=4)
        if self.q == 0.0:
            p = self.up / n
            se = math.sqrt(p * (1.0 - p) / n)
        else:
            # sample standard error of the weights (0 for a downward exit)
            p = self.w1 / n
            se = math.sqrt(max(self.w2 / n - p * p, 0.0) / max(n - 1, 1))
        return ExitEstimate(p_hat=p, stderr=se, n_censored=censored)


# ---------------------------------------------------------------------------
# the path engines
# ---------------------------------------------------------------------------

def _run_exit(triple: LevyTriple, jumps: _JumpModel, x: float, a: float, q: float,
              cfg: SimConfig) -> ExitEstimate:
    if not 0.0 <= x <= a:
        raise ParameterError("need 0 <= x <= a")
    if not q >= 0.0 or not math.isfinite(q):
        raise ParameterError("need a finite q >= 0")
    rng = np.random.default_rng(cfg.seed)
    drift = -triple.a + jumps.moment_to_1     # with the jumps up to eps compensated
    small_var = jumps.small_var
    if small_var < 1e-5 * (1.0 + triple.sigma ** 2 + abs(drift)):
        small_var = 0.0   # negligible folded variance: allow the exact engine
    sigma_tot = math.sqrt(triple.sigma ** 2 + small_var)

    if sigma_tot == 0.0 and jumps.rate > 0:
        return _run_exit_event_driven(jumps, drift, x, a, q, cfg, rng)

    dt = cfg.dt
    shift = drift * dt
    sq = sigma_tot * math.sqrt(dt)
    var_dt = sigma_tot ** 2 * dt
    # a bridge candidate has d1 d2 < cut, so min(d1, d2) < reach
    cut = 0.5 * _BRIDGE_CUT * var_dt
    reach = math.sqrt(cut)
    pos = np.full(cfg.n_paths, float(x))
    jumpy = jumps.rate > 0
    if jumpy:
        pool = _SizePool(jumps, rng)
        mean_wait = 1.0 / jumps.rate
        clock = mean_wait * rng.standard_exponential(cfg.n_paths)
    exits = _Exits(q)
    for i in range(int(math.ceil(cfg.horizon / dt))):
        k = pos.size
        if k == 0:
            break
        t1 = (i + 1) * dt
        new = pos + shift + sq * rng.standard_normal(k)
        # only paths that end outside (0, a) or have a bridge probability
        # above e^-40 can leave in this step by their continuous part
        edge = ((np.minimum(pos, new) <= reach)
                | (np.maximum(pos, new) >= a - reach)).nonzero()[0]
        pe, ne = pos[edge], new[edge]
        up_e = ne >= a
        down_e = ne <= 0.0
        if var_dt > 0:
            d_lo, d_hi = pe * ne, (a - pe) * (a - ne)
            near = (~(up_e | down_e) & (np.minimum(d_lo, d_hi) < cut)).nonzero()[0]
            if near.size:
                bridge_lo = rng.random(near.size) < np.exp(-2.0 * d_lo[near] / var_dt)
                bridge_hi = ~bridge_lo & (rng.random(near.size)
                                          < np.exp(-2.0 * d_hi[near] / var_dt))
                down_e[near[bridge_lo]] = True
                up_e[near[bridge_hi]] = True
        ups, downs = edge[up_e], edge[down_e]
        ruined = np.empty(0, dtype=np.intp)
        if jumpy:
            # jumps land at the end of the step (downward only): every path
            # whose clock falls in this step jumps and its clock moves on
            due = (clock <= t1).nonzero()[0]
            hit = due
            while hit.size:
                new[hit] -= pool.take(hit.size)
                clock[hit] += mean_wait * rng.standard_exponential(hit.size)
                hit = hit[clock[hit] <= t1]
            ruined = due[new[due] <= 0.0]
        if ups.size or downs.size or ruined.size:
            gone = np.zeros(k, dtype=bool)
            gone[ups] = gone[downs] = gone[ruined] = True
            # ups and downs are disjoint; a path ruined by a jump after it
            # left upward counts as up
            exits.add(ups.size, int(np.count_nonzero(gone)) - ups.size, t1)
            keep = ~gone
            pos = new[keep]
            if jumpy:
                clock = clock[keep]
        else:
            pos = new
    return exits.estimate(pos.size, cfg)


def _run_exit_event_driven(jumps: _JumpModel, drift: float, x: float, a: float,
                           q: float, cfg: SimConfig,
                           rng: np.random.Generator) -> ExitEstimate:
    """Exact simulation for drift + compound Poisson (no Gaussian part)."""
    if drift <= 0:
        raise NotApplicableError("event-driven engine expects positive drift")
    pos = np.full(cfg.n_paths, float(x))
    t = np.zeros(cfg.n_paths)
    exits = _Exits(q)
    censored = 0
    # a path that stays for another pass has its t moved on by an Exp(rate)
    # wait, and one whose next event comes after the horizon is censored,
    # so the loop ends
    while pos.size:
        waits = rng.exponential(1.0 / jumps.rate, size=pos.size)
        t_up = (a - pos) / drift
        reach_up = t_up <= waits
        t += np.minimum(t_up, waits, out=t_up)      # the time of the next event
        late = t > cfg.horizon
        up = reach_up & ~late
        exits.add(int(up.sum()), 0, t[up] if q else 0.0)
        censored += int(late.sum())
        on = ~(reach_up | late)
        pos = pos[on] + drift * waits[on]
        t = t[on]
        pos -= jumps.sample(rng, pos.size)
        ruin = pos <= 0.0
        exits.add(0, int(ruin.sum()))
        pos, t = pos[~ruin], t[~ruin]
    return exits.estimate(censored, cfg)


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def simulate_exit(triple: LevyTriple, x: float, a: float, cfg: SimConfig,
                  q: float = 0.0) -> ExitEstimate:
    """Estimate E_x[e^{-q tau_a^+}; tau_a^+ < tau_0^-] over the paths that exit.

    At q = 0 this is P_x(reach a before 0) with the binomial standard error;
    at q > 0 the stderr is the sample standard error of the path weights.
    Raises ``NumericalError`` when every path is censored at the horizon.
    """
    return _run_exit(triple, _JumpModel(triple, cfg.small_jump_cutoff), x, a, q, cfg)


def simulate_ruin(triple: LevyTriple, x: float, cfg: SimConfig,
                  a_upper: float) -> ExitEstimate:
    """Estimate the ruin probability through the large-barrier exit proxy.

    ``a_upper`` should be chosen so that the residual mass W(x)/W(a_upper) is
    below 1e-3 of the target.  Raises ``NotApplicableError`` unless
    psi'(0+) = E X_1 = -a - int_{u>1} u Pi(du) > 0 (it is -inf without a first moment).
    """
    jumps = _JumpModel(triple, cfg.small_jump_cutoff)
    mean_x1 = -triple.a - jumps.moment_past_1
    if mean_x1 <= 0:
        raise NotApplicableError(f"ruin estimation requires psi'(0+) > 0, got {mean_x1:.6g}")
    est = _run_exit(triple, jumps, x, a_upper, 0.0, cfg)
    return ExitEstimate(p_hat=1.0 - est.p_hat, stderr=est.stderr,
                        n_censored=est.n_censored)
