"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the whole gate can be read off a
plain `pytest -s tests/test_acceptance.py` run.  The heavy Monte Carlo
checks (capacity sweep, Lloyd sessions) run at full scale and take a few
minutes on one core.
"""

import functools
import math

import numpy as np
import pytest
from scipy.special import j0 as scipy_j0

from diffcsi.capacity import CapacityConfig, ergodic_capacity, waterfill_batch
from diffcsi.channel import ChannelParams, autocorrelation
from diffcsi.harness import ExperimentConfig, run_scenario
from diffcsi.lloydfb import (
    bootstrap_codebook,
    open_loop_training_samples,
    quantize,
    run_feedback_session,
    train_codebook,
)
from diffcsi.mathcore import RngStream, sample_cn
from diffcsi.ratedist import (
    FeedbackBudget,
    causal_distortion,
    distortion_from_rate,
    distortion_derivative,
    distortion_vs_interval,
    exponent_constant,
    mi_lower_bound,
    min_feedback_rate,
    optimal_interval,
    x_to_interval,
)
from oracles import gaussian_mi_oracle, regression_decompose, waterfill

PARAMS = ChannelParams(n_t=2, n_r=2, sigma_h2=1.0, sigma_hhat2=1.2,
                       f_d=9.26, t_block=1e-3)
CAP_CFG = CapacityConfig(params=PARAMS, snr_db=0.0, l_block=100)


def criterion(label):
    """Print one PASS/FAIL line per criterion, whatever the assert says."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"FAIL  {label}")
                raise
            print(f"PASS  {label}")
        return wrapper
    return deco


@criterion("01 classical-limit exactness of the minimum feedback rate")
def test_01_classical_limit():
    p = ChannelParams(n_t=2, n_r=2, sigma_h2=1.0, sigma_hhat2=1.0,
                      f_d=9.26, t_block=1e-3)
    got = min_feedback_rate(p, alpha=0.0, d=0.1)
    assert abs(got - 4.0 * math.log2(10.0)) < 1e-9


@criterion("02 Gaussian test-channel oracle matches the closed-form bound")
def test_02_oracle_equivalence():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        sh2 = float(rng.uniform(0.2, 3.0))
        shh2 = float(rng.uniform(sh2, 2.0 * sh2))
        p = ChannelParams(n_t=2, n_r=2, sigma_h2=sh2, sigma_hhat2=shh2,
                          f_d=9.26, t_block=1e-3)
        alpha = float(rng.uniform(0.0, 0.999))
        d = float(rng.uniform(1e-4, shh2 * (1 - 1e-9)))
        a = gaussian_mi_oracle(p, alpha, d)
        b = max(mi_lower_bound(p, alpha, d), 0.0)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@criterion("03 delayed-distortion form agrees with the interval form")
def test_03_delay_vs_interval_identity():
    c_fbs = np.linspace(0.25, 4.0, 25)
    ts = range(1, 41)
    count = 0
    for c_fb in c_fbs:
        for t in ts:
            alpha = autocorrelation(PARAMS, t)
            a = causal_distortion(PARAMS, alpha, c_fb * t)
            b = distortion_vs_interval(PARAMS, float(c_fb), t)
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))
            count += 1
    assert count == 1000


@criterion("04 distortion-vs-interval limits and interior strict bound")
def test_04_interval_limits():
    c_fb = 2.0
    assert abs(distortion_vs_interval(PARAMS, c_fb, 1e-8) - 1.2) < 1e-6
    assert abs(distortion_vs_interval(PARAMS, c_fb, 1e8) - 1.2) < 1e-6
    for t in range(1, 101):
        assert distortion_vs_interval(PARAMS, c_fb, t) < 1.2


@criterion("05 interval solver: derivative signs, grid argmin, finite differences")
def test_05_interval_solver():
    for c_fb in (0.5, 1.0, 2.0, 4.0):
        assert distortion_derivative(PARAMS, c_fb, 1e-6) < 0
        assert distortion_derivative(PARAMS, c_fb, 1.5) > 0

        opt = optimal_interval(PARAMS, c_fb)
        # independent 10^6-point vectorized grid oracle for d(x)
        xs = np.linspace(1e-9, 1.5, 10**6)
        r = PARAMS.ratio
        k = exponent_constant(PARAMS, c_fb)
        a2 = scipy_j0(xs) ** 2
        g_inv = 2.0 ** (-k * xs)
        d = (PARAMS.sigma_h2 ** 2 / PARAMS.sigma_hhat2) * (g_inv - 1.0) * a2 \
            / (1.0 - r * r * a2 * g_inv) + PARAMS.sigma_hhat2
        step = xs[1] - xs[0]
        assert abs(opt.x_opt - xs[np.argmin(d)]) <= 2 * step

        for x in np.linspace(0.05, 1.4, 28):
            h = 1e-6
            fd = (distortion_vs_interval(PARAMS, c_fb, x_to_interval(PARAMS, x + h))
                  - distortion_vs_interval(PARAMS, c_fb, x_to_interval(PARAMS, x - h))) / (2 * h)
            an = distortion_derivative(PARAMS, c_fb, float(x))
            assert abs(an - fd) <= 1e-6 * max(1.0, abs(an))


@criterion("06 channel statistics: AR(1) correlation, residual orthogonality")
def test_06_channel_statistics():
    n = 10**5
    rng = RngStream(606, 0).generator()
    alpha = autocorrelation(PARAMS, 1.0)
    beta = math.sqrt(1.0 - alpha * alpha)
    h0 = sample_cn((n, 1, 1), 1.0, rng)
    h1 = alpha * h0 + beta * sample_cn((n, 1, 1), 1.0, rng)
    x, y = h0.ravel(), h1.ravel()
    corr = float(np.real(np.mean(x.conj() * y)))
    se = 1.0 / math.sqrt(n)
    assert abs(corr - alpha) < 3 * se

    h = sample_cn((n, 1, 1), 1.0, rng)
    h_hat = h + sample_cn((n, 1, 1), PARAMS.sigma_e2, rng)
    mean_part, psi_var = regression_decompose(h_hat, PARAMS)
    psi = h - PARAMS.ratio * h_hat
    cross = np.mean(psi.ravel().conj() * h_hat.ravel())
    assert abs(cross) < 0.01
    assert abs(psi_var - 1.0 / 6.0) < 1e-12
    emp_var = float(np.mean(np.abs(psi) ** 2))
    # Var(|psi|^2) = psi_var^2 for complex Gaussian entries
    assert abs(emp_var - psi_var) < 3 * psi_var / math.sqrt(n)


@criterion("07 water-filling: power constraint, symmetry, KKT cut-off")
def test_07_waterfill():
    rng = np.random.default_rng(707)
    a2 = 0.5
    # the same 10^4 pairs, in the same order, as 10^4 draws of size 2
    g = np.sort(rng.uniform(0.01, 3.0, size=(10**4, 2)), axis=1)[:, ::-1]
    z2 = waterfill_batch(g, a2, 2)
    assert np.all(np.abs(z2.sum(axis=1) - 2.0) < 1e-12)
    # water level from an active mode of each row: z_i^2 = mu - 1/(g_i^2 A^2)
    active = z2 > 0
    i = np.argmax(active, axis=1)[:, None]
    assert np.all(np.take_along_axis(active, i, axis=1))
    gain = g * g * a2
    mu = np.take_along_axis(z2 + 1.0 / gain, i, axis=1)
    assert np.all(np.where(active, gain >= 1.0 / mu - 1e-12, gain <= 1.0 / mu + 1e-12))
    eq = waterfill_batch(np.array([[1.3, 1.3]]), a2, 2)
    assert np.allclose(eq, [[1.0, 1.0]], atol=1e-12)


@criterion("08 residual-covariance closed form matches Monte Carlo")
def test_08_f_closed_form():
    rng = RngStream(808, 0).generator()
    n = 10**5
    r = PARAMS.ratio
    for _ in range(10):
        h_hat = sample_cn((2, 2), PARAMS.sigma_hhat2, rng)
        _, s, vh = np.linalg.svd(h_hat - sample_cn((2, 2), 0.2, rng))
        z = np.sqrt(waterfill(s, CAP_CFG.amplitude2, 2).z2)
        vz = vh.conj().T @ np.diag(z)
        psi = sample_cn((n, 2, 2), PARAMS.psi_variance, rng)
        h_e = (1.0 - r) * h_hat[None, :, :] - psi
        j_e = h_e @ vz
        emp = np.mean(j_e @ np.swapaxes(j_e.conj(), 1, 2), axis=0)
        j = h_hat @ vz
        closed = (1.0 - r) ** 2 * (j @ j.conj().T) \
            + PARAMS.n_t * PARAMS.psi_variance * np.eye(2)
        # per-entry MC standard error, bounded by the second-moment scale
        scale = max(np.abs(closed).max(), PARAMS.n_t * PARAMS.psi_variance)
        se = 2.0 * scale / math.sqrt(n)
        assert np.all(np.abs(emp - closed) < 3 * se)


@criterion("09 capacity-vs-interval sweep: interior optimum, ordering in C_fb")
def test_09_capacity_sweep():
    trials = 10**4
    c_fbs = (0.5, 1.0, 2.0, 4.0)
    # points[t - 1][j] is (mean, stderr) at interval t for c_fbs[j]; one call
    # per T serves every C_fb from the same draws
    points = []
    for t in range(1, 101):
        alpha = autocorrelation(PARAMS, t)
        ds = [distortion_from_rate(PARAMS, alpha, c_fb * t) for c_fb in c_fbs]
        budget = FeedbackBudget(c_fb=c_fbs[0], r_bits=c_fbs[0] * t, t_blocks=t)
        points.append(ergodic_capacity(CAP_CFG, budget, ds, trials=trials, seed=909 + t))
    optima = []
    for j, c_fb in enumerate(c_fbs):
        means = [row[j][0] for row in points]
        errs = [row[j][1] for row in points]
        i = int(np.argmax(means))
        assert 0 < i < 99, f"optimum at the boundary (T={i + 1}) for C_fb={c_fb}"
        gap0 = means[i] - means[0]
        gap1 = means[i] - means[99]
        lim0 = 3.0 * math.hypot(errs[i], errs[0])
        lim1 = 3.0 * math.hypot(errs[i], errs[99])
        assert gap0 > lim0, f"C_fb={c_fb}: max-vs-T=1 gap {gap0:.4f} <= {lim0:.4f}"
        assert gap1 > lim1, f"C_fb={c_fb}: max-vs-T=100 gap {gap1:.4f} <= {lim1:.4f}"
        optima.append(means[i])
    assert all(b >= a for a, b in zip(optima, optima[1:])), optima
    inc = [b - a for a, b in zip(optima, optima[1:])]
    assert all(b < a for a, b in zip(inc, inc[1:])), inc


@criterion("10 Lloyd codebooks respect the rate-distortion converse")
def test_10_lloyd_converse():
    for r_bits, t in ((2, 2), (4, 4), (6, 6), (8, 8)):
        budget = FeedbackBudget(c_fb=1.0, r_bits=r_bits, t_blocks=t)
        train = open_loop_training_samples(PARAMS, budget, 20000, RngStream(11, r_bits))
        cb = train_codebook(train, rate_bits=r_bits, seed=r_bits)
        hist = cb.training_meta["distortion_history"]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(hist, hist[1:]))
        held = open_loop_training_samples(PARAMS, budget, 5000, RngStream(12, r_bits))
        _, words = quantize(held, cb)
        d_emp = float(np.mean(np.abs(held - words) ** 2))
        alpha = autocorrelation(PARAMS, t)
        d_bound = distortion_from_rate(PARAMS, alpha, r_bits)
        assert d_emp >= 0.95 * d_bound, (r_bits, d_emp, d_bound)


@criterion("11 Lloyd-session capacity converges to theory as the interval grows")
def test_11_lloyd_capacity_convergence():
    c_fb = 1.0
    gaps = []
    for r_bits in range(1, 9):
        t = r_bits  # interval from the budget inequality at c_fb = 1
        alpha = autocorrelation(PARAMS, t)
        d = distortion_from_rate(PARAMS, alpha, r_bits)
        budget = FeedbackBudget(c_fb=c_fb, r_bits=r_bits, t_blocks=t)
        [(c_theory, _)] = ergodic_capacity(CAP_CFG, budget, [d], trials=4000,
                                           seed=1100 + t)
        cb = bootstrap_codebook(CAP_CFG, budget,
                                n_samples=max(20000, 100 * 2 ** r_bits),
                                seed=1200 + r_bits)
        per_block = run_feedback_session(CAP_CFG, budget, cb, n_blocks=12 * t,
                                         seeds=[1300 * r_bits + s for s in range(50)])
        c_lloyd = float(np.mean([np.mean(col) for col in per_block[2 * t:].T]))
        gaps.append(c_theory - c_lloyd)
    assert gaps[0] > 0, gaps
    smooth = [np.mean(gaps[i:i + 3]) for i in range(len(gaps) - 2)]
    assert all(b <= a + 1e-12 for a, b in zip(smooth, smooth[1:])), smooth


@criterion("12 scenario CSVs byte-identical across worker counts")
def test_12_determinism():
    for scenario, extra in (
        ("fig4", dict(t_min=2, t_max=6, t_step=2, c_fb=[1.0, 2.0], trials=3000)),
        ("fig2", dict(t_max=10)),
        # at workers > 1 fig5's rates run as pool jobs whatever the trial count
        ("fig5", dict(r_max=2, c_fb=[1.0], trials=2100, lloyd_sessions=2,
                      lloyd_training=400)),
    ):
        outs = [
            run_scenario(ExperimentConfig(scenario=scenario, seed=42,
                                          workers=w, **extra))
            for w in (1, 2, 3)
        ]
        assert outs[0] == outs[1] == outs[2]
