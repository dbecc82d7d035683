"""Experiment scenarios, CSV emission, and configuration plumbing.

Each scenario produces a schema-stable CSV (columns depend only on the
scenario name) with `#` comment lines recording the master seed and the
fully resolved configuration, so every table is reproducible byte for
byte from its own metadata.
"""

from __future__ import annotations

import dataclasses
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import lloydfb
from .capacity import CapacityConfig, ergodic_capacity
from .channel import ChannelParams, autocorrelation
from .ratedist import (
    FeedbackBudget,
    distortion_from_rate,
    distortion_vs_interval,
    min_feedback_rate,
    optimal_interval,
)

__all__ = [
    "ExperimentConfig",
    "SCENARIOS",
    "interval_from_budget",
    "run_scenario",
    "render_csv",
    "load_config_file",
]

SCENARIOS = (
    "fig2", "fig3", "fig4", "fig5",
    "rate", "distortion", "optimal-interval", "capacity", "lloyd-sim",
)


@dataclass
class ExperimentConfig:
    """Resolved configuration for one scenario run."""

    scenario: str
    n_t: int = 2
    n_r: int = 2
    sigma_h2: float = 1.0
    sigma_hhat2: float = 1.2
    f_d: float = 9.26
    t_block: float = 1e-3
    snr_db: float = 0.0
    l_block: int = 100
    pilot_fraction: float = 0.1
    c_fb: list = field(default_factory=lambda: [0.5, 1.0, 2.0, 4.0])
    t_min: int = 1
    t_max: int = 100
    t_step: int = 1
    r_max: int = 8
    d_list: list = field(default_factory=lambda: [0.1, 0.2])
    sigma_e2_list: list = field(default_factory=lambda: [0.0, 0.05])
    trials: int = 1000
    lloyd_sessions: int = 50
    lloyd_training: int = 20000
    lloyd_rounds: int = 1
    seed: int = 12345
    workers: int = 1

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, list) else [value]:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ValueError(f"{f.name} must be finite, got {value}")
        if not self.c_fb or min(self.c_fb) <= 0:
            raise ValueError(f"c_fb must be a non-empty list of values > 0, got {self.c_fb}")
        if min(self.d_list, default=1.0) <= 0 or min(self.sigma_e2_list, default=0.0) < 0:
            raise ValueError("d_list entries must be > 0 and sigma_e2_list entries >= 0")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.t_min < 1 or self.t_step < 1:
            raise ValueError(f"t_min and t_step must be >= 1, got {self.t_min}, {self.t_step}")
        if self.t_min > self.t_max:
            raise ValueError(f"t_min ({self.t_min}) exceeds t_max ({self.t_max})")
        # the channel and link configs run their own range checks
        CapacityConfig(params=self.params, snr_db=self.snr_db, l_block=self.l_block)

    @property
    def params(self) -> ChannelParams:
        return ChannelParams(
            n_t=self.n_t, n_r=self.n_r, sigma_h2=self.sigma_h2,
            sigma_hhat2=self.sigma_hhat2, f_d=self.f_d, t_block=self.t_block,
        )

    def params_with_sigma_e2(self, sigma_e2: float) -> ChannelParams:
        return dataclasses.replace(self.params, sigma_hhat2=self.sigma_h2 + sigma_e2)

    @property
    def capacity_config(self) -> CapacityConfig:
        return CapacityConfig(params=self.params, snr_db=self.snr_db, l_block=self.l_block)


def interval_from_budget(r_bits: float, c_fb: float) -> int:
    """Feedback interval in blocks: least integer T with R/T <= C_fb."""
    if c_fb <= 0:
        raise ValueError(f"c_fb must be > 0, got {c_fb}")
    if r_bits < 0:
        raise ValueError(f"r_bits must be >= 0, got {r_bits}")
    return math.ceil(r_bits / c_fb)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def render_csv(comments: list[str], header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    for c in comments:
        buf.write(f"# {c}\n")
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(v) for v in row) + "\n")
    return buf.getvalue()


def _config_comments(cfg: ExperimentConfig) -> list[str]:
    comments = [f"scenario={cfg.scenario}", f"seed={cfg.seed}"]
    for f in sorted(dataclasses.fields(cfg), key=lambda f: f.name):
        # workers never affects the numbers, so leaving it out keeps the
        # CSV byte-identical across worker counts
        if f.name in ("scenario", "seed", "workers"):
            continue
        comments.append(f"{f.name}={getattr(cfg, f.name)}")
    return comments


def _t_sweep(cfg: ExperimentConfig) -> list[int]:
    return list(range(cfg.t_min, cfg.t_max + 1, cfg.t_step))


def _scenario_fig2(cfg: ExperimentConfig):
    params = cfg.params
    c_fb = cfg.c_fb[0]
    header = ["T", "d_theory"]
    rows = [[t, distortion_vs_interval(params, c_fb, t)] for t in _t_sweep(cfg)]
    return header, rows


def _combo_tag(sigma_e2: float, d: float) -> str:
    return f"se{_fmt(sigma_e2)}_d{_fmt(d)}"


def _scenario_fig3(cfg: ExperimentConfig):
    alphas = [round(0.01 * i, 2) for i in range(100)]  # 0.00 .. 0.99
    combos = [(se, d) for se in cfg.sigma_e2_list for d in cfg.d_list]
    header = ["alpha"]
    header += [f"R_min_{_combo_tag(se, d)}" for se, d in combos]
    header += [f"R_nondiff_{_combo_tag(se, d)}" for se, d in combos]
    rows = []
    for alpha in alphas:
        row = [alpha]
        for se, d in combos:
            p = cfg.params_with_sigma_e2(se)
            row.append(min_feedback_rate(p, alpha, d))
        for se, d in combos:
            # memoryless baseline: same bound with the correlation ignored
            p = cfg.params_with_sigma_e2(se)
            row.append(min_feedback_rate(p, 0.0, d))
        rows.append(row)
    return header, rows


def _scenario_fig4(cfg: ExperimentConfig):
    params = cfg.params
    ccfg = cfg.capacity_config
    header = ["T"]
    for c_fb in cfg.c_fb:
        header += [f"C_erg_cfb{_fmt(c_fb)}", f"stderr_cfb{_fmt(c_fb)}"]
    rows = []
    for t in _t_sweep(cfg):
        row = [t]
        for c_fb in cfg.c_fb:
            alpha = autocorrelation(params, t)
            r_bits = c_fb * t
            d = distortion_from_rate(params, alpha, r_bits)
            budget = FeedbackBudget(c_fb=c_fb, r_bits=r_bits, t_blocks=t)
            mean, stderr = ergodic_capacity(
                ccfg, budget, d, trials=cfg.trials, seed=cfg.seed + t,
                workers=cfg.workers,
            )
            row += [mean, stderr]
        rows.append(row)
    return header, rows


def _scenario_fig5(cfg: ExperimentConfig):
    params = cfg.params
    ccfg = cfg.capacity_config
    c_fb = cfg.c_fb[0]
    header = ["T", "C_theory", "C_lloyd", "stderr"]
    rows = []
    for r_bits in range(1, cfg.r_max + 1):
        t = interval_from_budget(r_bits, c_fb)
        alpha = autocorrelation(params, t)
        d = distortion_from_rate(params, alpha, r_bits)
        budget = FeedbackBudget(c_fb=c_fb, r_bits=r_bits, t_blocks=t)
        c_theory, _ = ergodic_capacity(
            ccfg, budget, d, trials=cfg.trials, seed=cfg.seed + t,
            workers=cfg.workers,
        )
        cb = lloydfb.bootstrap_codebook(
            ccfg, budget, n_samples=max(cfg.lloyd_training, 100 * 2 ** r_bits),
            seed=cfg.seed + 7 * r_bits, rounds=cfg.lloyd_rounds,
        )
        caps = []
        n_blocks = 12 * t
        for s in range(cfg.lloyd_sessions):
            trace = lloydfb.run_feedback_session(
                ccfg, budget, cb, n_blocks=n_blocks, seed=cfg.seed + 10007 * r_bits + s,
            )
            caps.append(trace.mean_capacity(discard_blocks=2 * t))
        c_lloyd = float(np.mean(caps))
        stderr = float(np.std(caps, ddof=1) / math.sqrt(len(caps)))
        rows.append([t, c_theory, c_lloyd, stderr])
    return header, rows


def _scenario_rate(cfg: ExperimentConfig):
    # alias for fig3 on the configured grids
    return _scenario_fig3(cfg)


def _scenario_distortion(cfg: ExperimentConfig):
    return _scenario_fig2(cfg)


def _scenario_optimal_interval(cfg: ExperimentConfig):
    params = cfg.params
    header = ["c_fb", "x_opt", "t_opt_real", "t_opt_int", "d_min", "k"]
    rows = []
    for c_fb in cfg.c_fb:
        opt = optimal_interval(params, c_fb)
        rows.append([c_fb, opt.x_opt, opt.t_opt_real, opt.t_opt_int, opt.d_min, opt.k])
    return header, rows


def _scenario_capacity(cfg: ExperimentConfig):
    return _scenario_fig4(cfg)


def _scenario_lloyd_sim(cfg: ExperimentConfig):
    return _scenario_fig5(cfg)


_RUNNERS = {
    "fig2": _scenario_fig2,
    "fig3": _scenario_fig3,
    "fig4": _scenario_fig4,
    "fig5": _scenario_fig5,
    "rate": _scenario_rate,
    "distortion": _scenario_distortion,
    "optimal-interval": _scenario_optimal_interval,
    "capacity": _scenario_capacity,
    "lloyd-sim": _scenario_lloyd_sim,
}


def run_scenario(cfg: ExperimentConfig) -> str:
    """Run one scenario and return the CSV text."""
    header, rows = _RUNNERS[cfg.scenario](cfg)
    return render_csv(_config_comments(cfg), header, rows)


_LIST_KEYS = {"c_fb", "d_list", "sigma_e2_list"}
_INT_KEYS = {"n_t", "n_r", "l_block", "t_min", "t_max", "t_step", "r_max",
             "trials", "lloyd_sessions", "lloyd_training", "lloyd_rounds",
             "seed", "workers"}
_FLOAT_KEYS = {"sigma_h2", "sigma_hhat2", "f_d", "t_block", "snr_db",
               "pilot_fraction"}


def parse_config_value(key: str, raw: str):
    if key in _LIST_KEYS:
        return [float(v) for v in raw.replace(",", " ").split()]
    if key in _INT_KEYS:
        return int(raw)
    if key in _FLOAT_KEYS:
        return float(raw)
    if key == "scenario":
        return raw
    raise KeyError(f"unknown config key {key!r}")


def load_config_file(path) -> dict:
    """Flat key=value config format; '#' starts a comment line."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            values[key] = parse_config_value(key, raw.strip())
    return values
