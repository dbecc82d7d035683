"""Experiment scenarios, CSV emission, and configuration plumbing.

Each scenario produces a schema-stable CSV (columns depend only on the
scenario name) with `#` comment lines recording the master seed and the
fully resolved configuration, so every table is reproducible byte for
byte from its own metadata.
"""

import dataclasses
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import lloydfb
from .capacity import CHUNK_TRIALS, CapacityConfig, _pool_map, ergodic_capacity
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
    "run_scenario",
    "render_csv",
]

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
    seed: int = 12345
    workers: int = field(default_factory=lambda: min(
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count() or 1, _MAX_WORKERS))  # no affinity on macOS or Windows

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
        if not self.d_list or min(self.d_list) <= 0:
            raise ValueError(f"d_list must be a non-empty list of values > 0, got {self.d_list}")
        if not self.sigma_e2_list or min(self.sigma_e2_list) < 0:
            raise ValueError(f"sigma_e2_list must be a non-empty list of values >= 0, "
                             f"got {self.sigma_e2_list}")
        for key in ("c_fb", "d_list", "sigma_e2_list"):  # each value names CSV columns or rows
            shown = [_fmt(v) for v in getattr(self, key)]
            if len(set(shown)) < len(shown):
                raise ValueError(f"{key} repeats a value to the CSV's 12 digits, got {shown}")
        # a standard error needs at least two samples; ergodic_capacity keeps a
        # capacity per trial and C_fb value, which the entry cap bounds too
        if not 2 <= self.trials <= _MAX_ENTRIES // len(self.c_fb) or self.lloyd_sessions < 2:
            raise ValueError(f"trials must be in 2..{_MAX_ENTRIES // len(self.c_fb)} (at most "
                             f"{_MAX_ENTRIES} capacities over {len(self.c_fb)} c_fb values) and "
                             f"lloyd_sessions >= 2, got {self.trials}, {self.lloyd_sessions}")
        if not 1 <= self.r_max <= lloydfb.MAX_RATE_BITS:
            raise ValueError(f"r_max must be in 1..{lloydfb.MAX_RATE_BITS}, got {self.r_max}")
        if self.lloyd_training < 1:
            raise ValueError(f"lloyd_training must be >= 1, got {self.lloyd_training}")
        if self.seed < 0 or not 1 <= self.workers <= _MAX_WORKERS:
            raise ValueError(f"seed must be >= 0 and workers in 1..{_MAX_WORKERS}, "
                             f"got {self.seed}, {self.workers}")
        if self.t_min < 1 or self.t_step < 1:
            raise ValueError(f"t_min and t_step must be >= 1, got {self.t_min}, {self.t_step}")
        if self.t_min > self.t_max:
            raise ValueError(f"t_min ({self.t_min}) exceeds t_max ({self.t_max})")
        # a sweep of 10^6 points took fig2 2.7 s and 203 MB
        if len(range(self.t_min, self.t_max + 1, self.t_step)) > 10**6:
            raise ValueError(f"the T sweep t_min={self.t_min}, t_max={self.t_max}, "
                             f"t_step={self.t_step} has more than 10^6 points")
        if self.scenario == "fig5" and not self.r_max / self.c_fb[0] <= _MAX_FIG5_INTERVAL:
            raise ValueError(f"fig5 needs ceil(r_max / c_fb[0]) <= {_MAX_FIG5_INTERVAL}, "
                             f"got r_max={self.r_max}, c_fb={self.c_fb[0]}")
        if self.scenario == "fig4" and self.t_max >= 2 ** 32:  # T is one word of a key
            raise ValueError(f"fig4 needs t_max < 2^32, got t_max={self.t_max}")
        # the channel and link configs run their own range checks, the
        # antenna counts before they size the arrays below
        self.params
        antennas = f"n_t={self.n_t}, n_r={self.n_r}"
        # a Monte Carlo chunk stacks a row per trial and C_fb value (fig4) or per
        # trial or session (fig5); a row holds H (n_r x n_t), its precoder
        # (n_t x n_t) and J J^+ (n_r x n_r)
        chunk = min(self.trials, CHUNK_TRIALS)
        rows = {"fig4": len(self.c_fb) * chunk, "fig5": max(chunk, self.lloyd_sessions)}
        row = self.n_r * self.n_t + self.n_t ** 2 + self.n_r ** 2
        if rows.get(self.scenario, 0) * row > _MAX_ENTRIES:
            raise ValueError(f"{antennas}: a Monte Carlo chunk of {rows[self.scenario]} rows "
                             f"(trials, c_fb, lloyd_sessions) of n_r n_t + n_t^2 + n_r^2 = "
                             f"{row} entries holds more than {_MAX_ENTRIES} complex entries")
        samples = max(self.lloyd_training, 100 * 2 ** self.r_max)  # fig5's largest set
        if self.scenario == "fig5" and samples * self.n_r * self.n_t > _MAX_ENTRIES:
            raise ValueError(f"{antennas}: fig5's training set of max(lloyd_training, "
                             f"100 * 2^r_max) = {samples} samples of n_r * n_t entries "
                             f"holds more than {_MAX_ENTRIES} complex entries")
        self.capacity_config

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
    ts = _t_sweep(cfg)
    d = distortion_vs_interval(cfg.params, cfg.c_fb[0], ts)
    return ["T", "d_theory"], list(zip(ts, d.tolist()))


def _combo_tag(sigma_e2: float, d: float) -> str:
    return f"se{_fmt(sigma_e2)}_d{_fmt(d)}"


def _scenario_fig3(cfg: ExperimentConfig):
    alphas = [round(0.01 * i, 2) for i in range(100)]  # 0.00 .. 0.99
    combos = [(se, d) for se in cfg.sigma_e2_list for d in cfg.d_list]
    header = ["alpha"] + [f"R_{kind}_{_combo_tag(se, d)}"
                          for kind in ("min", "nondiff") for se, d in combos]
    links = [(cfg.params_with_sigma_e2(se), d) for se, d in combos]
    r_min = np.transpose([min_feedback_rate(p, alphas, d) for p, d in links]).tolist()
    # memoryless baseline: same bound with the correlation ignored
    nondiff = [min_feedback_rate(p, 0.0, d) for p, d in links]
    return header, [[alpha, *row, *nondiff] for alpha, row in zip(alphas, r_min)]


def _scenario_fig4(cfg: ExperimentConfig):
    params = cfg.params
    ccfg = cfg.capacity_config
    header = ["T"] + [f"{col}_cfb{_fmt(c_fb)}"
                      for c_fb in cfg.c_fb for col in ("C_erg", "stderr")]
    ts = _t_sweep(cfg)
    with np.errstate(over="ignore"):  # R = T C_fb = inf gives d = 0, as any huge R does
        r_bits = np.outer(ts, cfg.c_fb)
    ds_by_t = distortion_from_rate(params, autocorrelation(params, ts)[:, None], r_bits)
    def pool_per_point(fn, chunks):  # each T point's call builds and joins its own pool
        with _pool_map(cfg.workers, len(chunks)) as map_chunks:
            return list(map_chunks(fn, chunks))
    rows = []
    for t, ds in zip(ts, ds_by_t):
        # one call per T: every C_fb shares its channel draws; the Monte
        # Carlo reads only the interval from the budget
        budget = FeedbackBudget(c_fb=cfg.c_fb[0], r_bits=cfg.c_fb[0] * t, t_blocks=t)
        points = ergodic_capacity(ccfg, budget, ds, trials=cfg.trials,
                                  seed=(_THEORY, cfg.seed, t), map=pool_per_point)
        rows.append([t] + [v for point in points for v in point])
    return header, rows


# the most complex entries a training set or a Monte Carlo chunk may hold:
# fig5's largest 2x2 training set, 100 * 2^16 samples.  At this cap the peak
# RSS measured 1.6 GB for that set (2.0 GB at 1x1), 0.46-1.24 GB for fig4
# chunks of up to 64 antennas a side and 1.3-1.7 GB for fig5's session chunks.
_MAX_ENTRIES = 100 * 2 ** lloydfb.MAX_RATE_BITS * 4
# pool processes a run may fork, and the cap on the default (this process's CPUs);
# each holds a Monte Carlo chunk of up to _MAX_ENTRIES or one fig5 rate's training set
_MAX_WORKERS = 64

_MAX_FIG5_INTERVAL = 10006  # so that c_fb = 1e-300 exits instead of running for ever
# a substream's key: its role, the master seed, then T, R or (R, session); see RngStream
_THEORY, _TRAINING, _SESSIONS = 1, 2, 3


def _fig5_rate(cfg: ExperimentConfig, r_bits: int, d: float) -> list:
    """fig5's row at R = r_bits, with d its rate-distortion bound: the theory
    point, the Lloyd training and the sessions.  A pure function of its
    arguments, so it runs as a pool job."""
    ccfg = cfg.capacity_config
    budget = FeedbackBudget.from_rate(r_bits, cfg.c_fb[0])
    t = budget.t_blocks
    [(c_theory, _)] = ergodic_capacity(ccfg, budget, [d], cfg.trials, (_THEORY, cfg.seed, t))
    cb = lloydfb.bootstrap_codebook(
        ccfg, budget, n_samples=max(cfg.lloyd_training, 100 * 2 ** r_bits),
        seed=(_TRAINING, cfg.seed, r_bits),
    )
    seeds = [(_SESSIONS, cfg.seed, r_bits, s) for s in range(cfg.lloyd_sessions)]
    caps = lloydfb.run_feedback_session(ccfg, budget, cb, n_blocks=12 * t, seeds=seeds)
    stderr = float(np.std(caps, ddof=1) / math.sqrt(len(caps)))
    return [t, c_theory, float(np.mean(caps)), stderr]


def _scenario_fig5(cfg: ExperimentConfig):
    params = cfg.params
    rates = range(1, cfg.r_max + 1)
    ts = [FeedbackBudget.from_rate(r_bits, cfg.c_fb[0]).t_blocks for r_bits in rates]
    ds = distortion_from_rate(params, autocorrelation(params, ts), rates).tolist()
    # one job per rate, the largest (longest) first; the rows come back in R order
    with _pool_map(cfg.workers, len(rates)) as map_rates:
        rows = list(map_rates(_fig5_rate, [cfg] * len(ds), rates[::-1], ds[::-1]))[::-1]
    return ["T", "C_theory", "C_lloyd", "stderr"], rows


def _scenario_optimal_interval(cfg: ExperimentConfig):
    header = ["c_fb", "x_opt", "t_opt_real", "t_opt_int", "d_min", "k"]
    opts = [optimal_interval(cfg.params, c_fb) for c_fb in cfg.c_fb]
    return header, [[c_fb, o.x_opt, o.t_opt_real, o.t_opt_int, o.d_min, o.k]
                    for c_fb, o in zip(cfg.c_fb, opts)]


_RUNNERS = {
    "fig2": _scenario_fig2,
    "fig3": _scenario_fig3,
    "fig4": _scenario_fig4,
    "fig5": _scenario_fig5,
    "optimal-interval": _scenario_optimal_interval,
}
SCENARIOS = tuple(_RUNNERS)


def run_scenario(cfg: ExperimentConfig) -> str:
    """Run one scenario and return the CSV text."""
    header, rows = _RUNNERS[cfg.scenario](cfg)
    for row in rows:
        for name, v in zip(header, row):
            if not math.isfinite(v):
                raise ArithmeticError(f"{name} is {v} in the row {header[0]}={_fmt(row[0])}")
    return render_csv(_config_comments(cfg), header, rows)


# the config schema; this module does not postpone annotations, so each
# field's type is the class itself (int, float, list or str)
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
_TYPE_NAMES = {int: "an integer", float: "a number", list: "a list of numbers", str: "a string"}


def parse_config_value(key: str, raw: str):
    """Parse `raw` as the type of ExperimentConfig's field `key`."""
    if key not in _FIELD_TYPES:
        raise KeyError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    try:
        if kind is list:
            return [float(v) for v in raw.replace(",", " ").split()]
        return kind(raw)
    except ValueError:
        raise ValueError(f"{key} expects {_TYPE_NAMES[kind]}, got {raw!r}") from None


def parse_config_item(item: str) -> tuple:
    """One `key=value` setting, as `--set` holds it."""
    key, sep, raw = (part.strip() for part in item.partition("="))
    if not sep:
        raise ValueError(f"expected key=value, got {item!r}")
    return key, parse_config_value(key, raw)

