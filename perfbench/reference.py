"""Per-point reference values and the Monte Carlo tolerance check.

A point is one (T, C_fb) cell of a fig4 table or one R row of a fig5
table.  The stored reference for each value is its mean over several
reference seeds, the standard deviation across those seeds, and the number
of seeds.  A run's value passes when it is finite and lies within
`K_SIGMA` combined standard errors of the reference mean: the run's own
standard error (its CSV stderr column, or the across-seed deviation where
the CSV has none, whichever is larger) and the standard error of the
reference mean.
"""

from __future__ import annotations

import json
import math
import statistics
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Six standard errors: with a few hundred points checked per run, a false
# failure stays far less likely than one in a thousand runs, while a bias
# of a few standard errors in any point still shows.
K_SIGMA = 6.0


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, rows


def points(scenario: str, text: str) -> dict[str, dict[str, tuple[float, float | None]]]:
    """{point: {quantity: (value, CSV standard error or None)}}."""
    header, rows = parse_csv(text)
    col = {name: i for i, name in enumerate(header)}
    out: dict[str, dict[str, tuple[float, float | None]]] = {}
    for row in rows:
        t = int(row[col["T"]])
        if scenario == "fig4":
            for name in header:
                if name.startswith("C_erg_cfb"):
                    cfb = name[len("C_erg_cfb"):]
                    out[f"T={t},cfb={cfb}"] = {
                        "C_erg": (row[col[name]], row[col[f"stderr_cfb{cfb}"]]),
                    }
        elif scenario == "fig5":
            out[f"T={t}"] = {
                "C_theory": (row[col["C_theory"]], None),
                "C_lloyd": (row[col["C_lloyd"]], row[col["stderr"]]),
            }
        else:
            raise ValueError(f"no point layout for scenario {scenario!r}")
    return out


def build(samples: list[dict]) -> dict:
    """Reference for one workload from the `points` of several seeds."""
    ref: dict = {}
    for key in samples[0]:
        ref[key] = {}
        for q in samples[0][key]:
            vals = [s[key][q][0] for s in samples]
            ref[key][q] = {"mean": statistics.fmean(vals), "sd": statistics.stdev(vals),
                           "n": len(vals)}
    return ref


def failures(pts: dict, ref: dict) -> list[str]:
    """Names of failed points, each with the reason."""
    failed = [f"{key}: missing" for key in ref if key not in pts]
    failed += [f"{key}: not in reference" for key in pts if key not in ref]
    for key in pts.keys() & ref.keys():
        for q, (value, se) in pts[key].items():
            r = ref[key].get(q)
            if r is None:
                failed.append(f"{key}/{q}: not in reference")
                break
            if not math.isfinite(value) or (se is not None and not math.isfinite(se)):
                failed.append(f"{key}/{q}: not finite ({value}, se={se})")
                break
            se_run = max(se or 0.0, r["sd"])
            tol = K_SIGMA * math.hypot(se_run, r["sd"] / math.sqrt(r["n"]))
            if abs(value - r["mean"]) > tol:
                failed.append(f"{key}/{q}: {value:.6g} vs reference {r['mean']:.6g} "
                              f"(tolerance {tol:.3g})")
                break
    return failed


def load() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)
