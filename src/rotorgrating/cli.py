"""Command-line front end: config parsing, pipeline orchestration, file emission.

Subcommands: simulate | fourier | geometry | validate | fit.  Configuration is
a single JSON file; --out selects the output directory.  All computation
happens before any file is written, so a failing run leaves no partial output,
and all serialization uses sorted keys and fixed float formats so identical
configs produce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 fit
non-convergence (best-so-far results are still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import __version__
from .dynamics import PropagationError, elliptic_tdse_ensemble
from .field import PulseSpec, elliptic_pulse
from .grating import (
    GratingConfig,
    grating_geometry,
    grating_signal,
    single_pump_intensity,
    transverse_factor,
    uniform_step,
    write_signal_csv,
)
from .observables import (
    alignment_trace,
    fourier_decompose,
    reconstruct,
    revival_time_grid,
    thermal_channel_set,
    write_trace_csv,
)
from .retrieval import (
    EnsembleCache,
    FitProblem,
    fit_trace,
    load_trace,
    write_fit_csv,
)
from .rotor import boltzmann_ensemble, check_axis, find_molecule, load_molecule, molecule_from_dict
from .validation import SUITE_NAMES, run_all

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4


_REQUIRED = object()


def _load_config(path: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: top-level config must be a JSON object")
    return cfg


def _get(cfg: dict, key: str, kinds, default=_REQUIRED):
    """Typed fetch with a key-path error message; bool never passes as number."""
    if key not in cfg or cfg[key] is None:
        if default is _REQUIRED:
            raise ValueError(f"missing required key '{key}'")
        return default
    value = cfg[key]
    if kinds is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if isinstance(value, bool) and kinds in (float, int):
        raise ValueError(f"'{key}' must be a number, got a boolean")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"'{key}' must be a finite number, got {value}")
    if not isinstance(value, kinds if isinstance(kinds, tuple) else (kinds,)):
        want = kinds.__name__ if not isinstance(kinds, tuple) else "/".join(k.__name__ for k in kinds)
        raise ValueError(f"'{key}' must be {want}, got {type(value).__name__}")
    return value


def _number(value, key: str) -> float:
    """A finite JSON number as float; null, booleans and strings name the key."""
    if value is None:
        raise ValueError(f"'{key}' must be a number, got null")
    return _get({key: value}, key, float)


def _pair(value, key: str) -> tuple[float, float]:
    if not (isinstance(value, list) and len(value) == 2):
        raise ValueError(f"'{key}' must be a [lo, hi] pair")
    return _number(value[0], f"{key}[0]"), _number(value[1], f"{key}[1]")


def _resolve_molecule(cfg: dict):
    value = cfg.get("molecule", "CO2")
    try:
        if isinstance(value, str):
            return find_molecule(value)
        if isinstance(value, dict) and "path" in value:
            return load_molecule(value["path"])
        if isinstance(value, dict):
            return molecule_from_dict(value)
    except (FileNotFoundError, ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"'molecule': {exc}")
    raise ValueError("'molecule' must be a name, an object with 'path', or an inline spec")


def _resolve_times(cfg: dict, molecule, override_n: int | None):
    tg = _get(cfg, "time_grid", dict, {})
    n = override_n if override_n is not None else _get(tg, "n", int, 4096)
    t_start = _get(tg, "t_start_ps", float, 0.5)
    periods = _get(tg, "periods", float, 1.0)
    if n < 2:
        raise ValueError("'time_grid.n' must be at least 2")
    if periods <= 0:
        raise ValueError("'time_grid.periods' must be positive")
    return revival_time_grid(molecule, n, t_start, periods), {
        "n": n, "t_start_ps": t_start, "periods": periods,
    }


def _background(cfg: dict):
    value = cfg.get("plasma_background")
    if value is None:
        return None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_number(value, "plasma_background"))
    if isinstance(value, dict):
        return complex(_get(value, "re", float, 0.0), _get(value, "im", float, 0.0))
    raise ValueError("'plasma_background' must be a number or {re, im}")


def _out_dir(args) -> str:
    if args.out is None:
        raise ValueError("this subcommand writes files; pass --out DIR")
    return args.out


def _write_json(obj: dict, path: str):
    # strict JSON: a NaN or infinity raises before the file exists
    text = json.dumps(obj, indent=2, sort_keys=True, default=float, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _stamp(resolved: dict) -> dict:
    return {"version": __version__, "config": json.dumps(resolved, sort_keys=True)}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args)
    molecule = _resolve_molecule(cfg)
    temperature = _get(cfg, "temperature_K", float)
    scheme = _get(cfg, "scheme", str)
    apply_factor = _get(cfg, "apply_transverse_factor", bool, True)

    has_single = "single_pump_intensity_tw_cm2" in cfg
    has_theory = "theoretical_intensity_tw_cm2" in cfg
    if has_single == has_theory:
        raise ValueError(
            "give exactly one of 'single_pump_intensity_tw_cm2' or "
            "'theoretical_intensity_tw_cm2'"
        )
    if has_single:
        i_single = _get(cfg, "single_pump_intensity_tw_cm2", float)
    else:
        i_theory = _get(cfg, "theoretical_intensity_tw_cm2", float)
        i_single = single_pump_intensity(scheme, i_theory, apply_factor)
    grating = GratingConfig(
        scheme=scheme,
        single_pump_peak_intensity=i_single,
        wavelength_nm=_get(cfg, "wavelength_nm", float, 800.0),
        crossing_angle_deg=_get(cfg, "crossing_angle_deg", float, 1.0),
        tau_fwhm_ps=_get(cfg, "tau_fwhm_ps", float, 0.1),
        t0_ps=_get(cfg, "t0_ps", float, 0.0),
        probe_tau_fwhm_ps=_get(cfg, "probe_tau_fwhm_ps", float, None),
        plasma_background=_background(cfg),
        apply_transverse_factor=apply_factor,
    )
    method = _get(cfg, "method", str, "sudden")
    j_max = _get(cfg, "j_max", int, None)
    times, grid_echo = _resolve_times(cfg, molecule, args.time_grid)
    if grating.probe_tau_fwhm_ps is not None:
        uniform_step(times)  # the probe's grid check, before the propagation

    resolved = {
        "subcommand": "simulate",
        "molecule": molecule.name,
        "temperature_K": temperature,
        "scheme": scheme,
        "single_pump_intensity_tw_cm2": i_single,
        "theoretical_intensity_tw_cm2": grating.theoretical_intensity,
        "apply_transverse_factor": apply_factor,
        "tau_fwhm_ps": grating.tau_fwhm_ps,
        "t0_ps": grating.t0_ps,
        "wavelength_nm": grating.wavelength_nm,
        "crossing_angle_deg": grating.crossing_angle_deg,
        "probe_tau_fwhm_ps": grating.probe_tau_fwhm_ps,
        "plasma_background": None if grating.plasma_background is None
        else [grating.plasma_background.real, grating.plasma_background.imag],
        "method": method,
        "j_max": j_max,
        "time_grid": grid_echo,
    }

    pulse = PulseSpec(grating.theoretical_intensity, grating.tau_fwhm_ps, grating.t0_ps)
    cs = thermal_channel_set(molecule, temperature, pulse, method=method, j_max=j_max)
    trace = reconstruct(fourier_decompose(cs, "y"), times)
    signal = grating_signal(trace, grating)

    metadata = {
        "version": __version__,
        "config": resolved,
        "xi": cs.xi,
        "j_max": cs.j_max,
        "intensity_mapping": {
            "convention": "theoretical = (2 I0 if parallel else I0) * transverse_factor",
            "transverse_factor": transverse_factor(apply_factor),
            "single_pump_peak_intensity_tw_cm2": i_single,
            "theoretical_intensity_tw_cm2": grating.theoretical_intensity,
        },
        "files": ["alignment_trace.csv", "signal.csv"],
    }

    os.makedirs(out, exist_ok=True)
    stamp = _stamp(resolved)
    write_trace_csv(trace, os.path.join(out, "alignment_trace.csv"),
                    value_header="cos2_minus_third", header_metadata=stamp)
    write_signal_csv(signal, os.path.join(out, "signal.csv"), header_metadata=stamp)
    _write_json(metadata, os.path.join(out, "metadata.json"))
    print(f"simulate: wrote alignment_trace.csv, signal.csv, metadata.json to {out}")
    return EXIT_OK


def cmd_fourier(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args)
    molecule = _resolve_molecule(cfg)
    temperature = _get(cfg, "temperature_K", float)
    intensity = _get(cfg, "intensity_tw_cm2", float)
    tau = _get(cfg, "tau_fwhm_ps", float, 0.1)
    t0 = _get(cfg, "t0_ps", float, 0.0)
    method = _get(cfg, "method", str, "sudden")
    axis = _get(cfg, "axis", str, "y")
    try:
        check_axis(axis)
    except ValueError as exc:
        raise ValueError(f"'axis': {exc}")
    j_max = _get(cfg, "j_max", int, None)
    pol = cfg.get("polarization", "linear")
    times, grid_echo = _resolve_times(cfg, molecule, args.time_grid)

    if pol == "linear":
        pulse = PulseSpec(intensity, tau, t0)
        cs = thermal_channel_set(molecule, temperature, pulse, method=method, j_max=j_max)
    elif isinstance(pol, list) and len(pol) == 2:
        a2, b2 = (_number(v, f"polarization[{i}]") ** 2 for i, v in enumerate(pol))
        if method != "tdse":
            raise ValueError("elliptic polarization requires method 'tdse'")
        PulseSpec(intensity, tau, t0)  # the pump's own errors read as for a linear pump
        try:
            pulse = elliptic_pulse(intensity, a2, b2, tau, t0)
        except ValueError as exc:
            raise ValueError(f"'polarization': {exc}")
        ens = boltzmann_ensemble(molecule, temperature)
        cs = elliptic_tdse_ensemble(molecule, ens, pulse, j_max)
    else:
        raise ValueError("'polarization' must be 'linear' or a two-component [A, B] list")

    dec = fourier_decompose(cs, axis)
    direct = alignment_trace(cs, axis, times).values
    err = float(np.max(np.abs(direct - reconstruct(dec, times).values))) if len(times) else 0.0

    resolved = {
        "subcommand": "fourier",
        "molecule": molecule.name,
        "temperature_K": temperature,
        "intensity_tw_cm2": intensity,
        "tau_fwhm_ps": tau,
        "t0_ps": t0,
        "method": method,
        "polarization": pol,
        "axis": axis,
        "j_max": j_max,
        "time_grid": grid_echo,
    }
    dec_doc = {
        "version": __version__,
        "config": resolved,
        "xi": cs.xi,
        "j_max": cs.j_max,
        "decomposition": dec.to_dict(),
    }
    report = {
        "version": __version__,
        "config": resolved,
        "max_abs_reconstruction_error": err,
        "tolerance": 1e-10,
        "passed": err < 1e-10,
        "n_times": len(times),
    }

    os.makedirs(out, exist_ok=True)
    _write_json(dec_doc, os.path.join(out, "decomposition.json"))
    _write_json(report, os.path.join(out, "reconstruction_report.json"))
    print(f"fourier: {len(dec.js)} components, max reconstruction error {err:.3e}")
    return EXIT_OK if report["passed"] else EXIT_NUMERICAL


def cmd_geometry(args) -> int:
    cfg = _load_config(args.config)
    scheme = _get(cfg, "scheme", str, "parallel")
    grating = GratingConfig(
        scheme=scheme,
        single_pump_peak_intensity=_get(cfg, "single_pump_intensity_tw_cm2", float, 1.0),
        wavelength_nm=_get(cfg, "wavelength_nm", float, 800.0),
        crossing_angle_deg=_get(cfg, "crossing_angle_deg", float, 1.0),
    )
    geom = grating_geometry(grating)
    resolved = {
        "subcommand": "geometry",
        "scheme": scheme,
        "wavelength_nm": grating.wavelength_nm,
        "crossing_angle_deg": grating.crossing_angle_deg,
    }
    doc = {"version": __version__, "config": resolved, "geometry": asdict(geom)}
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _write_json(doc, os.path.join(args.out, "geometry.json"))
        print(f"geometry: wrote geometry.json to {args.out}")
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    return EXIT_OK


def cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    molecule = _resolve_molecule(cfg)
    temperature = _get(cfg, "temperature_K", float, 293.0)
    intensity = _get(cfg, "intensity_tw_cm2", float, 20.0)
    j_max = _get(cfg, "j_max", int, None)
    suites = _get(cfg, "suites", list, None)

    rows = run_all(molecule, temperature, intensity, j_max=j_max, suites=suites)
    for row in rows:
        print(row.line())
    n_fail = sum(not r.passed for r in rows)
    print(f"validate: {len(rows) - n_fail}/{len(rows)} checks passed")

    if args.out is not None:
        resolved = {
            "subcommand": "validate",
            "molecule": molecule.name,
            "temperature_K": temperature,
            "intensity_tw_cm2": intensity,
            "j_max": j_max,
            "suites": suites if suites is not None else list(SUITE_NAMES),
        }
        doc = {
            "version": __version__,
            "config": resolved,
            "checks": [asdict(r) for r in rows],
            "passed": n_fail == 0,
        }
        os.makedirs(args.out, exist_ok=True)
        _write_json(doc, os.path.join(args.out, "validation.json"))
    return EXIT_OK if n_fail == 0 else EXIT_NUMERICAL


def cmd_fit(args) -> int:
    cfg = _load_config(args.config)
    out = _out_dir(args)
    molecule = _resolve_molecule(cfg)
    trace_path = _get(cfg, "trace_path", str)
    if not os.path.isabs(trace_path) and args.config is not None:
        trace_path = os.path.join(os.path.dirname(os.path.abspath(args.config)), trace_path)
    try:
        trace = load_trace(trace_path)
    except FileNotFoundError:
        raise ValueError(f"trace file not found: {trace_path}")

    bounds = {name: _pair(pair, f"bounds.{name}") for name, pair in _get(cfg, "bounds", dict).items()}
    fixed = {k: _number(v, f"fixed.{k}") for k, v in _get(cfg, "fixed", dict, {}).items()}
    scale_bounds = _get(cfg, "scale_bounds", list, None)

    problem = FitProblem(
        molecule=molecule,
        scheme=_get(cfg, "scheme", str),
        tau_fwhm_ps=_get(cfg, "tau_fwhm_ps", float, 0.1),
        bounds=bounds,
        fixed=fixed,
        scale_bounds=(0.0, float("inf")) if scale_bounds is None
        else _pair(scale_bounds, "scale_bounds"),
        apply_transverse_factor=_get(cfg, "apply_transverse_factor", bool, True),
        j_max=_get(cfg, "j_max", int, None),
        boltzmann_cutoff=_get(cfg, "boltzmann_cutoff", float, 1e-6),
        cache_quantum=_get(cfg, "cache_quantum", float, 1e-6),
    )

    search = {
        "max_evaluations": _get(cfg, "max_evaluations", int, 4000),
        "refine_starts": _get(cfg, "refine_starts", int, 3),
        "n_intensity_starts": _get(cfg, "n_intensity_starts", int, 6),
        "n_temperature_starts": _get(cfg, "n_temperature_starts", int, 4),
    }
    cache = EnsembleCache(problem)
    result = fit_trace(problem, trace, cache=cache, **search)

    resolved = {
        "subcommand": "fit",
        "molecule": molecule.name,
        "scheme": problem.scheme,
        "trace_path": trace_path,
        "tau_fwhm_ps": problem.tau_fwhm_ps,
        "bounds": {k: list(v) for k, v in problem.bounds.items()},
        "fixed": problem.fixed,
        "apply_transverse_factor": problem.apply_transverse_factor,
        "j_max": problem.j_max,
        "scale_bounds": [b if math.isfinite(b) else None for b in problem.scale_bounds],
        "boltzmann_cutoff": problem.boltzmann_cutoff,
        "cache_quantum": problem.cache_quantum,
        **search,
    }
    doc = {"version": __version__, "config": resolved, "fit": result.to_dict()}
    os.makedirs(out, exist_ok=True)
    _write_json(doc, os.path.join(out, "fit.json"))
    write_fit_csv(result, problem, trace, os.path.join(out, "fit_curve.csv"), cache)
    status = "converged" if result.converged else "did not converge"
    print(f"fit: {status} after {result.evaluations} evaluations, "
          f"residual {result.residual:.4e}; wrote fit.json, fit_curve.csv to {out}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--out", metavar="DIR", help="output directory")
    # only simulate and fourier sample a time grid
    gridded = argparse.ArgumentParser(add_help=False, parents=[common])
    gridded.add_argument("--time-grid", type=int, metavar="N", dest="time_grid",
                         help="override the number of time-grid samples")

    parser = argparse.ArgumentParser(
        prog="rotorgrating",
        description="Rotational-alignment transient-grating simulator and fitter",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("simulate", parents=[gridded],
                   help="alignment trace and diffracted signal").set_defaults(func=cmd_simulate)
    sub.add_parser("fourier", parents=[gridded],
                   help="cosine-series decomposition and exactness report").set_defaults(func=cmd_fourier)
    sub.add_parser("geometry", parents=[common],
                   help="grating periods and diffraction angles").set_defaults(func=cmd_geometry)
    sub.add_parser("validate", parents=[common],
                   help="run the invariant suites").set_defaults(func=cmd_validate)
    sub.add_parser("fit", parents=[common],
                   help="retrieve parameters from a measured trace").set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, FileNotFoundError, IsADirectoryError) as exc:
        # ArithmeticError: a finite input too large or too small for the
        # numbers derived from it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PropagationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
