"""Layer boundaries of rotorgrating and the per-layer metrics computed from them.

`install` wraps the public functions of the rotor, dynamics, observables,
grating, retrieval, validation and cli modules under every name the package's
modules import them by, plus the `solve_ivp` name inside dynamics (to count
right-hand-side calls).  Counters are computed from the objects the public
API returns: ChannelSet, ThermalEnsemble, FourierDecomposition, FitResult and
EnsembleCache.  `layer_metrics` turns one repetition's spans into the
per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import inspect
from collections import defaultdict

import numpy as np

from spans import Recorder, has_ancestor, median, overhead_within, percentile, replace_everywhere, self_times

PACKAGE = "rotorgrating"
PROPAGATORS = ("dynamics.kick", "dynamics.tdse", "dynamics.elliptic")
INTEGRATED = ("dynamics.tdse", "dynamics.elliptic")
SUITES = ("operators", "sudden_vs_tdse", "elliptic", "regimes", "hygiene")


# ---------------------------------------------------------------------------
# Counters, run after the wrapped call returns (timed as tracing overhead)
# ---------------------------------------------------------------------------

def _count_ensemble(span, ens, args, kwargs):
    span.counts["channels"] = len(ens.channels)


def _count_propagation(rg, fn):
    signature = inspect.signature(fn)

    def count(span, cs, args, kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        chans = cs.channels
        amps = np.concatenate([ch.amplitudes for ch in chans])
        j_of = np.concatenate([ch.js if cs.kind == "chain" else ch.basis.j_of for ch in chans])
        weights = [ch.weight for ch in chans]
        pops = np.repeat(weights, [len(ch.amplitudes) for ch in chans]) * np.abs(amps) ** 2
        regrows = 0
        if bound.get("j_max") is None:
            j = rg.rotor.suggest_j_max(bound["ensemble"].j_thermal_max, cs.xi)
            while j < cs.j_max:  # the ensemble propagators regrow j_max to int(1.5 j) + 10
                j = int(j * 1.5) + 10
                regrows += 1
        span.counts.update(system_dim=len(amps), norm_dev=abs(float(pops.sum()) / sum(weights) - 1.0),
                           edge_leak=float(pops[j_of >= cs.j_max - 1].sum()), j_max=cs.j_max,
                           regrows=regrows)

    return count


def _count_terms(span, trace, args, kwargs):
    dec = args[0] if args else kwargs["dec"]
    span.counts["terms"] = len(dec.js) * len(trace.times)


def _count_fit(fn):
    signature = inspect.signature(fn)

    def count(span, result, args, kwargs):
        span.counts["evaluations"] = result.evaluations
        cache = signature.bind(*args, **kwargs).arguments.get("cache")
        if cache is not None:
            span.counts["cache_misses"] = cache.misses

    return count


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------

def install(rec: Recorder, rg) -> None:
    """Wrap rotorgrating's layer functions in `rg` (the imported package)."""
    table = [
        (rg.rotor, "boltzmann_ensemble", "rotor.ensemble", _count_ensemble),
        (rg.rotor, "cos2theta_axis_matrix", "rotor.axis_matrix", None),
        (rg.observables, "fourier_decompose", "observables.decompose", None),
        (rg.observables, "reconstruct", "observables.reconstruct", _count_terms),
        (rg.observables, "alignment_trace", "observables.direct_trace", None),
        (rg.observables, "max_over_period", "observables.max_over_period", None),
        (rg.observables, "regime_scan", "observables.regime_scan", None),
        (rg.grating, "intensity_grating_signal", "grating.signal", None),
        (rg.grating, "polarization_grating_signal", "grating.signal", None),
        (rg.grating, "probe_convolve", "grating.probe_convolve", None),
        # the fit objective calls model_signal exactly once per evaluation
        (rg.retrieval, "model_signal", "retrieval.objective", None),
        (rg.cli, "write_trace_csv", "cli.write", None),
        (rg.cli, "write_signal_csv", "cli.write", None),
        (rg.cli, "_write_json", "cli.write", None),
    ]
    for attr, name in (("kick_ensemble", "dynamics.kick"), ("tdse_ensemble", "dynamics.tdse"),
                       ("elliptic_tdse_ensemble", "dynamics.elliptic")):
        fn = getattr(rg.dynamics, attr)
        table.append((rg.dynamics, attr, name, _count_propagation(rg, fn)))
    table.append((rg.retrieval, "fit_trace", "retrieval.fit", _count_fit(rg.retrieval.fit_trace)))
    table += [(rg.validation, f"suite_{s}", f"validation.{s}", None) for s in SUITES]

    for module, attr, name, counter in table:
        original = getattr(module, attr)
        replace_everywhere(original, rec.wrap(name, original, counter), PACKAGE)

    cache_cls = rg.retrieval.EnsembleCache
    lookup = cache_cls.decomposition

    def decomposition(cache, intensity, temperature):
        misses = cache.misses
        span = rec.open("retrieval.cache.lookup")
        try:
            return lookup(cache, intensity, temperature)
        finally:
            rec.close(span)
            # _store is the cache's only record of its size
            span.counts.update(miss=cache.misses - misses, entries=len(cache._store))

    cache_cls.decomposition = decomposition

    solve_ivp = rg.dynamics.solve_ivp

    def counted_solve_ivp(fun, *args, **kwargs):
        calls = [0]

        def rhs(t, y):
            calls[0] += 1
            return fun(t, y)

        sol = solve_ivp(rhs, *args, **kwargs)
        owner = rec.current(INTEGRATED)
        if owner is not None:
            owner.counts["rhs_calls"] = owner.counts.get("rhs_calls", 0) + calls[0]
            stored = sol.y.nbytes / 1e6
            owner.counts["stored_mb"] = max(owner.counts.get("stored_mb", 0.0), stored)
        return sol

    rg.dynamics.solve_ivp = counted_solve_ivp


# ---------------------------------------------------------------------------
# Per-layer metrics of one repetition
# ---------------------------------------------------------------------------

def layer_metrics(spans, write_bytes: int) -> dict[str, float]:
    """Per-layer metrics from one repetition's spans (times in s or ms).

    write_bytes is the size of the files the repetition wrote.
    """
    own = self_times(spans)
    bookkeeping = overhead_within(spans)
    by_id = {s.id: s for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)

    def self_s(name):
        return sum(own[s.id] for s in named[name])

    def net_s(span):
        return span.duration - bookkeeping[span.id]

    def counts(name, key):
        return [s.counts[key] for s in named[name] if key in s.counts]

    m: dict[str, float] = {}
    for name in INTEGRATED:
        m[f"{name}.calls"] = len(named[name])
        m[f"{name}.s"] = self_s(name)
        m[f"{name}.rhs_calls"] = sum(counts(name, "rhs_calls"))
        m[f"{name}.system_dim"] = max(counts(name, "system_dim"), default=0)
    m["dynamics.tdse.stored_mb"] = max(counts("dynamics.tdse", "stored_mb"), default=0.0)
    m["rotor.axis_matrix.s"] = self_s("rotor.axis_matrix")

    kick_ms = [1e3 * net_s(s) for s in named["dynamics.kick"]]
    m["dynamics.kick.calls"] = len(kick_ms)
    m["dynamics.kick.s"] = self_s("dynamics.kick")
    m["dynamics.kick.ms_p50"] = median(kick_ms)
    m["dynamics.kick.ms_p90"] = percentile(kick_ms, 90.0)
    m["dynamics.kick.jmax_distinct"] = len(set(counts("dynamics.kick", "j_max")))

    prop = [c for name in PROPAGATORS for c in named[name]]
    m["dynamics.regrows"] = sum(s.counts.get("regrows", 0) for s in prop)
    m["dynamics.norm_dev_max"] = max((s.counts["norm_dev"] for s in prop if "norm_dev" in s.counts), default=0.0)
    m["dynamics.edge_leak_max"] = max((s.counts["edge_leak"] for s in prop if "edge_leak" in s.counts), default=0.0)

    m["observables.decompose.calls"] = len(named["observables.decompose"])
    m["observables.decompose.s"] = self_s("observables.decompose")
    m["observables.decompose.ms_p50"] = median([1e3 * net_s(s) for s in named["observables.decompose"]])
    m["observables.reconstruct.calls"] = len(named["observables.reconstruct"])
    m["observables.reconstruct.s"] = self_s("observables.reconstruct")
    m["observables.reconstruct.terms"] = sum(counts("observables.reconstruct", "terms"))
    m["observables.direct_trace.s"] = self_s("observables.direct_trace")
    m["observables.max_over_period.s"] = self_s("observables.max_over_period")
    m["observables.regime_scan.s"] = self_s("observables.regime_scan")

    m["grating.signal.s"] = self_s("grating.signal")
    m["grating.signal.nested_propagations"] = sum(has_ancestor(s, ("grating.signal",), by_id) for s in prop)
    m["grating.probe_convolve.s"] = self_s("grating.probe_convolve")

    fits = named["retrieval.fit"]
    m["retrieval.fit.cold_s"] = net_s(fits[0]) if fits else 0.0
    m["retrieval.fit.warm_s_p50"] = median([net_s(s) for s in fits[1:]])
    m["retrieval.fit.cold_evals"] = fits[0].counts.get("evaluations", 0) if fits else 0
    m["retrieval.fit.cold_misses"] = fits[0].counts.get("cache_misses", 0) if fits else 0
    objective_ms = [1e3 * net_s(s) for s in named["retrieval.objective"]]
    m["retrieval.objective.evals"] = sum(counts("retrieval.fit", "evaluations"))
    m["retrieval.objective.ms_p50"] = median(objective_ms)
    m["retrieval.objective.ms_p90"] = percentile(objective_ms, 90.0)

    lookups = named["retrieval.cache.lookup"]
    misses = [s for s in lookups if s.counts.get("miss")]
    hits = [s for s in lookups if not s.counts.get("miss")]
    m["retrieval.cache.lookups"] = len(lookups)
    m["retrieval.cache.misses"] = len(misses)
    m["retrieval.cache.hit_rate"] = len(hits) / len(lookups) if lookups else 0.0
    m["retrieval.cache.miss_ms_p50"] = median([1e3 * net_s(s) for s in misses])
    m["retrieval.cache.hit_ms_p50"] = median([1e3 * net_s(s) for s in hits])
    m["retrieval.cache.entries"] = max(counts("retrieval.cache.lookup", "entries"), default=0)

    for suite in SUITES:
        m[f"validation.{suite}.s"] = self_s(f"validation.{suite}")
    m["cli.write.s"] = self_s("cli.write")
    m["cli.write.bytes"] = write_bytes
    m["rotor.ensemble.s"] = self_s("rotor.ensemble")
    m["rotor.ensemble.channels"] = max(counts("rotor.ensemble", "channels"), default=0)
    return m
