"""Span tracing of the program's layers, installed from outside.

The tracer wraps every public function of the traced modules and rebinds
each wrapped name in every ``csinterlace`` module that imported it by name,
so that nested calls (``is_gcp`` inside ``golay``, ``peak_xcorr`` inside
``cli``) get a parent span and self time.  Spans stay in memory as tuples and
are written out once the sample ends.  Only the traced samples install it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import contextmanager

TRACED_MODULES = ("seqcore", "golay", "interlace", "metrics", "setsearch", "linksim", "cli")

CLI_COMMANDS = ("enumerate-gcps", "search-sets", "reproduce-papr", "reproduce-xcorr")

SIM_SCHEMES = ("noncoherent", "coherent", "single-rb-noncoherent", "single-rb-coherent")

CANDIDATES_12 = 4 ** 11

# Layers reported as call count and self time per call.
PER_CALL_LAYERS = (
    "seqcore.parse_quaternary", "seqcore.format_quaternary", "seqcore.is_gcp",
    "golay.combine_gcps", "golay.equivalence_orbit",
    "interlace.build_noncoherent", "interlace.build_noncoherent_adjacent",
    "interlace.build_coherent", "interlace.cycling_baseline",
    "metrics.synthesize", "metrics.papr_db", "metrics.cm_db",
    "metrics.peak_xcorr", "metrics.fractional_xcorr_max",
)

# Per-layer metrics reported by a traced run, in the order of
# BENCHMARK.json's ``per_layer`` list.  A layer that does no work in a
# workload reports 0 there.
LAYER_METRICS: list[tuple[str, str]] = (
    [("linksim.calibrate_dtx_threshold.self_s", "s"),
     ("linksim.calibrate_dtx_threshold.us_per_trial", "us"),
     ("linksim.run_sim.us_per_trial", "us")]
    + [(f"linksim.run_sim.us_per_trial.{s}", "us") for s in SIM_SCHEMES]
    + [("linksim.trials", "count"),
       ("golay.enumerate_gcps.self_s", "s"),
       ("golay.enumerate_gcps.us_per_candidate", "us"),
       ("golay.enumerate_gcps.pairs", "count"),
       ("golay.enumerate_gcps.peak_mb", "MB"),
       ("golay.is_complementary_sequence.first_call_s", "s"),
       ("golay.is_complementary_sequence.us_per_query", "us"),
       ("golay.is_complementary_sequence.retained_mb", "MB"),
       ("golay.cached_enumerate_gcps.self_s", "s")]
    + [(f"{fn}.{stat}", unit) for fn in PER_CALL_LAYERS
       for stat, unit in (("calls", "count"), ("us_per_call", "us"))]
    + [("interlace.zadoff_chu_set.self_s", "s"),
       ("metrics.ccdf.self_s", "s"),
       ("setsearch.build_sets.self_s", "s"),
       ("setsearch.build_sets.tested", "count"),
       ("setsearch.build_sets.admitted", "count"),
       ("setsearch.build_sets.admit_ratio", "ratio"),
       ("setsearch.verify_sets.self_s", "s")]
    + [(f"cli.{c}.s", "s") for c in CLI_COMMANDS]
    + [("cli.self_s", "s"),
       ("trace.overhead", "ratio")]
)


def _rss_mb() -> float:
    """Current resident set size, from /proc/self/statm."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory span recorder.

    A span is ``(name, parent_index, start, end)``; ``parent_index`` is -1
    at the top.  ``notes`` holds the few facts that need a probe at the
    span boundary itself (result sizes, RSS around a call).
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.notes: dict[str, list] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, parent, start, end)

    def note(self, key: str, value) -> None:
        self.notes.setdefault(key, []).append(value)

    def _wrap(self, name: str, fn):
        probe = _PROBES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            before = probe[0](tracer) if probe else None
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if probe:
                probe[1](tracer, before, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of the traced modules of ``package``."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        replacements = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                replacements[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as handle:
            json.dump({"names": names,
                       "spans": [[index[n], p, round(a, 9), round(b, 9)]
                                 for n, p, a, b in self.spans],
                       "notes": self.notes}, handle)

    # -- aggregation --------------------------------------------------------

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        out: dict[str, dict] = {}
        for (name, _, start, end), own in zip(self.spans, self._self_seconds()):
            entry = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["incl_s"] += end - start
            entry["self_s"] += own
        return out

    def layer_metrics(self, sim_trials: list[tuple[str, int, int]] | None = None) -> dict:
        """The per-layer metrics this sample measured.

        ``sim_trials`` lists ``(scheme, calibration_trials, sweep_trials)``
        for each ``run_sim`` call, in call order.
        """
        totals = self.totals()

        def stat(name, key):
            return totals.get(name, {}).get(key, 0)

        m: dict[str, float] = {}
        sim_trials = sim_trials or []
        cal = sum(c for _, c, _ in sim_trials)
        sweep = sum(s for _, _, s in sim_trials)
        m["linksim.calibrate_dtx_threshold.self_s"] = stat("linksim.calibrate_dtx_threshold", "self_s")
        m["linksim.calibrate_dtx_threshold.us_per_trial"] = (
            m["linksim.calibrate_dtx_threshold.self_s"] / cal * 1e6 if cal else 0.0)
        run_self = [own for span, own in zip(self.spans, self._self_seconds())
                    if span[0] == "linksim.run_sim"]
        m["linksim.run_sim.us_per_trial"] = sum(run_self) / sweep * 1e6 if sweep else 0.0
        per_scheme = {s: [0.0, 0] for s in SIM_SCHEMES}
        for (scheme, _, trials), seconds in zip(sim_trials, run_self):
            per_scheme[scheme][0] += seconds
            per_scheme[scheme][1] += trials
        for scheme, (seconds, trials) in per_scheme.items():
            m[f"linksim.run_sim.us_per_trial.{scheme}"] = seconds / trials * 1e6 if trials else 0.0
        m["linksim.trials"] = cal + sweep

        enum_calls = self.notes.get("enumerate_gcps", [])
        m["golay.enumerate_gcps.self_s"] = stat("golay.enumerate_gcps", "self_s")
        full = [n for n in enum_calls if n["length"] == 12]
        m["golay.enumerate_gcps.us_per_candidate"] = (
            m["golay.enumerate_gcps.self_s"] / (CANDIDATES_12 * len(full)) * 1e6 if full else 0.0)
        m["golay.enumerate_gcps.pairs"] = full[-1]["pairs"] if full else 0
        m["golay.enumerate_gcps.peak_mb"] = max((n["maxrss_mb"] for n in enum_calls), default=0.0)

        query = [end - start for n, _, start, end in self.spans
                 if n == "golay.is_complementary_sequence"]
        m["golay.is_complementary_sequence.first_call_s"] = query[0] if query else 0.0
        m["golay.is_complementary_sequence.us_per_query"] = (
            sum(query[1:]) / (len(query) - 1) * 1e6 if len(query) > 1 else 0.0)
        retained = self.notes.get("is_complementary_sequence.retained_mb", [])
        m["golay.is_complementary_sequence.retained_mb"] = retained[0] if retained else 0.0
        m["golay.cached_enumerate_gcps.self_s"] = stat("golay.cached_enumerate_gcps", "self_s")

        for fn in PER_CALL_LAYERS:
            calls = stat(fn, "calls")
            m[f"{fn}.calls"] = calls
            m[f"{fn}.us_per_call"] = stat(fn, "self_s") / calls * 1e6 if calls else 0.0
        m["interlace.zadoff_chu_set.self_s"] = stat("interlace.zadoff_chu_set", "self_s")
        m["metrics.ccdf.self_s"] = stat("metrics.ccdf", "self_s")

        sets = self.notes.get("build_sets", [])
        m["setsearch.build_sets.self_s"] = stat("setsearch.build_sets", "self_s")
        m["setsearch.build_sets.tested"] = sum(n["tested"] for n in sets)
        m["setsearch.build_sets.admitted"] = sum(n["admitted"] for n in sets)
        m["setsearch.build_sets.admit_ratio"] = (
            m["setsearch.build_sets.admitted"] / m["setsearch.build_sets.tested"]
            if m["setsearch.build_sets.tested"] else 0.0)
        m["setsearch.verify_sets.self_s"] = stat("setsearch.verify_sets", "self_s")

        for command in CLI_COMMANDS:
            m[f"cli.{command}.s"] = stat(f"cli.{command}", "incl_s")
        m["cli.self_s"] = sum(stat(f"cli.{c}", "self_s") for c in CLI_COMMANDS)
        return m


def _enumerate_after(tracer, _before, pairs):
    tracer.note("enumerate_gcps", {"length": pairs[0].length if pairs else 0,
                                   "pairs": len(pairs), "maxrss_mb": _maxrss_mb()})


def _query_after(tracer, before, _result):
    if "is_complementary_sequence.retained_mb" not in tracer.notes:
        tracer.note("is_complementary_sequence.retained_mb", _rss_mb() - before)


def _sets_after(tracer, _before, sets):
    tracer.note("build_sets", {"tested": len(sets.admission_log), "admitted": sets.size})


# name -> (call before the span, returning a value; call after, with it and the result)
_PROBES = {
    "golay.enumerate_gcps": (lambda tracer: None, _enumerate_after),
    "golay.is_complementary_sequence": (
        lambda tracer: None if "is_complementary_sequence.retained_mb" in tracer.notes
        else _rss_mb(), _query_after),
    "setsearch.build_sets": (lambda tracer: None, _sets_after),
}
