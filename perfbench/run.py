"""The repository benchmark: absolute, stage-attributed ``repro.api`` costs.

Run from the repository root::

    python3 perfbench/run.py --workload solve_cold --seed 1 --seconds 30 --trace 0

Workloads (one module each, see their docstrings): ``solve_cold``,
``stream_window`` and ``serve_http``.  The inputs are
generated from ``--seed``; every output is checked, and a failed check
counts as a failed operation and makes the run exit non-zero.

With ``--trace 0`` the run measures with tracing off and reports the
end-to-end metrics.  With ``--trace 1`` it measures a third of the time
untraced and the rest with span-recording wrappers installed on the
layers' public call sites (``tracing.py``), and reports the per-layer
metrics, including how much of the timed work the expected layers
cover and the tracing overhead.  Spans are written to
``.perfbench_out/``.  ``layers.json`` records why each workload exists
and which end-to-end metric each layer metric should move.

Set-up runs three times, each inside its own ``scoped_symbols()``
table, and ``setup_s`` is the median; the measured phase runs in the
table of the last set-up, whose final size is reported.

Every reported time is scaled to a reference machine speed by a fixed
pure-Python calibration loop run just before and after it, and a timed
step is reported by the median of its scaled repeats
(``common.Measures`` says how and why).  Every input is a fixed shape
with its vertices renamed by ``--seed`` (``common.Relabel``).  The
unscaled figures and the loop time are printed on a ``#`` line.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import sys
import time

from common import CALIBRATION_REFERENCE, ROOT, Tally, calibration, median, peak_rss_mb

WORKLOADS = ("solve_cold", "stream_window", "serve_http")
SETUP_REPEATS = 3
TRACE_UNTRACED_SHARE = 1 / 3
OUT_DIR = ROOT / ".perfbench_out"


def _import_program():
    """Put the checkout's ``src`` first on the path and import it, or
    exit non-zero when the checkout holds no program to measure."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file() or not (ROOT / "examples" / "programs").is_dir():
        sys.exit(f"perfbench: no program to measure under {ROOT} (src/repro, examples/programs)")
    sys.path.insert(0, str(src))
    import repro

    if not str(repro.__file__).startswith(str(src)):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _roots(spans, all_spans):
    """Spans not nested in a span of the same name (one per call)."""
    return [s for s in spans if s.parent < 0 or all_spans[s.parent].name != s.name]


def layer_metrics(tracer, traced, untraced, module, state) -> dict:
    spans = tracer.spans
    groups = tracer.by_name()

    def per_call_ms(name):
        group = groups.get(name, [])
        calls = len(_roots(group, spans))
        return 1e3 * sum(s.self_seconds for s in group) / calls if calls else 0.0

    def mean_count(prefix, key):
        values = [s.counts[key] for s in spans if s.name.startswith(prefix) and key in s.counts]
        return _mean(values)

    ground = groups.get("ground", [])
    rules = sum(s.counts.get("rules", 0) for s in ground)
    probes = sum(s.counts.get("probes", 0) for s in ground)
    metrics = {
        "parse.ms": per_call_ms("parse"),
        "analyze.ms": per_call_ms("analyze"),
        "ground.ms": per_call_ms("ground"),
        "ground.rules": mean_count("ground", "rules"),
        "ground.probes": mean_count("ground", "probes"),
        "ground.rules_per_probe": rules / probes if probes else 0.0,
        "fixpoint.boolean.ms": per_call_ms("fixpoint.boolean"),
        "fixpoint.tropical.ms": per_call_ms("fixpoint.tropical"),
        "fixpoint.counting.ms": per_call_ms("fixpoint.counting"),
        "fixpoint.rounds": mean_count("fixpoint.", "rounds"),
        "fixpoint.rule_evals": mean_count("fixpoint.", "rule_evals"),
        "construct.magic-generic.ms": per_call_ms("construct.magic-generic"),
        "construct.gates": 0,
        "construct.depth": 0,
        "compile.ms": per_call_ms("compile"),
        "compile.segments": mean_count("compile", "segments"),
        "evaluate.update_us": 1e3 * per_call_ms("evaluate.update"),
        "evaluate.update_cone": mean_count("evaluate.update", "cone"),
        "evaluate.seed_ms": per_call_ms("evaluate.seed"),
        "maintain.insert_ms": per_call_ms("maintain.insert"),
        "maintain.retract_ms": per_call_ms("maintain.retract"),
        "maintain.weight_ms": per_call_ms("maintain.weight"),
        "maintain.rebuilds": 0,
        "maintain.degradations": 0,
        "maintain.event_ms_p90": 0.0,
        "serve.register_ms": 0.0,
        "serve.boolean_ms": per_call_ms("serve.boolean"),
        "serve.evaluate_ms": per_call_ms("serve.evaluate"),
        "serve.facts_ms": per_call_ms("serve.facts"),
        "serve.lane_fill": 0.0,
        "serve.timer_flush_share": 0.0,
        "serve.shed": 0,
        "serve.gen_lag_ms": 0.0,
        "serve.req_ms_p99": 0.0,
    }
    metrics.update(module.layer_metrics(state, traced))
    by_layer = tracer.self_seconds_by(lambda s: s.layer)
    covered = sum(by_layer.get(layer, 0.0) for layer in module.COVERAGE_LAYERS)
    timed = traced.timed_seconds
    metrics["trace.coverage"] = covered / timed if timed else 0.0
    base = untraced.pass_seconds
    metrics["trace.overhead"] = traced.pass_seconds / base - 1 if base else 0.0
    return metrics


#: Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS = {
    "parse.ms": "ms",
    "analyze.ms": "ms",
    "ground.ms": "ms",
    "ground.rules": "count",
    "ground.probes": "count",
    "ground.rules_per_probe": "ratio",
    "fixpoint.boolean.ms": "ms",
    "fixpoint.tropical.ms": "ms",
    "fixpoint.counting.ms": "ms",
    "fixpoint.rounds": "count",
    "fixpoint.rule_evals": "count",
    "construct.magic-generic.ms": "ms",
    "construct.gates": "count",
    "construct.depth": "count",
    "compile.ms": "ms",
    "compile.segments": "count",
    "evaluate.update_us": "us",
    "evaluate.update_cone": "count",
    "evaluate.seed_ms": "ms",
    "maintain.insert_ms": "ms",
    "maintain.retract_ms": "ms",
    "maintain.weight_ms": "ms",
    "maintain.rebuilds": "count",
    "maintain.degradations": "count",
    "maintain.event_ms_p90": "ms",
    "serve.register_ms": "ms",
    "serve.boolean_ms": "ms",
    "serve.evaluate_ms": "ms",
    "serve.facts_ms": "ms",
    "serve.lane_fill": "fraction",
    "serve.timer_flush_share": "fraction",
    "serve.shed": "count",
    "serve.gen_lag_ms": "ms",
    "serve.req_ms_p99": "ms",
    "trace.coverage": "fraction",
    "trace.overhead": "fraction",
    "calib.ms": "ms",
    "symbols.count": "count",
    "failed_share": "fraction",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from repro.datalog.store import SymbolTable, scoped_symbols

    from tracing import Tracer

    module = importlib.import_module(args.workload)
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    setups = []
    raw_setups = []
    state = table = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            module.close(state)
            state = None
        table = SymbolTable()
        with scoped_symbols(table):
            before = calibration()
            start = time.perf_counter()
            state = module.setup(args.seed)
            raw_setups.append(time.perf_counter() - start)
            setups.append(raw_setups[-1] * 2 * CALIBRATION_REFERENCE / (before + calibration()))

    tally = Tally()
    tracer = Tracer()
    try:
        gc.collect()
        with scoped_symbols(table):
            if args.trace:
                untraced = module.measure(state, args.seconds * TRACE_UNTRACED_SHARE, tally)
                with tracer.installed():
                    measures = module.measure(state, args.seconds * (1 - TRACE_UNTRACED_SHARE), tally, tracer)
            else:
                measures = module.measure(state, args.seconds, tally)
        if args.trace:
            metrics = layer_metrics(tracer, measures, untraced, module, state)
    finally:
        module.close(state)

    scale = measures.scale
    calibration_ms = 1e3 * min(measures.calibrations)
    print(
        f"# passes={measures.passes} steps={len(measures.samples)} "
        f"symbols={len(table)} {json.dumps(measures.notes, sort_keys=True)}"
    )
    print(
        f"# calibration: {calibration_ms:.3f} ms fastest, {1e3 * median(measures.calibrations):.3f} ms median "
        f"of {len(measures.calibrations)}; span times scaled by {scale:.4f} to the "
        f"{1e3 * CALIBRATION_REFERENCE:g} ms reference; unscaled: "
        f"setup_s={median(raw_setups):.4f} pass_s={measures.raw_pass_seconds:.4f}"
    )
    for message in tally.messages:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    failed_share = tally.failed / tally.attempted if tally.attempted else 1.0

    if args.trace:
        for name, value in metrics.items():
            if PER_LAYER_UNITS[name] in ("ms", "us"):
                metrics[name] = value * scale
        metrics["calib.ms"] = calibration_ms
        metrics["symbols.count"] = len(table)
        metrics["failed_share"] = failed_share
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "per_layer": metrics})
        print(f"# spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    else:
        reported = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "pass_s": {"value": measures.pass_seconds, "unit": "s"},
            "op_ms_p50": {"value": 1e3 * measures.op_seconds, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    correct = tally.failed == 0 and tally.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(tally.attempted, 1),
                "failed": tally.failed,
                "metrics": reported,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
