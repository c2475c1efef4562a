#!/usr/bin/env python3
"""Per-layer report of a traced e2ebench run.

    python3 e2ebench/trace_report.py PREFIX.spans.jsonl PREFIX.counters.json

The spans file holds one span per line (id, parent, rid, name, start_ns,
end_ns); a span's layer is its name up to the first dot. A layer's self time
is the duration of its spans minus the part their child spans cover. The
counters file holds what the replayed calls returned (eval stats, cache
stats, optimizer reports, IVM and durability counters) plus the untraced
run's client submit p50 and daemon STATS counters.

Prints one table: every per-layer metric with its unit, every ratio next to
its base, and per layer the span count and self time.
"""

import collections
import json
import math
import sys

LAYERS = ("daemon", "service", "parser", "core", "eval", "storage", "ivm",
          "durability")
PHASES = ("adorn", "projection", "components", "unit_rules", "deletion",
          "cleanup")

# Ratio metric -> the metric that is its base (printed beside it).
BASES = {
    "daemon.unattributed_ms_p50": "daemon.replay_submit_ms_p50",
    "service.cache_hit_ratio": "service.cache_lookups",
    "eval.duplicate_ratio": "eval.rule_firings",
    "durability.bytes_written_per_fact_byte": "durability.fact_bytes",
}


def p50(values):
    """Nearest-rank median, as exdl_e2e computes it; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(0.5 * len(ordered))) - 1]


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def span_ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def self_ms(spans):
    """Span id -> its duration minus the time its direct children cover."""
    covered = collections.defaultdict(float)
    for s in spans:
        if s["parent"]:
            covered[s["parent"]] += span_ms(s)
    return {s["id"]: max(0.0, span_ms(s) - covered[s["id"]]) for s in spans}


def per_layer_metrics(spans_path, counters_path):
    """Every per-layer metric: name -> (value, unit)."""
    spans = load_spans(spans_path)
    with open(counters_path) as f:
        counters = json.load(f)
    sc = collections.defaultdict(float, counters["scalar"])
    lists = collections.defaultdict(list, counters["list"])

    durations = collections.defaultdict(list)
    per_request = collections.defaultdict(lambda: collections.defaultdict(float))
    for s in spans:
        durations[s["name"]].append(span_ms(s))
        per_request[s["name"]][s["rid"]] += span_ms(s)

    def request_p50(name):
        return p50(list(per_request[name].values()))

    def ratio(num, den):
        return num / den if den else 0.0

    m = collections.OrderedDict()
    replay_submit = p50(durations["daemon.submit"])
    unattributed = sc["e2e.submit_p50_ms"] - replay_submit if replay_submit else 0.0
    m["daemon.unattributed_ms_p50"] = (unattributed, "ms")
    m["daemon.replay_submit_ms_p50"] = (replay_submit, "ms")
    m["daemon.codec_us_p50"] = (request_p50("daemon.codec") * 1e3, "us")
    m["daemon.frame_io_us_p50"] = (request_p50("daemon.frame_io") * 1e3, "us")
    m["daemon.reply_bytes_p50"] = (p50(lists["daemon.reply_bytes"]), "bytes")
    m["daemon.backpressure_events"] = (sc["daemon.backpressure_events"], "count")
    m["daemon.cancelled_on_disconnect"] = (sc["daemon.cancelled_on_disconnect"],
                                           "count")

    lookups = sc["service.cache_hits"] + sc["service.cache_misses"]
    m["service.cache_hit_ratio"] = (ratio(sc["service.cache_hits"], lookups),
                                    "ratio")
    m["service.cache_lookups"] = (lookups, "count")
    m["service.cache_evictions"] = (sc["service.cache_evictions"], "count")
    m["service.compile_ms_p50"] = (p50(durations["service.compile"]), "ms")
    m["service.render_ms_p50"] = (p50(durations["service.render"]), "ms")
    m["service.answer_rows_p50"] = (p50(lists["service.answer_rows"]), "rows")
    m["service.publish_ms_p50"] = (p50(durations["service.publish"]), "ms")

    parse_ms = sum(durations["parser.parse"]) + sum(durations["parser.facts_parse"])
    m["parser.parse_ms_p50"] = (p50(durations["parser.parse"]), "ms")
    m["parser.facts_parse_ms_p50"] = (p50(durations["parser.facts_parse"]), "ms")
    m["parser.bytes_per_s"] = (ratio(sc["parser.bytes"], parse_ms / 1e3), "B/s")

    m["core.optimize_ms_p50"] = (p50(durations["core.optimize"]), "ms")
    for phase in PHASES:
        m["core.phase_ms." + phase] = (p50(lists["core.phase_ms." + phase]), "ms")
    m["core.rules_before"] = (sc["core.rules_before"], "count")
    m["core.rules_after"] = (sc["core.rules_after"], "count")

    m["eval.eval_ms_p50"] = (p50(durations["eval.evaluate"]), "ms")
    for key in ("rounds", "rule_firings", "tuples_inserted"):
        m["eval." + key] = (sc["eval." + key], "count")
    m["eval.duplicate_ratio"] = (ratio(sc["eval.duplicate_inserts"],
                                       sc["eval.rule_firings"]), "ratio")
    for key in ("index_probes", "rows_matched"):
        m["eval." + key] = (sc["eval." + key], "count")
    m["eval.max_round_ms"] = (sc["eval.max_round_ms"], "ms")
    m["eval.tuples_per_s"] = (ratio(sc["eval.tuples_inserted"],
                                    sc["eval.seconds"]), "1/s")
    m["eval.pool_skipped_rounds"] = (sc["eval.pool_skipped_rounds"], "count")

    m["storage.words_scanned"] = (sc["storage.words_scanned"], "count")
    m["storage.fallbacks"] = (sc["storage.fallbacks"], "count")
    m["storage.peak_tuples"] = (sc["storage.peak_tuples"], "count")
    m["storage.clone_ms_p50"] = (p50(durations["storage.clone"]), "ms")

    m["ivm.apply_ms_p50"] = (p50(durations["ivm.apply"]), "ms")
    m["ivm.apply_ms_per_load"] = (p50(lists["ivm.apply_ms_per_load"]), "ms")
    for key in ("delta_rounds", "tuples_rederived", "facts_absorbed",
                "full_recomputes"):
        m["ivm." + key] = (sc["ivm." + key], "count")

    m["durability.append_ms_p50"] = (p50(durations["durability.append"]), "ms")
    m["durability.compact_ms_p50"] = (p50(durations["durability.compact"]), "ms")
    m["durability.compactions"] = (sc["durability.compactions"], "count")
    m["durability.bytes_written_per_fact_byte"] = (
        ratio(sc["durability.bytes_written"], sc["durability.fact_bytes"]),
        "ratio")
    m["durability.fact_bytes"] = (sc["durability.fact_bytes"], "bytes")

    selfs = self_ms(spans)
    layer_self = collections.defaultdict(float)
    for s in spans:
        layer_self[s["name"].split(".", 1)[0]] += selfs[s["id"]]
    requests = sc["replay.requests"]
    for layer in LAYERS:
        m[layer + ".self_ms_per_request"] = (ratio(layer_self[layer], requests),
                                             "ms")
    return m


def layer_counts(spans):
    counts = collections.Counter(s["name"].split(".", 1)[0] for s in spans)
    return {layer: counts.get(layer, 0) for layer in LAYERS}


def print_table(metrics, out):
    for name, (value, unit) in metrics.items():
        line = f"  {name:42s} {value:16.6g} {unit}"
        if name in BASES:
            base_value, base_unit = metrics[BASES[name]]
            line += f"   (base {BASES[name]} = {base_value:g} {base_unit})"
        print(line, file=out)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    metrics = per_layer_metrics(sys.argv[1], sys.argv[2])
    print_table(metrics, sys.stdout)
    print("\n  spans per layer:", file=sys.stdout)
    for layer, n in layer_counts(load_spans(sys.argv[1])).items():
        print(f"  {layer:12s} {n:8d} spans", file=sys.stdout)


if __name__ == "__main__":
    main()
