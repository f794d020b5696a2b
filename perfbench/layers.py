"""Per-layer metrics from the spans that tracer.py writes.

A layer's self time is the sum, over its spans, of each span's duration
minus the time covered by its child spans.  Every span belongs to exactly
one layer below (unlisted names fall into `other`), so the self times of a
command add up to its `cli` span.
"""

from __future__ import annotations

import statistics

# span name -> layer
LAYER_OF = {
    "combinatorics.alpha_sequences": "combinatorics.alpha_sequences",
    "combinatorics.set_partitions": "combinatorics.set_partitions",
    "combinatorics.set_partitions_cached": "combinatorics.set_partitions",
    "permgroup.elements": "permgroup.elements",
    "permgroup.cycle_count_histogram": "permgroup.histogram",
    "permgroup.cycle_type_histogram": "permgroup.histogram",
    "permgroup.conjugacy_classes_sn": "permgroup.conjugacy_classes_sn",
    "strata.depth": "strata.depth",
    "strata.all_subgroups": "strata.all_subgroups",
    "strata.group_length": "strata.group_length",
    "invariants.invariant_poincare": "invariants.invariant_poincare",
    "invariants.graded_trace_cycle": "invariants.invariant_poincare",
    "graphconf.farber_chi_f2": "graphconf.farber",
    "graphconf.chi_graph": "graphconf.farber",
    "graphconf.discretized_chi_f2": "graphconf.discretized",
    "graphconf.subdivide": "graphconf.discretized",
    "cli": "cli",
}
FORMULAS = ("chi_sp", "chi_bd", "chi_fd", "chi_b_upper", "chi_b2", "chi_f2",
            "chi_gamma_product", "chi_f_config")
ORACLES = ("oracle_bd_burnside", "oracle_fd_setpartitions", "stratification_sum_bd")
LAYER_OF.update({f"eulerchar.{f}": "eulerchar.formula" for f in FORMULAS})
LAYER_OF.update({f"eulerchar.{f}": "eulerchar.oracle" for f in ORACLES})
ORACLE_SPANS = {f"eulerchar.{f}" for f in ORACLES}
PREFIX_LAYERS = {"fundgroup.": "fundgroup", "spaces.": "spaces.parse_space"}

# verify check function -> check name, as in selfcheck.CHECKS
CHECKS = {
    "check_macdonald_burnside": "macdonald-burnside",
    "check_bd_three_way": "bd-three-way",
    "check_fd_corrected": "fd-corrected",
    "check_invariant_poincare": "invariant-poincare",
    "check_sphere_fixtures": "sphere-fixtures",
    "check_complement_product": "complement-product",
    "check_graph_configuration": "graph-configuration",
    "check_depth_length": "depth-length",
    "check_pi1_descriptors": "pi1-descriptors",
    "check_partition_infrastructure": "partition-infrastructure",
}

GUARDS = {
    "set_partitions": "set_partitions",
    "oracle_fd_setpartitions": "oracle_fd_setpartitions",
    "oracle_bd_burnside": "oracle_bd_burnside",
    "conjugacy_classes_sn": "conjugacy_classes_sn",
    "group enumeration": "group_enumeration",
    "stratification depth": "stratification_depth",
    "subgroup enumeration": "subgroup_enumeration",
    "transitivity degree": "transitivity_degree",
    "tuple orbit enumeration": "tuple_orbit_enumeration",
    "stabilizer class poset": "stabilizer_class_poset",
}

SELF_LAYERS = (
    "combinatorics.alpha_sequences", "eulerchar.formula", "eulerchar.oracle",
    "combinatorics.set_partitions", "permgroup.elements", "permgroup.histogram",
    "permgroup.conjugacy_classes_sn", "strata.depth", "strata.all_subgroups",
    "strata.group_length", "invariants.invariant_poincare", "fundgroup",
    "graphconf.farber", "graphconf.discretized", "spaces.parse_space", "cli", "other",
)
COUNTS = (
    "combinatorics.alpha_sequences.vectors",
    "algebra.falling_factorial.calls",
    "algebra.binomial_gen.calls",
    "permgroup.elements.enumerated",
    "strata.depth.pattern_tests",
    "strata.all_subgroups.subgroups",
    "algebra.GradedPolynomial.mul.calls",
    "graphconf.cell_pairs",
)
# Counts worked out from a call's arguments rather than counted.
COMPUTED = {
    "strata.depth.pattern_tests": "computed: Bell(degree) * |G| per depth call",
    "graphconf.cell_pairs": "computed: (vertices + edges)^2 of the subdivided graph",
}

# name -> unit, in the order printed
PER_LAYER = {f"{layer}.self_s": "s" for layer in SELF_LAYERS}
PER_LAYER.update({name: "count" for name in COUNTS})
PER_LAYER.update({
    "combinatorics.set_partitions.yielded": "count",
    "combinatorics.set_partitions_cached.hit_ratio": "ratio",
    "eulerchar.oracle_share": "ratio",
    "cli.command_s": "s",
    "cli.import_s": "s",
})
PER_LAYER.update({f"selfcheck.{name}.elapsed_s": "s" for name in CHECKS.values()})
PER_LAYER.update({f"guard.{slug}.headroom": "ratio" for slug in GUARDS.values()})
PER_LAYER["tracing.overhead_s"] = "s"


def layer_of(span_name: str) -> str:
    if span_name in LAYER_OF:
        return LAYER_OF[span_name]
    for prefix, layer in PREFIX_LAYERS.items():
        if span_name.startswith(prefix):
            return layer
    return "other"


def aggregate(traces: list[dict]) -> dict[str, float]:
    """Per-layer totals over the traced commands of one pass.

    `traces` holds one tracer.py record per command.  Returns every
    PER_LAYER name except tracing.overhead_s, which needs the untraced run.
    """
    out = {name: 0.0 for name in PER_LAYER if name != "tracing.overhead_s"}
    calls = hits = 0
    oracle_s = 0.0
    for trace in traces:
        out["cli.import_s"] += trace["import_s"]
        counts = trace["counts"]
        for name in COUNTS:
            out[name] += counts.get(name, 0)
        calls += counts.get("combinatorics.set_partitions_cached.calls", 0)
        hits += counts.get("combinatorics.set_partitions_cached.hits", 0)
        for what, ratio in trace["guards"].items():
            name = f"guard.{GUARDS.get(what, what.replace(' ', '_'))}.headroom"
            if name in out:
                out[name] = max(out[name], ratio)
        spans = trace["spans"]
        names = {span[0]: span[2] for span in spans}
        for span_id, parent, name, start, end, self_s, items in spans:
            out[f"{layer_of(name)}.self_s"] += self_s
            if name == "cli":
                out["cli.command_s"] += end - start
            elif name == "combinatorics.set_partitions":
                out["combinatorics.set_partitions.yielded"] += items
            elif name in ORACLE_SPANS and names.get(parent) not in ORACLE_SPANS:
                oracle_s += end - start
            elif name.startswith("selfcheck.check_"):
                check = CHECKS.get(name.partition(".")[2])
                if check:
                    out[f"selfcheck.{check}.elapsed_s"] += end - start
    out["combinatorics.set_partitions_cached.hit_ratio"] = hits / calls if calls else 0.0
    out["eulerchar.oracle_share"] = (
        oracle_s / out["cli.command_s"] if out["cli.command_s"] else 0.0)
    return out


def median_of(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
