"""Which binceo functions are wrapped, and the per-layer metrics derived
from their spans.

Span names are ``<layer>.<function>``; the layer is the package module the
function belongs to (``msgpass`` stands for ``binceo._msgpass``, because a
metric name must start with a letter).  ``oracles`` is off the simulation
path and is not wrapped.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, field

from reference import NOMINAL_S
from tracing import TRIAL, Span, Target, self_times

JOINT_DECODE = "decoders.joint_sum_product_decode"
SUCC_DECODE = "decoders.sum_product_decode"
DECODES = (JOINT_DECODE, SUCC_DECODE)
BUILDS = ("graphs.build_compound", "graphs.build_anchor_compound")


def _code_sizes(args, kwargs, cc) -> dict:
    return {"m": cc.ldpc.m, "k": cc.ldgm.k, "n": cc.n}


def _code_edges(cc) -> dict:
    return {"edges": cc.ldgm.graph.n_edges + cc.ldpc.graph.n_edges}


def _joint_decode_facts(args, kwargs, res) -> dict:
    return {"ok": [res[0].syndrome_satisfied, res[1].syndrome_satisfied],
            "iterations": res[0].iterations_used}


def _decode_facts(args, kwargs, res) -> dict:
    return {"ok": [res.syndrome_satisfied], "iterations": res.iterations_used}


def _quantize_facts(args, kwargs, res) -> dict:
    target_d = args[2] if len(args) > 2 else kwargs["target_d"]
    return {"converged": res.converged,
            "distortion_excess": res.empirical_distortion - target_d}


def _check_facts(args, kwargs, out) -> dict:
    # Computed bytes: the kernel's inputs and output, from array sizes.
    m_in, edge_fac = args[0], args[1]
    scale = kwargs.get("factor_scale", args[3] if len(args) > 3 else None)
    nbytes = m_in.nbytes + edge_fac.nbytes + out.nbytes
    if scale is not None:
        nbytes += scale.nbytes
    return {"edges": len(m_in), "bytes": nbytes}


def _varsum_facts(args, kwargs, out) -> dict:
    return {"edges": len(args[0])}


def _report(args, kwargs, report) -> dict:
    return {"report": report}


def _builds(count_edges: bool) -> list[Target]:
    # Counting edges is O(n) and holds each code until its trial ends, so
    # only the traced run does it; the untraced run's memory stays the
    # program's own.
    late = _code_edges if count_edges else None
    return [Target("binceo.harness", "build_compound", BUILDS[0], facts=_code_sizes,
                   late_facts=late),
            Target("binceo.harness", "build_anchor_compound", BUILDS[1],
                   facts=_code_sizes, late_facts=late)]


# Wrapped in both runs: one call per trial or per decode.  The untraced run
# reads trial times, reports, code sizes and decode outcomes from these alone.
_PER_TRIAL = [
    Target("binceo.harness", "run_joint_trial", TRIAL, facts=_report),
    Target("binceo.harness", "run_successive_trial", TRIAL, facts=_report),
    Target("binceo.harness", "joint_sum_product_decode", JOINT_DECODE,
           facts=_joint_decode_facts),
    Target("binceo.harness", "sum_product_decode", SUCC_DECODE, facts=_decode_facts),
]
LIGHT_TARGETS = _PER_TRIAL + _builds(count_edges=False)

# Added in the traced run, each at the module whose code calls it.
TRACE_TARGETS = _PER_TRIAL + _builds(count_edges=True) + [
    Target("binceo.harness", "encode_joint", "codec.encode_joint"),
    Target("binceo.harness", "encode_successive", "codec.encode_successive"),
    Target("binceo.harness", "combined_syndrome_code", "decoders.combined_syndrome_code"),
    Target("binceo.harness", "combined_syndrome", "decoders.combined_syndrome"),
    Target("binceo.harness", "combined_prior", "decoders.combined_prior"),
    Target("binceo.harness", "side_info_prior", "decoders.side_info_prior"),
    Target("binceo.harness", "reconstruct_soft", "decoders.reconstruct_soft"),
    Target("binceo.harness", "reconstruct_soft_successive",
           "decoders.reconstruct_soft_successive"),
    Target("binceo.harness", "empirical_rates_joint", "evaluate.empirical_rates_joint"),
    Target("binceo.harness", "empirical_rates_successive",
           "evaluate.empirical_rates_successive"),
    Target("binceo.harness", "report_run", "evaluate.report_run"),
    Target("binceo.harness", "summary_row", "evaluate.summary_row"),
    Target("binceo.harness", "csv_header", "evaluate.csv_header"),
    Target("binceo.graphs", "sample_graph", "graphs.sample_graph",
           late_facts=lambda g: {"edges": g.n_edges}),
    Target("binceo.graphs", "SparseBipartiteGraph.factor_parity", "graphs.factor_parity"),
    Target("binceo.graphs", "binary_entropy", "binmath.binary_entropy"),
    Target("binceo.codec", "bias_propagation_quantize", "codec.bias_propagation_quantize",
           facts=_quantize_facts),
    Target("binceo.codec", "syndrome_generate", "codec.syndrome_generate"),
    Target("binceo.codec", "check_messages", "msgpass.check_messages", facts=_check_facts),
    Target("binceo.codec", "variable_sums", "msgpass.variable_sums", facts=_varsum_facts),
    Target("binceo.decoders", "check_messages", "msgpass.check_messages",
           facts=_check_facts),
    Target("binceo.decoders", "variable_sums", "msgpass.variable_sums",
           facts=_varsum_facts),
    Target("binceo.decoders", "reconstruct_soft", "decoders.reconstruct_soft"),
    Target("binceo.decoders", "chain_posterior_table", "binmath.chain_posterior_table"),
    Target("binceo.evaluate", "bsc_bounds", "bounds.bsc_bounds"),
    Target("binceo.evaluate", "average_log_loss", "binmath.average_log_loss"),
]


@dataclass
class Trial:
    """What one trial span and its descendants recorded."""

    span: Span
    report: object
    ok: list[bool] = field(default_factory=list)  # one entry per decoded link
    codes: list[dict] = field(default_factory=list)  # build results, call order
    link2_decoded: bool = False

    @property
    def ok_u1(self) -> bool:
        return self.ok[0]

    @property
    def ok_u2(self) -> bool:
        # Successive link 2 sends its information bits; the receiver
        # re-encodes u2 exactly, so there is no link-2 decode to fail.
        return self.ok[1] if self.link2_decoded else True

    @property
    def failed(self) -> bool:
        return not all(self.ok)


def trials(spans: list[Span]) -> list[Trial]:
    out: dict[int, Trial] = {}
    for s in spans:
        if s.name == TRIAL:
            out[s.trial] = Trial(s, s.facts["report"])
    for s in spans:
        if s.trial is None:
            continue
        if s.name in DECODES:
            out[s.trial].ok.extend(s.facts["ok"])
            out[s.trial].link2_decoded = s.name == JOINT_DECODE
        elif s.name in BUILDS:
            out[s.trial].codes.append(s.facts)
    return [out[k] for k in sorted(out)]


def failed_share(ts: list[Trial]) -> float:
    """Trials in which any decoded link missed its syndrome, over trials run."""
    return sum(t.failed for t in ts) / len(ts)


def link_ok_share(ts: list[Trial]) -> float:
    """Decoded links that met their syndrome, over decoded links."""
    oks = [ok for t in ts for ok in t.ok]
    return sum(oks) / len(oks)


def ns_per_edge(seconds: float, edges: int) -> float:
    return 1e9 * seconds / edges if edges else 0.0


def trial_times(spans: list[Span], scaled: bool = False) -> list[float]:
    """Wall time of each trial, or with ``scaled`` its time at the nominal
    host speed, from the reference kernel timed before it (reference.py)."""
    return [s.duration * (NOMINAL_S / s.facts["ref_s"] if scaled else 1.0)
            for s in spans if s.name == TRIAL]


def layer_metrics(spans: list[Span], untraced_p50: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced run; times and counts are per trial.

    ``untraced_p50`` is the scaled median trial time of the same calls run
    untraced."""
    ts = trials(spans)
    n = len(ts)
    selfs = self_times(spans)
    incl: dict[str, float] = defaultdict(float)
    excl: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    facts: dict[str, list[dict]] = defaultdict(list)
    layer_incl: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    varsum_in_decode = 0
    for s, own in zip(spans, selfs):
        if s.trial is None:
            continue
        incl[s.name] += s.duration
        excl[s.name] += own
        calls[s.name] += 1
        facts[s.name].append(s.facts)
        layer_self[s.layer] += own
        # Inclusive layer time counts only the outermost span of a layer.
        parent = spans[s.parent] if s.parent is not None else None
        if parent is None or parent.layer != s.layer:
            layer_incl[s.layer] += s.duration
        if s.name == "msgpass.variable_sums" and parent is not None \
                and parent.name in DECODES:
            varsum_in_decode += 1

    def total(name: str, key: str) -> float:
        return sum(f[key] for f in facts[name])

    build_s = sum(incl[b] for b in BUILDS)
    edges_built = sum(total(b, "edges") for b in BUILDS)
    quant = facts["codec.bias_propagation_quantize"]
    decode_facts = facts[JOINT_DECODE] + facts[SUCC_DECODE]
    decode_iters = sum(f["iterations"] for f in decode_facts)
    check_edges = total("msgpass.check_messages", "edges")
    varsum_edges = total("msgpass.variable_sums", "edges")
    reports = [t.report for t in ts]
    traced_p50 = statistics.median(trial_times(spans, scaled=True))
    return {
        "harness.self_s": (excl[TRIAL] / n, "s"),
        "harness.trace_overhead_frac": ((traced_p50 - untraced_p50) / untraced_p50, "ratio"),
        "graphs.build_s": (build_s / n, "s"),
        "graphs.sample_graph_s": (incl["graphs.sample_graph"] / n, "s"),
        "graphs.sample_graph_calls": (calls["graphs.sample_graph"] / n, "count"),
        "graphs.edges_built": (edges_built / n, "edges"),
        "graphs.ns_per_edge_built": (ns_per_edge(build_s, edges_built), "ns/edge"),
        "graphs.factor_parity_s": (incl["graphs.factor_parity"] / n, "s"),
        "graphs.factor_parity_calls": (calls["graphs.factor_parity"] / n, "count"),
        "codec.quantize_s": (excl["codec.bias_propagation_quantize"] / n, "s"),
        "codec.quantize_calls": (len(quant) / n, "count"),
        "codec.unconverged_frac": (sum(not f["converged"] for f in quant) / len(quant),
                                   "ratio"),
        "codec.distortion_excess_mean": (
            statistics.fmean(f["distortion_excess"] for f in quant), "ratio"),
        "decoders.decgraph_s": (incl["decoders.combined_syndrome_code"] / n, "s"),
        "decoders.decode_s": ((excl[JOINT_DECODE] + excl[SUCC_DECODE]) / n, "s"),
        "decoders.iterations_mean": (decode_iters / len(decode_facts), "count"),
        "decoders.syndrome_ok_frac_u1": (sum(t.ok_u1 for t in ts) / n, "ratio"),
        "decoders.syndrome_ok_frac_u2": (sum(t.ok_u2 for t in ts) / n, "ratio"),
        "decoders.failed_trial_frac": (failed_share(ts), "ratio"),
        "decoders.ber_u1_mean": (statistics.fmean(r.ber_u1 for r in reports), "ratio"),
        "decoders.ber_u2_mean": (statistics.fmean(r.ber_u2 for r in reports), "ratio"),
        "msgpass.check_messages_s": (incl["msgpass.check_messages"] / n, "s"),
        "msgpass.check_messages_calls": (calls["msgpass.check_messages"] / n, "count"),
        "msgpass.check_edges": (check_edges / n, "edges"),
        "msgpass.check_ns_per_edge": (
            ns_per_edge(incl["msgpass.check_messages"], check_edges), "ns/edge"),
        "msgpass.check_bytes_computed": (total("msgpass.check_messages", "bytes") / n,
                                         "bytes"),
        "msgpass.variable_sums_s": (incl["msgpass.variable_sums"] / n, "s"),
        "msgpass.variable_sums_calls": (calls["msgpass.variable_sums"] / n, "count"),
        "msgpass.variable_sums_calls_per_iter": (varsum_in_decode / decode_iters, "count"),
        "msgpass.varsum_ns_per_edge": (
            ns_per_edge(incl["msgpass.variable_sums"], varsum_edges), "ns/edge"),
        "evaluate.report_s": (layer_self["evaluate"] / n, "s"),
        "bounds.s": (layer_incl["bounds"] / n, "s"),
        "binmath.s": (layer_incl["binmath"] / n, "s"),
    }
