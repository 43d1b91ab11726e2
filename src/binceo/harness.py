"""CLI entry point: configuration, seeded experiment orchestration, trial
repetition, and CSV emission.

Subcommands: bounds, optimize, simulate, sweep.  Exit codes: 0 success,
2 configuration/validation or I/O error, 3 infeasible optimization.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
import zlib
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import bounds as bounds_mod
from .binmath import ChainParams, _check_int
from .bounds import InfeasibleRateError, TestChannelPair, bsc_bounds, mi_region_oracle
from .codec import encode_joint, encode_successive
from .decoders import (
    combined_prior,
    combined_syndrome,
    combined_syndrome_code,
    joint_sum_product_decode,
    reconstruct_soft,
    reconstruct_soft_successive,
    side_info_prior,
    sum_product_decode,
)
from .evaluate import (
    RunReport,
    csv_header,
    empirical_rates_joint,
    empirical_rates_successive,
    report_run,
    summary_row,
)
from .graphs import (
    DEFAULT_LDGM,
    DEFAULT_LDPC,
    DegreeDistribution,
    GraphConstructionError,
    anchor_sizes,
    build_anchor_compound,
    build_compound,
    compound_sizes,
    design_rates,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3

REFERENCE_TEST_CHANNEL_CASES = ((0.01, 0.01), (0.1, 0.1), (0.1, 0.3))


@dataclass
class ExperimentConfig:
    """One run's settings.  Each field is also a config-file key and a flag
    of simulate and sweep; see _key_parsers and _add_config_args."""

    p1: float = 0.15
    p2: float = 0.15
    d1: float = 0.1
    d2: float = 0.1
    n: int = 10_000
    scheme: str = "both"
    trials: int = 1
    base_seed: int = 0
    biasprop_sweeps: int = 25
    sp_iters: int = 100
    jsp_iters: int = 600
    # Quantizer rate margin (multiplicative, on 1 - h_b(d_i)).
    ldgm_margin: float = 0.05
    # Syndrome rate margin (multiplicative, on the per-link rate target
    # h_b(p*d) - h_b(d_i)) for the links that lean on side information:
    # successive link 1 and joint link 2.
    syndrome_margin: float = 0.22
    # Joint link 1 is an anchor: it sends its first k - round(anchor_gamma * n)
    # information bits as degree-1 checks; the remaining gamma ride on the
    # correlation.
    anchor_gamma: float = 0.025
    ldgm_fac_dist: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_LDGM.fac))
    ldpc_fac_dist: dict[int, float] = field(default_factory=lambda: dict(DEFAULT_LDPC.fac))
    output: str = "-"

    def validate(self) -> None:
        for name in ("n", "trials", "base_seed", "biasprop_sweeps", "sp_iters", "jsp_iters"):
            _check_int(getattr(self, name), name)
        for name in ("p1", "p2", "d1", "d2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise ValueError(f"{name} must be in [0, 0.5], got {v}")
        if self.n < 100:
            raise ValueError(f"n must be >= 100, got {self.n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.scheme not in ("joint", "successive", "both"):
            raise ValueError("scheme must be one of 'joint', 'successive', 'both', "
                             f"got {self.scheme!r}")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if self.ldgm_margin <= -1.0:
            raise ValueError("ldgm_margin must exceed -1")
        if self.syndrome_margin <= -1.0:
            raise ValueError("syndrome_margin must exceed -1")
        if not 0.0 <= self.anchor_gamma < 0.5:
            raise ValueError("anchor_gamma must be in [0, 0.5)")
        for name in ("biasprop_sweeps", "sp_iters", "jsp_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("ldgm_fac_dist", "ldpc_fac_dist"):
            try:
                DegreeDistribution(fac=dict(getattr(self, name)))
            except GraphConstructionError as exc:
                raise ValueError(f"{name}={getattr(self, name)}: {exc}") from None
        if self.output != "-":
            if not os.path.basename(self.output) or os.path.isdir(self.output):
                raise ValueError(f"output={self.output!r} is empty or a directory, not a file")
            if not os.path.isdir(os.path.dirname(self.output) or "."):
                raise ValueError(f"output={self.output!r}: its directory does not exist")
        self._validate_codes()

    def _validate_codes(self) -> None:
        """Each d_i must give code rates whose graphs the builders can
        realize for every link the configured schemes build.  The message
        names the link's d_i and the other keys its code's sizes come from."""
        g1, g2, s1, s2 = design_rates(self.p1, self.p2, self.d1, self.d2,
                                      self.ldgm_margin, self.syndrome_margin)
        ldgm, ldpc = self.ldgm_dist(), self.ldpc_dist()
        checks = []
        if self.scheme != "successive":
            checks.append(("d1", ("anchor_gamma",), anchor_sizes,
                           (g1, self.anchor_gamma, ldgm)))
        if self.scheme != "joint":
            checks.append(("d1", ("syndrome_margin",), compound_sizes, (g1, s1, ldgm, ldpc)))
        # Successive link 2 sends its information bits: its code has no checks.
        if self.scheme == "successive":
            checks.append(("d2", (), compound_sizes, (g2, 0.0, ldgm, ldpc)))
        else:
            checks.append(("d2", ("syndrome_margin",), compound_sizes, (g2, s2, ldgm, ldpc)))
        for key, others, sizes, args in checks:
            try:
                sizes(self.n, *args)
            except GraphConstructionError as exc:
                keys = " and ".join(f"{k}={getattr(self, k)}"
                                    for k in ("ldgm_margin", *others))
                raise ValueError(f"{key}={getattr(self, key)} with {keys} gives a link "
                                 f"code that cannot be built: {exc}") from None

    def ldgm_dist(self) -> DegreeDistribution:
        return DegreeDistribution(fac=dict(self.ldgm_fac_dist))

    def ldpc_dist(self) -> DegreeDistribution:
        return DegreeDistribution(fac=dict(self.ldpc_fac_dist))

    def chain(self) -> ChainParams:
        return ChainParams(d1=self.d1, p1=self.p1, p2=self.p2, d2=self.d2)


def component_seed(base_seed: int, tag: str, trial: int) -> int:
    """Deterministic per-component seed; distinct streams per (tag, trial)."""
    ss = np.random.SeedSequence([base_seed, trial, zlib.crc32(tag.encode())])
    return int(ss.generate_state(1)[0])


def parse_degree_dist(text: str) -> dict[int, float]:
    """Parse '1:0.1,5:0.4,8:0.5' into {1: 0.1, 5: 0.4, 8: 0.5}."""
    out: dict[int, float] = {}
    for item in text.split(","):
        try:
            deg, frac = item.split(":")
            deg, frac = int(deg), float(frac)
        except ValueError:
            raise ValueError(
                f"expected comma-separated degree:fraction pairs, got {text!r}") from None
        if deg in out:
            raise ValueError(f"degree {deg} is given twice in {text!r}")
        out[deg] = frac
    return out


def load_config_file(path: str) -> dict[str, str]:
    """Flat 'key = value' lines, each key at most once; '#' starts a comment."""
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in line_of:
                raise ValueError(f"{path}:{lineno}: key {key!r} is already set on line "
                                 f"{line_of[key]}")
            out[key], line_of[key] = value, lineno
    return out


def _key_parsers() -> dict[str, Callable[[str], object]]:
    """Each ExperimentConfig key's parser, shared by its flag and its
    config-file line: its default's type, or parse_degree_dist for the
    dict-valued degree distributions."""
    return {key: parse_degree_dist if isinstance(default, dict) else type(default)
            for key, default in vars(ExperimentConfig()).items()}


def config_from_sources(file_values: dict[str, str], args: argparse.Namespace) -> ExperimentConfig:
    """The defaults, overridden by the config file's values and then by every
    flag given (a flag left at None is not given); not validated."""
    parsers = _key_parsers()
    values = {}
    for key, text in file_values.items():
        if key not in parsers:
            raise ValueError(f"unknown config key {key!r}")
        try:
            values[key] = parsers[key](text)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    for key in parsers:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    return ExperimentConfig(**values)


def _args_config(args: argparse.Namespace) -> ExperimentConfig:
    return config_from_sources(load_config_file(args.config) if args.config else {}, args)


# ----------------------------------------------------------------------
# Simulation pipeline


def _trial_front(cfg: ExperimentConfig, trial: int):
    """What both schemes' trials start from: the source x, the observations
    y1 and y2, the chain, the design test channels and design_rates'
    (g1, g2, s1, s2).  Matched trials draw the same x, y1 and y2."""
    rng_x = np.random.default_rng(component_seed(cfg.base_seed, "source", trial))
    rng_n1 = np.random.default_rng(component_seed(cfg.base_seed, "noise1", trial))
    rng_n2 = np.random.default_rng(component_seed(cfg.base_seed, "noise2", trial))
    x = rng_x.integers(0, 2, size=cfg.n, dtype=np.uint8)
    y1 = x ^ (rng_n1.random(cfg.n) < cfg.p1).astype(np.uint8)
    y2 = x ^ (rng_n2.random(cfg.n) < cfg.p2).astype(np.uint8)
    return x, y1, y2, cfg.chain(), TestChannelPair(cfg.d1, cfg.d2), design_rates(
        cfg.p1, cfg.p2, cfg.d1, cfg.d2, cfg.ldgm_margin, cfg.syndrome_margin)


def run_joint_trial(cfg: ExperimentConfig, trial: int) -> RunReport:
    x, y1, y2, chain, tc, (g1, g2, _, s2_rate) = _trial_front(cfg, trial)
    cc1 = build_anchor_compound(
        cfg.n, g1, cfg.anchor_gamma, cfg.ldgm_dist(),
        seed=component_seed(cfg.base_seed, "anchor-code1", trial))
    # Same seed tag as the successive scheme's link 2 so matched trials
    # quantize with identical codes where the schemes overlap.
    cc2 = build_compound(cfg.n, g2, s2_rate, cfg.ldgm_dist(), cfg.ldpc_dist(),
                         seed=component_seed(cfg.base_seed, "code2", trial))
    syn1, syn2, q1, q2 = encode_joint(
        cc1, cc2, y1, y2, tc,
        seed=component_seed(cfg.base_seed, "quant", trial),
        biasprop_sweeps=cfg.biasprop_sweeps,
    )
    comb1 = combined_syndrome_code(cc1)
    comb2 = combined_syndrome_code(cc2)
    s1, s2 = combined_syndrome(cc1, syn1), combined_syndrome(cc2, syn2)
    # From here on the codes are read only for their check counts.
    m1, m2 = cc1.ldpc.m, cc2.ldpc.m
    del cc1, cc2
    res1, res2 = joint_sum_product_decode(comb1, comb2, s1, s2, q=chain.u1_to_u2,
                                          max_iters=cfg.jsp_iters)
    recons = reconstruct_soft(res1.u_hat, res2.u_hat, chain)
    rates = empirical_rates_joint(m1, m2, cfg.n)
    report = report_run(
        "joint", trial, x, recons, rates, tc, cfg.p1, cfg.p2,
        res1.u_hat, q1.quantized, res2.u_hat, q2.quantized,
        seeds=f"base={cfg.base_seed};trial={trial}", decoded={1: res1, 2: res2},
    )
    _warn_failures(report)
    return report


def run_successive_trial(cfg: ExperimentConfig, trial: int) -> RunReport:
    x, y1, y2, chain, tc, (g1, g2, s1_rate, _) = _trial_front(cfg, trial)
    cc1 = build_compound(cfg.n, g1, s1_rate, cfg.ldgm_dist(), cfg.ldpc_dist(),
                         seed=component_seed(cfg.base_seed, "succ-code1", trial))
    # Link 2 conveys its information bits directly, so its code has no
    # checks and its syndrome is empty; its LDGM is the joint scheme's
    # link-2 quantizer, so matched trials share u2 exactly.
    cc2 = build_compound(cfg.n, g2, 0.0, cfg.ldgm_dist(), cfg.ldpc_dist(),
                         seed=component_seed(cfg.base_seed, "code2", trial))
    syn1, _, q1, q2 = encode_successive(
        cc1, cc2, y1, y2, tc,
        seed=component_seed(cfg.base_seed, "quant", trial),
        biasprop_sweeps=cfg.biasprop_sweeps,
    )
    # From here on link 2's code is read only for its k.
    k2 = cc2.ldgm.k
    del cc2
    # The receiver re-encodes q2.info_bits; the quantizer already has, so
    # q2.quantized is that bit-exact reconstruction of u2.
    u2 = q2.quantized
    # Link 1's mixed outputs are leaves here: decode the information bits
    # with the leaves absorbed, then re-encode u1.  The decoder graph's rows
    # past link 1's m1 checks are its LDGM's mixed rows, so it re-encodes
    # them, and link 1's code is read no more.
    comb1 = combined_syndrome_code(cc1, absorb_leaves=True)
    info_prior, leaf_scale = combined_prior(cc1, side_info_prior(u2, chain.u1_to_u2))
    m1 = cc1.ldpc.m
    del cc1
    res = sum_product_decode(comb1, syn1, info_prior, max_iters=cfg.sp_iters,
                             leaf_scale=leaf_scale)
    u1_hat = np.concatenate([res.u_hat, comb1.graph.factor_parity(res.u_hat)[m1:]])
    recons = reconstruct_soft_successive(u1_hat, u2, chain)
    rates = empirical_rates_successive(m1, k2, cfg.n)
    report = report_run(
        "successive", trial, x, recons, rates, tc, cfg.p1, cfg.p2,
        u1_hat, q1.quantized, u2, q2.quantized,
        seeds=f"base={cfg.base_seed};trial={trial}", decoded={1: res},
    )
    _warn_failures(report)
    return report


def _warn_failures(report: RunReport) -> None:
    """Warn about each decoded link whose syndrome is unsatisfied and about
    a log-loss below the bound; the trial's row is written as usual."""
    where = f"{report.scheme} trial {report.trial} ({report.seeds})"
    for link, ok in report.syndrome_satisfied.items():
        if not ok:
            warnings.warn(
                f"{where}: link {link} decode left its syndrome unsatisfied after "
                f"{report.iterations_used[link]} iterations", RuntimeWarning, stacklevel=3)
    if report.below_bound_flag:
        warnings.warn(
            f"{where}: log-loss {report.empirical_log_loss!r} is below the bound "
            f"{report.theoretical.distortion!r}", RuntimeWarning, stacklevel=3)


def _scheme_reports(cfg: ExperimentConfig):
    """Yield (scheme, trial reports) for each configured scheme in CSV order."""
    schemes = ("joint", "successive") if cfg.scheme == "both" else (cfg.scheme,)
    for scheme in schemes:
        # Looked up at call time, so a wrapper installed on the module
        # attribute (a tracer, a profiler) sees every trial.
        runner = run_joint_trial if scheme == "joint" else run_successive_trial
        yield scheme, [runner(cfg, t) for t in range(cfg.trials)]


def simulate(cfg: ExperimentConfig) -> str:
    """Run the configured trials and return the full CSV text."""
    lines = [csv_header()]
    for scheme, reports in _scheme_reports(cfg):
        lines.extend(r.csv_row() for r in reports)
        lines.append(summary_row(scheme, reports))
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Subcommands


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w") as fh:
            fh.write(text)


def cmd_bounds(args: argparse.Namespace) -> int:
    tc = TestChannelPair(args.d1, args.d2)
    closed = bsc_bounds(args.p1, args.p2, tc)
    oracle = mi_region_oracle(args.p1, args.p2, tc)
    print(f"{'quantity':<12}{'closed-form':>14}{'oracle':>14}")
    for name in ("r1", "r2", "sum_rate", "distortion"):
        print(f"{name:<12}{getattr(closed, name):>14.9f}{getattr(oracle, name):>14.9f}")
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    res = bounds_mod.optimize_test_channels(args.p1, args.p2, args.target_rate)
    print(f"d1* = {res.pair.d1:.6f}")
    print(f"d2* = {res.pair.d2:.6f}")
    print(f"distortion = {res.distortion:.9f}")
    print(f"sum_rate = {res.achieved_sum_rate:.9f}")
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _args_config(args)
    cfg.validate()
    _emit(simulate(cfg), cfg.output)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        grid = [float(r) for r in args.rates.split(",")] if args.rates else []
    except ValueError:
        raise ValueError(
            f"--rates: expected comma-separated numbers, got {args.rates!r}") from None
    cfg = _args_config(args)
    cfg.validate()
    lines = ["# schema=binceo-sweep-v1", "series,sum_rate,distortion,d1,d2"]
    for rate in grid:
        res = bounds_mod.optimize_test_channels(cfg.p1, cfg.p2, rate)
        lines.append(
            f"bound,{rate!r},{res.distortion!r},{res.pair.d1!r},{res.pair.d2!r}")
    if args.reference_cases:
        for d1, d2 in REFERENCE_TEST_CHANNEL_CASES:
            pt = bsc_bounds(cfg.p1, cfg.p2, TestChannelPair(d1, d2))
            lines.append(f"case,{pt.sum_rate!r},{pt.distortion!r},{d1!r},{d2!r}")
    if args.empirical:
        for scheme, reports in _scheme_reports(cfg):
            mean_rate = float(np.mean([r.empirical_sum_rate for r in reports]))
            mean_loss = float(np.mean([r.empirical_log_loss for r in reports]))
            lines.append(
                f"empirical-{scheme},{mean_rate!r},{mean_loss!r},{cfg.d1!r},{cfg.d2!r}"
            )
    _emit("\n".join(lines) + "\n", cfg.output)
    return EXIT_OK


def _add_channel_args(p: argparse.ArgumentParser) -> None:
    for key in ("p1", "p2"):
        p.add_argument("--" + key, type=float, default=getattr(ExperimentConfig, key))


def _flag_type(parse: Callable[[str], object]) -> Callable[[str], object]:
    """parse as an argparse type: its ValueError's reason is the flag's error."""
    def flag_type(text: str) -> object:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return flag_type


def _add_config_args(p: argparse.ArgumentParser) -> None:
    """--config and one flag per ExperimentConfig key, each None when not given."""
    p.add_argument("--config", help="flat key = value config file")
    for key, parse in _key_parsers().items():
        flag = "--seed" if key == "base_seed" else "--" + key.replace("_", "-")
        p.add_argument(flag, dest=key, type=_flag_type(parse), default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binceo",
        description="Two-link binary CEO problem simulator (log-loss distortion).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="closed-form and oracle region point")
    _add_channel_args(p)
    p.add_argument("--d1", type=float, required=True)
    p.add_argument("--d2", type=float, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("optimize", help="min distortion at a fixed sum-rate")
    _add_channel_args(p)
    p.add_argument("--target-rate", type=float, required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="run coding-scheme trials, emit CSV")
    _add_config_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="bound curve CSV, optional empirical points")
    p.add_argument("--rates", help="comma-separated sum-rate grid")
    p.add_argument("--reference-cases", action="store_true",
                   help="annotate the reference test-channel cases")
    p.add_argument("--empirical", action="store_true",
                   help="append simulated points for the configured setting")
    _add_config_args(p)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleRateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, GraphConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
