import argparse
import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import binceo
from binceo import decoders, graphs, harness
from binceo.bounds import TestChannelPair, bsc_bounds, optimize_test_channels
from binceo.evaluate import CSV_COLUMNS
from binceo.harness import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    ExperimentConfig,
    build_parser,
    component_seed,
    config_from_sources,
    load_config_file,
    main,
    parse_degree_dist,
    run_joint_trial,
    run_successive_trial,
    simulate,
)


def test_component_seed_deterministic_and_distinct():
    a = component_seed(7, "source", 0)
    assert a == component_seed(7, "source", 0)
    assert a != component_seed(7, "source", 1)
    assert a != component_seed(7, "noise1", 0)
    assert a != component_seed(8, "source", 0)


def test_parse_degree_dist():
    assert parse_degree_dist("1:0.1,5:0.4,8:0.5") == {1: 0.1, 5: 0.4, 8: 0.5}
    with pytest.raises(ValueError):
        parse_degree_dist("nonsense")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n = 2000  # block length\ntrials=2\n\n# comment only\nscheme = joint\n")
    assert load_config_file(str(path)) == {"n": "2000", "trials": "2", "scheme": "joint"}


def test_load_config_file_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\n")
    with pytest.raises(ValueError):
        load_config_file(str(path))


def test_config_from_sources_precedence():
    ns = argparse.Namespace(n=4000, trials=None)
    cfg = config_from_sources({"n": "2000", "trials": "3"}, ns)
    assert cfg.n == 4000  # CLI overrides file
    assert cfg.trials == 3  # file overrides default


def test_config_file_values_take_their_field_types(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("sp_iters = 7\nsyndrome_margin = 0.3\nldpc_fac_dist = 2:0.5,3:0.5\n")
    cfg = config_from_sources(load_config_file(str(path)), argparse.Namespace())
    assert cfg.sp_iters == 7 and isinstance(cfg.sp_iters, int)
    assert cfg.syndrome_margin == 0.3
    assert cfg.ldpc_fac_dist == {2: 0.5, 3: 0.5}


# A non-default value of every ExperimentConfig key, as the key parses it.
NON_DEFAULT_VALUES = {
    "p1": 0.2, "p2": 0.05, "d1": 0.12, "d2": 0.08, "n": 3000, "scheme": "joint",
    "trials": 4, "base_seed": 17, "biasprop_sweeps": 9, "sp_iters": 50, "jsp_iters": 7,
    "ldgm_margin": 0.5, "syndrome_margin": 0.3, "anchor_gamma": 0.01,
    "ldgm_fac_dist": {3: 0.5, 5: 0.5}, "ldpc_fac_dist": {2: 0.75, 4: 0.25},
    "output": "out.csv",
}


def _as_text(value) -> str:
    if isinstance(value, dict):
        return ",".join(f"{d}:{f}" for d, f in value.items())
    return str(value)


def test_every_key_reaches_the_config_as_flag_and_file_line():
    assert set(NON_DEFAULT_VALUES) == set(vars(ExperimentConfig()))
    for key, value in NON_DEFAULT_VALUES.items():
        assert getattr(ExperimentConfig(), key) != value
        text = _as_text(value)
        flag = "--seed" if key == "base_seed" else "--" + key.replace("_", "-")
        for command in ("simulate", "sweep"):
            args = build_parser().parse_args([command, flag, text])
            from_flag = getattr(config_from_sources({}, args), key)
            # repr tells 3000 from 3000.0, in a dict's keys too.
            assert (type(from_flag), repr(from_flag)) == (type(value), repr(value)), flag
        from_file = getattr(config_from_sources({key: text}, argparse.Namespace()), key)
        assert (type(from_file), repr(from_file)) == (type(value), repr(value)), key


def test_config_from_sources_unknown_key():
    with pytest.raises(ValueError):
        config_from_sources({"bogus": "1"}, argparse.Namespace())


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(p1=0.7).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(n=10).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(scheme="other").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(anchor_gamma=0.5).validate()
    # An integer key must hold an integer (not a bool); its message names the key.
    for key, value in (("n", 2000.0), ("trials", 1.0), ("base_seed", 1.5),
                       ("biasprop_sweeps", True), ("sp_iters", 2.5), ("jsp_iters", "7")):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {value!r}$"):
            ExperimentConfig(**{key: value}).validate()
    ExperimentConfig().validate()


def test_cli_bounds_ok(capsys):
    rc = main(["bounds", "--p1", "0.15", "--p2", "0.15", "--d1", "0.1", "--d2", "0.1"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "sum_rate" in out and "distortion" in out


@pytest.mark.parametrize("command", [["bounds", "--d1", "0.1", "--d2", "0.1"],
                                     ["optimize", "--target-rate", "1.0"]])
def test_cli_channel_defaults_are_the_config_defaults(command, capsys):
    cfg = ExperimentConfig()
    assert main(command) == EXIT_OK
    default = capsys.readouterr().out
    assert main([*command, "--p1", str(cfg.p1), "--p2", str(cfg.p2)]) == EXIT_OK
    assert capsys.readouterr().out == default


def test_cli_bounds_invalid_probability():
    assert main(["bounds", "--p1", "1.5", "--p2", "0.15", "--d1", "0.1", "--d2", "0.1"]) == EXIT_CONFIG


def test_cli_optimize_infeasible():
    assert main(["optimize", "--target-rate", "1.999"]) == EXIT_INFEASIBLE


def test_cli_sweep_bound_rows(capsys):
    rc = main(["sweep", "--rates", "0.8,1.0,1.2"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    bound_rows = [l for l in lines if l.startswith("bound,")]
    assert len(bound_rows) == 3
    dists = [float(l.split(",")[2]) for l in bound_rows]
    assert dists == sorted(dists, reverse=True)


def test_cli_sweep_reference_cases(capsys):
    rc = main(["sweep", "--rates", "1.0", "--reference-cases"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("case,") == 3


def test_cli_sweep_empirical_points(capsys):
    rc = main(["sweep", "--rates", "1.0", "--empirical", "--n", "2000", "--trials", "1",
               "--seed", "11"])
    assert rc == EXIT_OK
    rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[2:]]
    assert [r[0] for r in rows] == ["bound", "empirical-joint", "empirical-successive"]
    opt = optimize_test_channels(0.15, 0.15, 1.0)
    assert [float(v) for v in rows[0][1:]] == [1.0, opt.distortion, opt.pair.d1, opt.pair.d2]
    for row in rows[1:]:
        assert float(row[1]) > 0 and float(row[2]) > 0
        assert [float(v) for v in row[3:]] == [0.1, 0.1]


def test_cli_sweep_takes_p1_p2_from_config_unless_flags_give_them(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("p1 = 0.05\np2 = 0.05\nn = 2000\nscheme = joint\nbase_seed = 11\n")
    # Link 2 fails its syndrome at p = 0.05, in the sweep and in simulate.
    with pytest.warns(RuntimeWarning):
        rc = main(["sweep", "--rates", "1.0", "--reference-cases", "--empirical",
                   "--config", str(path)])
    assert rc == EXIT_OK
    rows = [r.split(",") for r in capsys.readouterr().out.strip().splitlines()[2:]]
    assert [r[0] for r in rows] == ["bound", "case", "case", "case", "empirical-joint"]
    opt = optimize_test_channels(0.05, 0.05, 1.0)
    assert [float(v) for v in rows[0][1:]] == [1.0, opt.distortion, opt.pair.d1, opt.pair.d2]
    case = bsc_bounds(0.05, 0.05, TestChannelPair(0.01, 0.01))
    assert [float(v) for v in rows[1][1:3]] == [case.sum_rate, case.distortion]
    cfg = ExperimentConfig(p1=0.05, p2=0.05, n=2000, scheme="joint", base_seed=11)
    with pytest.warns(RuntimeWarning):
        summary = simulate(cfg).splitlines()[-1].split(",")
    assert rows[4][1:3] == summary[5:7]  # sum-rate and log-loss
    # Flags still override the file.
    rc = main(["sweep", "--rates", "1.0", "--config", str(path), "--p1", "0.15",
               "--p2", "0.15"])
    assert rc == EXIT_OK
    bound = capsys.readouterr().out.strip().splitlines()[2].split(",")
    assert float(bound[2]) == optimize_test_channels(0.15, 0.15, 1.0).distortion


def test_cli_sweep_writes_the_config_files_output_unless_the_flag_gives_one(tmp_path, capsys):
    file_out, flag_out = tmp_path / "file.csv", tmp_path / "flag.csv"
    path = tmp_path / "run.cfg"
    path.write_text(f"output = {file_out}\n")
    assert main(["sweep", "--rates", "1.0", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    text = file_out.read_text()
    assert text.startswith("# schema=binceo-sweep-v1\n") and "\nbound,1.0," in text
    file_out.unlink()
    assert main(["sweep", "--rates", "1.0", "--config", str(path),
                 "--output", str(flag_out)]) == EXIT_OK
    assert flag_out.read_text() == text and not file_out.exists()


# sha256 of simulate's CSV for a fixed config.  A change that is meant to
# leave results alone must leave these digests alone.
SIMULATE_SEED11_SHA256 = "62b32511a8c86cfdbf06886fbac608dd710f3e435475931524db6778ec999d0c"
# n = 10^4 takes the quantizer's partition path (k is about 5.6k, batches of
# hundreds) and both decoder loops through many iterations.
SIMULATE_N1E4_SEED7_SHA256 = "161f86ae6e240664ab77e40d488dcc66ba653dc38fcd8351e137cf5f98b5c0e3"
# `simulate --scheme successive --n 100000 --trials 2 --seed 100003`: the
# benchmark's successive block length, where the quantizer's row runs and
# the decoder's peel are longest.
SIMULATE_SUCCESSIVE_N1E5_SHA256 = (
    "fac84f89af032fa27ed2fe5f1bc13b58d31043d798d7f22c0d61e2524c88670e")


def test_simulate_csv_digest_is_pinned_and_run_is_silent():
    cfg = ExperimentConfig(n=2000, trials=1, scheme="both", base_seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = simulate(cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == SIMULATE_SEED11_SHA256


def test_simulate_csv_digest_is_pinned_at_n1e4():
    cfg = ExperimentConfig(n=10_000, trials=1, scheme="both", base_seed=7)
    text = simulate(cfg)
    assert hashlib.sha256(text.encode()).hexdigest() == SIMULATE_N1E4_SEED7_SHA256


def test_simulate_csv_digest_is_pinned_at_n1e5(capsys):
    argv = ["simulate", "--scheme", "successive", "--n", "100000", "--trials", "2",
            "--seed", "100003"]
    assert main(argv) == EXIT_OK
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == SIMULATE_SUCCESSIVE_N1E5_SHA256


def test_both_schemes_rows_equal_the_single_scheme_runs():
    # Matched trials share their inputs, not their state: a scheme's rows
    # are the same whether or not the other scheme runs beside it.
    kwargs = dict(n=2000, trials=2, base_seed=11)
    both = simulate(ExperimentConfig(scheme="both", **kwargs)).splitlines()
    for scheme in ("joint", "successive"):
        alone = simulate(ExperimentConfig(scheme=scheme, **kwargs)).splitlines()
        assert len(alone) == 2 + kwargs["trials"] + 1
        assert alone == both[:2] + [row for row in both[2:]
                                    if row.split(",")[0] in (scheme, f"{scheme}-summary")]


def test_failed_decode_warns():
    cfg = ExperimentConfig(p1=0.05, p2=0.05, n=2000, trials=1, scheme="joint",
                           base_seed=11)
    with pytest.warns(RuntimeWarning, match=r"joint trial 0 \(base=11;trial=0\): link 2 "):
        rep = run_joint_trial(cfg, 0)
    assert rep.syndrome_satisfied == {1: True, 2: False}
    assert rep.iterations_used == {1: 600, 2: 600}
    # Link 1 sends all but its last gamma = 50 information bits as degree-1
    # checks, and its mixed outputs draw on those alone: the peel pins all
    # other bits, and only the uncoded bits' coupling pairs stay live.
    gamma = round(cfg.anchor_gamma * cfg.n)
    assert rep.pinned[1] == cfg.n - gamma and 0 < rep.pinned[2] < cfg.n
    assert 0 < rep.live_edges[1] <= gamma < rep.live_edges[2]


# (p, live_edges, iterations_used) of joint trial 0 at n = 2000, base seed
# 11.  live_edges counts no absorbed leaf: with link 2's leaves counted it
# would read 5,705 at p = 0.05 and 4,407 at p = 0.15.  A change that makes
# the loop do more work per iteration, or stop later, fails here.
JOINT_WORK = [(0.05, {1: 41, 2: 4837}, {1: 600, 2: 600}),
              (0.15, {1: 24, 2: 3755}, {1: 20, 2: 20})]


@pytest.mark.parametrize("p, live_edges, iterations_used", JOINT_WORK)
def test_joint_decode_work_is_pinned(p, live_edges, iterations_used):
    cfg = ExperimentConfig(p1=p, p2=p, n=2000, trials=1, scheme="joint", base_seed=11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        rep = run_joint_trial(cfg, 0)
    assert (rep.live_edges, rep.iterations_used) == (live_edges, iterations_used)


# sha256 over each DecodeResult of trial 0 (posterior bytes, iterations
# used, syndrome flag, pinned bits, live edges), link by link.  The CSV
# holds hard decisions only; these pin every posterior bit of the decoders.
DECODE_SHA256 = {
    ("joint", 2000, 0.05, 11):
        "37188ab492e2bc5388b166c205833c63b34fece02e77558e9d937c7f9385addc",
    ("joint", 2000, 0.15, 11):
        "5115dc67d0a7b01429c0d48b2b88df61dd3e17e0fc27e368404c812499e6492e",
    ("joint", 2000, 0.25, 11):
        "43cd7523114ffe2c1b4f9664580ed427fedd0ba16adea27ffd957474ee04d19e",
    ("joint", 10_000, 0.15, 7):
        "2139b46f85b769d9fad12f2948172b99750ecaae1e4ce8c5d6706e33fef5363a",
    ("successive", 2000, 0.15, 11):
        "b2790a98efc440cfa93ac445938df768ac7e9235abe372824714eabe891c78c2",
    ("successive", 20_000, 0.15, 100003):
        "687f046cd8ef2359b9e23c4cd90ef0cfc1e3f78390ef73648ce2c530ce8f72ec",
}


@pytest.mark.parametrize("scheme, n, p, seed", DECODE_SHA256)
def test_decoder_outputs_are_pinned(scheme, n, p, seed, monkeypatch):
    name = {"joint": "joint_sum_product_decode", "successive": "sum_product_decode"}[scheme]
    real, results = getattr(harness, name), []

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        results.extend(out if scheme == "joint" else [out])
        return out

    monkeypatch.setattr(harness, name, recorded)
    cfg = ExperimentConfig(p1=p, p2=p, n=n, trials=1, scheme=scheme, base_seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        {"joint": run_joint_trial, "successive": run_successive_trial}[scheme](cfg, 0)
    digest = hashlib.sha256()
    for res in results:
        digest.update(res.posterior.tobytes())
        digest.update(repr((res.iterations_used, res.syndrome_satisfied, res.pinned,
                            res.live_edges)).encode())
    assert digest.hexdigest() == DECODE_SHA256[scheme, n, p, seed]


def test_simulate_raises_no_floating_point_fault():
    # Every floating-point fault is an error here.  Where a clamp absorbs
    # atanh(+-1) = +-inf, the code opts out locally: check_messages (the
    # quantizer's update, the decoders' degree-1 messages), the decoders'
    # leaf posteriors and their pairs with one pinned end.  The decoders'
    # per-iteration updates do not, so both decoders run a failing budget
    # below.
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        simulate(ExperimentConfig(n=2000, trials=1, scheme="both", base_seed=11))
        cfg = ExperimentConfig(p1=0.05, p2=0.05, n=2000, trials=1, scheme="joint",
                               base_seed=11)
        with pytest.warns(RuntimeWarning, match="link 2 "):
            run_joint_trial(cfg, 0)
        cfg = ExperimentConfig(n=2000, scheme="successive", base_seed=3)
        with pytest.warns(RuntimeWarning, match="link 1 "):
            run_successive_trial(cfg, 1)


def test_simulate_csv_structure():
    cfg = ExperimentConfig(n=2000, trials=2, scheme="successive", base_seed=3)
    with pytest.warns(RuntimeWarning,
                      match=r"successive trial 1 \(base=3;trial=1\): link 1 "):
        text = simulate(cfg)
    lines = text.strip().splitlines()
    assert lines[0] == "# schema=binceo-run-v1"
    assert lines[1] == ",".join(CSV_COLUMNS)
    # 2 trial rows + 1 summary row.
    assert len(lines) == 5
    row = dict(zip(CSV_COLUMNS, lines[2].split(","), strict=True))
    assert row["scheme"] == "successive"
    assert int(row["n"]) == 2000


def test_run_successive_trial_reports_rates():
    cfg = ExperimentConfig(n=2000, trials=1, base_seed=3)
    rep = run_successive_trial(cfg, 0)
    # Link 2 conveys raw information bits: rate k2/n from the design table.
    assert rep.empirical_r2 == pytest.approx(
        round(cfg.n * (1.0 - 0.46899559358928133) * 1.05) / cfg.n, abs=1e-12
    )
    assert rep.empirical_sum_rate == rep.empirical_r1 + rep.empirical_r2
    # Only link 1 is decoded; link 2's bits arrive as sent.
    assert rep.syndrome_satisfied == {1: True}
    assert 1 <= rep.iterations_used[1] <= cfg.sp_iters
    assert rep.pinned.keys() == rep.live_edges.keys() == {1}
    assert rep.pinned[1] > 0 and rep.live_edges[1] > 0


@pytest.mark.parametrize("runner", [run_joint_trial, run_successive_trial])
def test_trial_samples_three_graphs(runner, monkeypatch):
    # Joint: link 1's mixed outputs, link 2's LDGM and LDPC.  Successive:
    # each link's LDGM and link 1's LDPC; link 2 sends its information bits
    # and draws no checks.
    calls = []
    real = graphs.sample_graph
    monkeypatch.setattr(graphs, "sample_graph", lambda *a, **k: calls.append(1) or real(*a, **k))
    runner(ExperimentConfig(n=2000, base_seed=11), 0)
    assert len(calls) == 3


def test_successive_link2_is_validated_without_checks():
    # d1 = 0.3 needs few checks on link 1: its sizes are (249, 404, 40).
    # Link 2's syndrome rate at d2 = 0.1 is 1.026, which only the schemes
    # that send link 2's syndrome build; successive link 2 at rate 0 gives
    # (1115, 0, 0).
    kwargs = dict(n=2000, d1=0.3, d2=0.1, syndrome_margin=1.0)
    ExperimentConfig(scheme="successive", **kwargs).validate()
    for scheme in ("joint", "both"):
        with pytest.raises(ValueError, match=r"^d2=0\.1 with ldgm_margin=0\.05 and "
                                             r"syndrome_margin=1\.0 gives"):
            ExperimentConfig(scheme=scheme, **kwargs).validate()
    # Successive link 2's sizes come from d2 and ldgm_margin alone.
    with pytest.raises(ValueError, match=r"^d2=0\.0 with ldgm_margin=0\.05 gives"):
        ExperimentConfig(n=2000, scheme="successive", d2=0.0).validate()


def test_pinned_bits_are_the_encoders_bits(monkeypatch):
    # The syndromes come from codewords, so every bit either decoder's peel
    # pins is the bit the encoder quantized to.
    peeled, encoded = [], []
    real_peel = decoders.peel
    monkeypatch.setattr(decoders, "peel", lambda *a: peeled.append(real_peel(*a)) or peeled[-1])
    for name in ("encode_joint", "encode_successive"):
        monkeypatch.setattr(harness, name, lambda *a, _f=getattr(harness, name), **k:
                            encoded.append(_f(*a, **k)) or encoded[-1])
    cfg = ExperimentConfig(n=2000, base_seed=11)
    joint, successive = run_joint_trial(cfg, 0), run_successive_trial(cfg, 0)
    (_, _, q1, q2), (_, _, q1_succ, _) = encoded
    words = [np.concatenate([q1.quantized, q2.quantized]), q1_succ.info_bits]
    for (pinned, bits, _, _), word in zip(peeled, words):
        assert pinned.sum() > 500
        np.testing.assert_array_equal(bits[pinned], word[pinned])
    (pinned_joint, *_), (pinned_succ, *_) = peeled
    assert joint.pinned == {1: pinned_joint[:2000].sum(), 2: pinned_joint[2000:].sum()}
    assert successive.pinned == {1: pinned_succ.sum()}


# tracemalloc peak of the successive decode below before the decoder peeled
# its hard checks: 2,460,701 bytes.  Traced sizes are deterministic, so a
# change that keeps more per-edge arrays alive fails here in seconds.
SUCCESSIVE_DECODE_PEAK_BYTES = int(2.35 * 2**20)


def test_successive_decode_memory_peak_is_in_budget(monkeypatch):
    peaks = []
    real = harness.sum_product_decode

    def traced(*args, **kwargs):
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            return real(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            tracemalloc.stop()

    monkeypatch.setattr(harness, "sum_product_decode", traced)
    run_successive_trial(ExperimentConfig(n=20_000, scheme="successive"), 0)
    (peak,) = peaks
    assert peak <= SUCCESSIVE_DECODE_PEAK_BYTES


# tracemalloc peak of the joint decode below when peeling still sorted
# each round: 3,280,546 bytes.  Its small per-round arrays grew the heap,
# so a change that brings them back fails here.
JOINT_DECODE_PEAK_BYTES = int(3.13 * 2**20)


def test_joint_decode_memory_peak_is_in_budget(monkeypatch):
    peaks = []
    real = harness.joint_sum_product_decode

    def traced(*args, **kwargs):
        tracemalloc.start()
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        try:
            return real(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
            tracemalloc.stop()

    monkeypatch.setattr(harness, "joint_sum_product_decode", traced)
    run_joint_trial(ExperimentConfig(n=10_000, scheme="joint"), 0)
    (peak,) = peaks
    assert peak <= JOINT_DECODE_PEAK_BYTES


def test_cli_simulate_to_file(tmp_path):
    out = tmp_path / "run.csv"
    rc = main([
        "simulate", "--scheme", "successive", "--n", "2000", "--trials", "1",
        "--seed", "5", "--output", str(out),
    ])
    assert rc == EXIT_OK
    assert out.read_text().startswith("# schema=binceo-run-v1")


@pytest.mark.parametrize("command", [["simulate"], ["sweep", "--empirical"]])
@pytest.mark.parametrize("where", ["missing-directory", "directory", "empty"])
def test_cli_bad_output_fails_validation_before_any_trial(command, where, tmp_path,
                                                          monkeypatch, capsys):
    ran = []
    for name in ("run_joint_trial", "run_successive_trial"):
        monkeypatch.setattr(harness, name, lambda *a: ran.append(a))
    out = {"missing-directory": str(tmp_path / "missing" / "x.csv"),
           "directory": str(tmp_path), "empty": ""}[where]
    rc = main([*command, "--n", "200", "--output", out])
    assert rc == EXIT_CONFIG
    assert f"error: output={out!r}" in capsys.readouterr().err
    assert not ran


@pytest.mark.parametrize("flag, named", [
    pytest.param(flag, flag[2:].replace("-", "_"), id=flag)
    for flag in ("--biasprop-sweeps", "--sp-iters", "--jsp-iters")
] + [
    # jsp_iters replaced these two; argparse refuses them by name
    pytest.param(flag, f"unrecognized arguments: {flag} 0", id=flag)
    for flag in ("--jsp-local", "--jsp-global")
])
def test_cli_simulate_rejects_zero_iterations(flag, named, capsys):
    try:
        rc = main(["simulate", "--n", "2000", "--trials", "1", flag, "0"])
    except SystemExit as exc:
        rc = exc.code
    assert rc == EXIT_CONFIG
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("args, key", [
    (["--d1", "0"], "d1"),
    (["--d2", "0"], "d2"),
    (["--d2", "0.5"], "d2"),
    (["--d1", "0.01", "--d2", "0.01"], "d1"),
    (["--scheme", "joint", "--d1", "0.1", "--d2", "0.01"], "d2"),
])
def test_cli_simulate_rejects_unrealizable_distortion(args, key, capsys):
    rc = main(["simulate", "--n", "2000", "--trials", "1", *args])
    assert rc == EXIT_CONFIG
    assert f"error: {key}=" in capsys.readouterr().err


@pytest.mark.parametrize("args, named", [
    (["--ldgm-margin", "1.5"], "ldgm_margin=1.5 "),
    (["--syndrome-margin", "-0.99"], "syndrome_margin=-0.99 "),
    (["--scheme", "joint", "--d1", "0.3", "--anchor-gamma", "0.3"], "anchor_gamma=0.3 "),
])
def test_cli_simulate_unbuildable_code_names_the_key_set(args, named, capsys):
    rc = main(["simulate", "--n", "2000", "--trials", "1", *args])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: d1=") and named in err


@pytest.mark.parametrize("args, cfg_text, message", [
    (["--ldpc-fac-dist", "2:0.5,3:0.6"], None,
     "error: ldpc_fac_dist={2: 0.5, 3: 0.6}: fractions sum to"),
    ([], "n = 1e4\n", "error: config key 'n': "),
    ([], "ldpc_fac_dist = 2:0.5;3:0.5\n", "error: config key 'ldpc_fac_dist': "),
    (["--scheme", "bogus"], None,
     "error: scheme must be one of 'joint', 'successive', 'both', got 'bogus'"),
    ([], "ldpc_fac_dist = 2:0.5,2:0.5\n",
     "error: config key 'ldpc_fac_dist': degree 2 is given twice in '2:0.5,2:0.5'"),
    ([], "n = 2000\nn = 3000\n", "run.cfg:2: key 'n' is already set on line 1"),
    ([], "jsp_local = 40\n", "error: unknown config key 'jsp_local'"),
    (["--scheme", "joint", "--ldgm-fac-dist", "4:nan"], None,
     "error: ldgm_fac_dist={4: nan}: degree 4 has fraction nan"),
    (["--ldpc-fac-dist", "4:1.5,5:-0.5"], None,
     "error: ldpc_fac_dist={4: 1.5, 5: -0.5}: degree 5 has fraction -0.5"),
])
def test_cli_simulate_bad_values_name_their_key(args, cfg_text, message, tmp_path, capsys):
    if cfg_text is not None:
        path = tmp_path / "run.cfg"
        path.write_text(cfg_text)
        args = [*args, "--config", str(path)]
    rc = main(["simulate", "--n", "2000", "--trials", "1", *args])
    assert rc == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_cli_flag_rejects_a_repeated_degree(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--ldpc-fac-dist", "2:0.5,2:0.5"])
    assert exc.value.code == EXIT_CONFIG
    assert "--ldpc-fac-dist" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--ldpc-fac-dist", "2:0.5,2:0.5"],
     "argument --ldpc-fac-dist: degree 2 is given twice in '2:0.5,2:0.5'"),
    (["--n", "1e4"], "argument --n: invalid literal for int() with base 10: '1e4'"),
])
def test_cli_flag_errors_give_the_parsers_reason(args, message, capsys):
    # The reason a config file's line would give, not argparse's generic one.
    with pytest.raises(SystemExit) as exc:
        main(["simulate", *args])
    assert exc.value.code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_cli_sweep_bad_rates_name_the_flag(capsys):
    rc = main(["sweep", "--rates", "0.6,x"])
    assert rc == EXIT_CONFIG
    assert "error: --rates: expected comma-separated numbers, got '0.6,x'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("args, message", [
    (["--p1", "0.7", "--n", "5"], "error: p1 must be in [0, 0.5], got 0.7"),
    (["--rates", "1.0", "--scheme", "bogus"],
     "error: scheme must be one of 'joint', 'successive', 'both', got 'bogus'"),
])
def test_cli_sweep_validates_its_setting_without_empirical(args, message, capsys):
    rc = main(["sweep", *args])
    assert rc == EXIT_CONFIG
    captured = capsys.readouterr()
    assert message in captured.err and captured.out == ""


def test_simulate_and_bounds_do_not_import_scipy():
    # Only the bound optimizer needs scipy; the simulate and bounds paths
    # must not pay for importing it.
    script = "\n".join([
        "import sys",
        "import binceo, binceo.harness",
        "from binceo.harness import ExperimentConfig, main, simulate",
        "simulate(ExperimentConfig(n=2000, scheme='both'))",
        "main(['bounds', '--d1', '0.1', '--d2', '0.1'])",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    src = str(Path(binceo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True, timeout=300)
    assert out.stdout.splitlines()[-1] == "[]"
