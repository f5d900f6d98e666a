"""Command-line surface: subcommands, config handling, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from maskdiff import cli
from maskdiff.cli import build_parser, main
from maskdiff.dist import load_table
from maskdiff.models import ARCopulaModel, DiffusionMarginalModel, load_corpus
from maskdiff.noising import make_schedule


def run(argv: list[str]) -> int:
    return main(argv)


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "data.json"
    assert run([
        "--out-dir", str(tmp_path), "gen-data",
        "--kind", "correlated_phrases", "--num-positions", "2",
        "--num-categories", "2", "--correlation-strength", "0.95",
        "--out", str(path),
    ]) == 0
    return path


def test_gen_data_writes_table(tmp_path, data_file):
    table = load_table(data_file)
    assert table.num_positions == 2


def test_exact_models_from_data_share_one_table(data_file):
    args = build_parser().parse_args(["eval", "--data", str(data_file)])
    dm, copula, _ = cli._resolve_models(args, ["dcd"])
    assert dm.table is copula.table


def test_gen_data_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert run(["--seed", "5", "gen-data", "--kind", "random_dirichlet",
                    "--num-positions", "2", "--num-categories", "3",
                    "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_fit_from_table_and_from_corpus(tmp_path, data_file):
    exact = tmp_path / "exact.json"
    assert run(["fit", "--from-table", str(data_file), "--out", str(exact)]) == 0
    model = DiffusionMarginalModel.load(exact)
    assert model.kind == "exact"

    counts = tmp_path / "counts.json"
    assert run(["--out-dir", str(tmp_path), "--seed", "3", "fit",
                "--sample-from", str(data_file), "--corpus-size", "500",
                "--out", str(counts)]) == 0
    corpus = load_corpus(tmp_path / "corpus.txt")
    assert corpus.shape == (500, 2)
    fitted = DiffusionMarginalModel.load(counts)
    assert fitted.kind == "counts"
    assert fitted.table.probs.min() > 0.0


def test_fit_corpus_requires_num_categories(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("0 1\n1 0\n")
    assert run(["fit", "--corpus", str(corpus), "--out", str(tmp_path / "m.json")]) == 2


def test_fit_empty_corpus_is_exit_2(tmp_path, capsys):
    corpus = tmp_path / "empty.txt"
    corpus.write_text("\n")
    assert run(["fit", "--corpus", str(corpus), "--num-categories", "2",
                "--out", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_eval_missing_data_file_is_exit_2(tmp_path, capsys):
    assert run(["eval", "--data", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing.json" in err


def test_eval_malformed_table_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "N": 2,')
    assert run(["eval", "--data", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed table JSON")


def test_sample_writes_sequences_and_is_deterministic(tmp_path, data_file):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    trace_a = tmp_path / "a.trace"
    trace_b = tmp_path / "b.trace"
    for out, trace in ((out_a, trace_a), (out_b, trace_b)):
        assert run([
            "--seed", "11", "sample", "--data", str(data_file),
            "--mode", "dcd", "--steps", "2", "--num-samples", "5",
            "--out", str(out), "--trace", str(trace),
        ]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert trace_a.read_bytes() == trace_b.read_bytes()
    lines = out_a.read_text().strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        tokens = [int(t) for t in line.split()]
        assert len(tokens) == 2 and all(t in (0, 1) for t in tokens)


def test_sample_at_large_beta_writes_sequences(tmp_path):
    data = tmp_path / "markov.json"
    assert run(["--seed", "1", "gen-data", "--kind", "markov_chain", "--num-positions", "4",
                "--num-categories", "3", "--correlation-strength", "0.8", "--out", str(data)]) == 0
    out = tmp_path / "s.txt"
    # seed 3's first sequence meets a fused row whose exp(beta * V) overflows float64
    assert run(["--seed", "3", "sample", "--data", str(data), "--mode", "dcd", "--steps", "4",
                "--beta", "1000", "--num-samples", "4", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_eval_and_sample_at_huge_finite_beta_are_quiet(tmp_path, capsys):
    data = tmp_path / "d3.json"
    assert run(["gen-data", "--kind", "markov_chain", "--num-positions", "3",
                "--num-categories", "3", "--out", str(data)]) == 0
    capsys.readouterr()
    common = ["--data", str(data), "--beta", "1e308", "--steps", "3"]
    assert run(["eval"] + common) == 0
    assert run(["sample"] + common + ["--out", str(tmp_path / "s.txt")]) == 0
    assert capsys.readouterr().err == ""


def test_sample_non_finite_beta_is_exit_2(tmp_path, data_file, capsys):
    assert run(["sample", "--data", str(data_file), "--beta", "inf",
                "--out", str(tmp_path / "s.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: beta must be finite") and err.count("\n") == 1


def test_eval_prints_metrics(tmp_path, data_file, capsys):
    assert run(["eval", "--data", str(data_file), "--mode", "dcd", "--steps", "1"]) == 0
    out = capsys.readouterr().out
    assert "kl_to_data=" in out and "elbo_bound=" in out


def test_eval_bound_is_finite_where_the_marginal_product_underflows(tmp_path, capsys):
    data = tmp_path / "tiny.json"
    data.write_text('{"version": 1, "N": 2, "C": 2, "probs": [1e-300, 1e-300, 1e-300, 1.0]}')
    assert run(["eval", "--data", str(data), "--steps", "1"]) == 0
    [bound] = re.findall(r"^elbo_bound=(.+)$", capsys.readouterr().out, re.M)
    assert np.isfinite(float(bound))


def test_eval_checks_the_models_alphabet_before_evaluating(
    tmp_path, data_file, monkeypatch, capsys
):
    from maskdiff import harness

    data = tmp_path / "d3.json"
    assert run(["gen-data", "--kind", "markov_chain", "--num-positions", "3",
                "--num-categories", "3", "--out", str(data)]) == 0
    pair = load_table(data_file).floored()  # a (2, 2) table
    ARCopulaModel.exact(pair).save(tmp_path / "m2.json")
    DiffusionMarginalModel.exact(pair).save(tmp_path / "dm2.json")
    capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("evaluated before the alphabets were checked")

    for name in ("induced_distribution", "_induced_exact", "elbo_bound"):
        monkeypatch.setattr(harness, name, refuse)
    for mode, flag, model in (("ar_only", "--copula-model", "m2.json"),
                              ("diffusion_only", "--dm-model", "dm2.json")):
        assert run(["eval", "--data", str(data), flag, str(tmp_path / model),
                    "--mode", mode]) == 2
        err = capsys.readouterr().err
        assert err == "error: the models' alphabet differs from the data table's\n"


def test_sweep_outputs_and_byte_stability(tmp_path, data_file):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for out_dir in (dir_a, dir_b):
        assert run([
            "--out-dir", str(out_dir), "--seed", "2", "sweep",
            "--data", str(data_file), "--modes", "dcd,diffusion_only",
            "--steps-list", "1,2", "--beta-list", "1.0",
        ]) == 0
    assert (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()
    header = (dir_a / "results.csv").read_text().splitlines()[0]
    assert header == "mode,T,beta,kl_to_data,nll,elbo_bound,wall_ms"


def test_config_file_supplies_defaults(tmp_path, data_file, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[schedule]\nfamily = linear\nsteps = 2\n\n"
        "[sampler]\nmode = diffusion_only\nbeta = 1.0\nseed = 4\n"
    )
    assert run(["--config", str(cfg), "eval", "--data", str(data_file)]) == 0
    out = capsys.readouterr().out
    assert "mode=diffusion_only T=2" in out


def test_config_unknown_key_is_exit_2(tmp_path, data_file):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[sampler]\nmystery = 1\n")
    assert run(["--config", str(cfg), "eval", "--data", str(data_file)]) == 2


def test_missing_config_file_is_exit_2(tmp_path, data_file):
    assert run(["--config", str(tmp_path / "nope.ini"), "eval", "--data", str(data_file)]) == 2


def test_verify_single_suite_exit_zero(capsys):
    assert run(["verify", "prop6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS prop6:")


def test_verify_unknown_suite_exit_two():
    assert run(["verify", "prop99"]) == 2


def test_argparse_usage_error_is_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--mode", "bogus"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# settings: flag > config file > default
# ---------------------------------------------------------------------------

_SAMPLER_ROWS = [
    ("schedule", "steps", ["--steps", "3"], 3, "4", 4, 2),
    ("schedule", "family", ["--family", "linear"], "linear", "log-linear", "log-linear", "linear"),
    ("schedule", "epsilon", ["--epsilon", "0.01"], 0.01, "0.02", 0.02, 1e-3),
    ("schedule", "chunk_size", ["--chunk-size", "2"], 2, "3", 3, 1),
    ("sampler", "mode", ["--mode", "diffusion_only"], "diffusion_only", "ar_only", "ar_only", "dcd"),
    ("sampler", "beta", ["--beta", "0.5"], 0.5, "0.25", 0.25, 1.0),
    ("sampler", "seed", ["--seed", "5"], 5, "6", 6, 0),
]

# (command, section, key, flag argv, value from flag, config text, value from config, default)
SETTING_CASES = [
    ("gen-data", "data", "kind", ["--kind", "markov_chain"], "markov_chain",
     "random_dirichlet", "random_dirichlet", "correlated_phrases"),
    ("gen-data", "data", "num_positions", ["--num-positions", "3"], 3, "4", 4, 2),
    ("gen-data", "data", "num_categories", ["--num-categories", "3"], 3, "4", 4, 2),
    ("gen-data", "data", "correlation_strength", ["--correlation-strength", "0.5"], 0.5,
     "0.25", 0.25, 0.9),
    ("gen-data", "data", "seed", ["--seed", "5"], 5, "6", 6, 0),
    ("fit", "fit", "smoothing", ["--smoothing", "0.5"], 0.5, "0.25", 0.25, 1.0),
    ("fit", "data", "seed", ["--seed", "5"], 5, "6", 6, 0),
    *[("sample",) + row for row in _SAMPLER_ROWS],
    ("sample", "sampler", "num_samples", ["--num-samples", "3"], 3, "4", 4, 1),
    *[("eval",) + row for row in _SAMPLER_ROWS],
    ("sweep", "sweep", "modes", ["--modes", "ar_only"], ["ar_only"],
     "dcd_ar_unmask", ["dcd_ar_unmask"], ["dcd", "diffusion_only"]),
    ("sweep", "sweep", "steps_list", ["--steps-list", "3,5"], [3, 5], "6", [6], [1, 2, 4]),
    ("sweep", "sweep", "beta_list", ["--beta-list", "0.5"], [0.5], "0.25,2", [0.25, 2.0], [1.0]),
    ("sweep", "sweep", "emit_timings", ["--emit-timings"], True, "true", True, False),
    *[("sweep",) + row for row in _SAMPLER_ROWS if row[1] in ("family", "epsilon", "chunk_size")],
]


class _Stop(Exception):
    pass


def _capture_settings(monkeypatch, seen: dict) -> None:
    """Replace what each command hands its settings to by a recorder."""

    def record_config(cfg):
        seen.update(mode=cfg.mode, steps=cfg.steps, beta=cfg.beta, seed=cfg.seed,
                    chunk_size=cfg.chunk_size)

    def recording_schedule(**kwargs):
        seen.update(family=kwargs["family"], epsilon=kwargs["epsilon"])
        return make_schedule(**kwargs)

    def fake_gen_data(spec):
        seen.update(dataclasses.asdict(spec))
        raise _Stop

    def fake_sample_states(table, n, rng):
        seen["seed"] = rng.bit_generator.seed_seq.entropy
        return np.zeros((n, table.num_positions), dtype=np.int64)

    def fake_fit(seqs, alphabet, smoothing):
        seen["smoothing"] = smoothing
        raise _Stop

    def fake_sample(dm, copula, cfg, rng):
        record_config(cfg)
        seen["num_samples"] = seen.get("num_samples", 0) + 1
        return SimpleNamespace(tokens=(0, 0)), None

    def fake_induced(dm, copula, cfg):
        record_config(cfg)
        raise _Stop

    def fake_sweep(data, dm, copula, modes, steps_list, beta_list, **kwargs):
        seen.update(modes=list(modes), steps_list=list(steps_list),
                    beta_list=list(beta_list), **kwargs)
        raise _Stop

    monkeypatch.setattr(cli, "gen_data", fake_gen_data)
    monkeypatch.setattr(cli, "sample_states", fake_sample_states)
    monkeypatch.setattr(cli, "make_schedule", recording_schedule)
    monkeypatch.setattr(cli.DiffusionMarginalModel, "from_corpus", fake_fit)
    monkeypatch.setattr(cli, "sample", fake_sample)
    monkeypatch.setattr(cli, "induced_distribution", fake_induced)
    monkeypatch.setattr(cli, "run_sweep", fake_sweep)


@pytest.mark.parametrize(
    "command,section,key,flag_argv,flag_value,file_text,file_value,default",
    SETTING_CASES,
    ids=[f"{c[0]}-{c[2]}" for c in SETTING_CASES],
)
def test_setting_precedence(tmp_path, data_file, monkeypatch, command, section, key,
                            flag_argv, flag_value, file_text, file_value, default):
    base = {
        "gen-data": ["--out", str(tmp_path / "t.json")],
        "fit": ["--sample-from", str(data_file), "--corpus-size", "2",
                "--out", str(tmp_path / "m.json")],
    }.get(command, ["--data", str(data_file)])
    # a store_true flag can only say true, so it must beat a false in the file
    under_flag = "false" if flag_value is True else file_text
    for flag, text, expected in (
        ([], None, default), ([], file_text, file_value), (flag_argv, under_flag, flag_value),
    ):
        seen: dict = {}
        _capture_settings(monkeypatch, seen)
        argv = ["--out-dir", str(tmp_path)]
        if text is not None:
            ini = tmp_path / "run.ini"
            ini.write_text(f"[{section}]\n{key} = {text}\n")
            argv += ["--config", str(ini)]
        before, after = (flag, []) if flag[:1] == ["--seed"] else ([], flag)
        try:
            assert main(before + argv + [command] + base + after) == 0
        except _Stop:
            pass
        assert seen[key] == expected, (flag, text)
        assert type(seen[key]) is type(expected)


def test_seed_flag_beats_data_and_sampler_seed_in_file(tmp_path, data_file, monkeypatch):
    seen: dict = {}
    _capture_settings(monkeypatch, seen)
    ini = tmp_path / "run.ini"
    ini.write_text("[data]\nseed = 6\n\n[sampler]\nseed = 7\n")
    for command, argv in (("gen-data", []), ("eval", ["--data", str(data_file)])):
        with pytest.raises(_Stop):
            main(["--seed", "5", "--config", str(ini), command] + argv)
        assert seen.pop("seed") == 5


SUBCOMMAND_OPTIONS = {
    "gen-data": "--kind --num-positions --num-categories --correlation-strength --out",
    "fit": "--corpus --num-categories --smoothing --from-table --sample-from --corpus-size --out",
    "sample": "--data --dm-model --copula-model --mode --steps --beta --family --epsilon "
              "--chunk-size --num-samples --out --trace",
    "eval": "--data --dm-model --copula-model --mode --steps --beta --family --epsilon --chunk-size",
    "sweep": "--data --dm-model --copula-model --modes --steps-list --beta-list --family "
             "--epsilon --chunk-size --emit-timings",
    "verify": "",
}


def test_help_lists_every_option(capsys):
    for command, options in SUBCOMMAND_OPTIONS.items():
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert re.findall(r"\[(--[a-z-]+)", usage) == options.split(), command


@pytest.mark.parametrize("flag,value,parser", [
    ("--steps-list", "1,x", "int_list"), ("--beta-list", "x", "float_list"),
])
def test_malformed_list_flag_is_exit_2(data_file, capsys, flag, value, parser):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--data", str(data_file), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"invalid {parser} value" in err and "Traceback" not in err


def test_empty_list_flag_is_an_empty_list(tmp_path, data_file, monkeypatch):
    seen: dict = {}
    _capture_settings(monkeypatch, seen)
    with pytest.raises(_Stop):
        main(["sweep", "--data", str(data_file), "--modes", ""])
    assert seen["modes"] == []


BAD_DOCUMENTS = [
    ("table", '{"version": 1, "N": "x", "C": 2, "probs": [1]}'),
    ("table", '{"version": 1, "N": 2.7, "C": 2, "probs": [0.25, 0.25, 0.25, 0.25]}'),
    ("table", '{"version": 1, "N": true, "C": 2, "probs": [0.5, 0.5]}'),
    ("table", '{"version": 1, "N": 1, "C": 2, "probs": ["a", "b"]}'),
    ("table", '{"version": 1, "N": 1, "C": 2, "probs": [true, false]}'),
    ("model", '{"version": 1, "kind": "exact", "N": 2, "C": 2, "payload": ["a", "b", "c", "d"]}'),
    ("model", '{"version": 1, "kind": "exact", "N": 2, "C": 2.0, "payload": [0.25, 0.25, 0.25, 0.25]}'),
    ("model", '{"version": 1, "kind": "exact", "N": 2, "C": 2, "payload": 1}'),
]


@pytest.mark.parametrize("what,text", BAD_DOCUMENTS)
def test_bad_document_is_exit_2(tmp_path, data_file, capsys, what, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = ["--data", str(bad)] if what == "table" else ["--data", str(data_file), "--dm-model", str(bad)]
    assert run(["eval"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: a {what}'s ") and err.count("\n") == 1


def test_model_file_round_trips_byte_identical(tmp_path, data_file):
    out = tmp_path / "m.json"
    assert run(["fit", "--from-table", str(data_file), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith('{"version": 1, "kind": "exact", "N": 2, "C": 2, "payload": [')
    again = tmp_path / "again.json"
    DiffusionMarginalModel.load(out).save(again)
    assert again.read_bytes() == out.read_bytes()


def test_cap_advice_names_only_what_exists(tmp_path, capsys):
    table = tmp_path / "big.json"
    assert run(["gen-data", "--kind", "random_dirichlet", "--num-positions", "5",
                "--num-categories", "3", "--out", str(table)]) == 0
    capsys.readouterr()
    assert run(["eval", "--data", str(table), "--steps", "4"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "(C+1)^N * T = 4096" in err
    assert "mc_samples" not in err


def test_readme_config_example_runs(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    ini = tmp_path / "readme.ini"
    ini.write_text(block)
    data = tmp_path / "pair.json"
    common = ["--config", str(ini), "--out-dir", str(tmp_path)]
    assert run(common + ["gen-data", "--out", str(data)]) == 0
    assert run(common + ["eval", "--data", str(data)]) == 0
    assert run(common + ["sweep", "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert "mode=dcd T=2 beta=1" in out
    assert (tmp_path / "results.csv").read_text().count("\n") == 1 + 2 * 3


def _one_line_error(capsys) -> bool:
    err = capsys.readouterr().err
    return err.count("\n") == 1 and "Traceback" not in err


def test_zero_position_table_is_exit_2(tmp_path, capsys):
    assert run(["gen-data", "--num-positions", "0", "--out", str(tmp_path / "z.json")]) == 2
    assert _one_line_error(capsys) and not (tmp_path / "z.json").exists()
    empty = tmp_path / "empty.json"
    empty.write_text('{"version": 1, "N": 0, "C": 2, "probs": [1]}')
    for argv in (["eval", "--data", str(empty)], ["sample", "--data", str(empty)],
                 ["fit", "--from-table", str(empty), "--out", str(tmp_path / "m.json")]):
        assert run(["--out-dir", str(tmp_path)] + argv) == 2, argv
        assert _one_line_error(capsys), argv


def test_negative_count_is_exit_2(tmp_path, data_file, capsys):
    out = ["--out-dir", str(tmp_path)]
    for argv in (["fit", "--sample-from", str(data_file), "--corpus-size", "-1"],
                 ["sample", "--data", str(data_file), "--num-samples", "-2"]):
        with pytest.raises(SystemExit) as exc:
            main(out + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid count value" in err and "Traceback" not in err
    ini = tmp_path / "run.ini"
    ini.write_text("[sampler]\nnum_samples = -2\n")
    assert run(out + ["--config", str(ini), "sample", "--data", str(data_file)]) == 2
    assert _one_line_error(capsys)
    # a count of 0 is a count
    assert run(out + ["sample", "--data", str(data_file), "--num-samples", "0"]) == 0
    assert run(out + ["fit", "--sample-from", str(data_file), "--corpus-size", "0"]) == 0


def test_negative_seed_is_exit_2(tmp_path, data_file, capsys):
    out = ["--out-dir", str(tmp_path)]
    commands = (["gen-data"], ["sample", "--data", str(data_file)],
                ["fit", "--sample-from", str(data_file)])
    for argv in commands:
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "-1"] + out + argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("maskdiff: error: argument --seed: invalid count value: '-1'\n")
        assert err.count("error:") == 1 and "Traceback" not in err
    ini = tmp_path / "run.ini"
    for section, argv in (("data", commands[0]), ("sampler", commands[1]), ("data", commands[2])):
        ini.write_text(f"[{section}]\nseed = -1\n")
        assert run(out + ["--config", str(ini)] + argv) == 2, argv
        assert _one_line_error(capsys), argv
    assert not list(tmp_path.glob("*.txt")) and not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("smoothing", ["-1", "nan", "inf", "1e308"])
def test_bad_smoothing_is_exit_2_before_any_write(tmp_path, data_file, capsys, smoothing):
    assert run(["--out-dir", str(tmp_path), "fit", "--sample-from", str(data_file),
                "--smoothing", smoothing]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: smoothing") and "Traceback" not in captured.err
    assert not (tmp_path / "corpus.txt").exists() and not (tmp_path / "model.json").exists()


def test_zero_samples_write_an_empty_file(tmp_path, data_file):
    out = tmp_path / "none.txt"
    assert run(["sample", "--data", str(data_file), "--num-samples", "0",
                "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_fit_with_tiny_smoothing(tmp_path):
    corpus = tmp_path / "c.txt"
    corpus.write_text("0 1\n1 0\n")
    assert run(["fit", "--corpus", str(corpus), "--num-categories", "2",
                "--smoothing", "1e-15", "--out", str(tmp_path / "m.json")]) == 0


def test_sample_trace_into_a_missing_directory(tmp_path, data_file):
    trace = tmp_path / "missing" / "deeper" / "tr.txt"
    assert run(["--out-dir", str(tmp_path), "sample", "--data", str(data_file),
                "--num-samples", "2", "--trace", str(trace)]) == 0
    assert trace.read_text(encoding="utf-8").count("# sample ") == 2
    assert (tmp_path / "samples.txt").read_text(encoding="utf-8").count("\n") == 2


def test_fit_sample_from_into_a_missing_out_dir(tmp_path, data_file):
    out_dir = tmp_path / "missing"
    assert run(["--out-dir", str(out_dir), "fit", "--sample-from", str(data_file),
                "--corpus-size", "10", "--out", str(tmp_path / "m.json")]) == 0
    assert load_corpus(out_dir / "corpus.txt").shape == (10, 2)
    assert DiffusionMarginalModel.load(tmp_path / "m.json").kind == "counts"


@pytest.mark.parametrize("argv", [
    ["--out-dir", "{d}", "sweep", "--data", "{d}"],
    ["sample", "--data", "{d}", "--out", "{d}/s.txt"],
    ["sample", "--data", "{d}", "--trace", "{d}/t.txt"],
    ["gen-data", "--out", "{d}/x.json"],
    ["fit", "--from-table", "{d}", "--out", "{d}/m.json"],
], ids=["sweep-out-dir", "sample-out", "sample-trace", "gen-data-out", "fit-out"])
def test_output_path_that_cannot_be_created_is_exit_2(tmp_path, data_file, capsys, argv):
    # the data file is a regular file, so no directory can be made under it
    argv = ["--out-dir", str(tmp_path)] + [a.format(d=data_file) for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, blocker", [
    (["sample", "--data", "{d}", "--trace", "{o}/tdir"], "tdir"),
    (["sweep", "--data", "{d}"], "plot_kl_dcd_beta1.0.tsv"),
    (["fit", "--sample-from", "{d}", "--out", "{o}/m.json"], "m.json"),
    (["fit", "--from-table", "{o}/missing.json", "--out", "{o}/new/m.json"], None),
    (["fit", "--sample-from", "{o}/missing.json", "--out", "{o}/new/m.json"], None),
], ids=["sample-trace-is-a-dir", "sweep-plot-is-a-dir", "fit-out-is-a-dir",
        "fit-from-missing-table", "fit-sample-from-missing-table"])
def test_failed_command_leaves_no_file_behind(tmp_path, data_file, capsys, argv, blocker):
    # a directory where one output should go, or an input that fails validation
    out_dir = tmp_path / "o"
    out_dir.mkdir()
    if blocker:
        (out_dir / blocker).mkdir()
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(["--out-dir", str(out_dir)] + [a.format(d=data_file, o=out_dir) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "wrote" not in captured.out
    assert sorted(tmp_path.rglob("*")) == before
