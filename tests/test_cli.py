"""Command-line surface: subcommands, config handling, exit codes, determinism."""

from __future__ import annotations

import pytest

from maskdiff.cli import main
from maskdiff.dist import load_table
from maskdiff.models import DiffusionMarginalModel, load_corpus


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


def test_eval_prints_metrics(tmp_path, data_file, capsys):
    assert run(["eval", "--data", str(data_file), "--mode", "dcd", "--steps", "1"]) == 0
    out = capsys.readouterr().out
    assert "kl_to_data=" in out and "elbo_bound=" in out


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
