"""Command-line surface.

Subcommands: gen-data, fit, sample, eval, sweep, verify. Global flags
--seed, --config, --out-dir. Every flag that sets a `config.SCHEMA` key
parses with that key's parser; a flag overrides the config file, which
overrides the SCHEMA default. Exit codes: 0 success, 1 verification
failure, 2 configuration/input error or an output that cannot be written.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .config import SCHEMA, count, load_config, resolve
from .dist import Alphabet, format_float_short, load_table, make_output_dirs, sample_states, save_table
from .errors import ConfigError, MaskDiffError
from .harness import (
    SyntheticSpec,
    check_data_models,
    elbo_bound,
    expected_nll,
    gen_data,
    induced_distribution,
    kl_to_data,
    run_sweep,
)
from .models import (
    ARCopulaModel,
    DiffusionMarginalModel,
    load_corpus,
    save_corpus,
)
from .noising import make_schedule
from .sampler import MODES, SamplerConfig, required_models, sample
from . import verify as verify_mod


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maskdiff",
        description="Exact desk-scale absorbing-mask diffusion with copula-corrected denoising.",
    )
    # --seed sets both [data] seed and [sampler] seed
    _add_setting(parser, "sampler", "seed", help="global seed override")
    parser.add_argument("--config", type=str, default=None, help="config file (INI sections)")
    parser.add_argument("--out-dir", type=str, default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic joint table")
    for key in ("kind", "num_positions", "num_categories", "correlation_strength"):
        _add_setting(p, "data", key)
    p.add_argument("--out", type=str, default=None, help="table file (default data.json)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("fit", help="fit a counts model from a corpus, or wrap a table")
    p.add_argument("--corpus", type=str, default=None, help="corpus file, one sequence per line")
    p.add_argument("--num-categories", type=int, default=None, help="category count for --corpus")
    _add_setting(p, "fit", "smoothing",
                 help=f"additive smoothing (default {SCHEMA['fit']['smoothing'].default})")
    p.add_argument("--from-table", type=str, default=None, help="wrap a table file as an exact model")
    p.add_argument("--sample-from", type=str, default=None,
                   help="draw a corpus of --corpus-size sequences from this table first")
    p.add_argument("--corpus-size", type=count, default=10000)
    p.add_argument("--out", type=str, default=None, help="model file (default model.json)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("sample", help="draw sequences")
    _add_model_flags(p)
    _add_sampler_flags(p)
    _add_setting(p, "sampler", "num_samples")
    p.add_argument("--out", type=str, default=None, help="samples file (default samples.txt)")
    p.add_argument("--trace", type=str, default=None, help="write per-step traces here")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="exact metrics for one (mode, T, beta) cell")
    _add_model_flags(p)
    _add_sampler_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="exact metrics across modes, step counts, betas")
    _add_model_flags(p)
    _add_setting(p, "sweep", "modes", help="comma-separated modes")
    _add_setting(p, "sweep", "steps_list", help="comma-separated step counts")
    _add_setting(p, "sweep", "beta_list", help="comma-separated betas")
    _add_schedule_flags(p)
    p.add_argument("--emit-timings", action="store_true", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run property suites (exit 1 on failure)")
    p.add_argument("suite", nargs="?", default="all",
                   help="all or one of: " + ", ".join(sorted(verify_mod.REGISTRY)))
    p.set_defaults(func=cmd_verify)
    return parser


def _add_setting(p: argparse.ArgumentParser, section: str, key: str, **kwargs: Any) -> None:
    """Flag --key-name for SCHEMA[section][key], read by that key's parser
    into args.key (None when absent, so `_get` falls through)."""
    p.add_argument("--" + key.replace("_", "-"), type=SCHEMA[section][key].parse,
                   default=None, **kwargs)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", type=str, default=None, help="data table file")
    p.add_argument("--dm-model", type=str, default=None,
                   help="marginal-model file (default: exact model from --data)")
    p.add_argument("--copula-model", type=str, default=None,
                   help="copula-model file (default: exact model from --data)")


def _add_sampler_flags(p: argparse.ArgumentParser) -> None:
    _add_setting(p, "sampler", "mode", choices=MODES)
    _add_setting(p, "schedule", "steps")
    _add_setting(p, "sampler", "beta")
    _add_schedule_flags(p)


# the [schedule] keys sample, eval and sweep share; sweep takes its step
# counts from [sweep] steps_list
_SCHEDULE_KEYS = ("family", "epsilon", "chunk_size")


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    for key in _SCHEDULE_KEYS:
        _add_setting(p, "schedule", key)


def _get(args: argparse.Namespace, cfg: dict, section: str, key: str) -> Any:
    """[section] key: its flag, then the config file, then the SCHEMA default."""
    return resolve(cfg, section, key, getattr(args, key, None))


def _schedule_settings(args: argparse.Namespace, cfg: dict) -> dict[str, Any]:
    """The shared [schedule] keys, as keyword arguments of make_schedule and run_sweep."""
    return {key: _get(args, cfg, "schedule", key) for key in _SCHEDULE_KEYS}


def _resolve_models(
    args: argparse.Namespace, modes: Sequence[str]
) -> tuple[DiffusionMarginalModel | None, ARCopulaModel | None, Any]:
    """The models `modes` need (and any given by file), plus the --data table."""
    needs = [required_models(mode) for mode in modes]
    data = load_table(args.data) if args.data else None
    dm = None
    copula = None
    floored = None  # both exact models wrap this one table
    if args.dm_model:
        dm = DiffusionMarginalModel.load(args.dm_model)
    elif any(need_dm for need_dm, _ in needs):
        if data is None:
            raise ConfigError("need --dm-model or --data for this mode")
        floored = data.floored()
        dm = DiffusionMarginalModel.exact(floored)
    if args.copula_model:
        copula = ARCopulaModel.load(args.copula_model)
    elif any(need_copula for _, need_copula in needs):
        if data is None:
            raise ConfigError("need --copula-model or --data for this mode")
        copula = ARCopulaModel.exact(floored if floored is not None else data.floored())
    return dm, copula, data


def _sampler_config(args: argparse.Namespace, cfg: dict) -> SamplerConfig:
    steps = _get(args, cfg, "schedule", "steps")
    sched = make_schedule(steps=steps, **_schedule_settings(args, cfg))
    return SamplerConfig(
        steps=steps, schedule=sched, mode=_get(args, cfg, "sampler", "mode"),
        beta=_get(args, cfg, "sampler", "beta"), chunk_size=sched.chunk_size,
        seed=_get(args, cfg, "sampler", "seed"),
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_data(args: argparse.Namespace, cfg: dict) -> int:
    # SyntheticSpec's fields are the [data] keys
    spec = SyntheticSpec(**{key: _get(args, cfg, "data", key) for key in SCHEMA["data"]})
    table = gen_data(spec)
    out = Path(args.out) if args.out else Path(args.out_dir) / "data.json"
    make_output_dirs([out])
    save_table(table, out)
    print(f"wrote {out} ({spec.kind}, N={spec.num_positions}, C={spec.num_categories})")
    return 0


def cmd_fit(args: argparse.Namespace, cfg: dict) -> int:
    out = Path(args.out) if args.out else Path(args.out_dir) / "model.json"
    if args.from_table:
        model = DiffusionMarginalModel.exact(load_table(args.from_table).floored())
        make_output_dirs([out])
        model.save(out)
        print(f"wrote exact model {out}")
        return 0
    smoothing = _get(args, cfg, "fit", "smoothing")
    if args.sample_from:
        table = load_table(args.sample_from)
        rng = np.random.default_rng(_get(args, cfg, "data", "seed"))
        seqs = sample_states(table, args.corpus_size, rng)
        alphabet = table.alphabet
    elif args.corpus:
        seqs = load_corpus(args.corpus)
        if args.num_categories is None:
            raise ConfigError("--corpus needs --num-categories")
        alphabet = Alphabet(seqs.shape[1], args.num_categories)
    else:
        raise ConfigError("fit needs one of --corpus, --from-table, --sample-from")
    # fit first, so a bad smoothing writes nothing
    model = DiffusionMarginalModel.from_corpus(seqs, alphabet, smoothing)
    corpus_path = Path(args.out_dir) / "corpus.txt"
    make_output_dirs([corpus_path, out] if args.sample_from else [out])
    if args.sample_from:
        save_corpus(seqs, corpus_path)
        print(f"wrote {corpus_path} ({args.corpus_size} sequences)")
    model.save(out)
    print(f"wrote counts model {out} (smoothing={format_float_short(smoothing)})")
    return 0


def cmd_sample(args: argparse.Namespace, cfg: dict) -> int:
    scfg = _sampler_config(args, cfg)
    dm, copula, _ = _resolve_models(args, [scfg.mode])
    num = _get(args, cfg, "sampler", "num_samples")
    rng = np.random.default_rng(scfg.seed)
    lines = []
    traces = []
    for k in range(num):
        x0, trace = sample(dm, copula, scfg, rng)
        lines.append(" ".join(str(t) for t in x0.tokens))
        if args.trace:
            traces.append(f"# sample {k}\n" + trace.dumps())
    out = Path(args.out) if args.out else Path(args.out_dir) / "samples.txt"
    make_output_dirs([out, Path(args.trace)] if args.trace else [out])
    out.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    print(f"wrote {out} ({num} samples, mode={scfg.mode}, T={scfg.steps})")
    if args.trace:
        Path(args.trace).write_text("".join(traces), encoding="utf-8")
        print(f"wrote {args.trace}")
    return 0


def cmd_eval(args: argparse.Namespace, cfg: dict) -> int:
    if not args.data:
        raise ConfigError("eval needs --data to score against")
    scfg = _sampler_config(args, cfg)
    dm, copula, data = _resolve_models(args, [scfg.mode])
    check_data_models(data, dm, copula, scfg.mode)
    induced = induced_distribution(dm, copula, scfg)
    klv = kl_to_data(data, induced.table)
    nll = expected_nll(data, induced.table)
    bound = elbo_bound(data, scfg.schedule)
    print(f"mode={scfg.mode} T={scfg.steps} beta={format_float_short(scfg.beta)}")
    print(f"kl_to_data={format_float_short(klv)}")
    print(f"nll={format_float_short(nll)}")
    print(f"elbo_bound={format_float_short(bound)}")
    return 0


def cmd_sweep(args: argparse.Namespace, cfg: dict) -> int:
    if not args.data:
        raise ConfigError("sweep needs --data to score against")
    modes = _get(args, cfg, "sweep", "modes")
    dm, copula, data = _resolve_models(args, modes)
    results = run_sweep(
        data, dm, copula, modes,
        _get(args, cfg, "sweep", "steps_list"), _get(args, cfg, "sweep", "beta_list"),
        **_schedule_settings(args, cfg), out_dir=args.out_dir,
        emit_timings=_get(args, cfg, "sweep", "emit_timings"),
    )
    for r in results:
        wall = "" if r.wall_ms is None else f" wall_ms={r.wall_ms:.1f}"
        print(
            f"{r.mode} T={r.steps} beta={format_float_short(r.beta)} "
            f"kl={format_float_short(r.kl_to_data)} nll={format_float_short(r.nll)}"
            f" bound={format_float_short(r.elbo_bound)}{wall}"
        )
    print(f"wrote {Path(args.out_dir) / 'results.csv'}")
    return 0


def cmd_verify(args: argparse.Namespace, cfg: dict) -> int:
    try:
        results, ok = verify_mod.run(args.suite)
    except KeyError as exc:
        raise ConfigError(str(exc)) from exc
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{status} {r.suite}:{r.name}{detail}")
    print(f"{'OK' if ok else 'FAILED'}: {sum(r.passed for r in results)}/{len(results)} checks")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (MaskDiffError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
