"""Command-line interface.

Subcommands: loss, verify, gibbs, mil, gradcheck, demo, heatmap. Reports are
JSON (stdout by default, file via --out) and carry a schema_version; they
contain no timestamps or host details so identical seeds give byte-identical
bytes. The verify-style commands print a human pass/fail table unless --json
is given, and exit nonzero when any requested check fails.
"""

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import __version__, sceneio, synth, verify
from .errors import DimensionError, DomainError, SceneFormatError
from .gaco import GacoConfig
from .gradients import ObjectiveConfig, objective
from .heatmap import export_heatmaps
from .synth import RNG_NAME, SceneSpec

REPORT_SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# every config key and the type its value must have; float keys also take
# JSON integers, and no key but normalize_sim takes a bool
CONFIG_TYPES = {"tau_t": float, "tau": float, "lambda_sem": float, "lambda_geo": float,
                "clip": float, "eps": float, "k_ratio": float, "normalize_sim": bool,
                "std_mode": str, "seed": int, "seeds": list, "steps": int, "lr": float,
                "signal": float}


def _parse_seeds(text):
    try:
        return [int(s) for s in str(text).split(",") if s != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"--seeds expects comma-separated integers, got {text!r}")


def build_parser():
    """One subparser per command, holding only the flags its handler reads; no
    flag may be abbreviated, so a prefix never lands on a different flag."""
    parser = argparse.ArgumentParser(
        prog="expalign", allow_abbrev=False,
        description="Alignment-map losses, property suites, gradient checks, and a synthetic training demo.",
    )
    parser.add_argument("--version", action="version", version=f"expalign {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text, seed=True, **defaults):
        """A subcommand with the report flags; defaults name its handler as run and its own parser."""
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.set_defaults(parser=p, **defaults)
        p.add_argument("--config", metavar="PATH", help="JSON file with hyperparameter defaults")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="base RNG seed (default 0)")
        p.add_argument("--json", action="store_true", help="machine-readable JSON to stdout")
        p.add_argument("--out", metavar="PATH", help="also write the JSON report to this file")
        return p

    def add_hyperparameters(p):
        hp = p.add_argument_group("hyperparameters")
        hp.add_argument("--tau-t", dest="tau_t", type=float, default=None, help="token-posterior temperature")
        hp.add_argument("--tau", type=float, default=None, help="contrastive temperature")
        hp.add_argument("--lambda-sem", dest="lambda_sem", type=float, default=None)
        hp.add_argument("--lambda-geo", dest="lambda_geo", type=float, default=None)
        hp.add_argument("--clip", type=float, default=None, help="advantage clip bound")
        hp.add_argument("--eps", type=float, default=None, help="stabilizer epsilon")
        hp.add_argument("--k-ratio", dest="k_ratio", type=float, default=None, help="top-k budget ratio")
        hp.add_argument("--normalize-sim", dest="normalize_sim", action="store_true", default=None,
                        help="divide the fine map by its max |value| before the geometry chain")
        hp.add_argument("--no-normalize-sim", dest="normalize_sim", action="store_false",
                        help="use the raw fine map in the geometry chain")
        hp.add_argument("--std-mode", dest="std_mode", choices=("population", "std_plus_eps"), default=None)

    p_loss = add_command("loss", "evaluate the losses on a scene file or a synthetic scene", run=cmd_loss)
    add_hyperparameters(p_loss)
    p_loss.add_argument("--scene", metavar="PATH", help="scene JSON (default: synthetic from --seed)")
    p_loss.add_argument("--signal", type=float, default=None, help="synthetic signal strength")

    for name, groups, help_text in (("verify", None, "run every property suite"),
                                    ("gibbs", ("gibbs",), "closed-form vs numeric free-energy minimization"),
                                    ("mil", ("mil",), "instance-pooling equivalence checks"),
                                    ("gradcheck", ("grad",), "analytic vs finite-difference gradients")):
        p = add_command(name, help_text, run=cmd_suite, groups=groups)
        p.add_argument("--inject-fault", dest="fault", choices=sorted(verify.FAULTS), default=None,
                       help="mutation sanity check: run with a named library fault planted")

    p_demo = add_command("demo", "train the synthetic benchmark and report accuracies", seed=False, run=cmd_demo)
    add_hyperparameters(p_demo)
    p_demo.add_argument("--seeds", type=_parse_seeds, default=None,
                        help="comma-separated scene seeds (default: the frozen benchmark set)")
    p_demo.add_argument("--steps", type=int, default=None)
    p_demo.add_argument("--lr", type=float, default=None)
    p_demo.add_argument("--signal", type=float, default=None)
    p_demo.add_argument("--heatmap", action="store_true", help="export fine-map heatmaps after training")
    p_demo.add_argument("--heatmap-dir", default="heatmaps", metavar="DIR")

    p_heat = add_command("heatmap", "export per-prompt fine fused maps as PGM files", run=cmd_heatmap)
    p_heat.add_argument("--tau-t", dest="tau_t", type=float, default=None, help="token-posterior temperature")
    p_heat.add_argument("--scene", metavar="PATH", help="scene JSON (default: synthetic from --seed)")
    p_heat.add_argument("--signal", type=float, default=None)
    p_heat.add_argument("--out-dir", default="heatmaps", metavar="DIR")

    return parser


def load_config_file(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as e:
        raise SceneFormatError(f"cannot read config file: {e}") from e
    except json.JSONDecodeError as e:
        raise SceneFormatError(f"invalid config JSON at line {e.lineno} column {e.colno}: {e.msg}") from e
    if not isinstance(doc, dict):
        raise SceneFormatError("config file must hold a JSON object")
    unknown = sorted(set(doc) - set(CONFIG_TYPES))
    if unknown:
        raise SceneFormatError(f"unknown config keys: {unknown}; known: {sorted(CONFIG_TYPES)}")
    for key, value in doc.items():
        if not _has_type(value, CONFIG_TYPES[key]):
            expected = "a list of int" if CONFIG_TYPES[key] is list else CONFIG_TYPES[key].__name__
            raise SceneFormatError(f"config key '{key}' must be {expected}, got {value!r}")
        if CONFIG_TYPES[key] is float and abs(value) > sys.float_info.max:  # a JSON integer such as 10**400
            raise SceneFormatError(f"config key '{key}' holds an integer too large for a float")
    return doc


def _has_type(value, kind):
    if isinstance(value, bool) != (kind is bool):
        return False
    if kind is float:
        return isinstance(value, (int, float))
    if kind is list:
        return isinstance(value, list) and all(_has_type(v, int) for v in value)
    return isinstance(value, kind)


def resolve_settings(args):
    """defaults < config file < explicit flags; returns the settings and the
    objective config built from them, so every command checks its hyperparameters."""
    base = synth.benchmark_config()
    settings = {
        "tau_t": base.tau_t, "tau": base.tau,
        "lambda_sem": base.lambda_sem, "lambda_geo": base.lambda_geo,
        "clip": base.gaco.clip, "eps": base.gaco.eps,
        "k_ratio": base.topk_ratio, "normalize_sim": base.gaco.normalize,
        "std_mode": base.gaco.std_mode,
        "seed": 0, "seeds": list(synth.BENCHMARK_SEEDS),
        "steps": synth.BENCHMARK_STEPS, "lr": synth.BENCHMARK_LR,
        "signal": synth.BENCHMARK_SIGNAL,
    }
    if args.config:
        settings.update(load_config_file(args.config))
    for key in CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    if settings["seed"] < 0:
        raise DomainError(f"seed must be nonnegative, got {settings['seed']}")
    if not settings["seeds"] or min(settings["seeds"]) < 0:
        raise DomainError(f"seeds must be a nonempty list of nonnegative integers, got {settings['seeds']}")
    return settings, ObjectiveConfig(
        lambda_sem=settings["lambda_sem"], lambda_geo=settings["lambda_geo"],
        tau_t=settings["tau_t"], tau=settings["tau"], topk_ratio=settings["k_ratio"],
        gaco=GacoConfig(clip=settings["clip"], eps=settings["eps"],
                        normalize=settings["normalize_sim"], std_mode=settings["std_mode"]),
    )


def config_echo(settings):
    return {**settings, "rng": RNG_NAME}  # emit sorts the keys


def _json_default(value):
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def emit(report, args, human_lines=None):
    """Write the report, stamped with the schema version and the command name."""
    report = {"schema_version": REPORT_SCHEMA_VERSION, "command": args.command, **report}
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False, default=_json_default) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    if args.json or human_lines is None:
        sys.stdout.write(text)
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")


def _load_scene(args, settings):
    if args.scene:
        unread = [f"--{key}" for key in ("seed", "signal") if getattr(args, key) is not None]
        if unread:
            raise DomainError(f"{' and '.join(unread)} would not be read: --scene gives the scene")
        return sceneio.read_scene(args.scene), {"source": "file", "path": args.scene}
    spec = SceneSpec(seed=settings["seed"], signal=settings["signal"])
    return synth.generate_scene(spec), {"source": "synthetic", "seed": settings["seed"],
                                        "signal": settings["signal"]}


def cmd_loss(args, settings, cfg):
    scene, source = _load_scene(args, settings)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite term is reported below
        val = objective([f.values for f in scene.features], [t.embeddings for t in scene.tokens],
                        scene.masks, scene.positives, cfg, [t.valid for t in scene.tokens])
    terms = {"l_sem": val.l_sem, "l_geo": val.gaco.loss, "total": val.total}
    bad = [name for name, value in terms.items() if not np.isfinite(value)]
    if bad:
        raise DomainError(f"non-finite loss terms: {', '.join(bad)}")
    report = {
        "scene": source,
        "config": config_echo(settings),
        "k": val.k,
        "pooled_logits": val.logits,
        "topk_indices": val.selections,
        **terms,
    }
    emit(report, args)
    return EXIT_OK


def cmd_suite(args, settings, cfg):
    """verify, gibbs, mil and gradcheck: the suite restricted to args.groups; its
    checks fix their own hyperparameters, so cfg was only checked."""
    results = verify.run_suite(groups=args.groups, seed=settings["seed"], fault=args.fault)
    all_passed = all(r.passed for r in results)
    report = {
        "seed": settings["seed"],
        "fault": args.fault,
        # JSON has no NaN: a non-finite residual, such as a check that raised, is null
        "checks": [{**asdict(r), "residual": r.residual if math.isfinite(r.residual) else None}
                   for r in results],
        "all_passed": all_passed,
    }
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name:34s} residual={r.residual:.3e} tol={r.tolerance:.1e}"
        for r in results
    ]
    lines.append(f"{'all checks passed' if all_passed else 'FAILURES detected'} "
                 f"({sum(r.passed for r in results)}/{len(results)})")
    emit(report, args, human_lines=lines)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def cmd_demo(args, settings, cfg):
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged run is reported as such
        bench = synth.run_benchmark(settings["seeds"], settings["steps"], settings["lr"],
                                    settings["signal"], cfg)
    report = {
        "config": config_echo(settings),
        "seeds": bench["seeds"],
        "mean_initial_accuracy": bench["mean_initial_accuracy"],
        "mean_final_accuracy": bench["mean_final_accuracy"],
        "runs": [r.to_dict() for r in bench["runs"]],
    }
    if args.heatmap:
        # trained fine maps of the first seed's scene
        scene = synth.generate_scene(synth.benchmark_spec(bench["seeds"][0], settings["signal"]))
        report["heatmaps"] = _export_scene_heatmaps(scene, cfg, args.heatmap_dir,
                                                    token_delta=bench["runs"][0].final_delta)
    emit(report, args)
    return EXIT_OK


def _export_scene_heatmaps(scene, cfg, out_dir, token_delta=None):
    with np.errstate(over="ignore", invalid="ignore"):  # export_heatmaps names a non-finite map
        maps = synth.fine_maps(scene, token_delta, cfg.tau_t)
    sidecar = export_heatmaps(out_dir, maps)
    return {"dir": out_dir, "maps": sidecar["maps"]}


def cmd_heatmap(args, settings, cfg):
    scene, source = _load_scene(args, settings)
    report = {
        "scene": source,
        "config": config_echo(settings),
        "heatmaps": _export_scene_heatmaps(scene, cfg, args.out_dir),
    }
    emit(report, args)
    return EXIT_OK


def main(argv=None):
    args, unread = build_parser().parse_known_args(argv)
    if unread:  # with the subcommand's usage line and flags, not the top level's
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        return args.run(args, *resolve_settings(args))
    except (SceneFormatError, DomainError, DimensionError) as e:
        sys.stderr.write(f"error: {e}\n")
        return EXIT_USAGE
    except OSError as e:
        sys.stderr.write(f"i/o error: {e}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
