"""Command-line surface.

Exit codes: 0 success, 1 usage/config errors, 2 data or file errors, 3 numeric
or divergence errors. Every command writes identical bytes when re-run with
identical inputs (the wall_seconds run-log column is the one documented
exception and is excluded from determinism checks).
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import sys
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from . import stats
from .cost import COST_FAMILIES, cost_table
from .data import (AugmentConfig, gen_border_task, load_cifar_binary,
                   save_cifar_binary)
from .errors import (ConfigError, CorruptFileError, DataError, NumericError,
                     PadlabError, TrainingDivergedError)
from .models import FAMILIES, ModelSpec, build_model
from .nn import PaddingMode
from .rng import Rng
from .training import (Checkpoint, RunLog, TrainConfig, evaluate, save_run,
                       split_train_val, train_run)

_TOO_BIG = ("Maximum allowed dimension exceeded", "array is too big")  # numpy refusing a size


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


# ---------------------------------------------------------------------------
# experiment config

_DATASET_KEYS = {
    "border": {"kind": str, "n": int, "size": int, "seed": int, "val_fraction": float},
    "cifar-binary": {"kind": str, "train_path": str, "val_path": str},
}
_DATASET_NEEDS = {"border": ("n", "size", "seed"),
                  "cifar-binary": ("train_path", "val_path")}
_TOP_KEYS = {"arch": str, "pad_channel": bool, "num_classes": int, "input_size": int,
             "input_channels": int, "padding_mode": str, "dataset": dict,
             "train": TrainConfig, "augment": AugmentConfig | None, "out_dir": str}


def _is_json(value, hint) -> bool:
    """Whether `value` has the JSON type `hint`: float takes any number a float holds
    but a bool, X | None null too, tuple[T, ...] an array of T, a dataclass an object."""
    if get_origin(hint) is tuple:
        return isinstance(value, list) and all(_is_json(v, get_args(hint)[0]) for v in value)
    if get_args(hint):
        return any(_is_json(value, h) for h in get_args(hint))
    kind = dict if is_dataclass(hint) else (int, float) if hint is float else hint
    return (isinstance(value, kind) and (hint is bool or not isinstance(value, bool))
            and not (isinstance(value, (int, float)) and not abs(value) <= sys.float_info.max))


def _check(d: dict, schema: dict, where: str, required=()):
    """Reject unknown or missing keys and values of the wrong JSON type."""
    unknown = set(d) - set(schema)
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    for key in required:
        if key not in d:
            raise ConfigError(f"{where} needs {key!r}")
    for key, value in d.items():
        if not _is_json(value, schema[key]):
            raise ConfigError(f"{where}.{key} has the wrong JSON type: {value!r}")


def _build(cls, block: dict, where: str):
    """`cls` from the JSON object `block`: its fields are the keys, those without a
    default are required, and arrays become tuples of the annotated element type."""
    hints = get_type_hints(cls)
    needs = [f.name for f in fields(cls) if f.default is f.default_factory is MISSING]
    _check(block, hints, where, needs)
    kwargs = {key: block[key] for key in hints if key in block}
    for key, value in kwargs.items():
        if is_dataclass(hints[key]):
            kwargs[key] = _build(hints[key], value, f"{where}.{key}")
        elif get_origin(hints[key]) is tuple:
            kwargs[key] = tuple(map(get_args(hints[key])[0], value))
    return cls(**kwargs)


class Experiment:
    """Validated experiment config: model spec, train config, dataset recipe."""

    def __init__(self, raw: dict):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        _check(raw, _TOP_KEYS, "config", ("arch", "dataset"))
        ds = raw["dataset"]
        kind = ds.get("kind")
        if not isinstance(kind, str) or kind not in _DATASET_KEYS:
            raise ConfigError(f"unknown dataset kind {kind!r}")
        _check(ds, _DATASET_KEYS[kind], f"dataset.{kind}", _DATASET_NEEDS[kind])
        self.dataset = ds

        aug = raw.get("augment")
        self.augment = None if aug is None else _build(AugmentConfig, aug, "augment")
        # The network sees the dataset's images, or the crops when augmenting.
        sizes = {ds["size"] if kind == "border" else 32}
        if self.augment is not None:
            sizes = {self.augment.train.random_resized_crop_size,
                     self.augment.eval.center_crop_size}
        size = raw.get("input_size", min(sizes))
        if sizes != {size}:
            raise ConfigError(f"input_size {size} differs from the image size "
                              f"{'/'.join(map(str, sorted(sizes)))} the network sees")
        default_classes = 2 if kind == "border" else 10
        try:
            mode = PaddingMode(raw.get("padding_mode", "zero"))
        except ValueError:
            raise ConfigError(f"unknown padding_mode {raw.get('padding_mode')!r}")
        self.spec = ModelSpec(
            family=raw["arch"],
            pad_channel=raw.get("pad_channel", False),
            num_classes=raw.get("num_classes", default_classes),
            input_channels=raw.get("input_channels", 3),
            input_size=size,
            padding_mode=mode,
        )

        self.train_cfg = _build(TrainConfig, raw.get("train", {}), "train")
        self.out_dir = raw.get("out_dir", "runs")

    def load_datasets(self):
        ds = self.dataset
        if ds["kind"] == "border":
            images = gen_border_task(ds["n"], ds["size"], Rng(ds["seed"]))
            return split_train_val(images, ds.get("val_fraction", 0.2))
        train = load_cifar_binary(ds["train_path"])
        val = load_cifar_binary(ds["val_path"])
        return train, val


def load_experiment(path) -> Experiment:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}")
    except ValueError as exc:  # bad JSON, or an int past Python's str-to-int digit limit
        raise ConfigError(f"config is not valid JSON: {exc}")
    return Experiment(raw)


# ---------------------------------------------------------------------------
# commands

def cmd_cost(args) -> int:
    if not args.all and not args.arch:
        raise ConfigError("need --arch or --all")
    families = COST_FAMILIES if args.all else (args.arch,)
    report = cost_table(families, args.input_size, args.num_classes)
    if args.pad_channel:
        report.rows = [r for r in report.rows if r.variant == "pc"]
    text = report.to_csv() if args.format == "csv" else report.to_text()
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _parse_seeds(expr: str):
    try:
        if ".." in expr:
            lo, hi = (Rng(int(end)).seed for end in expr.split("..", 1))
            if hi - lo >= sys.maxsize:  # list(range(...)) would raise OverflowError
                raise ConfigError(f"--seeds {expr!r} names {hi - lo + 1} seeds, too many to list")
            return list(range(lo, hi + 1))
        return [int(s) for s in expr.split(",") if s != ""]
    except ValueError:
        raise ConfigError(f"--seeds {expr!r} is not a comma list or lo..hi range of ints")


def _print_epoch(seed: int, r) -> None:
    print(f"seed {seed} epoch {r.epoch}: loss {r.train_loss:.4f} top-1 {r.val_top1:.2f} "
          f"lr {r.lr:g} {r.wall_seconds:.1f} s", file=sys.stderr, flush=True)


def _run_one_seed(config_path: str, seed: int) -> dict:
    exp = load_experiment(config_path)
    train_images, val_images = exp.load_datasets()
    try:
        log, best, _ = train_run(exp.spec, exp.train_cfg, train_images, val_images,
                                 seed, exp.augment, lambda r: _print_epoch(seed, r))
    except TrainingDivergedError as exc:
        partial = getattr(exc, "runlog", None)
        if partial is not None and partial.records:
            save_run(exp.out_dir, partial)
        raise
    d = save_run(exp.out_dir, log, best)
    return {"seed": seed, "dir": str(d), "best_epoch": best.epoch,
            "best_top1": best.val_top1, "epochs": len(log.records)}


def cmd_train(args) -> int:
    exp = load_experiment(args.config)
    if args.seed is not None:
        seeds = [args.seed]
    elif args.seeds is not None:
        seeds = _parse_seeds(args.seeds)
    else:
        seeds = list(exp.train_cfg.seeds)
    if not seeds:
        raise ConfigError("no seeds to train")
    seeds = [Rng(s).seed for s in seeds]  # every seed's range, before a run writes
    if args.parallel < 0:
        raise ConfigError("--parallel must be >= 0")
    results = []
    if args.parallel and len(seeds) > 1:
        import concurrent.futures as cf
        # the executor forks all max_workers at the first submit
        with cf.ProcessPoolExecutor(max_workers=min(args.parallel, len(seeds))) as pool:
            futures = [pool.submit(_run_one_seed, args.config, s) for s in seeds]
            results = [f.result() for f in futures]
    else:
        for s in seeds:
            results.append(_run_one_seed(args.config, s))
    for r in results:
        print(f"seed {r['seed']}: best top-1 {r['best_top1']:.3f} "
              f"at epoch {r['best_epoch']} ({r['epochs']} epochs) -> {r['dir']}")
    return 0


def cmd_eval(args) -> int:
    exp = load_experiment(args.config)
    model = build_model(exp.spec, Rng(0), init="zeros")
    ckpt = Checkpoint.load(args.checkpoint)
    model.load_state(ckpt.tensors)
    _, val_images = exp.load_datasets()
    top1 = evaluate(model, val_images, exp.augment)
    print(f"val top-1 {top1!r} (checkpoint recorded {ckpt.val_top1!r} "
          f"at epoch {ckpt.epoch})")
    return 0


def _best_top1_from_glob(pattern: str) -> list[tuple[str, float]]:
    paths = sorted(globmod.glob(pattern, recursive=True))
    out = []
    for p in paths:
        try:
            text = Path(p).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptFileError(f"{p}: run log is not UTF-8 text: {exc}")
        log = RunLog.from_csv(text)
        out.append((log.spec_id, log.best_top1()))
    return out


def cmd_compare(args) -> int:
    if args.svg and not args.out:
        raise ConfigError("--svg needs --out to name the chart files")
    if args.fixture:
        groups = stats.load_reference_runs()
    else:
        if not args.runs_a or not args.runs_b:
            raise ConfigError("need --runs-a and --runs-b globs (or --fixture)")
        side_a = _best_top1_from_glob(args.runs_a)
        side_b = _best_top1_from_glob(args.runs_b)
        if len(side_a) < 2 or len(side_b) < 2:
            raise ConfigError(
                f"need at least 2 runs per side, got {len(side_a)} and {len(side_b)}")
        ids_a = {s for s, _ in side_a}
        ids_b = {s for s, _ in side_b}
        if len(ids_a) == 1 and len(ids_b) == 1:
            a, b = ids_a.pop(), ids_b.pop()
            label = a if b == a + "-pc" else f"{a}-vs-{b}"
        else:
            label = "runs"
        groups = [stats.RunGroup(label, "base", [v for _, v in side_a]),
                  stats.RunGroup(label, "pc", [v for _, v in side_b])]
    report = stats.summarize(groups, use_welch=args.welch)
    sys.stdout.write(report.to_text())
    if args.out:
        Path(args.out).with_suffix(".csv").write_text(report.to_csv())
        if args.svg:
            base = Path(args.out)
            base.with_name(base.stem + "_means.svg").write_text(
                stats.bar_chart_svg(report, "mean"))
            base.with_name(base.stem + "_stdevs.svg").write_text(
                stats.bar_chart_svg(report, "stdev"))
    return 0


def cmd_gen_data(args) -> int:
    if args.task != "border":
        raise ConfigError(f"unknown task {args.task!r}")
    if args.size != 32:
        raise ConfigError("the binary record layout stores 32x32 images")
    images = gen_border_task(args.n, args.size, Rng(args.seed))
    save_cifar_binary(images, args.out)
    ones = int(images.labels.sum())
    print(f"wrote {len(images)} records to {args.out} "
          f"({ones} boundary-positive)")
    return 0


def cmd_gradcheck(args) -> int:
    from .gradcheck_suite import run_suite
    results = run_suite(trials=args.trials)
    worst_overall = 0.0
    for name, worst in results:
        flag = "ok" if worst < 1e-4 else "FAIL"
        print(f"{name:<40} max rel err {worst:.3e}  {flag}")
        worst_overall = max(worst_overall, worst)
    if worst_overall >= 1e-4:
        print(f"worst {worst_overall:.3e} exceeds 1e-4")
        return 3
    print(f"all layers pass at 1e-4 (worst {worst_overall:.3e})")
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> _Parser:
    parser = _Parser(prog="padlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cost", help="parameter/MAC cost tables")
    p.add_argument("--arch", help=f"one of {', '.join(FAMILIES)}")
    p.add_argument("--all", action="store_true",
                   help="all four full-size families")
    p.add_argument("--pad-channel", action="store_true",
                   help="print only the pad-channel rows")
    p.add_argument("--input-size", type=int, default=224)
    p.add_argument("--num-classes", type=int, default=1000)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--out", help="also write the table to this file")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("train", help="run seeded training from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--seeds", help="comma list or lo..hi range")
    p.add_argument("--parallel", type=int, default=0,
                   help="run seeds concurrently with this many processes")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the config's val set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="two-group comparison of best top-1")
    p.add_argument("--runs-a", help="glob of baseline runlog.csv files")
    p.add_argument("--runs-b", help="glob of treated runlog.csv files")
    p.add_argument("--fixture", action="store_true",
                   help="use the committed reference run fixture")
    p.add_argument("--welch", action="store_true",
                   help="Welch test instead of pooled variance")
    p.add_argument("--out", help="output path stem for CSV (and SVG)")
    p.add_argument("--svg", action="store_true", help="also write bar charts")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    p.add_argument("--task", default="border")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("gradcheck", help="finite-difference checks per layer")
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError, MemoryError, ValueError) as exc:  # the last two: array sizes
        if isinstance(exc, ValueError) and not str(exc).startswith(_TOO_BIG):
            raise
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except PadlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
