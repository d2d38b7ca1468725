"""Command-line entry point.

Subcommands: train, eval, infer, gradcheck, synth. Configuration comes from
an optional flat key=value file ('#' starts a comment) overridden by flags.
Every run that owns an output directory writes a manifest there; runs
without one echo the manifest to stdout as '# ' comment lines.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O error, 4 shape or class mismatch. All failures print a single
"ERR:<CATEGORY>: reason" line to stderr.
"""

import argparse
import math
import re
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    DataError,
    encode_ppm,
    load_image,
    load_image_folder,
    preprocess,
    split_dataset,
    synth_dataset,
)
from .gradcheck import GradCheckError, run_suite
from .model import TKFNet, model_config
from .tensor import ShapeError
from .train import LrSchedule, MomentumOptimizer, evaluate, fit
from .weights import WeightsFormatError, read_weights, write_weights

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_SHAPE = 4


class CliError(Exception):
    def __init__(self, category, code, message):
        super().__init__(message)
        self.category = category
        self.code = code


def _config_error(message):
    return CliError("CONFIG", EXIT_CONFIG, message)


def _io_error(message):
    return CliError("IO", EXIT_IO, message)


def _shape_error(message):
    return CliError("SHAPE", EXIT_SHAPE, message)


def _verify_error(message):
    return CliError("VERIFY", EXIT_VERIFY, message)


@dataclass
class RunConfig:
    model: str | None = None
    classes: int | None = None
    epochs: int = 60
    batch_size: int = 128
    lr_init: float = 0.1
    lr_end: float = 0.01
    power: float = 0.5
    momentum: float = 0.9
    seed: int = 0
    input_size: int = 224
    normalize: bool = True
    val_split: float = 0.0
    data: str | None = None
    out: str | None = None


def _parse_choice(key, options):
    def conv(text):
        if text not in options:
            raise _config_error(f"{key} must be one of {'|'.join(sorted(options))}, got {text!r}")
        return text

    return conv


def _parse_int(key, minimum=None):
    def conv(text):
        try:
            value = int(text)
        except ValueError:
            raise _config_error(f"{key} must be an integer, got {text!r}") from None
        if minimum is not None and value < minimum:
            raise _config_error(f"{key} must be >= {minimum}, got {value}")
        return value

    return conv


def _parse_float(key, minimum=None, exclusive_min=None, exclusive_max=None):
    def conv(text):
        try:
            value = float(text)
        except ValueError:
            raise _config_error(f"{key} must be a number, got {text!r}") from None
        if not math.isfinite(value):
            raise _config_error(f"{key} must be finite, got {value}")
        if minimum is not None and value < minimum:
            raise _config_error(f"{key} must be >= {minimum}, got {value}")
        if exclusive_min is not None and value <= exclusive_min:
            raise _config_error(f"{key} must be > {exclusive_min}, got {value}")
        if exclusive_max is not None and value >= exclusive_max:
            raise _config_error(f"{key} must be < {exclusive_max}, got {value}")
        return value

    return conv


def _parse_switch(key):
    def conv(text):
        lowered = text.strip().lower()
        if lowered in ("on", "true", "1", "yes"):
            return True
        if lowered in ("off", "false", "0", "no"):
            return False
        raise _config_error(f"{key} must be on or off, got {text!r}")

    return conv


CONFIG_PARSERS = {
    "model": _parse_choice("model", ("base", "small")),
    "classes": _parse_int("classes", minimum=1),
    "epochs": _parse_int("epochs", minimum=0),
    "batch_size": _parse_int("batch_size", minimum=1),
    "lr_init": _parse_float("lr_init", exclusive_min=0.0),
    "lr_end": _parse_float("lr_end", minimum=0.0),
    "power": _parse_float("power", exclusive_min=0.0),
    "momentum": _parse_float("momentum", minimum=0.0, exclusive_max=1.0),
    "seed": _parse_int("seed"),
    "input_size": _parse_int("input_size", minimum=1),
    "normalize": _parse_switch("normalize"),
    "val_split": _parse_float("val_split", minimum=0.0, exclusive_max=1.0),
    "data": str,
    "out": str,
}


def _parse_config_file(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _io_error(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise _config_error(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        if key not in CONFIG_PARSERS:
            raise _config_error(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = CONFIG_PARSERS[key](value)
    return values


# argparse destination -> RunConfig field
_FLAG_FIELDS = {
    "seed": "seed",
    "model": "model",
    "data": "data",
    "out": "out",
    "epochs": "epochs",
    "batch": "batch_size",
    "lr": "lr_init",
    "lr_end": "lr_end",
    "power": "power",
    "momentum": "momentum",
}


def _load_run_config(args):
    """RunConfig plus the set of field names the user set explicitly."""
    cfg = RunConfig()
    explicit = set()
    if getattr(args, "config", None):
        values = _parse_config_file(args.config)
        explicit.update(values)
        cfg = replace(cfg, **values)
    overrides = {}
    for dest, field in _FLAG_FIELDS.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides[field] = value
    explicit.update(overrides)
    return (replace(cfg, **overrides) if overrides else cfg), explicit


_SYNTH_RE = re.compile(r"^(?:synth:)?(\d+)x(\d+)x(\d+)$")


def _parse_synth_spec(text):
    match = _SYNTH_RE.match(text)
    if match is None:
        raise _config_error(
            f"synthetic dataset spec must look like synth:CLASSESxPER_CLASSxSIZE, got {text!r}"
        )
    classes, per_class, size = (int(g) for g in match.groups())
    if not 1 <= classes <= 7:
        raise _config_error(f"synthetic classes must be 1..7, got {classes}")
    if per_class < 1:
        raise _config_error(f"synthetic per-class count must be >= 1, got {per_class}")
    if size < 1:
        raise _config_error(f"synthetic image size must be >= 1, got {size}")
    return classes, per_class, size


def _resolve_dataset(spec, seed):
    if spec.startswith("synth:"):
        classes, per_class, size = _parse_synth_spec(spec)
        return synth_dataset(classes, per_class, (size, size), seed=seed)
    return load_image_folder(spec)


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "on" if value else "off"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _manifest_lines(command, cfg, class_names=None, extra=()):
    lines = [f"command={command}"]
    lines.extend(f"{key}={_format_value(value)}" for key, value in extra)
    for field in fields(RunConfig):
        if field.name == "out":
            continue
        lines.append(f"{field.name}={_format_value(getattr(cfg, field.name))}")
    if class_names:
        lines.extend(f"class_{i}={name}" for i, name in enumerate(class_names))
    return lines


def _emit_manifest(out_dir, command, cfg, class_names=None, extra=()):
    lines = _manifest_lines(command, cfg, class_names, extra)
    if out_dir is None:
        for line in lines:
            print(f"# {line}")
    else:
        (out_dir / "manifest.txt").write_text("\n".join(lines) + "\n")


def _ensure_out_dir(cfg, required=False):
    if cfg.out is None:
        if required:
            raise _config_error("this command requires --out (or out= in the config file)")
        return None
    out_dir = Path(cfg.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _io_error(f"cannot create output directory {out_dir}: {exc}") from exc
    return out_dir


def _confusion_csv(confusion, class_names):
    lines = ["class," + ",".join(class_names)]
    for name, row in zip(class_names, confusion):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def _check_class_count(cfg, found, origin):
    if cfg.classes is not None and cfg.classes != found:
        raise _shape_error(f"config requests {cfg.classes} classes but {origin} has {found}")


def cmd_train(args):
    cfg, _ = _load_run_config(args)
    if cfg.model is None:
        cfg = replace(cfg, model="base")
    if cfg.data is None:
        raise _config_error("train requires --data (a dataset folder or synth:CxNxS)")
    out_dir = _ensure_out_dir(cfg, required=True)

    dataset = _resolve_dataset(cfg.data, cfg.seed)
    _check_class_count(cfg, len(dataset.class_names), "the dataset")
    cfg = replace(cfg, classes=len(dataset.class_names))

    if cfg.val_split > 0.0:
        train_set, eval_set = split_dataset(dataset, cfg.val_split, cfg.seed)
        eval_origin = "holdout"
    else:
        train_set, eval_set = dataset, dataset
        eval_origin = "train"

    model = TKFNet(model_config(cfg.model, cfg.classes), seed=cfg.seed)
    steps_per_epoch = math.ceil(len(train_set.samples) / cfg.batch_size)
    schedule = LrSchedule(
        cfg.lr_init, cfg.lr_end, max(1, cfg.epochs * steps_per_epoch), cfg.power
    )
    optimizer = MomentumOptimizer(model.parameters(), schedule, momentum=cfg.momentum)

    size = (cfg.input_size, cfg.input_size)
    records = fit(
        model,
        train_set,
        optimizer,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        seed=cfg.seed,
        input_size=size,
        normalize=cfg.normalize,
        progress=lambda r: print(f"epoch {r.epoch} loss {r.mean_loss:.6f} lr {r.lr:.6f}"),
    )

    metrics = evaluate(model, eval_set, input_size=size, normalize=cfg.normalize)
    correct = int(np.trace(metrics.confusion))
    total = int(metrics.confusion.sum())

    (out_dir / "metrics.tsv").write_text(
        "".join(f"{r.epoch}\t{r.mean_loss:.6f}\t{r.lr:.6f}\n" for r in records)
    )
    (out_dir / "timing.log").write_text(
        "".join(f"{r.epoch}\t{r.seconds:.3f}\n" for r in records)
    )
    write_weights(out_dir / "weights.tkfw", model.state_arrays())
    (out_dir / "final.txt").write_text(
        f"accuracy={metrics.accuracy:.6f}\n"
        f"correct={correct}\n"
        f"samples={total}\n"
        f"eval_split={eval_origin}\n"
    )
    (out_dir / "confusion.csv").write_text(
        _confusion_csv(metrics.confusion, dataset.class_names)
    )
    _emit_manifest(out_dir, "train", cfg, dataset.class_names)
    print(f"accuracy {metrics.accuracy:.6f} ({correct}/{total} on {eval_origin})")
    return EXIT_OK


def _weights_geometry(arrays):
    head = arrays.get("dcif.head.weight")
    if head is None:
        raise _shape_error("weights file lacks the classifier record dcif.head.weight")
    stem = arrays.get("backbone.stem.weight")
    if stem is None:
        raise _shape_error("weights file lacks the stem record backbone.stem.weight")
    classes = int(head.shape[3])
    stem_width = int(stem.shape[3])
    for name in ("small", "base"):
        if model_config(name, classes).backbone.stem_channels == stem_width:
            return name, classes
    raise _shape_error(f"stem width {stem_width} matches no known model preset")


def _read_manifest(weights_path):
    """key -> value of the manifest beside a weights file; {} if unreadable."""
    try:
        text = (Path(weights_path).parent / "manifest.txt").read_text()
    except OSError:
        return {}
    manifest = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            manifest[key] = value
    return manifest


def _adopt_run_settings(cfg, explicit, manifest):
    """Align preprocessing with how the weights were trained.

    The manifest written beside a weights file records the training
    input_size and normalize switch; adopt them unless the user set those
    fields. Weights without a readable manifest keep the defaults.
    """
    updates = {}
    for key in ("input_size", "normalize"):
        if key in manifest and key not in explicit:
            try:
                updates[key] = CONFIG_PARSERS[key](manifest[key])
            except CliError:
                continue
    return replace(cfg, **updates) if updates else cfg


def _load_model(weights_path, cfg):
    arrays = read_weights(weights_path)
    detected_model, classes = _weights_geometry(arrays)
    model_name = cfg.model or detected_model
    _check_class_count(cfg, classes, f"the weights file {weights_path}")
    model = TKFNet(model_config(model_name, classes), state=arrays)
    return model, replace(cfg, model=model_name, classes=classes)


def cmd_eval(args):
    cfg, explicit = _load_run_config(args)
    if cfg.data is None:
        raise _config_error("eval requires --data (a dataset folder or synth:CxNxS)")
    cfg = _adopt_run_settings(cfg, explicit, _read_manifest(args.weights))
    out_dir = _ensure_out_dir(cfg)
    model, cfg = _load_model(args.weights, cfg)

    dataset = _resolve_dataset(cfg.data, cfg.seed)
    found = len(dataset.class_names)
    if found != cfg.classes:
        raise _shape_error(
            f"weights at {args.weights} classify {cfg.classes} classes "
            f"but the dataset has {found}"
        )

    size = (cfg.input_size, cfg.input_size)
    metrics = evaluate(model, dataset, input_size=size, normalize=cfg.normalize)
    correct = int(np.trace(metrics.confusion))
    total = int(metrics.confusion.sum())
    csv_text = _confusion_csv(metrics.confusion, dataset.class_names)

    if out_dir is not None:
        (out_dir / "confusion.csv").write_text(csv_text)
        (out_dir / "final.txt").write_text(
            f"accuracy={metrics.accuracy:.6f}\ncorrect={correct}\nsamples={total}\n"
        )
    _emit_manifest(out_dir, "eval", cfg, dataset.class_names, (("weights", args.weights),))
    print(f"accuracy {metrics.accuracy:.6f} ({correct}/{total})")
    if out_dir is None:
        sys.stdout.write(csv_text)
    return EXIT_OK


def _class_names(manifest, classes):
    names = {}
    for key, value in manifest.items():
        match = re.fullmatch(r"class_(\d+)", key)
        if match and value:
            names[int(match.group(1))] = value
    if sorted(names) == list(range(classes)):
        return [names[i] for i in range(classes)]
    return [f"class{i}" for i in range(classes)]


def cmd_infer(args):
    cfg, explicit = _load_run_config(args)
    if args.dump_attention and cfg.out is None:
        raise _config_error("--dump-attention requires --out")
    manifest = _read_manifest(args.weights)
    cfg = _adopt_run_settings(cfg, explicit, manifest)
    out_dir = _ensure_out_dir(cfg)
    model, cfg = _load_model(args.weights, cfg)

    image = load_image(args.image)
    x = preprocess(image, (cfg.input_size, cfg.input_size), normalize=cfg.normalize)
    logits, gate = model.forward_with_attention(x)

    raw = logits.data.reshape(-1).astype(np.float64)
    shifted = np.exp(raw - raw.max())
    probs = shifted / shifted.sum()
    class_names = _class_names(manifest, cfg.classes)

    extra = (("weights", args.weights), ("image", args.image))
    _emit_manifest(out_dir, "infer", cfg, class_names, extra)
    print(f"predicted {class_names[int(np.argmax(probs))]}")
    for name, p in zip(class_names, probs):
        print(f"prob {name} {p:.8f}")

    if args.dump_attention:
        values = gate.data.reshape(-1)
        lines = ["channel,eta"]
        lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(values))
        (out_dir / "attention.csv").write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_gradcheck(args):
    cfg, _ = _load_run_config(args)
    if cfg.model is None:
        cfg = replace(cfg, model="small")
    if cfg.model != "small":
        raise _config_error("gradcheck supports only the small model")
    out_dir = _ensure_out_dir(cfg)
    _emit_manifest(out_dir, "gradcheck", cfg)

    failures = []

    def report(name, err, tolerance):
        print(f"{name} max_rel_err {err:.3e} tolerance {tolerance:g}")
        if not err <= tolerance:
            failures.append((name, err, tolerance))

    run_suite(seed=cfg.seed, op_seeds=25, model_samples=50, progress=report, fail_fast=True)
    if failures:
        name, err, tolerance = failures[0]
        raise _verify_error(
            f"gradient check failed: {name} max relative error {err:.3e} exceeds {tolerance:g}"
        )
    print("gradient check passed")
    return EXIT_OK


def cmd_synth(args):
    cfg, _ = _load_run_config(args)
    classes, per_class, size = _parse_synth_spec(args.spec)
    out_dir = _ensure_out_dir(cfg, required=True)
    dataset = synth_dataset(classes, per_class, (size, size), seed=cfg.seed)

    counters = {}
    written = 0
    for sample in dataset.samples:
        name = dataset.class_names[sample.label]
        index = counters.get(name, 0)
        counters[name] = index + 1
        class_dir = out_dir / name
        class_dir.mkdir(parents=True, exist_ok=True)
        (class_dir / f"{index:05d}.ppm").write_bytes(encode_ppm(sample.image))
        written += 1

    cfg = replace(cfg, classes=classes)
    extra = (("spec", f"synth:{classes}x{per_class}x{size}"),)
    _emit_manifest(out_dir, "synth", cfg, dataset.class_names, extra)
    print(f"wrote {written} files across {classes} classes to {out_dir}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _config_error(message)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--seed", type=CONFIG_PARSERS["seed"], help="RNG seed")
    common.add_argument("--model", type=CONFIG_PARSERS["model"], help="base or small")
    common.add_argument("--out", help="output directory")

    parser = _Parser(prog="tkfnet", description="texture-attentive expression classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", parents=[common], help="train a model")
    train.add_argument("--data", help="dataset folder or synth:CxNxS")
    train.add_argument("--epochs", type=CONFIG_PARSERS["epochs"])
    train.add_argument("--batch", type=CONFIG_PARSERS["batch_size"])
    train.add_argument("--lr", type=CONFIG_PARSERS["lr_init"])
    train.add_argument("--lr-end", dest="lr_end", type=CONFIG_PARSERS["lr_end"])
    train.add_argument("--power", type=CONFIG_PARSERS["power"])
    train.add_argument("--momentum", type=CONFIG_PARSERS["momentum"])
    train.set_defaults(handler=cmd_train)

    evaluate_cmd = sub.add_parser("eval", parents=[common], help="evaluate saved weights")
    evaluate_cmd.add_argument("weights", help="path to a .tkfw weights file")
    evaluate_cmd.add_argument("--data", help="dataset folder or synth:CxNxS")
    evaluate_cmd.set_defaults(handler=cmd_eval)

    infer = sub.add_parser("infer", parents=[common], help="classify one image")
    infer.add_argument("weights", help="path to a .tkfw weights file")
    infer.add_argument("image", help="path to a .ppm or .rt32 image")
    infer.add_argument("--dump-attention", action="store_true",
                       help="write the channel gate to attention.csv (needs --out)")
    infer.set_defaults(handler=cmd_infer)

    gradcheck = sub.add_parser("gradcheck", parents=[common],
                               help="finite-difference gradient verification")
    gradcheck.set_defaults(handler=cmd_gradcheck)

    synth = sub.add_parser("synth", parents=[common], help="materialize a synthetic dataset")
    synth.add_argument("spec", help="CLASSESxPER_CLASSxSIZE, e.g. 7x20x64")
    synth.set_defaults(handler=cmd_synth)
    return parser


def _fail(category, code, exc):
    reason = " ".join(str(exc).split()) or exc.__class__.__name__
    print(f"ERR:{category}: {reason}", file=sys.stderr)
    return code


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except CliError as exc:
        return _fail(exc.category, exc.code, exc)
    except ShapeError as exc:
        return _fail("SHAPE", EXIT_SHAPE, exc)
    except (DataError, WeightsFormatError) as exc:
        return _fail("IO", EXIT_IO, exc)
    except GradCheckError as exc:
        return _fail("VERIFY", EXIT_VERIFY, exc)
    except OSError as exc:
        return _fail("IO", EXIT_IO, exc)
    except ValueError as exc:
        return _fail("CONFIG", EXIT_CONFIG, exc)


if __name__ == "__main__":
    sys.exit(main())
