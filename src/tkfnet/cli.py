"""Command-line entry point.

Subcommands: train, eval, infer, gradcheck, synth. Configuration comes from
an optional flat key=value file ('#' starts a comment) overridden by flags.
Every run that owns an output directory writes a manifest there; runs
without one echo the manifest to stdout as '# ' comment lines. A manifest
records the settings its command reads, the command's flags in
``COMMAND_FLAGS`` plus input_size where images are preprocessed, and the
model preset that eval, infer and gradcheck ran. train takes
its class count from the dataset and evaluates on its training set; eval
and infer take the class count from the weights and the input size from the
manifest beside them, and build the model preset that the weights hold:
only train reads --model or a config file's model.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 I/O error, 4 shape or class mismatch, 5 non-finite values (a diverged
run writes no weights; eval and infer refuse weights with a non-finite
value). All failures print a single "ERR:<CATEGORY>: reason" line to
stderr.
"""

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .data import (
    DataError,
    encode_ppm,
    load_image,
    load_image_folder,
    preprocess,
    synth_dataset,
)
from .gradcheck import GradCheckError, run_suite
from .model import PRESETS, TKFNet, model_config
from .tensor import ShapeError
from .train import LrSchedule, MomentumOptimizer, evaluate, fit
from .weights import WeightsFormatError, read_weights, write_weights

# ERR category -> exit code.
EXIT_CODES = {"VERIFY": 1, "CONFIG": 2, "IO": 3, "SHAPE": 4, "NUMERIC": 5}


class CliError(Exception):
    def __init__(self, category, message):
        super().__init__(message)
        self.category = category


# Config-value parsers, called with the setting's name and the text to parse.


def _choice(options):
    def parse(key, text):
        if text not in options:
            raise CliError("CONFIG",
                           f"{key} must be one of {'|'.join(sorted(options))}, got {text!r}")
        return text

    return parse


def _int(minimum=None):
    def parse(key, text):
        try:
            value = int(text)
        except ValueError:
            raise CliError("CONFIG", f"{key} must be an integer, got {text!r}") from None
        if minimum is not None and value < minimum:
            raise CliError("CONFIG", f"{key} must be >= {minimum}, got {value}")
        return value

    return parse


def _float(minimum=None, exclusive_min=None):
    def parse(key, text):
        try:
            value = float(text)
        except ValueError:
            raise CliError("CONFIG", f"{key} must be a number, got {text!r}") from None
        if not math.isfinite(value):
            raise CliError("CONFIG", f"{key} must be finite, got {value}")
        if minimum is not None and value < minimum:
            raise CliError("CONFIG", f"{key} must be >= {minimum}, got {value}")
        if exclusive_min is not None and value <= exclusive_min:
            raise CliError("CONFIG", f"{key} must be > {exclusive_min}, got {value}")
        return value

    return parse


def _text(key, text):
    return text


def _setting(default, parse, flag=None, help=None):
    """A run setting: its default, its config-file parser and, unless it is
    config-file only, its command-line flag with the flag's help text."""
    return field(default=default, metadata={"parse": parse, "flag": flag, "help": help})


@dataclass
class RunConfig:
    """Every run setting, in manifest order. Each has a flag except
    input_size, which only a config file sets."""

    model: str | None = _setting(None, _choice(PRESETS), "--model", " or ".join(PRESETS))
    epochs: int = _setting(60, _int(minimum=0), "--epochs")
    batch_size: int = _setting(128, _int(minimum=1), "--batch")
    lr_init: float = _setting(0.1, _float(exclusive_min=0.0), "--lr")
    lr_end: float = _setting(0.01, _float(minimum=0.0), "--lr-end")
    seed: int = _setting(0, _int(), "--seed", "RNG seed")
    input_size: int = _setting(224, _int(minimum=1))
    data: str | None = _setting(None, _text, "--data", "dataset folder or synth:CxNxS")
    out: str | None = _setting(None, _text, "--out", "output directory")


CONFIG_PARSERS = {f.name: partial(f.metadata["parse"], f.name) for f in fields(RunConfig)}


def _parse_config_file(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError("IO", f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError("CONFIG", f"config file {path} is not UTF-8 (byte {exc.start})") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise CliError("CONFIG", f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        if key not in CONFIG_PARSERS:
            raise CliError("CONFIG", f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = CONFIG_PARSERS[key](value)
    return values


def _load_run_config(args):
    """RunConfig from the config file's values and the flags, which win, plus
    the set of field names the user set explicitly."""
    values = _parse_config_file(args.config) if args.config else {}
    for f in fields(RunConfig):
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    return RunConfig(**values), set(values)


_SYNTH_RE = re.compile(r"^(?:synth:)?(\d+)x(\d+)x(\d+)$")


def _parse_synth_spec(text):
    """(classes, per_class, size) of a spec, unchecked: synth_dataset checks."""
    match = _SYNTH_RE.match(text)
    if match is None:
        raise CliError("CONFIG", "synthetic dataset spec must look like "
                       f"synth:CLASSESxPER_CLASSxSIZE, got {text!r}")
    return tuple(int(g) for g in match.groups())


def _resolve_dataset(spec, seed):
    if spec.startswith("synth:"):
        classes, per_class, size = _parse_synth_spec(spec)
        return synth_dataset(classes, per_class, (size, size), seed=seed)
    return load_image_folder(spec)


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


# The flags each command takes beside --config and --out, which _build_parser
# adds. With input_size for the commands that preprocess images, they are
# the settings a command reads and the ones its manifest records.
COMMAND_FLAGS = {
    "train": ("model", "seed", "data", "epochs", "batch_size", "lr_init", "lr_end"),
    "eval": ("seed", "data"),
    "infer": (),
    "gradcheck": ("seed",),
    "synth": ("seed",),
}
_SIZED = ("train", "eval", "infer")


def _manifest_lines(command, cfg, class_names=None, extra=()):
    lines = [f"command={command}"]
    lines.extend(f"{key}={_format_value(value)}" for key, value in extra)
    reads = set(COMMAND_FLAGS[command]) | ({"input_size"} if command in _SIZED else set())
    for f in fields(RunConfig):
        if f.name in reads:
            lines.append(f"{f.name}={_format_value(getattr(cfg, f.name))}")
    if class_names:
        lines.extend(f"class_{i}={name}" for i, name in enumerate(class_names))
    return lines


def _write_file(path, write):
    """Call ``write`` on a temp file beside ``path``, then move it onto ``path``.

    A run that stops part-way leaves ``path`` as it was, never half written,
    and removes the temp file unless the process itself is killed.
    """
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_text(path, text):
    _write_file(path, lambda tmp: tmp.write_text(text, encoding="utf-8"))


def _encodes(text, encoding, errors):
    try:
        text.encode(encoding, errors)
    except UnicodeEncodeError:
        return False
    return True


def _check_stdout(text, class_names):
    """Refuse, before any of it is written, a stdout text that the stream's
    encoding cannot encode, rather than fail part-way through it.

    A stream with no encoding, such as ``io.StringIO``, takes any text.
    """
    encoding = getattr(sys.stdout, "encoding", None)
    if encoding is None:
        return
    errors = getattr(sys.stdout, "errors", None) or "strict"
    if _encodes(text, encoding, errors):
        return
    bad = [name for name in class_names if not _encodes(name, encoding, errors)]
    what = f"class name {ascii(bad[0])}" if bad else "the output text"
    raise CliError("CONFIG",
                   f"stdout encoding {encoding} cannot encode {what}; set PYTHONIOENCODING=utf-8")


def _emit_manifest(out_dir, command, cfg, class_names=None, extra=(), report=""):
    """Write the manifest, then the run's ``report`` to stdout.

    Without an output directory the manifest goes to stdout instead, as '# '
    comment lines ahead of the report. Stdout gets the whole text in one
    write, once ``_check_stdout`` has found that the stream can take it.
    """
    lines = _manifest_lines(command, cfg, class_names, extra)
    text = report
    if out_dir is None:
        text = "".join(f"# {line}\n" for line in lines) + report
    _check_stdout(text, class_names or ())
    if out_dir is not None:
        _write_text(out_dir / "manifest.txt", "\n".join(lines) + "\n")
    sys.stdout.write(text)


def _out_dir(cfg, required=False):
    """The --out directory as a Path, or None if it is unset and not required.

    It is not created here: each command calls ``_create_dir`` once its
    inputs have loaded, so a run that fails on them leaves no empty directory.
    """
    if cfg.out is None:
        if required:
            raise CliError("CONFIG", "this command requires --out (or out= in the config file)")
        return None
    return Path(cfg.out)


def _create_dir(out_dir):
    if out_dir is None:
        return
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError("IO", f"cannot create output directory {out_dir}: {exc}") from exc


def _confusion_csv(confusion, class_names):
    lines = ["class," + ",".join(class_names)]
    for name, row in zip(class_names, confusion):
        lines.append(name + "," + ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def _write_scores(out_dir, metrics, class_names):
    """Write final.txt and confusion.csv into ``out_dir`` unless it is None;
    return the count 'correct/total'."""
    correct = int(np.trace(metrics.confusion))
    total = int(metrics.confusion.sum())
    if out_dir is not None:
        _write_text(
            out_dir / "final.txt",
            f"accuracy={metrics.accuracy:.6f}\ncorrect={correct}\nsamples={total}\n",
        )
        _write_text(out_dir / "confusion.csv", _confusion_csv(metrics.confusion, class_names))
    return f"{correct}/{total}"


def _all_finite(arr):
    # An array's extremes are finite only when every value is, and NaN
    # propagates through min and max, so no bool array is built.
    return bool(np.isfinite(arr.min()) and np.isfinite(arr.max()))


def _check_finite(records, model):
    """Refuse a diverged run: a non-finite epoch loss or parameter."""
    epochs = [r.epoch for r in records if not math.isfinite(r.mean_loss)]
    params = [p.name for p in model.parameters() if not _all_finite(p.data)]
    if epochs or params:
        raise CliError("NUMERIC", f"training diverged: {len(epochs)} epochs with a non-finite "
                       f"loss, {len(params)} parameters with non-finite values; no weights written")


def cmd_train(args):
    cfg, _ = _load_run_config(args)
    if cfg.model is None:
        cfg = replace(cfg, model="base")
    if cfg.data is None:
        raise CliError("CONFIG", "train requires --data (a dataset folder or synth:CxNxS)")
    out_dir = _out_dir(cfg, required=True)
    dataset = _resolve_dataset(cfg.data, cfg.seed)
    # Before the first epoch, so an uncreatable --out fails before any training.
    _create_dir(out_dir)

    model = TKFNet(model_config(cfg.model, len(dataset.class_names)), seed=cfg.seed)
    steps_per_epoch = math.ceil(len(dataset.samples) / cfg.batch_size)
    schedule = LrSchedule(cfg.lr_init, cfg.lr_end, max(1, cfg.epochs * steps_per_epoch))
    optimizer = MomentumOptimizer(model.parameters(), schedule)

    size = (cfg.input_size, cfg.input_size)
    # A diverging run overflows; _check_finite reports it as the one stderr line.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        records = fit(
            model,
            dataset,
            optimizer,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            seed=cfg.seed,
            input_size=size,
            progress=lambda r: print(f"epoch {r.epoch} loss {r.mean_loss:.6f} lr {r.lr:.6f}"),
        )
        _check_finite(records, model)
        metrics = evaluate(model, dataset, input_size=size)

    # Each file appears complete or not at all; the manifest comes last.
    _write_text(
        out_dir / "metrics.tsv",
        "".join(f"{r.epoch}\t{r.mean_loss:.6f}\t{r.lr:.6f}\n" for r in records),
    )
    _write_text(out_dir / "timing.log", "".join(f"{r.epoch}\t{r.seconds:.3f}\n" for r in records))
    _write_file(out_dir / "weights.tkfw", lambda tmp: write_weights(tmp, model.state_arrays()))
    counts = _write_scores(out_dir, metrics, dataset.class_names)
    _emit_manifest(out_dir, "train", cfg, dataset.class_names)
    print(f"accuracy {metrics.accuracy:.6f} ({counts} on train)")


def _weights_geometry(arrays):
    head = arrays.get("dcif.head.weight")
    if head is None:
        raise CliError("SHAPE", "weights file lacks the classifier record dcif.head.weight")
    stem = arrays.get("backbone.stem.weight")
    if stem is None:
        raise CliError("SHAPE", "weights file lacks the stem record backbone.stem.weight")
    classes = int(head.shape[3])
    stem_width = int(stem.shape[3])
    for name, backbone in PRESETS.items():
        if backbone.stem_channels == stem_width:
            return name, classes
    raise CliError("SHAPE", f"stem width {stem_width} matches no known model preset")


def _read_manifest(path):
    """key -> value of a manifest.

    {} if there is none or it cannot be opened; a manifest that is not UTF-8
    is a configuration error.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        return {}
    except UnicodeDecodeError as exc:
        raise CliError("CONFIG", f"manifest {path} is not UTF-8 (byte {exc.start})") from exc
    manifest = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            manifest[key] = value
    return manifest


def _adopt_run_settings(cfg, explicit, weights_path):
    """Align preprocessing with how the weights were trained; return the
    aligned config and the manifest beside the weights.

    That manifest records the training input_size; adopt it unless the user
    set it, and refuse a value that does not parse. Weights trained without
    the [0, 1] to [-1, 1] mapping, which older manifests record as a
    normalize value other than on, are refused too. Weights without a
    readable manifest keep the default input_size.
    """
    path = Path(weights_path).parent / "manifest.txt"
    manifest = _read_manifest(path)
    if "input_size" in manifest and "input_size" not in explicit:
        try:
            cfg = replace(cfg, input_size=CONFIG_PARSERS["input_size"](manifest["input_size"]))
        except CliError as exc:
            raise CliError("CONFIG", f"manifest {path}: {exc}") from None
    if manifest.get("normalize", "on") != "on":
        raise CliError("CONFIG", f"manifest {path}: normalize must be on, "
                       f"got {manifest['normalize']!r}")
    return cfg, manifest


def _load_model(weights_path):
    """The model the weights hold, and the name of its preset."""
    arrays = read_weights(weights_path)
    bad = [name for name, a in arrays.items() if not _all_finite(a)]
    if bad:
        raise CliError("NUMERIC", f"weights file {weights_path} has non-finite values in "
                       f"{len(bad)} of {len(arrays)} records, first {bad[0]}")
    name, classes = _weights_geometry(arrays)
    return TKFNet(model_config(name, classes), state=arrays), name


def cmd_eval(args):
    cfg, explicit = _load_run_config(args)
    if cfg.data is None:
        raise CliError("CONFIG", "eval requires --data (a dataset folder or synth:CxNxS)")
    cfg, _ = _adopt_run_settings(cfg, explicit, args.weights)
    out_dir = _out_dir(cfg)
    model, preset = _load_model(args.weights)

    dataset = _resolve_dataset(cfg.data, cfg.seed)
    classes, found = model.config.classes, len(dataset.class_names)
    if found != classes:
        raise CliError("SHAPE", f"weights at {args.weights} classify {classes} classes "
                       f"but the dataset has {found}")
    _create_dir(out_dir)

    size = (cfg.input_size, cfg.input_size)
    metrics = evaluate(model, dataset, input_size=size)
    counts = _write_scores(out_dir, metrics, dataset.class_names)
    report = f"accuracy {metrics.accuracy:.6f} ({counts})\n"
    if out_dir is None:
        report += _confusion_csv(metrics.confusion, dataset.class_names)
    extra = (("weights", args.weights), ("model", preset))
    _emit_manifest(out_dir, "eval", cfg, dataset.class_names, extra, report)


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
        raise CliError("CONFIG", "--dump-attention requires --out")
    cfg, manifest = _adopt_run_settings(cfg, explicit, args.weights)
    out_dir = _out_dir(cfg)
    model, preset = _load_model(args.weights)

    image = load_image(args.image)
    _create_dir(out_dir)
    x = preprocess(image, (cfg.input_size, cfg.input_size))
    logits, gate = model.forward_with_attention(x)

    raw = logits.data.reshape(-1).astype(np.float64)
    shifted = np.exp(raw - raw.max())
    probs = shifted / shifted.sum()
    class_names = _class_names(manifest, model.config.classes)

    report = f"predicted {class_names[int(np.argmax(probs))]}\n"
    report += "".join(f"prob {name} {p:.8f}\n" for name, p in zip(class_names, probs))
    extra = (("weights", args.weights), ("image", args.image), ("model", preset))
    _emit_manifest(out_dir, "infer", cfg, class_names, extra, report)

    if args.dump_attention:
        values = gate.data.reshape(-1)
        lines = ["channel,eta"]
        lines.extend(f"{i},{float(v)!r}" for i, v in enumerate(values))
        _write_text(out_dir / "attention.csv", "\n".join(lines) + "\n")


def cmd_gradcheck(args):
    cfg, _ = _load_run_config(args)
    out_dir = _out_dir(cfg)
    _create_dir(out_dir)
    _emit_manifest(out_dir, "gradcheck", cfg, extra=(("model", "small"),))

    results = run_suite(
        seed=cfg.seed,
        op_seeds=25,
        progress=lambda name, err, tol: print(f"{name} max_rel_err {err:.3e} tolerance {tol:g}"),
    )
    for name, (err, tolerance) in results.items():
        if not err <= tolerance:
            raise CliError("VERIFY", f"gradient check failed: {name} max relative error "
                           f"{err:.3e} exceeds {tolerance:g}")
    print("gradient check passed")


def cmd_synth(args):
    cfg, _ = _load_run_config(args)
    out_dir = _out_dir(cfg, required=True)
    classes, per_class, size = _parse_synth_spec(args.spec)
    dataset = synth_dataset(classes, per_class, (size, size), seed=cfg.seed)
    _create_dir(out_dir)

    counters = {}
    written = 0
    for sample in dataset.samples:
        name = dataset.class_names[sample.label]
        index = counters.get(name, 0)
        counters[name] = index + 1
        class_dir = out_dir / name
        class_dir.mkdir(parents=True, exist_ok=True)
        ppm = class_dir / f"{index:05d}.ppm"
        _write_file(ppm, lambda tmp: tmp.write_bytes(encode_ppm(sample.image)))
        written += 1

    extra = (("spec", f"synth:{classes}x{per_class}x{size}"),)
    _emit_manifest(out_dir, "synth", cfg, dataset.class_names, extra)
    print(f"wrote {written} files across {classes} classes to {out_dir}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError("CONFIG", message)


@lru_cache(maxsize=1)
def _build_parser():
    # Built once per process: parse_args keeps no state between calls, and
    # each in-process request would otherwise rebuild it.
    settings = {f.name: f.metadata for f in fields(RunConfig)}

    def add_flags(parser, *names):
        for name in names:
            flag = settings[name]["flag"]
            parser.add_argument(
                flag,
                dest=name,
                type=CONFIG_PARSERS[name],
                help=settings[name]["help"],
                metavar=flag[2:].replace("-", "_").upper(),
            )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    add_flags(common, "out")

    parser = _Parser(prog="tkfnet", description="texture-attentive expression classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", parents=[common], help="train a model")
    add_flags(train, *COMMAND_FLAGS["train"])
    train.set_defaults(handler=cmd_train)

    evaluate_cmd = sub.add_parser("eval", parents=[common], help="evaluate saved weights")
    evaluate_cmd.add_argument("weights", help="path to a .tkfw weights file")
    add_flags(evaluate_cmd, *COMMAND_FLAGS["eval"])
    evaluate_cmd.set_defaults(handler=cmd_eval)

    infer = sub.add_parser("infer", parents=[common], help="classify one image")
    infer.add_argument("weights", help="path to a .tkfw weights file")
    infer.add_argument("image", help="path to a .ppm or .rt32 image")
    infer.add_argument("--dump-attention", action="store_true",
                       help="write the channel gate to attention.csv (needs --out)")
    add_flags(infer, *COMMAND_FLAGS["infer"])
    infer.set_defaults(handler=cmd_infer)

    gradcheck = sub.add_parser("gradcheck", parents=[common],
                               help="finite-difference gradient verification")
    add_flags(gradcheck, *COMMAND_FLAGS["gradcheck"])
    gradcheck.set_defaults(handler=cmd_gradcheck)

    synth = sub.add_parser("synth", parents=[common], help="materialize a synthetic dataset")
    synth.add_argument("spec", help="CLASSESxPER_CLASSxSIZE, e.g. 7x20x64")
    add_flags(synth, *COMMAND_FLAGS["synth"])
    synth.set_defaults(handler=cmd_synth)
    return parser


# Exception type -> ERR category, for errors raised below the CLI. The first
# match wins: ShapeError, DataError and WeightsFormatError are ValueErrors too.
_CATEGORIES = {
    ShapeError: "SHAPE",
    DataError: "IO",
    WeightsFormatError: "IO",
    GradCheckError: "VERIFY",
    OSError: "IO",
    ValueError: "CONFIG",
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args)
    except (CliError, *_CATEGORIES) as exc:
        if isinstance(exc, CliError):
            category = exc.category
        else:
            category = next(c for kind, c in _CATEGORIES.items() if isinstance(exc, kind))
        reason = " ".join(str(exc).split()) or exc.__class__.__name__
        print(f"ERR:{category}: {reason}", file=sys.stderr)
        return EXIT_CODES[category]
    return 0


if __name__ == "__main__":
    sys.exit(main())
