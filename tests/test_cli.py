"""End-to-end command-line behavior through ``tkfnet.cli.main``."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tkfnet.cli
from helpers import scale_gradients
from tkfnet.cli import main
from tkfnet.data import decode_ppm, load_image_folder
from tkfnet.gradcheck import MODULE_CASES
from tkfnet.weights import read_weights, serialize_weights, write_tensor, write_weights

TRAIN_CONFIG = """\
# desk-scale training setup
model = small
data = synth:3x4x16
input_size = 16
epochs = 4
batch_size = 4
lr_init = 0.01
lr_end = 0.001
"""


def run_train(tmp_dir, out_name="run", seed="0"):
    config = tmp_dir / "train.cfg"
    config.write_text(TRAIN_CONFIG)
    out = tmp_dir / out_name
    code = main(["train", "--config", str(config), "--out", str(out), "--seed", seed])
    return code, out


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_dir = tmp_path_factory.mktemp("train")
    code, out = run_train(tmp_dir)
    assert code == 0
    return out


class TestTrain:
    def test_writes_all_artifacts(self, trained):
        for name in (
            "metrics.tsv",
            "timing.log",
            "weights.tkfw",
            "final.txt",
            "confusion.csv",
            "manifest.txt",
        ):
            assert (trained / name).is_file(), name

    def test_metrics_rows(self, trained):
        rows = [line.split("\t") for line in
                (trained / "metrics.tsv").read_text().splitlines()]
        assert [r[0] for r in rows] == ["0", "1", "2", "3"]
        assert all(len(r) == 3 for r in rows)
        losses = [float(r[1]) for r in rows]
        lrs = [float(r[2]) for r in rows]
        assert all(np.isfinite(losses))
        assert lrs[0] == 0.01
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_timing_has_one_row_per_epoch(self, trained):
        rows = (trained / "timing.log").read_text().splitlines()
        assert len(rows) == 4
        assert all(float(r.split("\t")[1]) >= 0 for r in rows)

    def test_manifest_reflects_run(self, trained):
        manifest = dict(
            line.split("=", 1)
            for line in (trained / "manifest.txt").read_text().splitlines()
        )
        assert manifest["command"] == "train"
        assert manifest["model"] == "small"
        assert manifest["seed"] == "0"
        assert manifest["epochs"] == "4"
        assert manifest["input_size"] == "16"
        assert manifest["class_0"] == "grating_0"
        assert manifest["class_2"] == "grating_2"
        assert not {"out", "power", "momentum"} & manifest.keys()

    def test_weights_file_loads(self, trained):
        arrays = read_weights(trained / "weights.tkfw")
        assert "backbone.stem.weight" in arrays
        assert arrays["dcif.head.weight"].shape[3] == 3

    def test_progress_and_summary_output(self, tmp_path, capsys):
        code, _ = run_train(tmp_path)
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 0 loss" in out
        assert "accuracy" in out

    def test_deterministic_across_runs(self, trained, tmp_path):
        code, again = run_train(tmp_path, out_name="again")
        assert code == 0
        for name in ("metrics.tsv", "weights.tkfw", "manifest.txt", "confusion.csv"):
            assert (trained / name).read_bytes() == (again / name).read_bytes(), name

    def test_seed_changes_outcome(self, trained, tmp_path):
        code, other = run_train(tmp_path, out_name="seed9", seed="9")
        assert code == 0
        assert (trained / "weights.tkfw").read_bytes() != (other / "weights.tkfw").read_bytes()

    def test_missing_data_is_config_error(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERR:CONFIG:")

    def test_missing_out_is_config_error(self, capsys):
        code = main(["train", "--data", "synth:2x2x16"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR:CONFIG:") and "--out" in err

    def test_nonexistent_data_folder_is_io_error(self, tmp_path, capsys):
        code = main([
            "train", "--data", str(tmp_path / "absent"), "--out", str(tmp_path / "o"),
        ])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERR:IO:")
        assert not (tmp_path / "o").exists()

    def test_diverged_run_is_numeric_error_and_writes_no_weights(self, tmp_path, capsys):
        # At lr 1000 every epoch loss is NaN and so is nearly every weight.
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG + "lr_init = 1000\nlr_end = 1000\n")
        out = tmp_path / "o"
        with np.errstate(all="ignore"):
            code = main(["train", "--config", str(config), "--out", str(out), "--epochs", "2"])
        assert code == 5
        captured = capsys.readouterr()
        assert "loss nan" in captured.out
        assert captured.err.startswith("ERR:NUMERIC:") and captured.err.count("\n") == 1
        for name in ("weights.tkfw", "metrics.tsv", "final.txt"):
            assert not (out / name).exists(), name

    def test_diverged_run_writes_only_the_error_line_to_stderr(self, tmp_path):
        # A fresh interpreter, so numpy's overflow warnings would reach stderr.
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG)
        result = run_cli("utf-8", "train", "--config", str(config), "--out", str(tmp_path / "o"),
                         "--lr", "1e30", "--epochs", "2")
        assert result.returncode == 5
        assert result.stderr.startswith("ERR:NUMERIC:") and result.stderr.count("\n") == 1

    def test_failed_weights_write_leaves_no_partial_artifacts(self, tmp_path, monkeypatch, capsys):
        def write_half_then_fail(path, arrays):
            data = serialize_weights(arrays)
            path.write_bytes(data[: len(data) // 2])
            raise OSError("No space left on device")

        monkeypatch.setattr(tkfnet.cli, "write_weights", write_half_then_fail)
        code, out = run_train(tmp_path)
        assert code == 3
        assert capsys.readouterr().err.startswith("ERR:IO:")
        # Files written before the weights stay; no weights, manifest or temp file does.
        assert sorted(p.name for p in out.iterdir()) == ["metrics.tsv", "timing.log"]


class TestConfigFile:
    def test_unknown_key_names_location(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("model = small\nlearning_rate = 0.1\n")
        code = main(["train", "--config", str(config), "--data", "synth:2x2x16",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.cfg:2" in err
        assert "learning_rate" in err

    @pytest.mark.parametrize("line", ["normalize = off", "classes = 3", "val_split = 0.25",
                                      "power = 0.5", "momentum = 0.9"])
    def test_settings_no_run_uses_are_unknown_keys(self, tmp_path, capsys, line):
        config = tmp_path / "old.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(config), "--data", "synth:2x2x16", "--out", str(out)]) == 2
        key = line.split()[0]
        assert capsys.readouterr().err == f"ERR:CONFIG: {config}:1: unknown config key {key!r}\n"
        assert not out.exists()

    def test_malformed_line_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("just some words\n")
        assert main(["train", "--config", str(config)]) == 2
        assert "bad.cfg:1" in capsys.readouterr().err

    def test_invalid_value_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("epochs = -3\n")
        assert main(["train", "--config", str(config)]) == 2
        assert "epochs" in capsys.readouterr().err

    def test_non_utf8_config_names_the_file(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"model = sm\xe9ll\n")
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ERR:CONFIG:") and "bad.cfg" in err and "UTF-8" in err

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "absent.cfg")])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERR:IO:")

    def test_flags_override_file_values(self, tmp_path):
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG)
        out = tmp_path / "o"
        code = main(["train", "--config", str(config), "--out", str(out),
                     "--epochs", "2"])
        assert code == 0
        assert len((out / "metrics.tsv").read_text().splitlines()) == 2


class TestEval:
    def test_prints_confusion_without_out(self, trained, capsys):
        code = main(["eval", str(trained / "weights.tkfw"), "--data", "synth:3x4x16"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        lines = out.splitlines()
        header_at = next(i for i, l in enumerate(lines) if l.startswith("class,"))
        assert lines[header_at] == "class,grating_0,grating_1,grating_2"
        rows = [l.split(",") for l in lines[header_at + 1 : header_at + 4]]
        assert [r[0] for r in rows] == ["grating_0", "grating_1", "grating_2"]
        assert all(sum(int(v) for v in r[1:]) == 4 for r in rows)

    def test_writes_artifacts_with_out(self, trained, tmp_path):
        out = tmp_path / "eval"
        code = main(["eval", str(trained / "weights.tkfw"),
                     "--data", "synth:3x4x16", "--out", str(out)])
        assert code == 0
        assert (out / "confusion.csv").read_text().startswith("class,grating_0")
        final = dict(
            line.split("=", 1)
            for line in (out / "final.txt").read_text().splitlines()
        )
        assert final["samples"] == "12"
        manifest = (out / "manifest.txt").read_text()
        assert "command=eval" in manifest
        assert "weights=" in manifest

    def test_class_count_mismatch_is_shape_error(self, trained, capsys):
        code = main(["eval", str(trained / "weights.tkfw"), "--data", "synth:2x2x16"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ERR:SHAPE:")
        assert "3 classes" in err

    def test_missing_weights_is_io_error(self, tmp_path, capsys):
        code = main(["eval", str(tmp_path / "none.tkfw"), "--data", "synth:2x2x16",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERR:IO:")
        assert not (tmp_path / "o").exists()

    def test_corrupt_weights_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tkfw"
        bad.write_bytes(b"not a weights file")
        code = main(["eval", str(bad), "--data", "synth:2x2x16"])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERR:IO:")

    def test_requires_data(self, trained, capsys):
        assert main(["eval", str(trained / "weights.tkfw")]) == 2
        assert capsys.readouterr().err.startswith("ERR:CONFIG:")

    def test_adopts_training_input_size_from_manifest(self, trained, tmp_path):
        # The training run used input_size 16; eval without any config must
        # pick that up from the manifest beside the weights instead of the
        # 224 default.
        out = tmp_path / "eval"
        code = main(["eval", str(trained / "weights.tkfw"),
                     "--data", "synth:3x4x16", "--out", str(out)])
        assert code == 0
        manifest = dict(
            line.split("=", 1)
            for line in (out / "manifest.txt").read_text().splitlines()
        )
        assert manifest["input_size"] == "16"

        # Evaluating the training set at the training resolution reproduces
        # the accuracy the train command reported.
        train_final = dict(
            line.split("=", 1)
            for line in (trained / "final.txt").read_text().splitlines()
        )
        eval_final = dict(
            line.split("=", 1)
            for line in (out / "final.txt").read_text().splitlines()
        )
        assert eval_final["accuracy"] == train_final["accuracy"]

    def test_explicit_config_overrides_manifest_adoption(self, trained, tmp_path):
        config = tmp_path / "eval.cfg"
        config.write_text("input_size = 32\n")
        out = tmp_path / "eval32"
        code = main(["eval", str(trained / "weights.tkfw"), "--config", str(config),
                     "--data", "synth:3x4x16", "--out", str(out)])
        assert code == 0
        manifest = dict(
            line.split("=", 1)
            for line in (out / "manifest.txt").read_text().splitlines()
        )
        assert manifest["input_size"] == "32"


@pytest.fixture(scope="module")
def synth_tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth") / "tree"
    assert main(["synth", "3x2x16", "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_layout_and_count(self, synth_tree, capsys):
        files = sorted(p.relative_to(synth_tree) for p in synth_tree.rglob("*.ppm"))
        assert len(files) == 6
        assert str(files[0]) == "grating_0/00000.ppm"
        assert {p.parts[0] for p in files} == {"grating_0", "grating_1", "grating_2"}

    def test_reloadable_and_balanced(self, synth_tree):
        data = load_image_folder(synth_tree)
        assert data.class_names == ["grating_0", "grating_1", "grating_2"]
        labels = data.labels()
        assert all((labels == k).sum() == 2 for k in range(3))

    def test_regeneration_is_byte_identical(self, synth_tree, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", "3x2x16", "--out", str(again)]) == 0
        for path in sorted(synth_tree.rglob("*.ppm")):
            twin = again / path.relative_to(synth_tree)
            assert twin.read_bytes() == path.read_bytes()

    def test_failed_write_leaves_only_whole_images(self, tmp_path, monkeypatch, capsys):
        # The third image's write stores half its bytes, then fails.
        write_bytes = Path.write_bytes
        calls = []

        def half_then_fail(path, data):
            calls.append(path)
            if len(calls) == 3:
                write_bytes(path, data[: len(data) // 2])
                raise OSError("no space left on device")
            return write_bytes(path, data)

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
        out = tmp_path / "t"
        assert main(["synth", "3x2x16", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("ERR:IO:")
        monkeypatch.undo()
        images = sorted(out.rglob("*.ppm"))
        for path in images:
            assert decode_ppm(path.read_bytes()).shape == (1, 16, 16, 3)
        assert len(images) == 2
        assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]

    def test_spec_with_prefix_accepted(self, tmp_path, capsys):
        assert main(["synth", "synth:2x1x8", "--out", str(tmp_path / "t")]) == 0
        assert "wrote 2 files across 2 classes" in capsys.readouterr().out

    def test_invalid_spec_rejected(self, tmp_path, capsys):
        assert main(["synth", "7x20", "--out", str(tmp_path / "t")]) == 2
        assert capsys.readouterr().err.startswith("ERR:CONFIG:")

    def test_class_limit_enforced(self, tmp_path, capsys):
        assert main(["synth", "9x1x8", "--out", str(tmp_path / "t")]) == 2
        assert "1..7" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["9x1x8", "0x1x8", "2x0x8", "2x1x0"])
    def test_spec_out_of_range_creates_no_out_dir(self, tmp_path, capsys, spec):
        out = tmp_path / "t"
        assert main(["synth", spec, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("ERR:CONFIG:")
        assert not out.exists()

    def test_requires_out(self, capsys):
        assert main(["synth", "2x1x8"]) == 2
        assert "--out" in capsys.readouterr().err


class TestInfer:
    def test_predicts_with_class_names(self, trained, synth_tree, capsys):
        image = synth_tree / "grating_1" / "00000.ppm"
        code = main(["infer", str(trained / "weights.tkfw"), str(image)])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        predicted = next(l for l in lines if l.startswith("predicted "))
        assert predicted.split()[1].startswith("grating_")
        probs = [float(l.split()[2]) for l in lines if l.startswith("prob ")]
        assert len(probs) == 3
        assert sum(probs) == pytest.approx(1.0, abs=1e-6)
        assert all(p >= 0 for p in probs)

    def test_repeated_requests_print_the_same_bytes(self, trained, synth_tree, capsys):
        # The later requests run their convolutions on the scratch buffers
        # the first one left.
        argv = ["infer", str(trained / "weights.tkfw"), str(synth_tree / "grating_1" / "00000.ppm")]
        outs = []
        for _ in range(3):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert "predicted " in outs[0]
        assert outs[0] == outs[1] == outs[2]

    def test_one_parser_serves_each_command_its_own_arguments(self, trained, synth_tree,
                                                              tmp_path, capsys):
        weights, image = str(trained / "weights.tkfw"), str(synth_tree / "grating_0" / "00000.ppm")
        first = tmp_path / "first"
        assert main(["infer", weights, image, "--dump-attention", "--out", str(first),
                     "--seed", "5"]) == 0
        built = tkfnet.cli._build_parser.cache_info().misses
        capsys.readouterr()
        # Without --out the manifests go to stdout. Neither later command sees
        # the first one's seed, and the last infer, which an inherited
        # --dump-attention would fail for want of --out, succeeds.
        assert main(["eval", weights, "--data", str(synth_tree)]) == 0
        eval_out = capsys.readouterr().out
        assert main(["infer", weights, image]) == 0
        infer_out = capsys.readouterr().out
        assert tkfnet.cli._build_parser.cache_info().misses == built
        assert (first / "attention.csv").is_file()
        assert "seed=5" in (first / "manifest.txt").read_text().splitlines()
        assert "# command=eval" in eval_out and "# image=" not in eval_out
        assert "# seed=5" not in eval_out and "# seed=5" not in infer_out
        assert f"# image={image}" in infer_out

    def test_attention_dump(self, trained, synth_tree, tmp_path):
        image = synth_tree / "grating_0" / "00000.ppm"
        out = tmp_path / "infer"
        code = main(["infer", str(trained / "weights.tkfw"), str(image),
                     "--dump-attention", "--out", str(out)])
        assert code == 0
        lines = (out / "attention.csv").read_text().splitlines()
        assert lines[0] == "channel,eta"
        # Gate width is twice the small backbone's 16 output channels.
        assert len(lines) == 1 + 32
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(0.0 < v < 1.0 for v in values)

    def test_attention_dump_requires_out(self, trained, synth_tree, capsys):
        image = synth_tree / "grating_0" / "00000.ppm"
        code = main(["infer", str(trained / "weights.tkfw"), str(image),
                     "--dump-attention"])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["weights", "image"])
    def test_missing_input_creates_no_out_dir(self, trained, synth_tree, tmp_path, capsys, missing):
        weights = tmp_path / "none.tkfw" if missing == "weights" else trained / "weights.tkfw"
        image = tmp_path / "none.ppm" if missing == "image" else synth_tree / "grating_0" / "00000.ppm"
        out = tmp_path / "o"
        assert main(["infer", str(weights), str(image), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("ERR:IO:")
        assert not out.exists()

    def test_unsupported_image_extension(self, trained, tmp_path, capsys):
        bogus = tmp_path / "x.jpeg"
        bogus.write_bytes(b"\xff\xd8\xff")
        code = main(["infer", str(trained / "weights.tkfw"), str(bogus)])
        assert code == 3
        assert capsys.readouterr().err.startswith("ERR:IO:")

    def test_nan_pixel_is_io_error(self, trained, tmp_path, capsys):
        pixels = np.full((1, 16, 16, 3), 0.5, dtype=np.float32)
        pixels[0, 3, 4, 1] = np.nan
        image = tmp_path / "nan.rt32"
        write_tensor(image, pixels)
        code = main(["infer", str(trained / "weights.tkfw"), str(image)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith("ERR:IO:") and str(image) in captured.err
        assert captured.out == ""


    def test_overflowing_dims_in_weights_is_io_error(self, synth_tree, tmp_path, capsys):
        # Four dims of 65536 hold 2**64 elements, which wraps to 0 in int64.
        u32 = (1).to_bytes(4, "little")
        header = b"TKFW" + u32 + u32 + u32 + b"t" + (4).to_bytes(4, "little")
        bad = tmp_path / "bad.tkfw"
        bad.write_bytes(header + (65536).to_bytes(4, "little") * 4)
        code = main(["infer", str(bad), str(synth_tree / "grating_0" / "00000.ppm")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("ERR:IO:")
        assert "truncated payload of 't'" in err


class TestManifestEncoding:
    def test_non_utf8_manifest_is_config_error(self, trained, synth_tree, tmp_path, capsys):
        weights = tmp_path / "weights.tkfw"
        weights.write_bytes((trained / "weights.tkfw").read_bytes())
        (tmp_path / "manifest.txt").write_bytes(b"command=train\nclass_0=gr\xffting\n")
        image = synth_tree / "grating_0" / "00000.ppm"
        for argv in (["infer", str(weights), str(image)], ["eval", str(weights), "--data", "synth:3x4x16"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == f"ERR:CONFIG: manifest {tmp_path / 'manifest.txt'} is not UTF-8 (byte 24)\n"

    def test_non_ascii_class_names_round_trip(self, synth_tree, tmp_path, capsys):
        names = ["freude", "überraschung", "ärger"]
        tree = tmp_path / "faces"
        for old, new in zip(["grating_0", "grating_1", "grating_2"], sorted(names)):
            (tree / new).mkdir(parents=True)
            for image in (synth_tree / old).iterdir():
                (tree / new / image.name).write_bytes(image.read_bytes())
        config = tmp_path / "train.cfg"
        config.write_text(TRAIN_CONFIG.replace("synth:3x4x16", str(tree)), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out), "--epochs", "1"]) == 0
        manifest = (out / "manifest.txt").read_bytes()
        assert "class_2=überraschung\n".encode("utf-8") in manifest
        header = (out / "confusion.csv").read_bytes().split(b"\n")[0]
        assert header == ("class," + ",".join(sorted(names))).encode("utf-8")
        capsys.readouterr()
        assert main(["infer", str(out / "weights.tkfw"), str(tree / "ärger" / "00000.ppm")]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("# ")]
        assert lines[0].split(" ", 1)[1] in names
        assert [line.split()[1] for line in lines[1:]] == sorted(names)


class TestManifestValues:
    """A manifest value that would be adopted must parse, not fall back to
    the default."""

    BAD = {"input_size": "0", "normalize": "maybe"}

    def broken_copy(self, trained, tmp_path, bad=BAD):
        """The trained weights beside their manifest, with each key of
        ``bad`` set to its value."""
        weights = tmp_path / "weights.tkfw"
        weights.write_bytes((trained / "weights.tkfw").read_bytes())
        lines = [l for l in (trained / "manifest.txt").read_text().splitlines()
                 if l.split("=", 1)[0] not in bad]
        lines += [f"{key}={value}" for key, value in bad.items()]
        (tmp_path / "manifest.txt").write_text("\n".join(lines) + "\n")
        return weights

    def argv(self, command, weights, synth_tree):
        return {"infer": ["infer", str(weights), str(synth_tree / "grating_0" / "00000.ppm")],
                "eval": ["eval", str(weights), "--data", "synth:3x4x16"]}[command]

    @pytest.mark.parametrize("config, reason", [
        ("", "input_size must be >= 1, got 0"),
        ("input_size = 16\n", "normalize must be on, got 'maybe'"),
    ], ids=["input_size", "normalize"])
    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_invalid_adopted_value_is_config_error(self, trained, synth_tree, tmp_path, capsys,
                                                   command, config, reason):
        weights = self.broken_copy(trained, tmp_path)
        (tmp_path / "run.cfg").write_text(config)
        argv = self.argv(command, weights, synth_tree)
        assert main(argv + ["--config", str(tmp_path / "run.cfg")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"ERR:CONFIG: manifest {tmp_path / 'manifest.txt'}: {reason}\n"

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_weights_trained_without_normalization_are_refused(self, trained, synth_tree, tmp_path,
                                                               capsys, command):
        weights = self.broken_copy(trained, tmp_path, {"normalize": "off"})
        assert main(self.argv(command, weights, synth_tree)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"ERR:CONFIG: manifest {tmp_path / 'manifest.txt'}: normalize must be on, got 'off'\n"

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_older_manifest_keys_are_read(self, trained, synth_tree, tmp_path, capsys, command):
        # Manifests written before those settings went record them like this.
        weights = self.broken_copy(trained, tmp_path, {"classes": "3", "normalize": "on", "val_split": "0.0",
                                                       "power": "0.5", "momentum": "0.9"})
        assert main(self.argv(command, weights, synth_tree)) == 0
        assert "# input_size=16\n" in capsys.readouterr().out

    def test_values_the_user_sets_are_not_read(self, trained, synth_tree, tmp_path, capsys):
        weights = self.broken_copy(trained, tmp_path, {"input_size": "0"})
        (tmp_path / "run.cfg").write_text("input_size = 16\n")
        image = synth_tree / "grating_0" / "00000.ppm"
        assert main(["infer", str(weights), str(image), "--config", str(tmp_path / "run.cfg")]) == 0
        assert "# input_size=16\n" in capsys.readouterr().out


UMLAUT_NAMES = ["freude", "ärger", "überraschung"]


@pytest.fixture(scope="module")
def umlaut_run(trained, synth_tree, tmp_path_factory):
    """The trained weights with a manifest naming classes ``UMLAUT_NAMES``,
    and a folder dataset of the synth images under those class names."""
    root = tmp_path_factory.mktemp("umlaut")
    run = root / "run"
    run.mkdir()
    (run / "weights.tkfw").write_bytes((trained / "weights.tkfw").read_bytes())
    lines = [
        line for line in (trained / "manifest.txt").read_text(encoding="utf-8").splitlines()
        if not line.startswith("class_")
    ]
    lines += [f"class_{i}={name}" for i, name in enumerate(UMLAUT_NAMES)]
    (run / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    tree = root / "faces"
    for old, new in zip(["grating_0", "grating_1", "grating_2"], UMLAUT_NAMES):
        (tree / new).mkdir(parents=True)
        for image in (synth_tree / old).iterdir():
            (tree / new / image.name).write_bytes(image.read_bytes())
    return run / "weights.tkfw", tree


def run_cli(encoding, *argv):
    """``tkfnet`` in a fresh interpreter whose stdout encoding is ``encoding``."""
    src = str(Path(tkfnet.cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys; from tkfnet.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING=encoding),
        capture_output=True,
        encoding="utf-8",
        timeout=120,
    )


class TestStdoutEncoding:
    def argvs(self, umlaut_run):
        weights, tree = umlaut_run
        return {
            "infer": ["infer", str(weights), str(tree / "ärger" / "00000.ppm")],
            "eval": ["eval", str(weights), "--data", str(tree)],
        }

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_unencodable_class_name_fails_before_any_output(self, umlaut_run, command):
        result = run_cli("ascii", *self.argvs(umlaut_run)[command])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == (
            "ERR:CONFIG: stdout encoding ascii cannot encode class name '\\xe4rger'; "
            "set PYTHONIOENCODING=utf-8\n"
        )

    @pytest.mark.parametrize("command", ["infer", "eval"])
    def test_utf8_stdout_prints_the_class_names(self, umlaut_run, command):
        result = run_cli("utf-8", *self.argvs(umlaut_run)[command])
        assert result.returncode == 0, result.stderr
        assert "# class_1=ärger\n" in result.stdout

    def test_stream_without_encoding_takes_any_text(self, umlaut_run):
        out = io.StringIO()
        assert out.encoding is None
        with contextlib.redirect_stdout(out):
            assert main(self.argvs(umlaut_run)["infer"]) == 0
        assert "# class_1=ärger\n" in out.getvalue()


def doctored_weights(trained, tmp_path, edit):
    """A copy of the trained weights, changed by ``edit``, with its manifest."""
    arrays = read_weights(trained / "weights.tkfw")
    edit(arrays)
    path = tmp_path / "weights.tkfw"
    write_weights(path, arrays)
    (tmp_path / "manifest.txt").write_text((trained / "manifest.txt").read_text())
    return path


class TestLoadPath:
    @pytest.mark.parametrize("command", ["infer", "eval"])
    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda arrays: arrays.pop("tafe.alpha"), "missing parameters: tafe.alpha"),
            (lambda arrays: arrays.update({"tafe.ctx_conv3.weight": np.zeros((1, 1, 16, 16), np.float32)}),
             "tafe.ctx_conv3.weight has shape"),
            (lambda arrays: arrays.pop("dcif.head.weight"),
             "weights file lacks the classifier record dcif.head.weight"),
            (lambda arrays: arrays.pop("backbone.stem.weight"),
             "weights file lacks the stem record backbone.stem.weight"),
            (lambda arrays: arrays.update({"backbone.stem.weight": np.zeros((3, 3, 3, 5), np.float32)}),
             "stem width 5 matches no known model preset"),
        ],
        ids=["missing_record", "wrong_shape", "no_head", "no_stem", "unknown_stem_width"],
    )
    def test_bad_record_is_shape_error(self, trained, synth_tree, tmp_path, capsys, command, edit, reason):
        weights = doctored_weights(trained, tmp_path, edit)
        if command == "infer":
            argv = ["infer", str(weights), str(synth_tree / "grating_0" / "00000.ppm")]
        else:
            argv = ["eval", str(weights), "--data", "synth:3x4x16"]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("ERR:SHAPE:")
        assert reason in err

    @pytest.mark.parametrize("command", ["infer", "eval"])
    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda arrays: [a.fill(np.nan) for a in arrays.values()],
             "non-finite values in 36 of 36 records, first backbone.stem.weight"),
            (lambda arrays: arrays["dcif.head.bias"].put(1, np.inf),
             "non-finite values in 1 of 36 records, first dcif.head.bias"),
            (lambda arrays: arrays["backbone.stem.bias"].fill(-np.inf),
             "non-finite values in 1 of 36 records, first backbone.stem.bias"),
            (lambda arrays: arrays["tafe.ctx_conv3.weight"].put(7, np.nan),
             "non-finite values in 1 of 36 records, first tafe.ctx_conv3.weight"),
        ],
        ids=["all_nan", "one_inf", "all_neg_inf", "one_nan"],
    )
    def test_non_finite_weights_are_numeric_error(self, trained, synth_tree, tmp_path, capsys, command, edit, reason):
        weights = doctored_weights(trained, tmp_path, edit)
        if command == "infer":
            argv = ["infer", str(weights), str(synth_tree / "grating_0" / "00000.ppm")]
        else:
            argv = ["eval", str(weights), "--data", "synth:3x4x16"]
        assert main(argv) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERR:NUMERIC:") and captured.err.count("\n") == 1
        assert reason in captured.err

    def test_infer_output_does_not_depend_on_seed(self, trained, synth_tree, tmp_path, capsys):
        image = synth_tree / "grating_2" / "00001.ppm"
        outputs = []
        for seed in ("0", "5"):
            out = tmp_path / f"seed{seed}"
            code = main(["infer", str(trained / "weights.tkfw"), str(image), "--seed", seed,
                         "--dump-attention", "--out", str(out)])
            assert code == 0
            outputs.append((capsys.readouterr().out, (out / "attention.csv").read_bytes()))
        assert outputs[0] == outputs[1]


class TestGradcheckCommand:
    def test_reports_every_module_and_passes(self, capsys):
        code = main(["gradcheck", "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        for name in ["tensor-core", *MODULE_CASES]:
            assert f"{name} max_rel_err" in out
        assert "gradient check passed" in out

    def test_corrupted_backward_fails_fast(self, monkeypatch, capsys):
        scale_gradients(monkeypatch, 1.5)
        code = main(["gradcheck"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("ERR:VERIFY:")
        assert "tensor-core" in captured.err

    def test_base_model_rejected(self, capsys):
        assert main(["gradcheck", "--model", "base"]) == 2
        assert "small" in capsys.readouterr().err


class TestArgumentErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr().err.startswith("ERR:CONFIG:")

    def test_unknown_flag(self, capsys):
        assert main(["train", "--banana", "1"]) == 2
        assert capsys.readouterr().err.startswith("ERR:CONFIG:")

    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.startswith("ERR:CONFIG:")

    def test_invalid_flag_value(self, capsys):
        assert main(["train", "--epochs", "many"]) == 2
        assert "epochs" in capsys.readouterr().err

    def test_error_output_is_single_line(self, capsys):
        main(["train"])
        err = capsys.readouterr().err
        assert err.endswith("\n")
        assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["train", "eval", "infer", "gradcheck", "synth"])
def test_out_under_a_regular_file_is_io_error(trained, synth_tree, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "run"
    argv = {
        "train": ["train", "--data", "synth:2x2x16", "--model", "small", "--epochs", "1"],
        "eval": ["eval", str(trained / "weights.tkfw"), "--data", "synth:3x4x16"],
        "infer": ["infer", str(trained / "weights.tkfw"), str(synth_tree / "grating_0" / "00000.ppm")],
        "gradcheck": ["gradcheck"],
        "synth": ["synth", "2x1x8"],
    }[command]
    assert main(argv + ["--out", str(out)]) == 3
    captured = capsys.readouterr()
    # Nothing ran first: train printed no epoch, gradcheck no row.
    assert captured.out == ""
    assert captured.err.startswith(f"ERR:IO: cannot create output directory {out}: ")
