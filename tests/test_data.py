"""Image decoding, folder loading, preprocessing and the synthetic corpus."""

import math

import numpy as np
import pytest

from tkfnet.data import (
    DataError,
    Dataset,
    Sample,
    decode_ppm,
    encode_ppm,
    load_image,
    load_image_folder,
    preprocess,
    split_dataset,
    synth_dataset,
)
from tkfnet.tensor import Tensor
from tkfnet.weights import write_tensor


def ppm_bytes(w, h, pixels):
    return b"P6\n%d %d\n255\n" % (w, h) + bytes(pixels)


class TestPpmCodec:
    def test_decode_scales_to_unit_interval(self):
        img = decode_ppm(ppm_bytes(1, 1, [0, 128, 255]))
        assert img.shape == (1, 1, 1, 3)
        np.testing.assert_allclose(
            img.data.reshape(-1), [0.0, 128.0 / 255.0, 1.0], atol=1e-7
        )

    def test_decode_row_major_layout(self):
        # 2x1: first pixel red, second green.
        img = decode_ppm(ppm_bytes(2, 1, [255, 0, 0, 0, 255, 0]))
        assert img.data[0, 0, 0, 0] == 1.0
        assert img.data[0, 0, 1, 1] == 1.0

    def test_header_comments_skipped(self):
        data = b"P6\n# a comment\n1 1\n# another\n255\n" + bytes([10, 20, 30])
        img = decode_ppm(data)
        np.testing.assert_allclose(
            img.data.reshape(-1), np.array([10, 20, 30]) / 255.0, atol=1e-7
        )

    def test_bad_magic_names_byte_zero(self):
        with pytest.raises(DataError, match="byte 0"):
            decode_ppm(b"P5\n1 1\n255\n\x00")

    def test_unsupported_maxval(self):
        with pytest.raises(DataError, match="maxval 65535"):
            decode_ppm(b"P6\n1 1\n65535\n" + bytes(6))

    def test_truncated_payload_reports_counts(self):
        with pytest.raises(DataError, match="need 12 bytes, have 7"):
            decode_ppm(ppm_bytes(2, 2, range(7)))

    def test_malformed_dimension_token(self):
        with pytest.raises(DataError, match="width"):
            decode_ppm(b"P6\nxx 1\n255\n" + bytes(3))

    def test_roundtrip_is_exact_for_quantized_values(self):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=(1, 5, 4, 3), dtype=np.uint8)
        img = Tensor(raw.astype(np.float32) / 255.0)
        again = decode_ppm(encode_ppm(img))
        np.testing.assert_array_equal(again.data, img.data)

    def test_roundtrip_quantization_bound(self):
        rng = np.random.default_rng(1)
        img = Tensor(rng.uniform(0, 1, size=(1, 6, 6, 3)).astype(np.float32))
        again = decode_ppm(encode_ppm(img))
        assert np.abs(again.data - img.data).max() <= 0.5 / 255.0 + 1e-7

    def test_encode_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            encode_ppm(Tensor(np.zeros((2, 4, 4, 3), dtype=np.float32)))


class TestLoadImage:
    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "x.png"
        path.write_bytes(b"anything")
        with pytest.raises(DataError, match="unsupported extension"):
            load_image(path)

    def test_ppm_file(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(ppm_bytes(1, 1, [255, 255, 255]))
        np.testing.assert_array_equal(load_image(path).data, 1.0)

    def test_raw_tensor_file(self, tmp_path):
        arr = np.random.default_rng(2).uniform(0, 1, size=(1, 3, 3, 3)).astype(np.float32)
        path = tmp_path / "x.rt32"
        write_tensor(path, arr)
        np.testing.assert_array_equal(load_image(path).data, arr)

    def test_raw_tensor_shape_enforced(self, tmp_path):
        path = tmp_path / "bad.rt32"
        write_tensor(path, np.zeros((2, 3, 3, 3), dtype=np.float32))
        with pytest.raises(DataError, match=r"\(1, h, w, 3\)"):
            load_image(path)

    def test_raw_tensor_range_enforced(self, tmp_path):
        path = tmp_path / "bad.rt32"
        write_tensor(path, np.full((1, 2, 2, 3), 1.5, dtype=np.float32))
        with pytest.raises(DataError, match=r"\[0, 1\]"):
            load_image(path)

    def test_raw_tensor_nan_rejected(self, tmp_path):
        # NaN fails both range comparisons, so the range check alone let it
        # through.
        arr = np.full((1, 2, 2, 3), 0.5, dtype=np.float32)
        arr[0, 1, 0, 2] = np.nan
        path = tmp_path / "nan.rt32"
        write_tensor(path, arr)
        with pytest.raises(DataError, match=r"nan\.rt32: .*non-finite"):
            load_image(path)

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(DataError, match="nope.ppm"):
            load_image(tmp_path / "nope.ppm")


def write_tree(root, layout):
    for class_name, count in layout.items():
        d = root / class_name
        d.mkdir()
        for i in range(count):
            shade = (i * 40) % 256
            (d / f"{i:03d}.ppm").write_bytes(ppm_bytes(2, 2, [shade] * 12))


class TestLoadImageFolder:
    def test_classes_and_files_sorted(self, tmp_path):
        write_tree(tmp_path, {"zebra": 1, "apple": 2, "mango": 1})
        data = load_image_folder(tmp_path)
        assert data.class_names == ["apple", "mango", "zebra"]
        assert [s.label for s in data.samples] == [0, 0, 1, 2]
        assert data.samples[0].source_path.endswith("apple/000.ppm")

    def test_unsupported_files_skipped_and_counted(self, tmp_path):
        write_tree(tmp_path, {"a": 2})
        (tmp_path / "a" / "notes.txt").write_text("not an image")
        data = load_image_folder(tmp_path)
        assert len(data.samples) == 2
        assert data.skipped == 1

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(DataError, match="not a directory"):
            load_image_folder(tmp_path / "absent")

    def test_no_class_dirs_rejected(self, tmp_path):
        (tmp_path / "loose.ppm").write_bytes(ppm_bytes(1, 1, [0, 0, 0]))
        with pytest.raises(DataError, match="no class subdirectories"):
            load_image_folder(tmp_path)

    def test_corrupt_file_names_path(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "bad.ppm").write_bytes(b"P6\n1 1\n255\n")
        with pytest.raises(DataError, match="bad.ppm"):
            load_image_folder(tmp_path)

    def test_thread_pool_preserves_order(self, tmp_path, monkeypatch):
        write_tree(tmp_path, {"a": 3, "b": 3})
        serial = load_image_folder(tmp_path)
        monkeypatch.setenv("TKF_THREADS", "4")
        threaded = load_image_folder(tmp_path)
        assert [s.source_path for s in serial.samples] == [
            s.source_path for s in threaded.samples
        ]
        for s1, s2 in zip(serial.samples, threaded.samples):
            np.testing.assert_array_equal(s1.image.data, s2.image.data)


class TestPreprocess:
    def test_normalization_maps_midpoint_to_zero(self):
        img = Tensor(np.array([0.0, 0.5, 1.0], dtype=np.float32).reshape(1, 1, 1, 3))
        out = preprocess(Sample(img, 0))
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 0.0, 1.0], atol=1e-7)

    def test_normalize_can_be_disabled(self):
        img = Tensor(np.full((1, 2, 2, 3), 0.25, dtype=np.float32))
        out = preprocess(img, normalize=False)
        np.testing.assert_array_equal(out.data, img.data)

    def test_resize_identity_when_extent_matches(self):
        img = Tensor(np.random.default_rng(3).uniform(size=(1, 4, 4, 3)).astype(np.float32))
        out = preprocess(img, target=(4, 4), normalize=False)
        np.testing.assert_array_equal(out.data, img.data)

    def test_bilinear_checkerboard_center(self):
        # Upsampling [[0, 1], [1, 0]] to 3x3 puts 0.5 at the center and keeps
        # the four corners.
        img = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.float32)
        img = Tensor(np.repeat(img.reshape(1, 2, 2, 1), 3, axis=3))
        out = preprocess(img, target=(3, 3), normalize=False)
        plane = out.data[0, :, :, 0]
        assert plane[1, 1] == pytest.approx(0.5)
        np.testing.assert_allclose(
            [plane[0, 0], plane[0, 2], plane[2, 0], plane[2, 2]],
            [0.0, 1.0, 1.0, 0.0],
            atol=1e-7,
        )

    def test_downsample_to_single_pixel_takes_origin(self):
        img = Tensor(np.arange(12, dtype=np.float32).reshape(1, 2, 2, 3))
        out = preprocess(img, target=(1, 1), normalize=False)
        np.testing.assert_array_equal(out.data.reshape(-1), [0.0, 1.0, 2.0])

    def test_invalid_target_rejected(self):
        img = Tensor(np.zeros((1, 2, 2, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            preprocess(img, target=(0, 4))


class TestSynthDataset:
    def test_size_balance_and_names(self):
        data = synth_dataset(classes=4, per_class=6, size=(16, 16), seed=0)
        assert len(data.samples) == 24
        labels = data.labels()
        assert all((labels == k).sum() == 6 for k in range(4))
        assert data.class_names == ["grating_0", "grating_1", "grating_2", "grating_3"]

    def test_sample_geometry_and_range(self):
        data = synth_dataset(classes=2, per_class=3, size=(8, 12), seed=1)
        for s in data.samples:
            assert s.image.shape == (1, 8, 12, 3)
            assert s.image.data.min() >= 0.0
            assert s.image.data.max() <= 1.0
            # Grayscale content replicated across channels.
            np.testing.assert_array_equal(s.image.data[..., 0], s.image.data[..., 1])

    def test_seed_determinism(self):
        a = synth_dataset(classes=3, per_class=4, size=(16, 16), seed=9)
        b = synth_dataset(classes=3, per_class=4, size=(16, 16), seed=9)
        c = synth_dataset(classes=3, per_class=4, size=(16, 16), seed=10)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.image.data.tobytes() == sb.image.data.tobytes()
        assert any(
            sa.image.data.tobytes() != sc.image.data.tobytes()
            for sa, sc in zip(a.samples, c.samples)
        )

    def test_class_count_bounds(self):
        with pytest.raises(ValueError):
            synth_dataset(classes=0)
        with pytest.raises(ValueError):
            synth_dataset(classes=8)

    def test_orientation_recoverable_from_gradients(self):
        # The dominant gradient orientation of a noise-free grating matches
        # its class angle k * pi / 7 (mod pi). Estimated by the double-angle
        # average of image gradients.
        data = synth_dataset(classes=7, per_class=2, size=(64, 64), seed=5, noise_sigma=0.0)
        for s in data.samples:
            img = s.image.data[0, :, :, 0].astype(np.float64)
            dy, dx = np.gradient(img)
            est = 0.5 * math.atan2(2.0 * (dx * dy).sum(), (dx * dx - dy * dy).sum())
            true = math.pi * s.label / 7.0
            if true > math.pi / 2:
                true -= math.pi
            delta = abs(est - true)
            delta = min(delta, abs(delta - math.pi))
            assert delta < 0.05


class TestSplitDataset:
    def test_sizes_and_label_multiset(self):
        data = synth_dataset(classes=3, per_class=10, size=(8, 8), seed=0)
        train, held = split_dataset(data, 0.2, seed=1)
        assert len(held.samples) == 6
        assert len(train.samples) == 24
        combined = sorted([s.label for s in train.samples] + [s.label for s in held.samples])
        assert combined == sorted(s.label for s in data.samples)

    def test_deterministic_for_fixed_seed(self):
        data = synth_dataset(classes=2, per_class=8, size=(8, 8), seed=0)
        a = split_dataset(data, 0.25, seed=3)
        b = split_dataset(data, 0.25, seed=3)
        assert [id(s) for s in a[1].samples] == [id(s) for s in b[1].samples]

    def test_holdout_never_empty(self):
        data = synth_dataset(classes=2, per_class=2, size=(8, 8), seed=0)
        _, held = split_dataset(data, 0.01, seed=0)
        assert len(held.samples) == 1

    def test_fraction_bounds(self):
        data = synth_dataset(classes=2, per_class=2, size=(8, 8), seed=0)
        with pytest.raises(ValueError):
            split_dataset(data, 0.0)
        with pytest.raises(ValueError):
            split_dataset(data, 1.0)
