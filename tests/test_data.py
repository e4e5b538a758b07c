"""Dataset loading and synthetic generators."""

import re

import numpy as np
import pytest

from spikingformer.data import (
    CIFAR_RECORD_BYTES,
    Dataset,
    batches,
    class_templates,
    load_cifar10_binary,
    synth_events,
    synth_static,
)

from helpers import write_cifar10_binary


def template_matching_accuracy(ds, templates: np.ndarray) -> float:
    """Linear-classifier oracle: argmax_c <x, t_c> - |t_c|^2 / 2."""
    flat = ds.x.reshape(len(ds), -1)
    tflat = templates.reshape(len(templates), -1)
    scores = flat @ tflat.T - 0.5 * (tflat ** 2).sum(axis=1)
    return float((scores.argmax(axis=1) == ds.y).mean())


def _fake_cifar(rng, n=20):
    images = rng.integers(0, 256, (n, 3, 32, 32)).astype(np.float32) / 255.0
    labels = rng.integers(0, 10, n).astype(np.uint8)
    return images, labels


class TestCifarLoader:
    def test_round_trip(self, rng, tmp_path):
        images, labels = _fake_cifar(rng)
        path = tmp_path / "batch.bin"
        write_cifar10_binary(path, images, labels)
        assert path.stat().st_size == len(labels) * CIFAR_RECORD_BYTES
        ds = load_cifar10_binary(path)
        assert len(ds) == 20 and ds.num_classes == 10
        np.testing.assert_array_equal(ds.y, labels.astype(np.int64))
        np.testing.assert_allclose(ds.x, images, atol=1e-6)
        assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0

    def test_limit(self, rng, tmp_path):
        images, labels = _fake_cifar(rng)
        path = tmp_path / "batch.bin"
        write_cifar10_binary(path, images, labels)
        assert len(load_cifar10_binary(path, limit=5)) == 5

    def test_rejects_truncated_file(self, rng, tmp_path):
        images, labels = _fake_cifar(rng, n=2)
        path = tmp_path / "batch.bin"
        write_cifar10_binary(path, images, labels)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="record"):
            load_cifar10_binary(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError):
            load_cifar10_binary(path)

    def test_rejects_bad_label(self, rng, tmp_path):
        images, labels = _fake_cifar(rng, n=2)
        labels[0] = 99
        path = tmp_path / "batch.bin"
        write_cifar10_binary(path, images, labels)
        with pytest.raises(ValueError, match="label"):
            load_cifar10_binary(path)

    def test_geometry(self, rng, tmp_path):
        images, labels = _fake_cifar(rng, n=3)
        path = tmp_path / "batch.bin"
        write_cifar10_binary(path, images, labels)
        assert load_cifar10_binary(path).x.shape == (3, 3, 32, 32)


class TestSyntheticStatic:
    def test_shapes_and_range(self):
        ds = synth_static(4, 32, seed=0)
        assert ds.x.shape == (32, 3, 8, 8) and ds.y.shape == (32,)
        assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0
        assert ds.num_classes == 4

    def test_seed_reproducibility(self):
        a, b = synth_static(4, 16, seed=3), synth_static(4, 16, seed=3)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seeds_differ(self):
        a, b = synth_static(4, 16, seed=1), synth_static(4, 16, seed=2)
        assert not np.array_equal(a.x, b.x)

    def test_noiseless_oracle_is_perfect(self):
        ds = synth_static(4, 200, seed=0, noise=0.0)
        templates = class_templates(4, (3, 8, 8), seed=0 * 7919 + 13)
        assert template_matching_accuracy(ds, templates) == 1.0

    def test_noisy_oracle_above_99(self):
        ds = synth_static(4, 500, seed=0, noise=0.05)
        templates = class_templates(4, (3, 8, 8), seed=0 * 7919 + 13)
        assert template_matching_accuracy(ds, templates) >= 0.99

    def test_all_classes_present(self):
        ds = synth_static(4, 200, seed=0)
        assert set(np.unique(ds.y)) == {0, 1, 2, 3}

    # NaN and negative noise once gave the noise-free images, and 1e300 an
    # overflow warning and saturated ones
    @pytest.mark.parametrize("noise,message", [
        (float("nan"), "noise must be >= 0, got nan"), (-0.5, "noise must be >= 0, got -0.5"),
        (1e300, "noise must be finite and, unless 0, nonzero in float32; got 1e+300"),
    ], ids=["nan", "negative", "1e300"])
    def test_noise_it_cannot_apply_is_refused(self, noise, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            synth_static(4, 8, seed=0, noise=noise)


class TestSyntheticEvents:
    def test_binary_frames(self):
        ds = synth_events(3, 16, t_steps=4, seed=0)
        assert ds.x.shape == (16, 4, 2, 8, 8)
        assert set(np.unique(ds.x)) <= {0.0, 1.0}

    def test_seed_reproducibility(self):
        a = synth_events(3, 8, t_steps=2, seed=5)
        b = synth_events(3, 8, t_steps=2, seed=5)
        np.testing.assert_array_equal(a.x, b.x)

    def test_rejects_non_polarity_channels(self):
        with pytest.raises(ValueError, match="polarities"):
            synth_events(3, 8, t_steps=2, seed=0, shape=(3, 8, 8))

    def test_class_dependent_rates(self):
        ds = synth_events(2, 400, t_steps=4, seed=0)
        r0 = ds.x[ds.y == 0].mean(axis=(0, 1))
        r1 = ds.x[ds.y == 1].mean(axis=(0, 1))
        assert np.abs(r0 - r1).max() > 0.1


class TestBatches:
    """The rank of a dataset's x is its layout: a 4-D one is static images,
    a 5-D one event frames that ``Model.forward`` takes T-major."""

    @staticmethod
    def _dataset(rng, shape):
        return Dataset(x=rng.standard_normal(shape).astype(np.float32),
                       y=rng.integers(0, 3, shape[0]), num_classes=3)

    def test_static_batches_are_the_samples_in_order(self, rng):
        ds = self._dataset(rng, (7, 2, 4, 4))
        order = rng.permutation(7)
        out = list(batches(ds, 3, order=order))
        assert [len(y) for _, y in out] == [3, 3, 1]  # the last batch is short
        for i, (xb, yb) in enumerate(out):
            idx = order[3 * i : 3 * i + 3]
            np.testing.assert_array_equal(xb, ds.x[idx])
            np.testing.assert_array_equal(yb, ds.y[idx])

    def test_default_order_is_dataset_order(self, rng):
        ds = self._dataset(rng, (5, 2, 4, 4))
        xs, ys = zip(*batches(ds, 2))
        np.testing.assert_array_equal(np.concatenate(xs), ds.x)
        np.testing.assert_array_equal(np.concatenate(ys), ds.y)

    @pytest.mark.parametrize("n,batch", [(7, 3), (4, 4)], ids=["short-last", "batch-equals-T"])
    def test_event_batches_are_time_major(self, rng, n, batch):
        ds = self._dataset(rng, (n, 4, 2, 4, 4))  # T = 4
        order = rng.permutation(n)
        out = list(batches(ds, batch, order=order))
        assert [len(y) for _, y in out] == [min(batch, n - s) for s in range(0, n, batch)]
        for i, (xb, yb) in enumerate(out):
            idx = order[batch * i : batch * (i + 1)]
            assert xb.shape == (4, len(idx), 2, 4, 4)
            for j, sample in enumerate(idx):
                np.testing.assert_array_equal(xb[:, j], ds.x[sample])
            np.testing.assert_array_equal(yb, ds.y[idx])
