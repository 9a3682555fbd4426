"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.datasets import (
    ACTIVITY_NAMES,
    KEYWORDS,
    make_har,
    make_mnist,
    make_okg,
    render_digit,
    render_keyword,
    render_window,
)
from repro.datasets import synth_mnist
from repro.datasets.common import (
    add_noise,
    draw_segment,
    draw_segments,
    jitter_points,
)
from repro.errors import ConfigurationError
from repro.nn import Dense, Flatten, ReLU, Sequential, evaluate_accuracy, fit, SGD


class TestShapes:
    def test_mnist_shapes(self):
        ds = make_mnist(50, seed=1)
        assert ds.x.shape == (50, 1, 28, 28)
        assert ds.num_classes == 10

    def test_har_shapes(self):
        ds = make_har(30, seed=1)
        assert ds.x.shape == (30, 1, 1, 121)
        assert ds.num_classes == 6
        assert len(ACTIVITY_NAMES) == 6

    def test_okg_shapes(self):
        ds = make_okg(36, seed=1)
        assert ds.x.shape == (36, 1, 28, 28)
        assert ds.num_classes == 12
        assert len(KEYWORDS) == 12

    def test_value_ranges(self):
        for ds in (make_mnist(20), make_okg(24)):
            assert ds.x.min() >= 0.0 and ds.x.max() < 1.0
        har = make_har(18)
        assert har.x.min() >= -1.0 and har.x.max() < 1.0


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = make_mnist(20, seed=7)
        b = make_mnist(20, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)

    def test_different_seed_different_data(self):
        a = make_mnist(20, seed=7)
        b = make_mnist(20, seed=8)
        assert not np.array_equal(a.x, b.x)


class TestRenderedPrefix:
    """``render=m`` draws every label but renders only the first ``m``
    samples, each bit-equal to the full draw's (the makers consume their
    generator label list first, then sample by sample)."""

    @pytest.mark.parametrize("maker", [make_mnist, make_har, make_okg])
    @pytest.mark.parametrize("seed", [0, 3, 20221])
    def test_prefix_is_byte_equal_to_the_full_draw(self, maker, seed):
        full = maker(16, seed=seed)
        for m in (1, 4, 16):
            prefix = maker(16, seed=seed, render=m)
            assert prefix.x.tobytes() == full.x[:m].tobytes()
            assert prefix.y.tobytes() == full.y[:m].tobytes()
            assert prefix.num_classes == full.num_classes

    def test_make_dataset_passes_render_through(self):
        from repro.experiments.common import make_dataset

        full = make_dataset("mnist", 16, seed=5)
        prefix = make_dataset("mnist", 16, seed=5, render=4)
        assert len(prefix) == 4
        assert prefix.x.tobytes() == full.x[:4].tobytes()


class TestBalance:
    @pytest.mark.parametrize(
        "maker,classes", [(make_mnist, 10), (make_har, 6), (make_okg, 12)]
    )
    def test_classes_balanced(self, maker, classes):
        ds = maker(classes * 10, seed=0)
        counts = np.bincount(ds.y, minlength=classes)
        assert counts.min() == counts.max() == 10


class TestRenderers:
    def test_digit_bad_label(self):
        with pytest.raises(ValueError):
            render_digit(10, np.random.default_rng(0))

    def test_window_bad_label(self):
        with pytest.raises(ValueError):
            render_window(6, np.random.default_rng(0))

    def test_keyword_bad_label(self):
        with pytest.raises(ValueError):
            render_keyword(12, np.random.default_rng(0))

    def test_silence_is_quiet(self):
        rng = np.random.default_rng(0)
        silence = render_keyword(10, rng)
        keyword = render_keyword(0, rng)
        assert silence.mean() < keyword.mean()

    def test_too_few_samples(self):
        with pytest.raises(ConfigurationError):
            make_mnist(5)


def _render_digit_per_segment(digit, rng, *, wobble=0.7, shift=2.0,
                              noise=0.08):
    """Oracle: the stroke renderer as first written, one
    :func:`draw_segment` call per segment."""
    img = np.zeros((synth_mnist.IMAGE_SIZE, synth_mnist.IMAGE_SIZE))
    thickness = rng.uniform(1.1, 1.8)
    for stroke in synth_mnist._DIGIT_STROKES[digit]:
        pts = jitter_points(stroke, rng, shift=shift, wobble=wobble)
        for a, b in zip(pts[:-1], pts[1:]):
            draw_segment(img, a, b, thickness)
    return add_noise(img, rng, noise)


class TestVectorizedStrokes:
    def test_make_mnist_bytes_equal_to_per_segment_oracle(self, monkeypatch):
        pairs = [(seed, n) for seed in range(150) for n in (10, 13)]
        fast = [make_mnist(n, seed=seed) for seed, n in pairs]
        monkeypatch.setattr(synth_mnist, "render_digit",
                            _render_digit_per_segment)
        for (seed, n), ds in zip(pairs, fast):
            ref = make_mnist(n, seed=seed)
            assert ds.x.tobytes() == ref.x.tobytes(), (seed, n)
            assert ds.y.tobytes() == ref.y.tobytes(), (seed, n)

    def test_zero_length_segment_in_a_digit(self, monkeypatch):
        """With no jitter, a repeated skeleton vertex is an exact
        zero-length segment: drawn as a dot, as draw_segment does."""
        strokes = dict(synth_mnist._DIGIT_STROKES)
        strokes[1] = [[(11, 8), (15, 5), (15, 5), (15, 23)],
                      [(11, 23), (19, 23)]]
        monkeypatch.setattr(synth_mnist, "_DIGIT_STROKES", strokes)
        monkeypatch.setattr(synth_mnist, "WOBBLE", 0.0)
        monkeypatch.setattr(synth_mnist, "SHIFT", 0.0)
        for seed in range(5):
            img = render_digit(1, np.random.default_rng(seed))
            ref = _render_digit_per_segment(1, np.random.default_rng(seed),
                                            wobble=0.0, shift=0.0)
            assert img.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("thickness", [1.2, 2.5, 1.5])
    def test_draw_segments_equals_draw_segment_calls(self, thickness):
        rng = np.random.default_rng(1)
        starts = rng.uniform(-3.0, 20.0, (40, 2))
        ends = starts + rng.normal(0.0, 4.0, (40, 2))
        starts[:3] = (10.3, 7.6), (4.1, 12.2), (15.7, 3.9)  # in the image
        ends[0] = starts[0]            # zero length
        ends[1] = starts[1] + 5e-7     # under the 1e-12 squared cutoff
        ends[2] = starts[2] + 1e-6     # just over it
        img = np.zeros((16, 20))
        ref = img.copy()
        draw_segments(img, starts, ends, thickness)
        for p0, p1 in zip(starts, ends):
            draw_segment(ref, tuple(p0), tuple(p1), thickness)
        assert img.tobytes() == ref.tobytes()

    def test_no_segments_draw_nothing(self):
        img = np.zeros((4, 4))
        draw_segments(img, [], [])
        assert not img.any()


class TestLearnability:
    """A linear probe must beat chance comfortably on each dataset —
    guarantees the classes actually carry signal."""

    def _probe(self, ds, epochs=12):
        rng = np.random.default_rng(0)
        in_features = int(np.prod(ds.sample_shape))
        model = Sequential([Flatten(), Dense(in_features, ds.num_classes, rng=rng)])
        fit(model, ds.x, ds.y, epochs=epochs, batch_size=32,
            optimizer=SGD(model.parameters(), lr=0.05, momentum=0.9),
            rng=np.random.default_rng(1))
        return evaluate_accuracy(model, ds.x, ds.y)

    def test_mnist_linear_probe(self):
        assert self._probe(make_mnist(400, seed=2)) > 0.6

    def test_har_linear_probe(self):
        assert self._probe(make_har(300, seed=2)) > 0.6

    def test_okg_linear_probe(self):
        assert self._probe(make_okg(360, seed=2)) > 0.5
