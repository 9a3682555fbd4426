"""The per-model logits memo of :meth:`QuantizedModel.forward`.

A hit must be indistinguishable from recomputing: the same logits bits
and the same overflow records, in the caller's monitor or the model's.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.experiments.common import make_dataset, prepare_quantized
from repro.fixedpoint import OverflowMonitor
from repro.rad import quantize
from repro.rad.quantize import BCM_MODES, LOGITS_MEMO_SIZE


@pytest.fixture(scope="module")
def model_and_batch():
    model = prepare_quantized("mnist")
    x = make_dataset("mnist", 16, seed=0).x[:4]
    return model, x


def _unmemoized(model, x, mode):
    """``forward``'s value and records, through the unmemoized oracle."""
    monitor = OverflowMonitor()
    raw = model.forward_raw(x, monitor=monitor, bcm_mode=mode)
    out_frac = model.layers[-1].out_frac
    return raw.astype(np.float64) / (1 << out_frac), monitor


def _fresh(model):
    """``model`` with an empty memo (a pickle round trip drops it)."""
    return pickle.loads(pickle.dumps(model))


class TestHitEqualsForwardRaw:
    @pytest.mark.parametrize("explicit", [True, False])
    def test_every_bcm_mode_one_model(self, model_and_batch, explicit):
        """All modes in turn on one model and batch: a key without the
        mode would serve ``"stage"``'s logits for saturating ``"none"``."""
        base, x = model_and_batch
        model = _fresh(base)
        for mode in BCM_MODES + (None,):
            want, want_mon = _unmemoized(base, x, mode)
            for _ in range(2):  # a miss, then a hit
                monitor = OverflowMonitor()
                if explicit:
                    got = model.forward(x, monitor=monitor, bcm_mode=mode)
                else:
                    model.monitor.reset()
                    got = model.forward(x, bcm_mode=mode)
                    monitor = model.monitor
                assert got.tobytes() == want.tobytes(), mode
                assert monitor.counts == want_mon.counts, mode
                assert monitor.total_values == want_mon.total_values, mode
        assert len(model._memo) == len(BCM_MODES) + 1

    def test_saturating_mode_replays_its_overflows(self, model_and_batch):
        base, x = model_and_batch
        model = _fresh(base)
        _, want = _unmemoized(base, x, "none")
        assert want.total > 0  # the ablation's premise: it saturates
        model.forward(x, bcm_mode="none")
        monitor = OverflowMonitor()
        model.forward(x, monitor=monitor, bcm_mode="none")
        assert monitor.counts == want.counts

    def test_records_accumulate_across_hits(self, model_and_batch):
        base, x = model_and_batch
        model = _fresh(base)
        _, once = _unmemoized(base, x, "none")
        monitor = OverflowMonitor()
        for _ in range(3):
            model.forward(x, monitor=monitor, bcm_mode="none")
        assert monitor.total == 3 * once.total

    def test_key_is_the_float64_input(self, model_and_batch):
        """Inputs that convert to the same float64 bits share an entry;
        another shape or other bits do not."""
        base, x = model_and_batch
        model = _fresh(base)
        for batch in (x, x[:2], x.astype(np.float32)):
            want, _ = _unmemoized(base, batch, None)
            assert model.forward(batch).tobytes() == want.tobytes()
        assert len(model._memo) == 3
        model.forward(x.tolist())
        model.forward(np.asfortranarray(x))
        assert len(model._memo) == 3


class TestMemoIsolation:
    def test_writing_a_result_does_not_change_a_later_hit(
            self, model_and_batch):
        base, x = model_and_batch
        model = _fresh(base)
        first = model.forward(x)
        want = first.copy()
        first[:] = 99.0
        second = model.forward(x)
        assert second.tobytes() == want.tobytes()
        second[:] = -1.0
        assert model.forward(x).tobytes() == want.tobytes()

    def test_bound_holds(self, model_and_batch, monkeypatch):
        base, x = model_and_batch
        model = _fresh(base)
        rng = np.random.default_rng(1)
        batches = [rng.random((1,) + base.input_shape)
                   for _ in range(LOGITS_MEMO_SIZE + 3)]
        for batch in batches:
            model.forward(batch)
            assert len(model._memo) <= LOGITS_MEMO_SIZE
        assert len(model._memo) == LOGITS_MEMO_SIZE
        # Least recently used first out: the oldest batch recomputes.
        calls = []
        real = quantize.QuantizedModel.forward_raw

        def counting(self, *args, **kwargs):
            calls.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(quantize.QuantizedModel, "forward_raw", counting)
        model.forward(batches[-1])
        assert calls == []
        model.forward(batches[0])
        assert calls == [1]

    def test_forward_raw_and_predict_store_nothing(self, model_and_batch):
        base, x = model_and_batch
        model = _fresh(base)
        model.forward_raw(x)
        model.predict(x)
        assert len(model._memo) == 0

    def test_pickle_and_copy_drop_the_memo(self, model_and_batch):
        base, x = model_and_batch
        model = _fresh(base)
        model.forward(x)
        assert len(model._memo) == 1
        assert len(_fresh(model)._memo) == 0
        assert len(copy.deepcopy(model)._memo) == 0
