"""Sequential model container with training loop, save/load and summaries."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.module import Layer, Parameter, parameter_count, nonzero_parameter_count


class Sequential(Layer):
    """A chain of layers executed in order."""

    def __init__(self, layers: Sequence[Layer], name: str = "model") -> None:
        super().__init__()
        if not layers:
            raise ConfigurationError("Sequential needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.name = name

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        return grad_out

    def backward_params(self, grad_out: np.ndarray) -> None:
        # Only the first layer's input gradient is the model's, so only
        # it may skip that work.
        for layer in reversed(self.layers[1:]):
            grad_out = layer.backward(grad_out)
        self.layers[0].backward_params(grad_out)

    def parameters(self) -> List[Parameter]:
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def train_mode(self, flag: bool = True) -> None:
        super().train_mode(flag)
        for layer in self.layers:
            layer.train_mode(flag)

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class predictions (argmax of logits), batched for memory."""
        self.train_mode(False)
        outputs = []
        for start in range(0, len(x), batch_size):
            logits = self.forward(np.asarray(x[start : start + batch_size]))
            outputs.append(np.argmax(logits, axis=1))
        self.train_mode(True)
        return np.concatenate(outputs) if outputs else np.empty(0, dtype=int)

    def parameter_count(self) -> int:
        return parameter_count(self.parameters())

    def nonzero_parameter_count(self) -> int:
        return nonzero_parameter_count(self.parameters())

    def summary(self) -> str:
        lines = [f"Sequential '{self.name}':"]
        for i, layer in enumerate(self.layers):
            n_params = parameter_count(layer.parameters())
            lines.append(f"  [{i:2d}] {layer!r}  params={n_params}")
        lines.append(f"  total params: {self.parameter_count()}")
        return "\n".join(lines)

    # -- persistence --------------------------------------------------------

    def save_weights(self, path: str) -> None:
        """Save parameter data (and masks) to an ``.npz`` file."""
        payload: Dict[str, np.ndarray] = {}
        for i, p in enumerate(self.parameters()):
            payload[f"p{i}"] = p.data
            if p.mask is not None:
                payload[f"m{i}"] = p.mask
        np.savez(path, **payload)

    def load_weights(self, path: str) -> None:
        """Load parameters saved by :meth:`save_weights` (shapes must match)."""
        with np.load(path) as archive:
            for i, p in enumerate(self.parameters()):
                key = f"p{i}"
                if key not in archive:
                    raise ConfigurationError(f"missing parameter {key} in {path}")
                data = archive[key]
                if data.shape != p.data.shape:
                    raise ConfigurationError(
                        f"shape mismatch for {key}: saved {data.shape}, "
                        f"model {p.data.shape}"
                    )
                p.data[...] = data
                mkey = f"m{i}"
                if mkey in archive:
                    p.set_mask(archive[mkey])


def fit(
    model: Sequential,
    x_train: np.ndarray,
    y_train: np.ndarray,
    *,
    epochs: int = 5,
    batch_size: int = 32,
    optimizer=None,
    loss_fn=None,
    rng: Optional[np.random.Generator] = None,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
    patience: Optional[int] = None,
    on_epoch_end: Optional[Callable[[int, float], None]] = None,
    extra_grad: Optional[Callable[[], None]] = None,
    val_history: Optional[List[float]] = None,
) -> List[float]:
    """Train ``model`` with minibatch SGD; returns per-epoch mean losses.

    With a validation set (``x_val``/``y_val``), per-epoch validation
    accuracy is appended to ``val_history`` (if a list is supplied) and
    ``patience`` enables early stopping: training halts once validation
    accuracy has not improved for that many consecutive epochs, and the
    best-epoch weights are restored.

    ``extra_grad`` is a hook invoked after the backward pass and before the
    optimizer step — RAD's ADMM regularizer uses it to add its proximal
    gradient term.
    """
    from repro.nn.optim import SGD  # local import avoids cycle at module load

    rng = rng or np.random.default_rng(0)
    optimizer = optimizer or SGD(model.parameters(), lr=0.05, momentum=0.9)
    loss_fn = loss_fn or SoftmaxCrossEntropy()
    n = len(x_train)
    if n == 0:
        raise ConfigurationError("empty training set")
    has_val = x_val is not None and y_val is not None
    if patience is not None and not has_val:
        raise ConfigurationError("early stopping needs a validation set")
    if patience is not None and patience < 1:
        raise ConfigurationError("patience must be >= 1")

    history: List[float] = []
    best_acc = -1.0
    best_weights: Optional[List[np.ndarray]] = None
    stale = 0
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            optimizer.zero_grad()
            logits = model.forward(np.asarray(x_train[idx]))
            loss, grad = loss_fn(logits, np.asarray(y_train[idx]))
            model.backward_params(grad)
            if extra_grad is not None:
                extra_grad()
            optimizer.step()
            losses.append(loss)
        mean_loss = float(np.mean(losses))
        history.append(mean_loss)
        if has_val:
            val_acc = evaluate_accuracy(model, x_val, y_val)
            if val_history is not None:
                val_history.append(val_acc)
            if val_acc > best_acc:
                best_acc = val_acc
                best_weights = [p.data.copy() for p in model.parameters()]
                stale = 0
            else:
                stale += 1
            if patience is not None and stale >= patience:
                break
        if on_epoch_end is not None:
            on_epoch_end(epoch, mean_loss)
    if patience is not None and best_weights is not None:
        for p, w in zip(model.parameters(), best_weights):
            p.data[...] = w
            p.apply_mask()
    return history


def evaluate_accuracy(model: Sequential, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of samples whose argmax prediction matches the label."""
    preds = model.predict(x)
    return float(np.mean(preds == np.asarray(y)))
