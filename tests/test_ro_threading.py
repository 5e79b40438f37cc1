"""The configured random oracle reaches every sub-protocol.

A full prediction runs on a counting :class:`RandomOracle` while every
registered oracle (``sha256``, ``siphash``, ``fast`` — and so
``default_ro``) raises when called.  Any OT-extension, triplet, GC
ReLU/sigmoid/max-pool or streamed-garbling call that fell back to a
library default instead of the configured backend fails the run.

Base OTs hash with :meth:`RandomOracle.hash_bytes`, which is counter-mode
SHA-256 for every backend by definition, so only ``mask`` is guarded.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.pipeline import GarbleStreamWorker, PipelineConfig
from repro.core.protocol import ModelMeta, secure_predict
from repro.core.relu import sigmoid_layer_client, sigmoid_layer_server
from repro.crypto.fastro import fast_ro
from repro.crypto.hash_ro import RandomOracle, default_ro, sha256_ro, siphash_ro
from repro.crypto.siphash import prf_expand
from repro.gc.builder import relu_template
from repro.gc.evaluate import evaluate
from repro.gc.garble import garble
from repro.gc.protocol import GcSessions
from repro.gc.stream import evaluate_stream, garble_stream
from repro.net import run_protocol
from repro.nn.layers import Conv2d, Dense, Flatten, MaxPool2d, ReLU
from repro.nn.model import Sequential, mnist_mlp
from repro.nn.quantize import quantize_model
from repro.quant.fragments import FragmentScheme
from repro.serve import PredictionClient, PredictionServer, TripletBank
from repro.utils.ring import Ring

TIMEOUT_S = 60.0


class _Counting:
    """A SipHash oracle (same function as ``siphash``) that counts calls."""

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()
        self.ro = RandomOracle("counting", self._mask)

    def _mask(self, rows: np.ndarray, out_words: int, domain: int) -> np.ndarray:
        with self._lock:
            self.calls += 1
        return prf_expand(rows, out_words, domain=domain)


@pytest.fixture
def counting(monkeypatch):
    def forbidden(name):
        def mask(rows, out_words, domain):
            raise AssertionError(f"a hash call reached the {name!r} oracle")

        return mask

    for ro in {sha256_ro, siphash_ro, fast_ro, default_ro}:
        monkeypatch.setattr(ro, "_mask_fn", forbidden(ro.name))
    return _Counting()


@pytest.fixture(scope="module")
def mlp():
    """Untrained ternary MLP with two ReLU layers: bit-exact logits."""
    model = mnist_mlp(seed=3, hidden=12, input_dim=20, classes=5)
    return quantize_model(model, FragmentScheme.ternary(), Ring(32), frac_bits=6)


@pytest.fixture(scope="module")
def cnn():
    """Conv -> ReLU -> MaxPool2d -> Dense, so online runs the GC max tree."""
    model = Sequential(
        [Conv2d(1, 4, kernel_size=3, seed=0), ReLU(), MaxPool2d(2), Flatten(),
         Dense(4 * 3 * 3, 4, seed=1)]
    )
    return quantize_model(
        model, FragmentScheme.ternary(), Ring(32), frac_bits=6, input_shape=(1, 8, 8)
    )


def _x(model, batch):
    dim = ModelMeta.from_model(model).layers[0].in_features
    return np.random.default_rng(5).normal(scale=0.5, size=(batch, dim))


def _assert_exact(model, x, logits):
    assert (logits == model.forward_int(model.encoder.encode(x.T))).all()


class TestConfiguredOracleEverywhere:
    @pytest.mark.parametrize("variant", ["oblivious", "optimized"])
    def test_sequential(self, counting, mlp, test_group, variant):
        x = _x(mlp, 2)
        report = secure_predict(
            mlp, x, relu_variant=variant, group=test_group, ro=counting.ro,
            timeout_s=TIMEOUT_S,
        )
        _assert_exact(mlp, x, report.logits_int)
        assert counting.calls > 0

    def test_pipelined_chunked_stream(self, counting, mlp, test_group):
        x = _x(mlp, 2)
        report = secure_predict(
            mlp, x, group=test_group, ro=counting.ro, timeout_s=TIMEOUT_S,
            pipeline=PipelineConfig(chunk=16),
        )
        _assert_exact(mlp, x, report.logits_int)
        assert counting.calls > 0

    def test_maxpool(self, counting, cnn, test_group):
        x = _x(cnn, 1)
        report = secure_predict(
            cnn, x, group=test_group, ro=counting.ro, timeout_s=TIMEOUT_S
        )
        _assert_exact(cnn, x, report.logits_int)
        assert counting.calls > 0

    def test_sigmoid(self, counting, test_group):
        ring, frac = Ring(16), 6
        rng = np.random.default_rng(4)
        y = ring.reduce(rng.integers(-300, 300, size=8))
        y1 = ring.sample(rng, y.shape)
        z1 = ring.sample(rng, y.shape)
        result = run_protocol(
            lambda ch: sigmoid_layer_server(
                ch, ring.sub(y, y1),
                GcSessions(ch, "evaluator", group=test_group, ro=counting.ro, seed=1),
                ring, frac,
            ),
            lambda ch: sigmoid_layer_client(
                ch, y1, z1,
                GcSessions(ch, "garbler", group=test_group, ro=counting.ro, seed=2),
                ring, frac, np.random.default_rng(3),
            ),
            timeout_s=TIMEOUT_S,
        )
        assert result.server.shape == y.shape
        assert counting.calls > 0

    def test_banked_serving(self, counting, mlp, test_group):
        x = _x(mlp, 2)
        bank = TripletBank(
            mlp, 2, capacity=1, auto_replenish=False, group=test_group,
            ro=counting.ro, seed=11,
        )
        bank.fill(1)
        generation_calls = counting.calls
        assert generation_calls > 0
        with PredictionServer(
            mlp, bank, port=0, group=test_group, ro=counting.ro, seed=3,
            allow_interactive=False,
        ) as srv:
            with PredictionClient(
                ModelMeta.from_model(mlp), 2, port=srv.port, group=test_group,
                ro=counting.ro, seed=100, timeout_s=TIMEOUT_S,
            ) as client:
                logits, _ = client.predict(x)
        _assert_exact(mlp, x, logits)
        assert counting.calls > generation_calls  # the online GC hashed too


class TestGcEntryPointsRequireOracle:
    """Forgetting ``ro`` is a TypeError, never a silent default backend."""

    def test_missing_ro_is_type_error(self):
        circuit = relu_template(4)
        rng = np.random.default_rng(0)
        calls = [
            lambda: GcSessions(None, "garbler"),
            lambda: garble(circuit, 1, rng),
            lambda: evaluate(circuit, None, None, None),
            lambda: garble_stream(None, circuit, None, 1, rng),
            lambda: evaluate_stream(None, circuit, None, 1),
            lambda: GarbleStreamWorker(None, [], PipelineConfig()),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="ro"):
                call()
