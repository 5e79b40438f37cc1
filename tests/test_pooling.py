"""Secure pooling: share-local average pooling and garbled max pooling."""

import numpy as np
import pytest

from repro.core.pooling import (
    avgpool_exact,
    avgpool_share,
    maxpool_client,
    maxpool_exact,
    maxpool_server,
)
from repro.core.protocol import ModelMeta, secure_predict
from repro.crypto.hash_ro import default_ro
from repro.errors import ConfigError, QuantizationError
from repro.gc.builder import max_words, maxpool_template
from repro.gc.circuit import Circuit
from repro.gc.protocol import GcSessions
from repro.net import run_protocol
from repro.nn.layers import AvgPool2d, Conv2d, Dense, Flatten, MaxPool2d, ReLU
from repro.nn.lowering import PoolSpec, gather_windows
from repro.nn.model import Sequential
from repro.nn.quantize import quantize_model
from repro.quant.fragments import FragmentScheme
from repro.utils.bits import bits_to_int, int_to_bits
from repro.utils.ring import Ring


@pytest.fixture
def spec_avg():
    return PoolSpec(kind="avg", channels=2, height=4, width=4, kernel=2)


@pytest.fixture
def spec_max():
    return PoolSpec(kind="max", channels=2, height=4, width=4, kernel=2)


class TestPoolSpec:
    def test_geometry(self, spec_avg):
        assert spec_avg.out_features == 2 * 2 * 2
        assert spec_avg.window == 4
        assert spec_avg.avg_shift_bits == 2

    def test_avg_needs_pow2(self):
        with pytest.raises(ConfigError):
            PoolSpec(kind="avg", channels=1, height=9, width=9, kernel=3)

    def test_max_any_kernel(self):
        spec = PoolSpec(kind="max", channels=1, height=9, width=9, kernel=3)
        assert spec.out_features == 9

    def test_tiling_check(self):
        with pytest.raises(ConfigError):
            PoolSpec(kind="max", channels=1, height=5, width=4, kernel=2)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            PoolSpec(kind="median", channels=1, height=4, width=4, kernel=2)

    def test_gather_indices_cover_input_once(self, spec_avg):
        idx = spec_avg.gather_indices()
        flat = np.sort(idx.reshape(-1))
        assert (flat == np.arange(spec_avg.in_features)).all()


class TestAvgPool:
    def test_share_local_correctness(self, spec_avg, rng):
        ring = Ring(32)
        values = ring.reduce(rng.integers(0, 1 << 16, size=(spec_avg.in_features, 3)))
        s1 = ring.sample(rng, values.shape)
        s0 = ring.sub(values, s1)
        pooled0 = avgpool_share(ring, spec_avg, s0, party=0)
        pooled1 = avgpool_share(ring, spec_avg, s1, party=1)
        got = ring.to_signed(ring.add(pooled0, pooled1))
        expect = ring.to_signed(avgpool_exact(ring, spec_avg, values))
        assert np.abs(got - expect).max() <= 1  # truncation ulp

    def test_exact_reference(self, spec_avg, rng):
        ring = Ring(32)
        values = ring.reduce(rng.integers(0, 256, size=(spec_avg.in_features, 1)))
        got = ring.to_signed(avgpool_exact(ring, spec_avg, values))
        windows = gather_windows(spec_avg, values)
        expect = windows.astype(np.int64).sum(axis=1) >> 2
        assert (got == expect).all()

    def test_kind_check(self, spec_max, rng):
        ring = Ring(32)
        with pytest.raises(ConfigError):
            avgpool_share(ring, spec_max, ring.zeros((spec_max.in_features, 1)), 0)


class TestMaxWordsCircuit:
    def test_max_words_semantics(self, rng):
        ring = Ring(16)
        circ = Circuit()
        a = circ.garbler_input(16)
        b = circ.evaluator_input(16)
        circ.mark_outputs(max_words(circ, a, b))
        av = ring.reduce(rng.integers(-1000, 1000, size=30))
        bv = ring.reduce(rng.integers(-1000, 1000, size=30))
        out = ring.reduce(bits_to_int(circ.eval_plain(int_to_bits(av, 16), int_to_bits(bv, 16))))
        expect = ring.reduce(np.maximum(ring.to_signed(av), ring.to_signed(bv)))
        assert (out == expect).all()

    def test_maxpool_template_and_count(self):
        circ = maxpool_template(16, 4)
        # 4 adders (15 each) + 3 maxes (31 each) + reshare (15)
        assert circ.and_count == 4 * 15 + 3 * 31 + 15

    def test_odd_window(self, rng):
        ring = Ring(16)
        circ = maxpool_template(16, 3)
        y = ring.reduce(rng.integers(-500, 500, size=(3, 8)))
        y1 = ring.sample(rng, (3, 8))
        y0 = ring.sub(y, y1)
        z1 = ring.sample(rng, 8)
        g_bits = np.concatenate(
            [int_to_bits(y1[i], 16) for i in range(3)] + [int_to_bits(z1, 16)], axis=1
        )
        e_bits = np.concatenate([int_to_bits(y0[i], 16) for i in range(3)], axis=1)
        out = ring.reduce(bits_to_int(circ.eval_plain(g_bits, e_bits)))
        expect = ring.sub(ring.reduce(ring.to_signed(y).max(axis=0)), z1)
        assert (out == expect).all()


class TestMaxPoolProtocol:
    def test_two_party_maxpool(self, spec_max, test_group, rng):
        ring = Ring(16)
        values = ring.reduce(rng.integers(0, 1 << 12, size=(spec_max.in_features, 2)))
        s1 = ring.sample(rng, values.shape)
        s0 = ring.sub(values, s1)
        z1 = ring.sample(rng, (spec_max.out_features, 2))

        result = run_protocol(
            lambda ch: maxpool_server(
                ch, spec_max, s0,
                GcSessions(ch, "evaluator", group=test_group, ro=default_ro, seed=1),
                ring,
            ),
            lambda ch: maxpool_client(
                ch, spec_max, s1, z1,
                GcSessions(ch, "garbler", group=test_group, ro=default_ro, seed=2),
                ring, np.random.default_rng(3),
            ),
        )
        got = ring.add(result.server, result.client)
        expect = maxpool_exact(ring, spec_max, values)
        assert (got == expect).all()

    def test_z1_size_checked(self, spec_max, test_group):
        from repro.net.channel import make_channel_pair

        ring = Ring(16)
        chan, _ = make_channel_pair()
        sessions = GcSessions(chan, "garbler", group=test_group, ro=default_ro)
        with pytest.raises(ConfigError):
            maxpool_client(
                chan, spec_max, ring.zeros((spec_max.in_features, 1)),
                ring.zeros(3), sessions, ring, np.random.default_rng(0),
            )


def _pooled_model(pool_cls):
    return Sequential(
        [
            Conv2d(1, 4, kernel_size=3, seed=1),
            ReLU(),
            pool_cls(2),
            Flatten(),
            Dense(4 * 3 * 3, 5, seed=2),
        ]
    )


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def x(self):
        return np.random.default_rng(9).uniform(0, 1, size=(3, 64))

    def test_quantize_detects_pool(self):
        qm = quantize_model(
            _pooled_model(MaxPool2d), FragmentScheme.ternary(), Ring(32),
            input_shape=(1, 8, 8),
        )
        assert qm.layers[0].pool is not None
        assert qm.layers[0].pool.kind == "max"
        assert qm.layers[0].out_features == 4 * 3 * 3
        meta = ModelMeta.from_model(qm)
        assert meta.layers[0].pool.kind == "max"
        assert meta.layers[0].relu_features == 4 * 36

    def test_pool_without_relu_rejected(self):
        model = Sequential(
            [Conv2d(1, 2, kernel_size=3, seed=0), AvgPool2d(2), ReLU(), Flatten(),
             Dense(2 * 3 * 3, 4, seed=1)]
        )
        with pytest.raises(QuantizationError):
            quantize_model(model, FragmentScheme.ternary(), Ring(32), input_shape=(1, 8, 8))

    def test_pool_after_last_layer_rejected(self):
        model = Sequential(
            [Conv2d(1, 2, kernel_size=3, seed=0), ReLU(), AvgPool2d(2)]
        )
        with pytest.raises(QuantizationError):
            quantize_model(model, FragmentScheme.ternary(), Ring(32), input_shape=(1, 8, 8))

    def test_secure_maxpool_bit_exact(self, x, test_group):
        qm = quantize_model(
            _pooled_model(MaxPool2d), FragmentScheme.ternary(), Ring(32),
            frac_bits=6, input_shape=(1, 8, 8),
        )
        report = secure_predict(qm, x, group=test_group)
        expect = qm.forward_int(qm.encoder.encode(x.T))
        assert (report.logits_int == expect).all()

    def test_secure_avgpool_close(self, x, test_group):
        ring = Ring(32)
        qm = quantize_model(
            _pooled_model(AvgPool2d), FragmentScheme.ternary(), ring,
            frac_bits=6, input_shape=(1, 8, 8),
        )
        report = secure_predict(qm, x, group=test_group)
        expect = ring.to_signed(qm.forward_int(qm.encoder.encode(x.T)))
        got = ring.to_signed(report.logits_int)
        assert np.abs(got - expect).max() <= 64
        assert (report.predictions == qm.predict(x)).all()

    def test_persistence_roundtrip_with_pool(self, x, tmp_path):
        from repro.nn.persist import load_model, save_model

        qm = quantize_model(
            _pooled_model(MaxPool2d), FragmentScheme.ternary(), Ring(32),
            input_shape=(1, 8, 8),
        )
        save_model(tmp_path / "m.npz", qm)
        restored = load_model(tmp_path / "m.npz")
        assert restored.layers[0].pool == qm.layers[0].pool
        assert (restored.predict(x) == qm.predict(x)).all()
