"""Piecewise-sigmoid activation: circuit semantics + two-party protocol."""

import numpy as np
import pytest

from repro.core.relu import sigmoid_layer_client, sigmoid_layer_server
from repro.crypto.hash_ro import default_ro
from repro.errors import ConfigError
from repro.gc.builder import piecewise_sigmoid_template
from repro.gc.protocol import GcSessions
from repro.net import run_protocol
from repro.utils.bits import bits_to_int, int_to_bits
from repro.utils.ring import Ring

FRAC = 6


def _expected(y_real):
    return np.clip(np.asarray(y_real) + 0.5, 0.0, 1.0)


class TestTemplate:
    def test_and_count(self):
        circ = piecewise_sigmoid_template(16)
        assert circ.and_count == 6 * 16 - 4

    def test_plain_semantics(self, rng):
        ring = Ring(16)
        circ = piecewise_sigmoid_template(16)
        y_real = rng.uniform(-2, 2, size=50)
        y = ring.reduce(np.rint(y_real * (1 << FRAC)).astype(np.int64))
        y1 = ring.sample(rng, 50)
        y0 = ring.sub(y, y1)
        z1 = ring.sample(rng, 50)
        half = np.full(50, 1 << (FRAC - 1), dtype=np.uint64)
        one = np.full(50, 1 << FRAC, dtype=np.uint64)
        g = np.concatenate(
            [int_to_bits(v, 16) for v in (y1, z1, half, one)], axis=1
        )
        out = ring.reduce(bits_to_int(circ.eval_plain(g, int_to_bits(y0, 16))))
        got = ring.to_signed(ring.add(out, z1)).astype(float) / (1 << FRAC)
        assert np.allclose(got, _expected(np.rint(y_real * 64) / 64), atol=1e-9)


class TestProtocol:
    def _run(self, ring, y, z1, group):
        rng = np.random.default_rng(4)
        y1 = ring.sample(rng, y.shape)
        y0 = ring.sub(y, y1)
        return run_protocol(
            lambda ch: sigmoid_layer_server(
                ch, y0,
                GcSessions(ch, "evaluator", group=group, ro=default_ro, seed=1),
                ring, FRAC,
            ),
            lambda ch: sigmoid_layer_client(
                ch, y1, z1,
                GcSessions(ch, "garbler", group=group, ro=default_ro, seed=2),
                ring, FRAC, np.random.default_rng(3),
            ),
        )

    def test_correctness(self, test_group, rng):
        ring = Ring(16)
        y_real = np.array([-3.0, -0.5, -0.125, 0.0, 0.125, 0.5, 3.0])
        y = ring.reduce(np.rint(y_real * (1 << FRAC)).astype(np.int64))
        z1 = ring.sample(rng, y.shape[0])
        result = self._run(ring, y, z1, test_group)
        got = ring.to_signed(ring.add(result.server, result.client)).astype(float) / (1 << FRAC)
        assert np.allclose(got, _expected(y_real))

    def test_2d_shape(self, test_group, rng):
        ring = Ring(16)
        y = ring.reduce(rng.integers(-100, 100, size=(4, 3)))
        z1 = ring.sample(rng, (4, 3))
        result = self._run(ring, y, z1, test_group)
        assert result.server.shape == (4, 3)

    def test_output_range(self, test_group, rng):
        ring = Ring(16)
        y = ring.reduce(rng.integers(-(1 << 12), 1 << 12, size=64))
        z1 = ring.sample(rng, 64)
        result = self._run(ring, y, z1, test_group)
        values = ring.to_signed(ring.add(result.server, result.client))
        assert values.min() >= 0
        assert values.max() <= (1 << FRAC)

    def test_frac_bits_validated(self, test_group):
        from repro.net.channel import make_channel_pair

        ring = Ring(16)
        chan, _ = make_channel_pair()
        sessions = GcSessions(chan, "garbler", group=test_group, ro=default_ro)
        with pytest.raises(ConfigError):
            sigmoid_layer_client(
                chan, ring.zeros(3), ring.zeros(3), sessions, ring, 0,
                np.random.default_rng(0),
            )
