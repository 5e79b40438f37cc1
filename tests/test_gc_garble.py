"""Half-gates garbling vs plaintext circuit semantics."""

import numpy as np
import pytest

from repro.crypto.hash_ro import default_ro
from repro.errors import CryptoError, ProtocolError
from repro.gc.builder import add_words, relu_template
from repro.gc.circuit import Circuit
from repro.gc.evaluate import decode_outputs, evaluate
from repro.gc.garble import garble
from repro.utils.bits import bits_to_int, int_to_bits
from repro.utils.ring import Ring


def _garbled_run(circ, g_bits, e_bits, rng):
    """Garble + evaluate; bit matrices are (n_wires_owned, n_inst)."""
    n_inst = g_bits.shape[1] if g_bits.size else e_bits.shape[1]
    gcirc = garble(circ, n_inst, rng, default_ro)
    g_labels = gcirc.encode(circ.garbler_inputs, g_bits)
    e_labels = gcirc.encode(circ.evaluator_inputs, e_bits)
    out_labels = evaluate(circ, gcirc.tables, g_labels, e_labels, default_ro)
    return decode_outputs(out_labels, gcirc.output_decode_bits())


class TestGarbledEquivalence:
    def test_single_gates(self, rng):
        circ = Circuit()
        (a,) = circ.garbler_input(1)
        (b,) = circ.evaluator_input(1)
        circ.mark_outputs([circ.and_(a, b), circ.xor(a, b), circ.inv(a)])
        # all four input combinations as four instances
        g = np.array([[0, 0, 1, 1]], dtype=np.uint8)
        e = np.array([[0, 1, 0, 1]], dtype=np.uint8)
        got = _garbled_run(circ, g, e, rng)
        expect = circ.eval_plain(g.T, e.T).T
        assert (got == expect).all()

    def test_adder_many_instances(self, rng):
        ring = Ring(12)
        circ = Circuit()
        x = circ.garbler_input(12)
        y = circ.evaluator_input(12)
        circ.mark_outputs(add_words(circ, x, y))
        n = 100
        xv, yv = ring.sample(rng, n), ring.sample(rng, n)
        got = ring.reduce(
            bits_to_int(
                _garbled_run(
                    circ, int_to_bits(xv, 12).T.copy(), int_to_bits(yv, 12).T.copy(), rng
                ).T
            )
        )
        assert (got == ring.add(xv, yv)).all()

    def test_relu_template_garbled(self, rng):
        ring = Ring(16)
        circ = relu_template(16)
        n = 40
        y, y1, z1 = ring.sample(rng, n), ring.sample(rng, n), ring.sample(rng, n)
        y0 = ring.sub(y, y1)
        g_bits = np.concatenate([int_to_bits(y1, 16), int_to_bits(z1, 16)], axis=1).T.copy()
        e_bits = int_to_bits(y0, 16).T.copy()
        got = ring.reduce(bits_to_int(_garbled_run(circ, g_bits, e_bits, rng).T))
        relu = np.where(ring.to_signed(y) > 0, y, 0).astype(np.uint64)
        assert (got == ring.sub(relu, z1)).all()


class TestGarbledMaterial:
    def _simple(self):
        circ = Circuit()
        (a,) = circ.garbler_input(1)
        (b,) = circ.evaluator_input(1)
        circ.mark_outputs([circ.and_(a, b)])
        return circ

    def test_offset_lsb_is_one(self, rng):
        gcirc = garble(self._simple(), 4, rng, default_ro)
        assert gcirc.offset[0] & np.uint64(1) == 1

    def test_table_count_matches_and_count(self, rng):
        circ = relu_template(8)
        gcirc = garble(circ, 3, rng, default_ro)
        assert gcirc.tables.shape[0] == circ.and_count

    def test_encode_shape_check(self, rng):
        circ = self._simple()
        gcirc = garble(circ, 4, rng, default_ro)
        with pytest.raises(CryptoError):
            gcirc.encode(circ.garbler_inputs, np.zeros((1, 3), dtype=np.uint8))

    def test_labels_differ_by_offset(self, rng):
        circ = self._simple()
        gcirc = garble(circ, 2, rng, default_ro)
        zero = gcirc.encode(circ.garbler_inputs, np.zeros((1, 2), dtype=np.uint8))
        one = gcirc.encode(circ.garbler_inputs, np.ones((1, 2), dtype=np.uint8))
        assert ((zero ^ one) == gcirc.offset).all()

    def test_zero_instances_rejected(self, rng):
        with pytest.raises(CryptoError):
            garble(self._simple(), 0, rng, default_ro)

    def test_evaluate_table_count_checked(self, rng):
        circ = self._simple()
        gcirc = garble(circ, 2, rng, default_ro)
        g = gcirc.encode(circ.garbler_inputs, np.zeros((1, 2), dtype=np.uint8))
        e = gcirc.encode(circ.evaluator_inputs, np.zeros((1, 2), dtype=np.uint8))
        with pytest.raises(ProtocolError):
            evaluate(circ, gcirc.tables[:0], g, e, default_ro)

    def test_decode_shape_checked(self, rng):
        circ = self._simple()
        gcirc = garble(circ, 2, rng, default_ro)
        g = gcirc.encode(circ.garbler_inputs, np.zeros((1, 2), dtype=np.uint8))
        e = gcirc.encode(circ.evaluator_inputs, np.zeros((1, 2), dtype=np.uint8))
        out = evaluate(circ, gcirc.tables, g, e, default_ro)
        with pytest.raises(ProtocolError):
            decode_outputs(out, np.zeros((5, 5), dtype=np.uint8))

    def test_wrong_label_gives_wrong_output(self, rng):
        # Flipping an input label must corrupt the decoded output
        # (sanity check that the tables bind to the labels).
        circ = self._simple()
        gcirc = garble(circ, 1, rng, default_ro)
        g1 = gcirc.encode(circ.garbler_inputs, np.ones((1, 1), dtype=np.uint8))
        e1 = gcirc.encode(circ.evaluator_inputs, np.ones((1, 1), dtype=np.uint8))
        ok = decode_outputs(
            evaluate(circ, gcirc.tables, g1, e1, default_ro), gcirc.output_decode_bits()
        )
        assert ok[0, 0] == 1
        corrupted = g1 ^ np.uint64(2)  # flip a non-select bit
        bad_labels = evaluate(circ, gcirc.tables, corrupted, e1, default_ro)
        # The output label is (overwhelmingly) not the legitimate one.
        legit0 = gcirc.label0[circ.outputs[0]]
        legit1 = legit0 ^ gcirc.offset
        assert (bad_labels[0] != legit0).any() and (bad_labels[0] != legit1).any()
