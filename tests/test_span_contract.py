"""The span contract every online mode keeps.

``check_conformance`` and the perfbench ledger read the ``layerN/relu``,
``layerN/pool`` and ``layerN/matmul`` spans by name and attributes.  All
online modes walk the same plan, so each party emits those spans with
the same names and attributes whether it runs sequentially, pipelined,
or (server side) batched across sessions.  The declared exceptions:

* pipelined ReLU spans add ``streamed``, ``stream_chunks`` and
  ``peak_table_bytes``;
* the batched server has no ``matmul`` spans: its linear nodes are the
  wide round's, computed once for the whole group.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.pipeline import PipelineConfig
from repro.core.protocol import ModelMeta, secure_predict
from repro.nn.layers import AvgPool2d, Conv2d, Dense, Flatten, MaxPool2d, ReLU
from repro.nn.model import Sequential, mnist_mlp
from repro.nn.quantize import quantize_model
from repro.perf.trace import Tracer, iter_spans, load_trace
from repro.quant.fragments import FragmentScheme
from repro.serve import PredictionClient, PredictionServer, TripletBank
from repro.utils.ring import Ring

BATCH = 2
WIDTH = 2
STREAM_ATTRS = {"streamed", "stream_chunks", "peak_table_bytes"}
LAYER_SPANS = ("relu", "pool", "matmul")


def _mlp():
    model = mnist_mlp(seed=3, hidden=12, input_dim=20, classes=5)
    return quantize_model(model, FragmentScheme.ternary(), Ring(32), frac_bits=6)


def _cnn(pool):
    model = Sequential(
        [Conv2d(1, 4, kernel_size=3, seed=0), ReLU(), pool(2), Flatten(),
         Dense(4 * 3 * 3, 4, seed=1)]
    )
    return quantize_model(
        model, FragmentScheme.ternary(), Ring(32), frac_bits=6, input_shape=(1, 8, 8)
    )


MODELS = {"mlp": _mlp, "cnn_maxpool": lambda: _cnn(MaxPool2d),
          "cnn_avgpool": lambda: _cnn(AvgPool2d)}


def _layer_spans(doc, kinds=LAYER_SPANS):
    """``(name under the online phase, attrs)`` of every layer span."""
    out = []
    for path, span in iter_spans(doc):
        parts = path.split("/")
        if "online" not in parts:
            continue
        rel = parts[parts.index("online") + 1:]
        if len(rel) == 2 and rel[0].startswith("layer") and rel[1] in kinds:
            out.append(("/".join(rel), dict(span["attrs"])))
    return out


def _without_stream_attrs(spans):
    return [
        (name, {k: v for k, v in attrs.items() if k not in STREAM_ATTRS})
        for name, attrs in spans
    ]


def _by_name(spans):
    return sorted(spans, key=lambda span: span[0])


def _x(model, seed):
    dim = ModelMeta.from_model(model).layers[0].in_features
    return np.random.default_rng(seed).normal(scale=0.25, size=(BATCH, dim))


def _batched(model, test_group, tmp_path):
    """Serve WIDTH concurrent clients through one batched wide round;
    returns the exported server traces and the client traces."""
    bank = TripletBank(model, BATCH, group=test_group, auto_replenish=False, seed=11)
    bank.fill(WIDTH)
    meta = ModelMeta.from_model(model)
    client_docs = {}
    # A full group seals at batch_max, so the long window only absorbs
    # slow connects on a loaded host.
    with PredictionServer(
        model, bank, port=0, max_sessions=WIDTH, group=test_group, seed=3,
        batch_window_ms=2000.0, batch_max=WIDTH, trace_dir=str(tmp_path),
    ) as srv:

        def _client(i):
            tracer = Tracer(party="client")
            with PredictionClient(
                meta, BATCH, port=srv.port, group=test_group, seed=300 + i,
                tracer=tracer,
            ) as client:
                client.predict(_x(model, i))
            client_docs[i] = tracer.to_dict()

        threads = [threading.Thread(target=_client, args=(i,)) for i in range(WIDTH)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        srv.wait_idle(timeout_s=60.0)
        assert srv.metrics()["scheduler"]["batch_width_max"] == WIDTH
    server_docs = [load_trace(str(p)) for p in sorted(tmp_path.glob("session-*.json"))]
    assert len(server_docs) == WIDTH and len(client_docs) == WIDTH
    return server_docs, list(client_docs.values())


@pytest.mark.parametrize("name", sorted(MODELS))
def test_layer_spans_agree_across_modes(name, test_group, tmp_path):
    model = MODELS[name]()
    x = _x(model, 0)
    seq = secure_predict(model, x, group=test_group, seed=0)
    piped = secure_predict(
        model, x, group=test_group, seed=0, pipeline=PipelineConfig(chunk=16)
    )
    server_docs, client_docs = _batched(model, test_group, tmp_path)

    for party in ("server", "client"):
        seq_spans = _layer_spans(getattr(seq, f"{party}_trace"))
        piped_spans = _layer_spans(getattr(piped, f"{party}_trace"))
        assert seq_spans, f"{party} emitted no layer spans"
        # The client average-pools offline (its next mask), so only the
        # server has an avg-pool span.
        pools = name == "cnn_maxpool" or (name == "cnn_avgpool" and party == "server")
        kinds = {span.split("/")[1] for span, _ in seq_spans}
        assert kinds == {"relu", "matmul"} | ({"pool"} if pools else set())
        # Sequential spans carry none of the streaming attributes ...
        assert all(not STREAM_ATTRS & set(attrs) for _, attrs in seq_spans)
        # ... pipelined ReLU spans carry all three, and nothing else
        # differs (the pipelined client opens its matmul spans up front,
        # so compare by name, not position).
        for span, attrs in piped_spans:
            if span.endswith("/relu"):
                assert STREAM_ATTRS <= set(attrs) and attrs["streamed"] is True
        assert _by_name(_without_stream_attrs(piped_spans)) == _by_name(seq_spans)

    # Batched server: its relu/pool spans are the solo server's, exactly.
    solo_server = _layer_spans(seq.server_trace, ("relu", "pool"))
    for doc in server_docs:
        assert _layer_spans(doc) == solo_server
    # Batched clients run an ordinary session: every layer span matches.
    solo_client = _layer_spans(seq.client_trace)
    for doc in client_docs:
        assert _layer_spans(doc) == solo_client
