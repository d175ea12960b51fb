"""Newline-delimited JSON wire protocol of the serving daemon, with raw frames.

Every message — in either direction — is one JSON object encoded as UTF-8
on one ``\\n``-terminated line (NDJSON).  Clients send *operations*
(``submit``, ``stats``, ``metrics``, ``health``, ``ping``, ``shutdown``)
carrying a caller-chosen
``id``; the daemon answers each operation with exactly one reply echoing
that ``id``, but replies are **streamed** in completion order, not request
order, so a client must demultiplex by ``id``.

Tensor operands and results travel as exact bytes: arrays are encoded as
``{"dtype", "shape", "data"}``, and a line carrying arrays announces
``"frames": [n0, n1, ...]`` and is followed by exactly those byte counts of
raw C-order buffers, ``data`` being the index of the array's frame.  A
round trip through the daemon is *bit-identical* to handing
the same arrays to the in-process :class:`~repro.serve.ContractionService`,
and decoding is an ``np.frombuffer`` view of the frame.  Control messages
and errors have no frames and stay pure NDJSON; a base64 string as ``data``
(protocol version 1) is still decoded but never produced.
Sparse COO tensors ship their canonical (deduplicated, sorted)
coordinate/value arrays and are rebuilt without a re-sort pass, or share
the previous request's tensor when they view its memory (:func:`decode_tensor`).

The full message schemas, error codes and a copy-pasteable session are
documented in ``docs/PROTOCOL.md``; this module is the single
encoder/decoder both the daemon and the blocking client use.

Examples
--------
>>> from repro.serve import mttkrp_request
>>> from repro.serve.protocol import decode_request, encode_request
>>> wire = dumps(encode_request(mttkrp_request(T, [B, C], mode=0)))
>>> request = decode_request(loads(wire))     # bit-identical operands
"""

from __future__ import annotations

import base64
import json
import math
from itertools import accumulate
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.serve.request import ContractionRequest
from repro.sptensor.coo import COOTensor
from repro.sptensor.csf import default_structure_memo

#: Protocol revision carried in ``hello``/stats replies; bump on breaking
#: wire-format changes.
PROTOCOL_VERSION = 2

#: Bound on a message's head line and on the frames it announces (64 MiB
#: each); operands above this must be split or served in process.
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

#: ``dtype.kind`` of what may cross the wire: bool, int, uint, float, complex.
WIRE_KINDS = "biufc"

#: ``str(dtype)`` of each native wire dtype, read instead of formatted per array.
_WIRE_NAMES = {t: str(t) for t in map(np.dtype, np.typecodes["All"]) if t.kind in WIRE_KINDS}

#: Client operations the daemon understands.
OPS = ("submit", "stats", "metrics", "health", "ping", "shutdown")

#: Structured error codes used in error replies.
ERROR_PROTOCOL = "protocol"      # malformed JSON / unknown op / bad schema
ERROR_ADMISSION = "admission"    # backpressure or invalid request spec
ERROR_EXECUTION = "execution"    # the contraction itself failed
ERROR_SHUTDOWN = "shutdown"      # daemon is draining; no new work accepted
ERROR_TIMEOUT = "timeout"        # the request's deadline_ms expired
ERROR_QUARANTINED = "quarantined"  # plan signature quarantined (poison)


class ProtocolError(ValueError):
    """A message violated the wire protocol (bad JSON, schema or types)."""


class FramingError(ProtocolError):
    """Unusable ``frames`` field: the bytes after the head cannot be delimited."""


class ServeError(RuntimeError):
    """A structured error reply from the daemon, raised client-side.

    Attributes
    ----------
    code:
        One of the ``ERROR_*`` constants (``protocol``, ``admission``,
        ``execution``, ``shutdown``).
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code


# --------------------------------------------------------------------------- #
# Array / tensor codecs
# --------------------------------------------------------------------------- #
def encode_array(arr: np.ndarray) -> Dict[str, Any]:
    """Describe one ndarray as ``{"dtype", "shape", "data"}`` (exact bytes).

    ``data`` is the C-contiguous array itself, uncopied; :func:`dumps`
    writes its buffer as a frame and the frame's index in its place.
    """
    arr = np.asarray(arr, order="C")
    name = _WIRE_NAMES.get(arr.dtype)  # None: a non-native byte order, or no wire kind
    if name is None and arr.dtype.kind not in WIRE_KINDS:
        raise ProtocolError(f"dtype {arr.dtype} cannot travel on the wire")
    return {"dtype": name or str(arr.dtype), "shape": list(arr.shape), "data": arr}


def decode_array(obj: Any) -> np.ndarray:
    """View one array's bytes as an ndarray: validated, not copied.

    ``data`` is the frame :func:`attach` put there (or :func:`encode_array`'s
    array, or a version-1 base64 string); the result is writable if it is.
    """
    try:  # an object without dtype/shape/data fails here too, as a malformed array
        dtype, shape, data = np.dtype(str(obj["dtype"])), obj["shape"], obj["data"]
        if dtype.kind not in WIRE_KINDS:
            raise ProtocolError(f"dtype {dtype} is not bool, int, float or complex")
        raw = memoryview(base64.b64decode(data) if isinstance(data, str) else data)
        if (
            not all(type(d) is int and d >= 0 for d in shape)
            or raw.nbytes != math.prod(shape) * dtype.itemsize
        ):
            raise ProtocolError(
                f"{raw.nbytes} bytes of data do not fill shape {shape} of {dtype}"
            )
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(f"malformed array: {exc}") from exc


def encode_tensor(value: Union[np.ndarray, COOTensor]) -> Dict[str, Any]:
    """Encode one operand or result tensor (dense or sparse COO)."""
    if isinstance(value, COOTensor):
        return {
            "kind": "sparse",
            "shape": list(value.shape),
            "indices": encode_array(value.indices),
            "values": encode_array(value.values),
        }
    encoded = encode_array(np.asarray(value))
    encoded["kind"] = "dense"
    return encoded


def decode_tensor(obj: Any, held: Any = None, memo: Any = None) -> Union[np.ndarray, COOTensor]:
    """Rebuild one tensor from :func:`encode_tensor` output.

    Sparse tensors are rebuilt with ``sort=False``: the wire format carries
    the canonical (deduplicated, lexicographically sorted) arrays, so the
    constructor's sort pass is skipped and the round trip is bit-exact.

    A sparse tensor of *held*'s shape whose indices view ``held.indices``'
    memory (same address, dtype and shape) reuses *held*'s checked rows and
    digest: it is *held* when its values view ``held.values`` too.  Rows whose
    pattern *memo* (the CSF structure memo) holds were checked when stored.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ProtocolError("tensor must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "dense":
        return decode_array(obj)
    if kind == "sparse":
        try:
            shape = tuple(int(d) for d in obj["shape"])
        except Exception as exc:
            raise ProtocolError(f"malformed sparse shape: {exc}") from exc
        indices = decode_array(obj.get("indices"))
        values = decode_array(obj.get("values"))
        shared = isinstance(held, COOTensor) and held.shape == shape
        try:
            if not (shared and _same_view(indices, held.indices)):
                return _coo(shape, indices, values, memo)
            if _same_view(values, held.values):
                return held
            held.pattern_digest()  # hashed once here, inherited by every sharer
            return _on_rows(shape, held, values)
        except Exception as exc:
            raise ProtocolError(f"malformed sparse tensor: {exc}") from exc
    raise ProtocolError(f"unknown tensor kind {kind!r}")


def _coo(shape: Tuple[int, ...], indices: np.ndarray, values: np.ndarray, memo) -> COOTensor:
    """A decoded COO tensor whose rows are checked once per sparsity pattern:
    *memo* holds only checked patterns, so rows whose digest it knows (natural
    mode order, same shape and row count) only have their values converted."""
    probe = COOTensor.on_pattern(shape, indices, values)
    if memo and indices.ndim == 2 and indices.dtype == np.int64:
        if (probe.pattern_digest(), tuple(range(len(shape))), shape, len(indices)) in memo:
            return _on_rows(shape, probe, values)
    tensor = COOTensor(shape, indices, values, sort=False)
    if tensor.indices is indices:  # the rows kept: the digest hashed above holds
        tensor._pattern = probe._pattern
    return tensor


def _on_rows(shape: Tuple[int, ...], checked: COOTensor, values: np.ndarray) -> COOTensor:
    """*values* (float64, one per row) on *checked*'s rows and digest."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if len(values) != checked.nnz:
        raise ValueError(f"indices has {checked.nnz} rows but values has {len(values)} entries")
    return COOTensor.on_pattern(shape, checked.indices, values, checked)


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether *a* and *b* view the same memory as the same dtype and shape."""
    return a.__array_interface__ == b.__array_interface__


# --------------------------------------------------------------------------- #
# Request codec
# --------------------------------------------------------------------------- #
def encode_request(request: ContractionRequest) -> Dict[str, Any]:
    """Encode one :class:`~repro.serve.ContractionRequest` for the wire."""
    encoded: Dict[str, Any] = {
        "spec": request.spec,
        "kind": request.kind,
        "operands": [encode_tensor(op) for op in request.operands],
    }
    if request.names is not None:
        encoded["names"] = list(request.names)
    if request.engine is not None:
        encoded["engine"] = request.engine
    if request.deadline_ms is not None:
        encoded["deadline_ms"] = float(request.deadline_ms)
    return encoded


def decode_request(obj: Any, held: Optional[ContractionRequest] = None) -> ContractionRequest:
    """Rebuild a request from the wire; *held*'s operands may be shared (:func:`decode_tensor`)."""
    if not isinstance(obj, dict):
        raise ProtocolError("request must be an object")
    spec = obj.get("spec")
    operands = obj.get("operands")
    if not isinstance(spec, str) or not spec:
        raise ProtocolError("request.spec must be a non-empty string")
    if not isinstance(operands, list) or not operands:
        raise ProtocolError("request.operands must be a non-empty array")
    names = obj.get("names")
    if names is not None and (
        not isinstance(names, list) or not all(isinstance(n, str) for n in names)
    ):
        raise ProtocolError("request.names must be an array of strings")
    engine = obj.get("engine")
    if engine is not None and not isinstance(engine, str):
        raise ProtocolError("request.engine must be a string")
    kind = obj.get("kind", "spec")
    if not isinstance(kind, str):
        raise ProtocolError("request.kind must be a string")
    deadline_ms = obj.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            raise ProtocolError("request.deadline_ms must be a number")
        deadline_ms = float(deadline_ms)
    priors = dict(enumerate(held.operands)) if held is not None else {}
    memo = default_structure_memo()
    return ContractionRequest(
        spec=spec,
        operands=tuple(decode_tensor(op, priors.get(n), memo) for n, op in enumerate(operands)),
        names=tuple(names) if names is not None else None,
        engine=engine,
        kind=kind,
        deadline_ms=deadline_ms,
    )


# --------------------------------------------------------------------------- #
# Message framing and reply builders
# --------------------------------------------------------------------------- #
def dumps(message: Dict[str, Any]) -> bytes:
    """Serialize one message: its ``\\n``-terminated head line, then its frames.

    Each ndarray in *message* (:func:`encode_array`'s ``data``) becomes one
    frame, and the head then starts with ``"frames"``, their byte lengths; a
    message without arrays is one plain NDJSON line.  ``len`` of the result
    is the bytes put on the wire.
    """
    frames: List[np.ndarray] = []

    def frame(value: Any) -> int:
        if not isinstance(value, np.ndarray):
            raise TypeError(f"{type(value).__name__} is not JSON serializable")
        frames.append(value)
        return len(frames) - 1

    body = json.dumps(message, separators=(",", ":"), default=frame)
    if not frames:
        return body.encode("utf-8") + b"\n"
    sizes = ",".join(str(f.nbytes) for f in frames)
    return b"".join([f'{{"frames":[{sizes}],{body[1:]}\n'.encode("utf-8"), *frames])


def loads(data: Union[bytes, bytearray, str]) -> Dict[str, Any]:
    """Parse one head line into a message object; raises ProtocolError.

    ``message.get("frames")`` is then a checked list of byte lengths — never
    read or allocate before this returns.  A receiver reads that many bytes
    per frame and calls :func:`attach`; when *data* itself continues past
    the ``\\n`` (``loads(dumps(m))``) the rest is attached here.
    """
    rest = memoryview(b"")
    if not isinstance(data, str):
        end = data.find(b"\n") + 1 or len(data)
        data, rest = data[:end], memoryview(data)[end:]
    try:
        message = json.loads(data)
    except Exception as exc:
        raise ProtocolError(f"invalid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    sizes = message.get("frames", [])
    if (
        not isinstance(sizes, list)
        or not all(type(n) is int and n >= 0 for n in sizes)
        or sum(sizes) > MAX_MESSAGE_BYTES
        or (len(rest) and sum(sizes) != len(rest))
    ):
        raise FramingError(
            f"frames must be the byte lengths that follow, {MAX_MESSAGE_BYTES} at most"
        )
    if sizes and sum(sizes) == len(rest):
        attach(message, [rest[e - n : e] for n, e in zip(sizes, accumulate(sizes))])
    return message


def attach(message: Dict[str, Any], frames: List[Any]) -> None:
    """Put each frame's buffer where an array's ``data`` names its index.

    In place.  A frame serves at most one array, so no two decoded arrays
    share memory and none keeps more than its own bytes alive.  A submit's
    operands and a reply's result are found along the paths a tensor has; only
    frames left over send the search through the whole message.
    """
    frames = list(frames)
    del message["frames"]

    def place(node: Any) -> None:
        if isinstance(node, dict):
            index = node.get("data")
            if type(index) is int and "dtype" in node:
                if not 0 <= index < len(frames) or frames[index] is None:
                    raise ProtocolError(f"frame {index} is not announced or reused")
                node["data"], frames[index] = frames[index], None

    def walk(node: Any) -> None:
        place(node)
        for child in node.values() if isinstance(node, dict) else node:
            if isinstance(child, (dict, list)):
                walk(child)

    request = message.get("request")
    tensors = request.get("operands") if isinstance(request, dict) else [message.get("result")]
    for tensor in tensors if isinstance(tensors, list) else ():
        if isinstance(tensor, dict):
            for node in (tensor, tensor.get("indices"), tensor.get("values")):
                place(node)
    if any(frame is not None for frame in frames):
        walk(message)


def result_reply(msg_id: Any, output: Union[np.ndarray, COOTensor]) -> Dict[str, Any]:
    """Success reply carrying one contraction result."""
    return {"id": msg_id, "ok": True, "result": encode_tensor(output)}


def error_reply(msg_id: Any, code: str, message: str) -> Dict[str, Any]:
    """Structured error reply (``id`` is null when unrecoverable)."""
    return {"id": msg_id, "ok": False, "error": {"code": code, "message": message}}


def stats_reply(msg_id: Any, stats: Dict[str, Any]) -> Dict[str, Any]:
    """Reply to a ``stats`` operation."""
    return {"id": msg_id, "ok": True, "stats": stats}


def metrics_reply(msg_id: Any, payload: Union[Dict[str, Any], str]) -> Dict[str, Any]:
    """Reply to a ``metrics`` operation.

    *payload* is either the structured registry snapshot (JSON object) or,
    when the client asked for ``format: "prometheus"``, the exposition text
    as one string.
    """
    return {"id": msg_id, "ok": True, "metrics": payload}


def health_reply(msg_id: Any, health: Dict[str, Any]) -> Dict[str, Any]:
    """Reply to a ``health`` operation (lightweight liveness/readiness)."""
    return {"id": msg_id, "ok": True, "health": health}


def pong_reply(msg_id: Any) -> Dict[str, Any]:
    """Reply to a ``ping`` operation."""
    return {"id": msg_id, "ok": True, "pong": True, "version": PROTOCOL_VERSION}


def shutdown_reply(msg_id: Any, draining: int) -> Dict[str, Any]:
    """Acknowledgement of a ``shutdown`` operation (*draining* = pending)."""
    return {"id": msg_id, "ok": True, "draining": draining}


def raise_if_error(message: Dict[str, Any]) -> Dict[str, Any]:
    """Client-side guard: raise :class:`ServeError` on an error reply."""
    if message.get("ok", False):
        return message
    error = message.get("error") or {}
    raise ServeError(
        str(error.get("code", "protocol")), str(error.get("message", "unknown error"))
    )


def decode_result(message: Dict[str, Any]) -> Union[np.ndarray, COOTensor]:
    """Extract and decode the tensor payload of one success reply."""
    raise_if_error(message)
    if "result" not in message:
        raise ProtocolError("reply carries no result payload")
    return decode_tensor(message["result"])


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_MESSAGE_BYTES",
    "OPS",
    "ERROR_PROTOCOL",
    "ERROR_ADMISSION",
    "ERROR_EXECUTION",
    "ERROR_SHUTDOWN",
    "ERROR_TIMEOUT",
    "ERROR_QUARANTINED",
    "ProtocolError",
    "FramingError",
    "ServeError",
    "encode_array",
    "decode_array",
    "encode_tensor",
    "decode_tensor",
    "encode_request",
    "decode_request",
    "dumps",
    "loads",
    "attach",
    "result_reply",
    "error_reply",
    "stats_reply",
    "metrics_reply",
    "health_reply",
    "pong_reply",
    "shutdown_reply",
    "raise_if_error",
    "decode_result",
]
