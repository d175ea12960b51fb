"""Contraction requests: the unit of work the serving layer accepts.

A :class:`ContractionRequest` is a self-contained description of one SpTTN
contraction — an einsum-style specification plus its concrete operands —
exactly the inputs :func:`repro.kernels.build_kernel` takes.  The named
helpers build requests for the paper's four kernel families (MTTKRP, TTMc,
TTTP, TTTc) through the same ``*_spec`` generators the kernel modules use,
so a request is nothing more privileged than a deferred ``build_kernel``
call: anything expressible as a spec string can be served.

Requests are validated eagerly by :meth:`ContractionRequest.build` (the
service calls it at admission time): the spec must parse against the
operands and the engine be one of ``ENGINES``, which catches malformed specs,
shape mismatches, missing dimensions and unknown engines *before* the queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.expr import SpTTNKernel
from repro.engine.executor import ENGINES
from repro.kernels.mttkrp import mttkrp_spec
from repro.kernels.spttn import build_kernel, sparse_order_of
from repro.kernels.ttmc import all_mode_ttmc_spec, ttmc_spec
from repro.kernels.tttc import tttc_spec
from repro.kernels.tttp import tttp_spec

if TYPE_CHECKING:
    from repro.engine.executor import TensorLike


# eq=False: the generated __eq__ would compare operand tuples containing
# ndarrays (ambiguous truth value) and sink __hash__; identity semantics
# are the right ones for requests anyway (futures are keyed by submission).
@dataclass(eq=False)
class ContractionRequest:
    """One contraction to serve: a spec string plus concrete operands.

    Attributes
    ----------
    spec:
        Einsum-style kernel specification, e.g. ``"ijk,ja,ka->ia"``.
    operands:
        Concrete operands in spec order (exactly one sparse tensor).
    names:
        Optional operand names (defaults as in ``parse_kernel``).
    engine:
        Per-request engine override (``None`` = the service's engine).
    kind:
        Label of the kernel family ("mttkrp", "ttmc", "tttp", "tttc",
        "spec", ...); informational — used by stats and the load driver.
    deadline_ms:
        Optional latency budget in milliseconds.  The clock starts when
        the request is admitted (or, through the daemon, when it is
        received), covers queue wait and execution, and an expiration
        resolves the future with a ``timeout``-coded
        :class:`~repro.serve.service.RequestFailed` instead of a result.
    """

    spec: str
    operands: Tuple[TensorLike, ...]
    names: Optional[Tuple[str, ...]] = None
    engine: Optional[str] = None
    kind: str = "spec"
    deadline_ms: Optional[float] = None
    _built: Optional[Tuple[SpTTNKernel, Dict[str, TensorLike]]] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        self.operands = tuple(self.operands)
        if self.names is not None:
            self.names = tuple(self.names)

    def build(self) -> Tuple[SpTTNKernel, Dict[str, TensorLike]]:
        """Parse (once) into a kernel and its operand mapping; may raise."""
        if self._built is None:
            if self.engine is not None and self.engine not in ENGINES:
                raise ValueError(f"engine must be one of {ENGINES}, got {self.engine!r}")
            self._built = build_kernel(self.spec, self.operands, names=self.names)
        return self._built


def _named(
    kind: str,
    spec: str,
    operands: Sequence[TensorLike],
    engine: Optional[str],
    deadline_ms: Optional[float] = None,
) -> ContractionRequest:
    return ContractionRequest(
        spec=spec,
        operands=tuple(operands),
        engine=engine,
        kind=kind,
        deadline_ms=deadline_ms,
    )


def mttkrp_request(
    tensor: TensorLike,
    factors: Sequence[np.ndarray],
    mode: int = 0,
    engine: Optional[str] = None,
) -> ContractionRequest:
    """Mode-*mode* MTTKRP request (*factors* exclude the target mode).

    Examples
    --------
    >>> T = random_sparse_tensor((50, 40, 30), nnz=500, seed=0)
    >>> B, C = np.ones((40, 8)), np.ones((30, 8))
    >>> request = mttkrp_request(T, [B, C], mode=0)
    >>> request.spec
    'ijk,jr,kr->ir'
    >>> service.submit(request).result().shape
    (50, 8)
    """
    order = sparse_order_of(tensor)
    return _named(
        "mttkrp", mttkrp_spec(order, mode), [tensor, *factors], engine
    )


def ttmc_request(
    tensor: TensorLike,
    factors: Sequence[np.ndarray],
    mode: int = 0,
    engine: Optional[str] = None,
) -> ContractionRequest:
    """Mode-*mode* TTMc request (*factors* exclude the target mode).

    Examples
    --------
    >>> request = ttmc_request(T, [B, C], mode=0)   # order-3 T: ijk,jr,ks->irs
    >>> service.submit(request).result().shape
    (50, 8, 8)
    """
    order = sparse_order_of(tensor)
    return _named("ttmc", ttmc_spec(order, mode), [tensor, *factors], engine)


def all_mode_ttmc_request(
    tensor: TensorLike,
    factors: Sequence[np.ndarray],
    engine: Optional[str] = None,
) -> ContractionRequest:
    """All-mode TTMc request (one factor per mode, every mode contracted)."""
    order = sparse_order_of(tensor)
    return _named("ttmc", all_mode_ttmc_spec(order), [tensor, *factors], engine)


def tttp_request(
    tensor: TensorLike,
    factors: Sequence[np.ndarray],
    engine: Optional[str] = None,
) -> ContractionRequest:
    """TTTP request (one factor per mode, sparse-pattern output).

    Examples
    --------
    >>> request = tttp_request(T, [A, B, C])        # ijk,ir,jr,kr->ijk
    >>> service.submit(request).result().nnz == T.nnz
    True
    """
    order = sparse_order_of(tensor)
    return _named("tttp", tttp_spec(order), [tensor, *factors], engine)


def tttc_request(
    tensor: TensorLike,
    cores: Sequence[np.ndarray],
    removed_core: Optional[int] = None,
    engine: Optional[str] = None,
) -> ContractionRequest:
    """TTTc request (*cores* exclude the removed core)."""
    order = sparse_order_of(tensor)
    if removed_core is None:
        removed_core = order - 1
    return _named(
        "tttc", tttc_spec(order, removed_core), [tensor, *cores], engine
    )
