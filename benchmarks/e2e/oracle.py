"""Reference results for the benchmark's requests, independent of ``repro.engine``.

A request is a spec string plus operands, exactly one of them sparse.  The
oracle only reads the sparse operand's ``shape``/``indices``/``values`` (or
its ``to_dense()``) and the dense arrays; it never schedules, lowers or
executes anything through the library.

* Tiny sparse tensors (the ``scenario_mix`` pool) are densified and the whole
  spec is handed to ``np.einsum``.  A sparse-pattern result (TTTP) is compared
  at the input's coordinates.
* The 40k/60k-nonzero tensors are never densified: every dense operand is
  gathered along its sparse index, the per-nonzero products are formed with
  one batched ``einsum`` and scattered into the output with ``np.add.at``.
  That covers MTTKRP, TTMc and all-mode TTMc, the only kernels the large
  workloads run.
"""

from __future__ import annotations

import numpy as np

#: Densify below this many dense elements, gather/scatter above.
DENSE_LIMIT = 1_000_000

RTOL_F64 = 1e-9
RTOL_F32 = 1e-4


def _split(spec):
    inputs, output = spec.split("->")
    return inputs.split(","), output


def _dense(value):
    return np.asarray(getattr(value, "data", value))


def _is_sparse(value):
    return hasattr(value, "indices") and hasattr(value, "values")


def expected(spec, operands):
    """Dense reference array for *spec* (full index space of the output)."""
    subscripts, output = _split(spec)
    at = next(i for i, op in enumerate(operands) if _is_sparse(op))
    sparse = operands[at]
    if float(np.prod([float(d) for d in sparse.shape])) <= DENSE_LIMIT:
        arrays = [
            sparse.to_dense() if i == at else _dense(op).astype(np.float64)
            for i, op in enumerate(operands)
        ]
        return np.einsum(spec, *arrays)
    return _gather_scatter(subscripts, output, operands, at)


def _gather_scatter(subscripts, output, operands, at):
    sparse = operands[at]
    letters = subscripts[at]
    column = {letter: sparse.indices[:, k] for k, letter in enumerate(letters)}
    terms, arrays = ["n"], [sparse.values]
    for i, (subs, op) in enumerate(zip(subscripts, operands)):
        if i == at:
            continue
        if subs[0] not in column or any(s in column for s in subs[1:]):
            raise NotImplementedError(
                f"gather/scatter oracle needs one leading sparse index, got {subs!r}"
            )
        arrays.append(_dense(op).astype(np.float64)[column[subs[0]]])
        terms.append("n" + subs[1:])
    kept = [s for s in output if s in column]
    if len(kept) > 1 or (kept and output[0] != kept[0]):
        raise NotImplementedError(f"gather/scatter oracle cannot form {output!r}")
    if not kept:
        return np.einsum(",".join(terms) + "->" + output, *arrays)
    rows = np.einsum(",".join(terms) + "->n" + output[1:], *arrays)
    dims = {}
    for subs, op in zip(subscripts, operands):
        dims.update(zip(subs, op.shape))
    out = np.zeros([dims[s] for s in output])
    np.add.at(out, column[kept[0]], rows)
    return out


def rtol_for(operands):
    """1e-4 when any dense operand is float32, else 1e-9."""
    narrow = any(
        not _is_sparse(op) and _dense(op).dtype == np.float32 for op in operands
    )
    return RTOL_F32 if narrow else RTOL_F64


def check(spec, operands, result):
    """Whether *result* (ndarray or sparse-pattern tensor) matches the oracle."""
    reference = expected(spec, operands)
    rtol = rtol_for(operands)
    if _is_sparse(result):
        sparse = next(op for op in operands if _is_sparse(op))
        if not np.array_equal(result.indices, sparse.indices):
            return False
        reference = reference[tuple(sparse.indices.T)]
        result = result.values
    result = np.asarray(result)
    if result.shape != reference.shape:
        return False
    atol = rtol * float(np.max(np.abs(reference), initial=0.0))
    return bool(np.allclose(result, reference, rtol=rtol, atol=atol))


def same_bits(a, b):
    """Bit-equality of two results (arrays, sparse-pattern tensors or lists)."""
    if isinstance(a, (list, tuple)):
        return (
            isinstance(b, (list, tuple))
            and len(a) == len(b)
            and all(same_bits(x, y) for x, y in zip(a, b))
        )
    if _is_sparse(a):
        return (
            _is_sparse(b)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.values, b.values)
        )
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
