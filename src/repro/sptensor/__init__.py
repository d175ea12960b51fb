"""Sparse and dense tensor substrate.

This subpackage provides the storage formats used throughout the
reproduction:

* :class:`~repro.sptensor.coo.COOTensor` — coordinate-format sparse tensor,
  the interchange format used for construction, I/O and validation.
* :class:`~repro.sptensor.csf.CSFTensor` — compressed sparse fiber format
  (Smith & Karypis), the execution format: SpTTN loop nests iterate the
  sparse indices in CSF storage order.
* :class:`~repro.sptensor.dense.DenseTensor` — a thin labelled wrapper over
  ``numpy.ndarray`` for the dense factor operands.
* Synthetic tensor generators and FROSTT-style dataset presets
  (:mod:`repro.sptensor.generate`, :mod:`repro.sptensor.datasets`).
* FROSTT ``.tns`` text I/O (:mod:`repro.sptensor.io`).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".coo": ("COOTensor",),
    ".csf": ("CSFTensor", "CSFNode"),
    ".dense": ("DenseTensor",),
    ".generate": (
        "random_sparse_tensor", "random_dense_matrix", "power_law_sparse_tensor",
        "block_sparse_tensor",
    ),
    ".io": ("read_tns", "write_tns"),
    ".datasets": ("DatasetSpec", "dataset_presets", "load_preset"),
})
