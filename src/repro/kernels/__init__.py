"""Named SpTTN kernels used by the paper's evaluation and applications.

Each helper builds the einsum-style specification for one kernel family
(for any tensor order and target mode), parses it into an
:class:`~repro.core.expr.SpTTNKernel`, and executes it through
:func:`~repro.engine.executor.execute_kernel`, whose schedule cache makes a
repeated call on structurally identical operands search nothing.  The
``*_kernel`` variants return the kernel and its operand mapping without
executing (run a chosen loop nest on them with
:class:`~repro.engine.executor.LoopNestExecutor`).
"""

from repro.kernels.spttn import KernelBuilder, build_kernel
from repro.kernels.mttkrp import mttkrp, mttkrp_kernel
from repro.kernels.ttmc import ttmc, ttmc_kernel, all_mode_ttmc, all_mode_ttmc_kernel
from repro.kernels.tttp import tttp, tttp_kernel, sddmm
from repro.kernels.tttc import tttc, tttc_kernel

__all__ = [
    "KernelBuilder",
    "build_kernel",
    "mttkrp",
    "mttkrp_kernel",
    "ttmc",
    "ttmc_kernel",
    "all_mode_ttmc",
    "all_mode_ttmc_kernel",
    "tttp",
    "tttp_kernel",
    "sddmm",
    "tttc",
    "tttc_kernel",
]
