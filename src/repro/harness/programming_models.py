"""Fig. 4: programming-model comparison (explicit copy / UM / Cohet).

The paper contrasts three AXPY implementations: CUDA explicit copy
(16 lines), CUDA unified memory (10 lines), and Cohet (9 lines).  This
module carries the three listings, counts their statements the way the
figure does, and — for the Cohet column — executes the equivalent
program on the simulator to show it is not pseudocode here.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List

EXPLICIT_COPY_LISTING = """\
float *h_X = malloc(N);
float *h_Y = malloc(N);
cpu_init_data(h_X, h_Y, N);
float *d_X, *d_Y;
cudaMalloc(&d_X, N);
cudaMalloc(&d_Y, N);
cudaMemcpy(d_X, h_X, N, H2D);
cudaMemcpy(d_Y, h_Y, N, H2D);
axpy_kernel<<<...>>>(N, a, d_X, d_Y);
cudaDeviceSynchronize();
cudaMemcpy(h_Y, d_Y, N, D2H);
cpu_use_data(h_Y);
free(h_X);
free(h_Y);
cudaFree(d_X);
cudaFree(d_Y);"""

UNIFIED_MEMORY_LISTING = """\
float *X, *Y;
cudaMallocManaged(&X, N);
cudaMallocManaged(&Y, N);
cpu_init_data(X, Y, N);
axpy_kernel<<<...>>>(N, a, X, Y);
cudaDeviceSynchronize();
cpu_use_data(Y);
cudaFree(X);
cudaFree(Y);
/* implicit copies: page faults */"""

COHET_LISTING = """\
float *X = malloc(N);
float *Y = malloc(N);
init_data(X, Y, N);
clEnqueueNDRangeKernel(queue,
    axpy_kernel, ...);
clFinish(queue);
cpu_use_data(Y);
free(X);
free(Y);"""


@dataclass
class ModelComparison:
    name: str
    listing: str
    explicit_copies: int
    special_alloc_apis: int

    @property
    def lines(self) -> int:
        return len(self.listing.splitlines())


PROGRAMMING_MODELS: List[ModelComparison] = [
    ModelComparison("explicit-copy", EXPLICIT_COPY_LISTING,
                    explicit_copies=3, special_alloc_apis=2),
    ModelComparison("unified-memory", UNIFIED_MEMORY_LISTING,
                    explicit_copies=0, special_alloc_apis=1),
    ModelComparison("cohet", COHET_LISTING,
                    explicit_copies=0, special_alloc_apis=0),
]


def run_cohet_axpy(n: int = 512, alpha: float = 2.0) -> bool:
    """Execute the Cohet listing's semantics on the simulator."""
    from repro.config import asic_system
    from repro.core.cohet import CohetSystem
    from repro.core.runtime import Kernel

    def axpy_of(a, xs, ys):
        # Doubles rounded to C floats, so the kernel and the check agree exactly.
        return array("f", [a * xi + yi for xi, yi in zip(xs, ys)])

    system = CohetSystem.build_default(asic_system())
    p = system.process
    x_ptr = p.malloc(n * 4)
    y_ptr = p.malloc(n * 4)
    x = array("f", [i / (n - 1) for i in range(n)])
    y = array("f", [1 + i / (n - 1) for i in range(n)])
    p.store_array(x_ptr, x)
    p.store_array(y_ptr, y)

    def axpy(ctx, _i, count, a, xp, yp):
        xs = ctx.load_array(xp, "f", count)
        ys = ctx.load_array(yp, "f", count)
        ctx.store_array(yp, axpy_of(a, xs, ys))

    queue = system.queue("xpu0")
    queue.enqueue_task(Kernel("axpy", axpy), n, alpha, x_ptr, y_ptr)
    queue.finish()
    result = p.load_array(y_ptr, "f", n)
    p.free(x_ptr)
    p.free(y_ptr)
    return result == axpy_of(alpha, x, y)


def fig4_programming_models():
    """Fig. 4: code complexity of the three heterogeneous models."""
    from repro.harness.experiments import ExperimentResult
    from repro.harness.tables import render_table

    verified = run_cohet_axpy()
    rows = []
    series: Dict[str, Dict[str, float]] = {"lines": {}, "copies": {}, "special_allocs": {}}
    for model in PROGRAMMING_MODELS:
        rows.append(
            [model.name, model.lines, model.explicit_copies, model.special_alloc_apis]
        )
        series["lines"][model.name] = model.lines
        series["copies"][model.name] = model.explicit_copies
        series["special_allocs"][model.name] = model.special_alloc_apis
    rows.append(["(cohet listing executed on SimCXL)", "OK" if verified else "FAIL", "", ""])
    text = render_table(
        ["model", "lines", "explicit copies", "special alloc APIs"],
        rows,
        title="Fig. 4: programming-model comparison (AXPY)",
    )
    return ExperimentResult("fig4", fig4_programming_models.__doc__, series, text)
