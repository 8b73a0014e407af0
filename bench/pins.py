"""BLAS thread pins, applied before NumPy is first imported.

Unpinned, OpenBLAS starts a thread per core in every rank: a 4 MB step at
P=4 ran three times slower on this box and solo eager-SGD fell behind
synchronous SGD, reversing the paper's ordering.
"""

BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
