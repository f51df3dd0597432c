"""Self-supervised federated GNSS spoofing detection at desk scale.

Clients extract position/signal features from GNSS traces, label themselves
via a position-fusion oracle, train local LSTM regressors, and a server
aggregates them with FedAvg under an AUC quality gate.
"""

import ctypes
import os

# one BLAS thread unless the user sets another, before numpy's import: an
# unpinned OpenBLAS starts a thread per CPU, and a threaded process never forks
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

# glibc keeps freed buffers of up to 32 MiB (its cap on 64-bit) in the heap,
# and up to 64 MiB of free heap top, unless the user tunes malloc: the LSTM
# kernels allocate and free buffers of up to a few MB on every call, which
# glibc would otherwise unmap or trim and page-fault in again on the next
# call; a set threshold also turns glibc's dynamic one off, so what a caller
# allocated first no longer matters.  Forked shards inherit the setting.
if not ({"MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"} & os.environ.keys()
        or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
    try:
        _mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, as on macOS or Windows
        pass
    else:
        _mallopt.argtypes, _mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

__version__ = "0.1.0"
