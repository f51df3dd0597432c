"""Self-supervised federated GNSS spoofing detection at desk scale.

Clients extract position/signal features from GNSS traces, label themselves
via a position-fusion oracle, train local LSTM regressors, and a server
aggregates them with FedAvg under an AUC quality gate.
"""

import os

# one BLAS thread unless the user sets another, before numpy's import: an
# unpinned OpenBLAS starts a thread per CPU, and a threaded process never forks
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
