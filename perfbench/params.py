"""Workload sizes.  Kept apart from workloads.py so that run.py can read
them without importing the program."""

# Parameters of each workload at full size (what the benchmark measures) and
# at toy size (what selfcheck.py runs).  The seed only shapes
# relhunt-planted; the other two are fixed pipelines.
PARAMS = {
    "kummer-legendre": {
        "full": {"q": 3, "prec": 60, "T": 12, "D": 4, "H": 10, "M": 20},
        "toy": {"q": 3, "prec": 60, "T": 8, "D": 2, "H": 2, "M": 10},
    },
    "carlitz-certify": {
        "full": {"qs": [2, 3, 4], "prec": 300, "T": 24, "tensors": [1, 2, 3], "D": 4, "H": 40, "M": 20},
        "toy": {"qs": [2, 3], "prec": 60, "T": 8, "tensors": [1, 2], "D": 2, "H": 4, "M": 10},
    },
    "relhunt-planted": {
        "full": {"fields": [[2, 1], [3, 1], [3, 2]], "queries": 104, "prec": 400, "k": [2, 5], "H": [1, 40], "M": 20},
        "toy": {"fields": [[2, 1], [3, 2]], "queries": 8, "prec": 60, "k": [2, 3], "H": [1, 4], "M": 10},
    },
}

WORKLOADS = list(PARAMS)
