import os

# Set before cli imports numpy.  The package makes no BLAS call, so any other
# value only starts OpenBLAS threads that burn CPU; forked workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .cli import main

if __name__ == "__main__":
    main()
