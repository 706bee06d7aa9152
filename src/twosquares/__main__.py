import gc
import os

# Set before cli imports numpy.  The package makes no BLAS call, so any other
# value only starts OpenBLAS threads that burn CPU; forked workers inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

# The imports build a heap of module and numpy objects that live until exit.
# No collection runs while they load, and freezing them keeps every later
# collection, the one at shutdown and those in forked workers included, from
# walking them again.  Objects made during a run are collected as before.
gc.disable()
from .cli import main

gc.freeze()
gc.enable()

if __name__ == "__main__":
    main()
