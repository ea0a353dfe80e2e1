# Lets the benchmark's own tests import the package from this checkout and
# the benchmark modules from this directory:
#     python3 -m pytest benchmarks -q
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
