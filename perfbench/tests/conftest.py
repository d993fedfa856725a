"""Make the benchmark's own modules importable the way its scripts
import them (as top-level modules from ``perfbench/``)."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
