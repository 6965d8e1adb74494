import os
import sys

# The benchmark's modules import each other as top-level modules (run.py is
# executed as a script), so the tests see them the same way.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
