import os
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, TESTS)
sys.path.insert(1, os.path.dirname(TESTS))  # the repository root, for perfbench
