import sys
from pathlib import Path

# Make the oracle helpers importable as a plain module from any test.
sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # The same examples on every run (no example database), and no
    # per-example deadline on a busy host.
    settings.register_profile("fcgtrack", derandomize=True, deadline=None, database=None)
    settings.load_profile("fcgtrack")
