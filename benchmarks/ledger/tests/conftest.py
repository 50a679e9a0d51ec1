"""Make the ledger's modules and the program under test importable."""

import sys
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parents[1]
for path in (LEDGER_DIR.parents[1] / "src", LEDGER_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
