"""Cold set-up probe: import the codec, encode and decode one tiny tensor.

    python3 codecbench/probe.py SRC_DIR

Prints time.monotonic() at the moment the first decode returned, so the
parent that started this process can time it from its launch.  Exits with
code 1 if the codec is not the one under SRC_DIR or the round trip is wrong.
"""

import sys
import time
from pathlib import Path

src = Path(sys.argv[1]).resolve()
sys.path.insert(0, str(src))

import numpy as np  # noqa: E402

import tritstream  # noqa: E402

if src not in Path(tritstream.__file__).resolve().parents:
    sys.exit(f"tritstream imported from {tritstream.__file__}, not {src}")
values = np.array([0, 1, -2, 0, 3, -1], dtype=np.int64).reshape(1, 2, 3)
sigmas = np.array([0.5, 1.0, 2.0, 0.3, 4.0, 1.5], dtype=np.float32).reshape(1, 2, 3)
rec = tritstream.decode(tritstream.encode(values, sigmas, 3))
done = time.monotonic()
if not (rec.exact and np.array_equal(rec.values, values)):
    sys.exit("tiny round trip is not exact")
print(repr(done))
