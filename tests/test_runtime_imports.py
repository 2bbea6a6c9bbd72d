"""scipy is a test-only dependency: a run must not import it.

Importing ``scipy.ndimage`` costs every process tens of MB of resident
memory and a large share of start-up time, so this guards the whole
path a ``repro run`` takes before training: the CLI import, dataset
synthesis and the paper's augmentation pipeline.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
import numpy as np
import repro.cli
from repro.augment import simsiam_image_pipeline
from repro.data import load_image_benchmark
sequence = load_image_benchmark("cifar10-like", "ci")
simsiam_image_pipeline()(sequence.tasks[0].train.x[:32], np.random.default_rng(0))
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_a_run_does_not_import_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == ""
