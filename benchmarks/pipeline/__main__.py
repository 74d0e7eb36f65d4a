"""``python -m benchmarks.pipeline`` runs :mod:`benchmarks.pipeline.run`."""

import sys

from benchmarks.pipeline.run import main

sys.exit(main())
