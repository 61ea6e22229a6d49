"""Fresh process for ``setup_s``: import cl12, run one op, say ``ready``.

Usage: ``python3 perfbench/setup_child.py <src dir> <workload>``, with the
op's arguments pickled on standard input.  The parent times from spawning
this process to reading the ``ready`` line.
"""

import pickle
import sys

sys.path.insert(0, sys.argv[1])

import ops  # noqa: E402  (imports cl12)

OPS = {"closed-forms": ops.closed_forms, "equations": ops.equations, "verify": ops.verify}

# the op's outputs are checked in the parent's timed runs, not here
OPS[sys.argv[2]](*pickle.load(sys.stdin.buffer))
sys.stdout.write("ready\n")
sys.stdout.flush()
