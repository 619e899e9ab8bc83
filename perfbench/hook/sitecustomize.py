"""Server-side span hook for the traced benchmark run.

Python imports ``sitecustomize`` at interpreter start when it is on the
module path.  The traced run puts this directory on the ``PYTHONPATH``
of the server and replica processes and names a span directory in
``PERFBENCH_SPANS_DIR``; each such process then wraps the same layer
boundaries as the benchmark process and writes its spans there when it
exits.  Without the variable the hook does nothing.
"""

import os

if os.environ.get("PERFBENCH_SPANS_DIR"):
    import atexit
    import sys
    from pathlib import Path

    sys.path.append(str(Path(__file__).resolve().parents[2]))
    from perfbench.layers import install
    from perfbench.spans import SpanRecorder

    _recorder = SpanRecorder()
    install(_recorder)
    _target = Path(os.environ["PERFBENCH_SPANS_DIR"]) / f"spans-{os.getpid()}.jsonl"
    atexit.register(_recorder.dump, _target)
