"""Start-up hook for traced CLI runs.

``run.py --trace 1`` puts this directory on PYTHONPATH of the sweep
process it traces and names an output directory in PERFBENCH_TRACE_DIR;
Python then imports this module at start-up in the sweep process and in
every pool worker, and each writes its spans there when it exits.
"""

import os

if os.environ.get("PERFBENCH_TRACE_DIR"):
    import tracer

    tracer.start_process_trace(os.environ["PERFBENCH_TRACE_DIR"])
