"""Time one cold set-up in a fresh interpreter: ``import repro`` and expansion.

    PYTHONPATH=src python3 perfbench/setup_probe.py WORKLOAD SEED TRACE

Prints one JSON object: ``import_s`` (``import repro`` and the entry
modules), ``expand_s`` (``build_config`` or ``Study.specs``) and, with
``TRACE`` 1, the spans of both with the seconds spent in
``Scenario.build_config`` and ``Study.specs``.  ``run.py`` starts this
several times per run and reports the median.
"""

import sys
import time


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import repro  # noqa: F401
    import repro.analysis.report  # noqa: F401

    imported = time.perf_counter()

    import json

    import tracing
    import workloads

    name, seed, trace = argv[1], int(argv[2]), argv[3] == "1"
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.record("repro.import", start, imported)
        tracer.install(("scenarios.build_config", "orchestration.specs"))
    begin = time.perf_counter()
    workloads.expand(name, seed)
    expand_s = time.perf_counter() - begin
    payload = {"import_s": imported - start, "expand_s": expand_s}
    if tracer is not None:
        stats = tracer.layer_stats()
        payload["build_config_s"] = stats["scenarios.build_config"]["total_s"]
        payload["specs_s"] = stats["orchestration.specs"]["total_s"]
        payload["spans"] = tracer.spans_json()
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
