"""One benchmark round in a fresh process.

    python3 bench/child.py SUBCOMMAND CONFIG LAUNCHED [SPANS_OUT]

Imports ``alphagames``, parses CONFIG, runs SUBCOMMAND through
``alphagames.app.run`` and prints one JSON line with the round's
timings.  LAUNCHED is the parent's ``time.monotonic()`` just before it
started this process (the clock is system-wide), so ``setup_s`` covers
interpreter start, imports and config parsing.  With SPANS_OUT the
layers are traced and the spans are written there when the run ends.
Exits 0 when the report passed and 1 when a check inside the program
failed, as the ``alpha-games`` command does.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    subcommand, config_path, launched = argv[0], argv[1], float(argv[2])
    spans_out = argv[3] if len(argv) > 3 else None

    from alphagames import app
    cfg = app.ExperimentConfig.from_file(config_path)
    setup_s = time.monotonic() - launched

    recorder = None
    if spans_out:
        import spans
        recorder = spans.Recorder()
        recorder.install()
    t0 = time.perf_counter()
    report = app.run(cfg, subcommand)
    run_s = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if recorder is not None:
        recorder.uninstall()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    print(json.dumps({"setup_s": setup_s, "run_s": run_s,
                      "peak_rss_mib": usage.ru_maxrss / 1024.0,
                      "cpu_s": usage.ru_utime + usage.ru_stime}))
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
