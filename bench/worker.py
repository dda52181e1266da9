"""Scoring worker for the ``proc:`` model spec, used by the cli-proc workload.

Speaks the documented newline-JSON protocol: one ``{"instances": [[...], ...]}``
request per line on stdin, one ``{"scores": [...]}`` reply per line on stdout.
The score is a fixed logistic rule over the raw values, so it needs no
training and is identical on every run:

    z = 1.5 * (sum of numbers - 4.5) + 0.8 * sum over labels of (index in "abc" - 1)

Counts requests, rows and the time spent between reading a request and
flushing its reply, and writes them as JSON to the ``--counts`` file when
stdin closes.

    python3 bench/worker.py --counts counts.json
"""

import argparse
import json
import math
import sys
import time


def score(instance):
    """Class-1 probability of one raw instance under the fixed rule."""
    num = 0.0
    cat = 0.0
    for v in instance:
        if isinstance(v, str):
            cat += "abc".find(v) - 1
        else:
            num += v
    z = 1.5 * (num - 4.5) + 0.8 * cat
    if z >= 0.0:
        return 1.0 / (1.0 + math.exp(-z))
    e = math.exp(z)
    return e / (1.0 + e)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", required=True, help="file to write the counts to on exit")
    args = parser.parse_args()
    requests = rows = 0
    busy = 0.0
    for line in sys.stdin:
        t0 = time.perf_counter()
        instances = json.loads(line)["instances"]
        sys.stdout.write(json.dumps({"scores": [score(x) for x in instances]}) + "\n")
        sys.stdout.flush()
        busy += time.perf_counter() - t0
        requests += 1
        rows += len(instances)
    with open(args.counts, "w") as fh:
        json.dump({"requests": requests, "rows": rows, "busy_s": busy}, fh)


if __name__ == "__main__":
    main()
