"""Score through an external model process instead of a built-in one.

The worker speaks newline-delimited JSON on stdin/stdout: one request
{"instances": [[...], ...]} per line in, one {"scores": [...]} per line out.
Any program honoring that contract can serve as the model; here it is a
small inline Python script that scores by a hand-written rule.
"""

import sys
from contextlib import closing

from nicecf.explainers import RewardKind, SearchContext, explain_nice
from nicecf.model import external_model
from nicecf.synthetic import make_dataset
from nicecf.tabular import fit_stats

WORKER = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    scores = []
    for inst in req["instances"]:
        total = sum(v for v in inst if isinstance(v, (int, float)))
        scores.append(1.0 / (1.0 + 2.718281828 ** (-0.5 * (total - 4.0))))
    print(json.dumps({"scores": scores}), flush=True)
"""

data = make_dataset(150, 3, 1, seed=19, noise=0.0)
stats = fit_stats(data)

# proc: specs launch the command and keep it alive across batches; closing
# the model ends the worker and its pipes
with closing(external_model(f"proc:{sys.executable} -u -c '{WORKER}'")) as model:
    probe = data.rows[0]
    print(f"worker scores {probe} as p = {model.score(probe):.4f}")
    print(f"batch of 5 scores: {[round(float(p), 3) for p in model.score_batch(data.rows[:5])]}")

    # the search does not care where the scores come from
    ctx = SearchContext(data, stats, model, scorer=lambda x: 0.0)
    ctx.warm()
    n_valid = sum(
        explain_nice(x0, RewardKind.SPARSITY, ctx).valid for x0 in data.rows[:20]
    )
    print(f"hybrid search through the subprocess: {n_valid}/20 valid")

# http: specs post the same JSON bodies to a URL instead, e.g.
#   external_model("http://localhost:8000/score")
