"""Set-up cost in a fresh interpreter, as a user of one workload pays it.

    python3 bench/setup_probe.py '<model spec as JSON>'

Times ``import gwfam``, building the model from its spec, the Perron pair of
its reproduction matrix and the asymptotic variances, and prints the four
figures in seconds as one JSON object. Only the standard library is imported
before the clock starts.
"""

import json
import sys
from time import perf_counter


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = perf_counter()
    import gwfam

    t1 = perf_counter()
    model = gwfam.model_from_dict(spec)
    t2 = perf_counter()
    pair = gwfam.perron(gwfam.reproduction_matrix(model))
    gwfam.asymptotic_variances(model, pair)
    t3 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1, "spectral_s": t3 - t2, "setup_s": t3 - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
