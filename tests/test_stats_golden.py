"""Golden stats digest: the timing-stripped content of every traced
paper-table run.

``stats_digest`` hashes a stats document minus its environment blocks
and timing fields, so it covers totals, ``phases[]`` IR deltas,
``phase_stats`` and the decision ``counters``.  This test pins it for
all 50 suite x Table 2-4 experiment runs plus the 20 Table 5 variant
runs as one constant: any change to a paper output, a decision counter
or the phase breakdown shows here, while moving environment data
(analysis-cache and interpreter code-cache traffic, the ``metrics``
block) between blocks does not.
"""

import hashlib

from repro.benchgen import all_suites
from repro.observability import Tracer, stats_digest
from repro.pipeline import TABLE_EXPERIMENTS, run_table, run_table5

GOLDEN_STATS_DIGEST = (
    "061d8ba7f6e40cfcaf55c5332ca695117736439a99dd619da27d9e5695a4d69f")


def test_traced_table_runs_match_golden_digest():
    digest = hashlib.sha256()
    runs = 0
    for suite in all_suites():
        batches = [(table, run_table(suite.module, table, tracer=Tracer,
                                     jobs=1, cache=None))
                   for table in TABLE_EXPERIMENTS]
        batches.append(("table5", run_table5(suite.module, tracer=Tracer,
                                             jobs=1, cache=None)))
        for table, results in batches:
            for result in results:
                document = result.to_stats()
                digest.update(f"{suite.name}\0{table}\0{result.name}\0"
                              f"{stats_digest(document)}\0".encode())
                runs += 1
    assert runs == 70
    assert digest.hexdigest() == GOLDEN_STATS_DIGEST
