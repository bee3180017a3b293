"""Backend selection shared by every kernel-accelerated entry point.

``"flat"`` runs the vectorized CSR kernels, ``"python"`` the original
dict/heap implementations, and ``"auto"`` picks per stage from the size
of that stage's own input: flat once the input is large enough that
numpy wins, python below that (array setup and per-call numpy overhead
are a fixed cost the dict paths do not pay on small inputs).

The crossovers live in one table, :data:`AUTO_FLAT_MIN_VERTICES`:

* ``"graph"`` -- the graph kernels (core decomposition, the engine's
  prepared filter/core stages, the G-tree build), keyed on the size of
  the graph they run over;
* ``"global"`` / ``"local"`` -- the GS and LS search loops, keyed on
  |H^t_k|, the (k,t)-core being searched.  Measured by
  ``benchmarks/bench_dispatch.py`` (``BENCH_dispatch.json``), which
  also asserts that ``"auto"`` stays within 5% of the faster backend in
  every |H^t_k| bucket of its sweep.

An explicit ``"flat"`` or ``"python"`` is honoured at every size.
"""

from __future__ import annotations

from repro.errors import GraphError

#: Valid backend selectors, in every ``backend=`` parameter.
BACKENDS = ("auto", "flat", "python")

#: ``"auto"`` switches a stage to the flat kernels at this many input
#: vertices.  ``"graph"``: the flat paths pay a CSR conversion per call,
#: and the one-shot breakeven against the python paths sits around a
#: couple thousand vertices (callers that convert once and reuse can
#: force ``"flat"`` below it).  ``"global"``/``"local"``: the searches
#: reuse one CSR view of H^t_k per cached core but pay numpy dispatch
#: on every peel round / frontier step.  In the ``bench_dispatch.py``
#: sweep (``fl+yelp``, scale 0.5) flat GS takes 1.5-3.4x the python
#: time per bucket up to 511 vertices, and wins all but one query set
#: from 878 on.  Python LS runs Verify on int bitmasks of H^t_k and
#: wins every bucket up to 1023 vertices (flat takes 1.2-2.1x its
#: time); from ~1000 to ~2050 the two trade places query by query, and
#: from ~2200 flat wins every query set by 1.1-1.4x.  Any threshold
#: from 1000 to ~1700 gives the sweep's total within 0.5% of its
#: optimum (1045 and 1136 in two runs); 1024 is that range's bucket
#: edge.
AUTO_FLAT_MIN_VERTICES = {
    "graph": 2048,
    "global": 800,
    "local": 1024,
}


def resolve_backend(
    backend: str, num_vertices: int, stage: str = "graph"
) -> str:
    """Map a backend selector to the concrete ``"flat"``/``"python"``.

    ``num_vertices`` is the size of the input ``stage`` runs over.
    """
    if backend not in BACKENDS:
        raise GraphError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        crossover = AUTO_FLAT_MIN_VERTICES[stage]
        return "flat" if num_vertices >= crossover else "python"
    return backend
