"""Size-aware search dispatch: under ``"auto"`` GS/LS run on the python
path when |H^t_k| is below the stage's crossover and on the flat kernels
at or above it, whatever the social graph's size.  Explicit backends are
honoured at every size, every path returns the same answers, ``explain``
predicts the path that runs, and the path crosses the HTTP and pool wire
in ``extra["engine"]["search_backend"]``."""

import pytest

from repro import MACEngine, MACRequest, PreferenceRegion, datasets
from repro.kernels.backend import AUTO_FLAT_MIN_VERTICES
from repro.pool import WorkerPool
from repro.service import MACService, ServiceClient

REGION = PreferenceRegion.centered([0.3, 0.3], 0.01)

#: (|Q|, k, t as a multiple of the scaled default t, suggest seed):
#: fl+yelp at scale 0.5 gives cores of 28, 131, 274 and 1040 vertices,
#: on both sides of each algorithm's crossover.
CASES = ((2, 4, 1.0, 1), (2, 3, 1.0, 1), (2, 3, 2.0, 1), (2, 3, 6.0, 1))


@pytest.fixture(scope="module")
def network():
    ds = datasets.load_dataset("fl+yelp", scale=0.5, dimensions=3, seed=7)
    assert ds.network.social.num_users >= AUTO_FLAT_MIN_VERTICES["graph"]
    t0 = ds.default_t * 0.5 ** 0.5
    cores = []
    for size, k, factor, seed in CASES:
        query = ds.suggest_query(size, k=k, t=t0 * factor, seed=seed)
        htk = ds.network.maximal_kt_core(query, k, t0 * factor).num_vertices
        cores.append((query, k, t0 * factor, htk))
    return ds.network, cores


@pytest.fixture(scope="module")
def engine(network):
    return MACEngine(network[0], use_gtree=False, result_cache_size=0)


def request(case, **knobs) -> MACRequest:
    query, k, t, _htk = case
    return MACRequest.make(query, k, t, REGION, **knobs)


def expected(algorithm: str, htk: int) -> str:
    return "flat" if htk >= AUTO_FLAT_MIN_VERTICES[algorithm] else "python"


@pytest.mark.parametrize("algorithm", ["global", "local"])
def test_cases_straddle_the_crossover(network, algorithm):
    sizes = [htk for *_, htk in network[1]]
    assert min(sizes) < AUTO_FLAT_MIN_VERTICES[algorithm] <= max(sizes)


@pytest.mark.parametrize("algorithm", ["global", "local"])
def test_auto_picks_the_search_path_from_htk(engine, network, algorithm):
    for case in network[1]:
        result = engine.search(request(case, algorithm=algorithm))
        entry = result.extra["engine"]
        assert result.htk_vertices == case[3]
        # The stage backend still follows the social graph's size.
        assert entry["backend"] == "flat"
        assert entry["search_backend"] == expected(algorithm, case[3])


def test_auto_reads_the_crossover_table(engine, network, monkeypatch):
    smallest = min(network[1], key=lambda case: case[3])
    monkeypatch.setitem(AUTO_FLAT_MIN_VERTICES, "local", 0)
    result = engine.search(request(smallest, algorithm="local"))
    assert result.extra["engine"]["search_backend"] == "flat"


@pytest.mark.parametrize("backend", ["flat", "python"])
def test_explicit_backends_are_honoured_at_every_size(
    engine, network, backend
):
    for case in network[1]:
        for algorithm in ("global", "local"):
            ours = engine.search(
                request(case, algorithm=algorithm, backend=backend)
            )
            assert ours.extra["engine"]["backend"] == backend
            assert ours.extra["engine"]["search_backend"] == backend
    # The engine-level default too, on cores either side of the LS
    # crossover.
    pinned = MACEngine(
        network[0], backend=backend, use_gtree=False, result_cache_size=0
    )
    for case in (network[1][0], network[1][3]):
        theirs = pinned.search(request(case, algorithm="local"))
        assert theirs.extra["engine"]["search_backend"] == backend


@pytest.mark.parametrize("algorithm", ["global", "local"])
@pytest.mark.parametrize("problem", ["nc", "topj"])
def test_answers_match_both_forced_backends(
    engine, network, algorithm, problem
):
    j = 3 if problem == "topj" else 1
    for case in network[1]:
        answers = {
            backend: engine.search(request(
                case, algorithm=algorithm, problem=problem, j=j,
                backend=backend,
            ))
            for backend in ("auto", "flat", "python")
        }
        # Both sides of each crossover: auto ran the path the table
        # names, and every path agrees down to the partitions.
        assert answers["auto"].extra["engine"]["search_backend"] == \
            expected(algorithm, case[3])
        assert answers["auto"].communities() == \
            answers["flat"].communities() == \
            answers["python"].communities()
        for other in ("flat", "python"):
            assert [e.communities for e in answers["auto"].partitions] == \
                [e.communities for e in answers[other].partitions]


def test_small_graph_searches_from_htk_too(paper_network, paper_region):
    result = MACEngine(paper_network).search(
        MACRequest.make((2, 3, 6), 3, 9.0, paper_region)
    )
    assert result.extra["engine"]["backend"] == "python"
    assert result.extra["engine"]["search_backend"] == "python"


def test_infeasible_request_reports_no_search(engine, network):
    query, _k, t, _htk = network[1][0]
    result = engine.search(MACRequest.make(query, 60, t, REGION))
    assert result.extra["engine"]["search_backend"] == "none"


class TestExplain:
    @pytest.mark.parametrize("algorithm", ["global", "local"])
    def test_plan_agrees_with_what_executed(self, network, algorithm):
        engine = MACEngine(network[0], use_gtree=False)
        for case in network[1]:
            req = request(case, algorithm=algorithm)
            executed = engine.search(req).extra["engine"]["search_backend"]
            plan = engine.explain(req)
            assert plan.search_backend == executed
            assert not any("provisional" in n for n in plan.notes)

    def test_unmaterialized_flat_prediction_is_provisional(self, network):
        engine = MACEngine(network[0], use_gtree=False)
        plan = engine.explain(request(network[1][0], algorithm="local"))
        # Nothing is cached: the bound is the user count, above the
        # crossover, so the flat guess is marked as a guess.
        assert plan.htk_vertices is None
        assert plan.search_backend == "flat"
        assert any("search backend is provisional" in n for n in plan.notes)

    def test_coreness_bound_below_crossover_predicts_python(self, network):
        engine = MACEngine(network[0], use_gtree=False)
        query, k, t, htk = network[1][0]
        # Cache only the (Q, t) filter: a larger k bounds |H^t_k| tightly.
        engine.warm(MACRequest.make(query, k + 20, t, REGION))
        plan = engine.explain(request(network[1][0], algorithm="local"))
        assert plan.cached["filter"] and not plan.cached["core"]
        assert plan.htk_upper_bound < AUTO_FLAT_MIN_VERTICES["local"]
        assert plan.search_backend == "python"
        assert not any("provisional" in n for n in plan.notes)

    def test_explicit_backend_prediction_is_exact(self, network):
        engine = MACEngine(network[0], use_gtree=False)
        plan = engine.explain(
            request(network[1][0], algorithm="local", backend="python")
        )
        assert plan.search_backend == "python"
        assert not any("provisional" in n for n in plan.notes)


class TestWire:
    def test_http_result_carries_search_backend(self, network):
        engine = MACEngine(network[0], use_gtree=False)
        small = min(network[1], key=lambda case: case[3])
        with MACService(engine, port=0) as svc, \
                ServiceClient(port=svc.port) as client:
            result = client.search(request(small, algorithm="local"))
        entry = result.extra["engine"]
        assert entry["backend"] == "flat"
        assert entry["search_backend"] == expected("local", small[3])

    def test_pooled_result_carries_search_backend(self, network):
        large = max(network[1], key=lambda case: case[3])
        engine = MACEngine(network[0], use_gtree=False)
        with WorkerPool(engine, 1) as pool:
            wire = pool.search_wire(request(large, algorithm="local"))
        assert wire["engine"]["search_backend"] == expected("local", large[3])
