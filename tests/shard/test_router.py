"""Unit tests for the router's decision logic.

Least-loaded placement, the fleet admission bound, and the memo-key
salting of the cross-shard result cache are plain functions over plain
state, tested without sockets or subprocesses.  One fleet test counts
what the router lowers while it forwards real jobs.
"""

import pytest

from repro.serve import jobs
from repro.serve.client import ServeClient, expected_result
from repro.serve.jobs import make_job
from repro.shard import router as router_module
from repro.shard.cache import ShardResultCache
from repro.shard.router import RouterConfig, RouterThread, ShardRouter
from repro.shard.supervisor import (STATE_DEAD, STATE_UP, ShardHandle,
                                    ShardSupervisor)


def _fleet(router, states):
    """Pin the router's supervisor handles to the given states."""
    supervisor = router.supervisor
    supervisor.handles = [ShardHandle(i, host="127.0.0.1",
                                      port=9000 + i, state=state)
                          for i, state in enumerate(states)]
    return supervisor.handles


@pytest.fixture()
def router():
    config = RouterConfig(port=0, shards=2, per_shard_depth=4)
    return ShardRouter(config,
                       cache=ShardResultCache(enabled=False))


class TestPickShard:
    def test_fewest_inflight_wins(self, router):
        live = _fleet(router, [STATE_UP, STATE_UP, STATE_UP])
        live[0].inflight, live[1].inflight, live[2].inflight = 3, 1, 2
        live[1].served = 100          # load outranks the served count
        assert router.pick_shard(live) is live[1]

    def test_tie_goes_to_fewest_served(self, router):
        live = _fleet(router, [STATE_UP, STATE_UP, STATE_UP])
        for handle, served in zip(live, (7, 4, 9)):
            handle.inflight, handle.served = 2, served
        assert router.pick_shard(live) is live[1]

    def test_dead_shard_is_never_picked(self, router):
        handles = _fleet(router, [STATE_UP, STATE_DEAD, STATE_UP])
        handles[0].inflight = handles[2].inflight = 5
        # The dead shard is idle, so it would win were it a candidate.
        assert router.pick_shard(router.supervisor.live()) is handles[0]


class TestAdmission:
    def test_admits_when_idle(self, router):
        live = _fleet(router, [STATE_UP, STATE_UP])
        assert router.admission_reason(live) is None

    def test_draining_sheds(self, router):
        live = _fleet(router, [STATE_UP, STATE_UP])
        router._draining = True
        assert router.admission_reason(live) == "shutting-down"

    def test_no_live_shards_sheds(self, router):
        _fleet(router, [STATE_DEAD, STATE_DEAD])
        assert router.admission_reason([]) == "no-live-shards"

    def test_fleet_depth_bound_scales_with_live_shards(self, router):
        live = _fleet(router, [STATE_UP, STATE_UP])
        for handle in live:
            handle.inflight = router.config.per_shard_depth
        assert router.admission_reason(live) == "queue-full"
        live[0].inflight = 0
        assert router.admission_reason(live) is None


class TestForwarding:
    def test_router_lowers_only_cacheable_jobs(self, monkeypatch):
        # The shards are separate processes, so every make_job and
        # plan_for_job call counted here ran in the router.
        lowered = []
        real_make_job, real_plan = router_module.make_job, \
            jobs.plan_for_job

        def counting_make_job(payload):
            lowered.append(("make_job", payload.get("op")))
            return real_make_job(payload)

        def counting_plan(op, params):
            lowered.append(("plan_for_job", op))
            return real_plan(op, params)

        monkeypatch.setattr(router_module, "make_job", counting_make_job)
        monkeypatch.setattr(jobs, "plan_for_job", counting_plan)
        config = RouterConfig(port=0, shards=1, drain_s=30.0)
        cache = ShardResultCache(enabled=True, persist=False)
        with RouterThread(config, cache=cache) as fleet:
            client = ServeClient(fleet.host, fleet.port)
            for payload in (
                    {"op": "mul", "params": {"a": hex(3 ** 90),
                                             "b": hex(7 ** 80)}},
                    {"op": "div", "params": {"a": hex(10 ** 60 + 7),
                                             "b": "9973"}},
                    {"op": "powmod", "params": {"base": "0xabcdef",
                                                "exp": "65537",
                                                "mod": "1000003"}}):
                status, body = client.request(payload)
                assert status == 200, body
                assert body["result"] == expected_result(payload)
            assert lowered == []
            pi = {"op": "pi_digits", "params": {"digits": 31}}
            status, first = client.request(pi)
            assert status == 200, first
            status, second = client.request(pi)
            assert status == 200 and second["cached"] is True
            assert second["result"] == first["result"] \
                == expected_result(pi)
            assert cache.hits == 1
        assert {op for _, op in lowered} == {"pi_digits"}


class TestShardCache:
    def _cache(self):
        return ShardResultCache(enabled=True, persist=False)

    def test_idempotent_job_round_trips(self):
        cache = self._cache()
        job = make_job({"op": "pi_digits", "params": {"digits": 25}})
        assert cache.get(job) is None
        cache.put(job, {"digits": "3.14", "terms": 2,
                        "precision_bits": 128})
        again = make_job({"op": "pi_digits", "params": {"digits": 25}})
        assert cache.get(again) == {"digits": "3.14", "terms": 2,
                                    "precision_bits": 128}
        assert cache.hits == 1 and cache.misses == 1

    def test_non_idempotent_ops_never_cache(self):
        cache = self._cache()
        job = make_job({"op": "mul", "params": {"a": 3, "b": 5}})
        assert job.cache_key() is None
        cache.put(job, {"product": "0xf"})
        assert cache.get(job) is None
        assert len(cache) == 0

    def test_memo_key_salts_the_cache(self):
        # A retune changes Plan.memo_key, which must invalidate every
        # cached answer computed under the old plan.
        cache = self._cache()
        job = make_job({"op": "pi_digits", "params": {"digits": 25}})
        cache.put(job, {"digits": "old"})

        class _RetunedPlan:
            memo_key = tuple(job.plan.memo_key) + ("retuned",)

        stale = make_job({"op": "pi_digits", "params": {"digits": 25}})
        stale.plan = _RetunedPlan()
        assert cache.get(stale) is None

    def test_killswitch_disables_everything(self):
        cache = ShardResultCache(enabled=False)
        job = make_job({"op": "pi_digits", "params": {"digits": 25}})
        cache.put(job, {"digits": "3.14"})
        assert cache.get(job) is None
        assert cache.load() == 0


class TestSupervisorQueries:
    def test_degraded_and_live_views(self):
        supervisor = ShardSupervisor(3)
        assert supervisor.degraded()          # all still starting
        for handle in supervisor.handles:
            handle.state = STATE_UP
        assert not supervisor.degraded()
        assert len(supervisor.live()) == 3
        supervisor.handles[1].state = STATE_DEAD
        assert supervisor.degraded()
        assert [h.index for h in supervisor.live()] == [0, 2]

    def test_health_text_aggregates(self, router):
        _fleet(router, [STATE_UP, STATE_UP])
        text = router.health_text()
        assert text.splitlines()[0] == "ok"
        _fleet(router, [STATE_UP, STATE_DEAD])
        assert router.health_text().splitlines()[0] == "degraded"
        router._draining = True
        assert router.health_text().splitlines()[0] == "draining"

    def test_shard_count_floor(self):
        with pytest.raises(ValueError):
            ShardSupervisor(0)
