"""Seeded fuzzing of the scenario space.

Specs are drawn from the live registries in ``AXES`` crossed with every
app, mode, system, ``persistent`` and ``shards`` in {1, 2}, under either
arrival rule, at sizes small enough to run in tier-1; some set a field
only another app reads.  Only universal properties are checked: a spec
the check rejects fails with :class:`ConfigError` and nothing else; a
spec it accepts runs to completion, balances both conservation laws,
reports its first-time offers as ``requests`` (a job: delivers merged
output) and gives the same entry twice, also with another spec run in
between.  A failure found here is
fixed and pinned as an ``@example``.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.scenarios import run_scenario
from repro.bench.testbeds import APPS, AXES, FLICK_SYSTEMS, Scenario, run_experiment
from repro.core.errors import ConfigError
from repro.net.stackprofiles import TOPOLOGIES


#: Each app-specific field (but ``persistent``, drawn for every app) at
#: a value away from its default.
AWAY = {
    "specialised_parser": False, "cache_router": True, "key_space": 7,
    "value_bytes": 16, "word_len": 12, "data_kb_per_mapper": 2,
    "n_mappers": 2,
}


def _axis(field, default):
    """The field's default half the time, else any registered name."""
    return st.one_of(st.just(default), st.sampled_from(AXES[field].names()))


@st.composite
def specs(draw):
    app = draw(st.sampled_from(sorted(APPS)))
    own = APPS[app].fields
    # A quarter of the specs set a field another app reads and a quarter
    # drop keep-alive; the check rejects either where the run ignores it.
    foreign = [field for field in AWAY if field not in own]
    stray = draw(st.sampled_from([None] * 3 * len(foreign) + foreign))
    fields = {} if stray is None else {stray: AWAY[stray]}
    if "n_mappers" in own:
        fields.update(
            data_kb_per_mapper=draw(st.integers(1, 4)),
            n_mappers=draw(st.integers(1, 4)),
        )
    return Scenario(
        app=app,
        name="fuzz",
        system=draw(
            st.sampled_from(FLICK_SYSTEMS + tuple(APPS[app].baselines))
        ),
        mode=draw(st.sampled_from(sorted(APPS[app].modes))),
        arrival=draw(st.one_of(st.none(), _axis("arrival", "poisson"))),
        policy=draw(_axis("policy", "cooperative")),
        allocator=draw(_axis("allocator", "static")),
        admission=draw(_axis("admission", "admit-all")),
        routing=draw(_axis("routing", "hash-affinity")),
        faults=draw(st.one_of(st.none(), _axis("faults", "retry-storm"))),
        topology=draw(st.sampled_from((None, *sorted(TOPOLOGIES)))),
        service_classes=draw(st.sampled_from(((), ("client=gold:2000@2",)))),
        class_mix=draw(
            st.sampled_from(((), (("gold", 1.0), ("bronze", 1.0))))
        ),
        slo_us=draw(st.sampled_from((None, 2_000.0))),
        shards=draw(st.sampled_from((1, 2))),
        fail_shard_at_us=draw(st.sampled_from((None, 500.0))),
        cores=draw(st.integers(1, 4)),
        concurrency=draw(st.integers(1, 8)),
        total_requests=draw(st.integers(1, 128)),
        persistent=draw(st.sampled_from((True, True, True, False))),
        **fields,
    )


def _balances(entry):
    """A job delivered merged output; a request entry closes both
    conservation laws."""
    if "job" in entry:
        assert entry["job"]["egress_bytes"] > 0
        return
    offered = entry["offered"]
    admitted = entry["admission"]["admitted"]
    assert admitted + entry["admission"]["shed"] == offered
    assert entry["completed"] + entry["failed"] + entry["retried"] == admitted
    assert entry["requests"] == offered - entry["retried"]


#: Closed-rule points the check once rejected, pinned so each newly
#: legal combination runs whatever the draw.
CLOSED = Scenario(app="http_lb", name="fuzz", cores=2, concurrency=8)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(specs())
@example(CLOSED._replace(
    persistent=False, concurrency=16, requests_per_client=6, cores=4,
    faults="flapping-backend",
    fault_params=(
        ("first_down_us", 1_000.0), ("downtime_us", 1_500.0),
        ("period_us", 3_000.0), ("targets", 3),
    ),
))
@example(CLOSED._replace(
    requests_per_client=12, shards=2, fail_shard_at_us=300.0
))
@example(CLOSED._replace(
    app="memcached_proxy", concurrency=16, requests_per_client=8, cores=1,
    faults="retry-storm",
    fault_params=(("retry_after_us", 1_500.0), ("max_retries", 2)),
))
@example(CLOSED._replace(
    requests_per_client=6, admission="shed-bronze",
    admission_params=(("max_inflight", 4),),
    class_mix=(("gold", 1.0), ("bronze", 1.0)),
))
@example(CLOSED._replace(
    concurrency=4, requests_per_client=8, faults="conn-churn",
    fault_params=(("lifetime_requests", 3),),
))
def test_a_spec_is_rejected_cleanly_or_runs_clean(spec):
    try:
        spec.check()
    except ConfigError:
        accepted = False
    else:
        accepted = True
    if not accepted:
        try:
            run_scenario(spec)
        except ConfigError:
            return
        raise AssertionError("the run accepted a spec its check rejected")
    entry = run_scenario(spec)
    _balances(entry)
    assert run_scenario(spec) == entry


def _result(spec):
    try:
        return run_experiment(spec.check())
    except ConfigError:
        return None


@settings(derandomize=True, max_examples=300, deadline=None)
@given(specs(), specs())
def test_a_run_does_not_depend_on_what_ran_before_it(spec, other):
    first = _result(spec)
    _result(other)
    assert _result(spec) == first
