"""The one registry mechanism, checked once over every live axis.

``repro.core.registry.Registry`` is instantiated six times (scheduling,
allocation, admission, routing, arrivals, faults).  Everything the six
share — near-miss errors, duplicate/nameless registration, name-or-
instance resolution, the bad-parameters error, default-first listing —
is parametrized over the live instances here instead of being restated
per axis; the per-axis test files keep only what is specific to their
policies.  Every registered name must also run in a pinned experiment
(a scenario entry or a figure row).  The last class proves the point of
the exercise: a new axis *value* is one class in one file, and every
consumer sees it.
"""

from typing import NamedTuple

import pytest

from repro.bench.figures import FIGURES
from repro.bench.registry_docs import render_markdown
from repro.bench.scenarios import SCENARIOS
from repro.bench.testbeds import AXES, Scenario
from repro.cluster import routing
from repro.core.errors import ConfigError, RuntimeFlickError
from repro.core.registry import Registry, did_you_mean
from repro.net import faults
from repro.runtime import admission, allocator, policy
from repro.runtime.costs import RuntimeConfig
from repro.workloads import arrivals


class Axis(NamedTuple):
    registry: Registry
    module: object
    #: Suffixes of the module's public verbs (``make_<verb>``,
    #: ``registered_<plural>``).
    verb: str
    plural: str
    error: type
    #: A transposition/omission typo and the name it should suggest.
    typo: str
    meant: str
    #: A ``-``/``_`` slip and the name it should match exactly.
    slip: str
    slipped: str
    #: A name whose constructor needs no arguments.
    buildable: str


AXIS_CASES = [
    Axis(policy.POLICIES, policy, "policy", "policies", RuntimeFlickError,
         "roud_robin", "round_robin", "steal_half", "steal-half", "batch"),
    Axis(allocator.ALLOCATORS, allocator, "allocator", "allocators",
         RuntimeFlickError, "queue-deph", "queue-depth", "queue_depth",
         "queue-depth", "queue-depth"),
    Axis(admission.ADMISSIONS, admission, "admission", "admissions",
         RuntimeFlickError, "shed-bronz", "shed-bronze", "shed_bronze",
         "shed-bronze", "shed-bronze"),
    Axis(routing.ROUTINGS, routing, "routing", "routings", ConfigError,
         "least-loadd", "least-loaded", "hash_affinity", "hash-affinity",
         "least-loaded"),
    Axis(arrivals.ARRIVALS, arrivals, "arrival", "arrivals", ConfigError,
         "poison", "poisson", "re-play", "replay", "ramp"),
    Axis(faults.FAULTS, faults, "fault", "faults", ConfigError,
         "retry-strom", "retry-storm", "conn_churn", "conn-churn",
         "conn-churn"),
]

per_axis = pytest.mark.parametrize(
    "axis", AXIS_CASES, ids=[axis.verb for axis in AXIS_CASES]
)


def test_every_live_registry_is_covered():
    assert {id(axis.registry) for axis in AXIS_CASES} == {
        id(registry) for registry in AXES.values()
    }


def _pinned_names(field):
    """The names ``field`` takes in the scenario matrix and at every
    figure point (built, not run); a scheduling row (``point is None``)
    runs its series as policies."""
    specs = list(SCENARIOS)
    values = []
    for figure in FIGURES.values():
        if figure.point is None:
            if field == "policy":
                values += figure.series
        else:
            specs += [
                figure.point(series, x, figure.size)
                for series in figure.series
                for x in figure.xs
            ]
    values += [getattr(spec, field) for spec in specs]
    return {
        value if isinstance(value, str) else type(value).name
        for value in values
        if value is not None
    }


def _unpinned(field):
    return set(AXES[field].names()) - _pinned_names(field)


@pytest.mark.parametrize("field", AXES)
def test_every_registered_name_runs_in_a_pinned_experiment(field):
    """A registered name no scenario entry or figure row runs has no
    number that shows what it is for."""
    unpinned = _unpinned(field)
    assert not unpinned, (
        f"{field}: {sorted(unpinned)} run in no SCENARIOS entry or "
        "FIGURES row"
    )


@pytest.mark.parametrize("field", AXES)
def test_a_name_registered_without_an_experiment_is_caught(field):
    """The pinning check reads the registries live: one more class in
    any of them, run by nothing, is reported by name."""
    registry = AXES[field]
    registry.register(
        type("NeverPinned", (registry.base,), {"name": "never-pinned"})
    )
    try:
        assert _unpinned(field) == {"never-pinned"}
    finally:
        del registry.classes["never-pinned"]
    assert not _unpinned(field)


@per_axis
class TestSharedContract:
    def test_public_verbs_are_the_registry(self, axis):
        module, registry = axis.module, axis.registry
        assert registry.error is axis.error
        assert registry.module == module.__name__
        assert getattr(module, registry.decorator) == registry.register
        assert getattr(module, f"registered_{axis.plural}")() == (
            registry.names()
        )
        assert getattr(module, f"make_{axis.verb}") == registry.make
        assert getattr(module, f"resolve_{axis.verb}") == registry.resolve
        made = getattr(module, f"make_{axis.verb}")(axis.buildable)
        assert type(made) is registry.classes[axis.buildable]
        assert getattr(module, f"resolve_{axis.verb}")(made) is made

    def test_names_list_the_default_first_then_sorted(self, axis):
        registry = axis.registry
        names = registry.names()
        assert len(set(names)) == len(names)
        assert set(names) == set(registry.classes)
        assert names[: len(registry.first)] == registry.first
        rest = names[len(registry.first):]
        assert rest == tuple(sorted(rest))

    def test_unknown_name_lists_registered_names_and_a_near_miss(self, axis):
        registry = axis.registry
        with pytest.raises(axis.error) as excinfo:
            registry.make(axis.typo)
        message = str(excinfo.value)
        assert f"unknown {registry.noun} {axis.typo!r}" in message
        listed = message.split("registered: ")[1].split(";")[0].split(", ")
        assert listed == sorted(registry.classes)
        assert message.endswith(f"did you mean {axis.meant!r}?")
        with pytest.raises(axis.error, match="did you mean"):
            registry.check(axis.typo)

    def test_every_unknown_name_gets_its_own_near_miss(self, axis):
        message = axis.registry.unknown_message(axis.typo, axis.slip)
        assert f"did you mean {axis.meant!r} for {axis.typo!r}?" in message
        assert f"did you mean {axis.slipped!r} for {axis.slip!r}?" in message

    def test_separator_slips_match_exactly(self, axis):
        assert axis.registry.closest(axis.slip) == axis.slipped
        with pytest.raises(
            axis.error, match=f"did you mean '{axis.slipped}'"
        ):
            axis.registry.resolve(axis.slip)

    def test_garbage_gets_no_suggestion(self, axis):
        assert axis.registry.closest("zzzzqqqq") is None
        with pytest.raises(axis.error) as excinfo:
            axis.registry.make("zzzzqqqq")
        assert "did you mean" not in str(excinfo.value)

    def test_duplicate_and_nameless_registration_rejected(self, axis):
        registry = axis.registry
        before = dict(registry.classes)
        with pytest.raises(axis.error, match="registered twice"):
            @registry.register
            class Clash(registry.base):  # pragma: no cover - rejected
                name = axis.buildable
        for bad in ("abstract", ""):
            with pytest.raises(axis.error, match="needs a name"):
                @registry.register
                class Nameless(registry.base):  # pragma: no cover
                    name = bad
        assert registry.classes == before

    def test_resolve_takes_a_name_or_an_instance_only(self, axis):
        registry = axis.registry
        instance = registry.make(axis.buildable)
        assert registry.resolve(instance) is instance
        assert registry.resolve(axis.buildable).name == axis.buildable
        registry.check(instance)
        expected = f"must be a name or {registry.base.__name__}, got int"
        with pytest.raises(axis.error, match=expected):
            registry.resolve(42)
        with pytest.raises(axis.error, match=expected):
            registry.check(42)

    def test_bad_constructor_kwargs_name_the_entry(self, axis):
        # policy used to leak a raw TypeError here; all six now agree
        with pytest.raises(axis.error) as excinfo:
            getattr(axis.module, f"make_{axis.verb}")(
                axis.buildable, definitely_not_a_knob=1
            )
        assert (
            f"bad parameters for {axis.registry.noun} {axis.buildable!r}"
            in str(excinfo.value)
        )


@per_axis
def test_resolve_never_drops_keywords(axis):
    """``resolve_*(instance, **params)`` used to return the instance and
    discard ``params``; an instance carries its own parameters, so the
    generic resolve takes none."""
    resolve = getattr(axis.module, f"resolve_{axis.verb}")
    instance = axis.registry.make(axis.buildable)
    with pytest.raises(TypeError):
        resolve(instance, rate_rps=5.0)
    with pytest.raises(TypeError):
        resolve(axis.buildable, rate_rps=5.0)


def test_resolve_policy_keeps_its_timeslice():
    """The quantum is the policy's: a name gets the 50 µs default, and
    an instance keeps the one it was built with."""
    assert policy.resolve_policy("cooperative").timeslice_us == 50.0
    ready = policy.CooperativePolicy(timeslice_us=25.0)
    assert policy.resolve_policy(ready) is ready
    assert ready.timeslice_us == 25.0


@pytest.mark.parametrize(
    "field, typo, meant",
    [
        ("policy", "roud_robin", "round_robin"),
        ("allocator", "qeue-depth", "queue-depth"),
    ],
)
def test_runtime_config_fields_all_give_the_near_miss(field, typo, meant):
    # policy= used to list the names without the hint
    with pytest.raises(ValueError) as excinfo:
        RuntimeConfig(**{field: typo})
    assert f"unknown {AXES[field].noun} {typo!r}" in str(excinfo.value)
    assert f"did you mean {meant!r}?" in str(excinfo.value)
    with pytest.raises(ValueError, match="must be a name or"):
        RuntimeConfig(**{field: 42})


class TestSharedHelpers:
    def test_one_unknown_name(self):
        message = did_you_mean(
            "scenario", ["alhpa"], ["beta", "alpha"], listed="known"
        )
        assert message == (
            "unknown scenario 'alhpa'; known: beta, alpha; "
            "did you mean 'alpha'?"
        )

    def test_several_unknown_names_pluralise_and_hint_each(self):
        message = did_you_mean(
            "scheduling policy", ["dead-line", "zzzzqqqq", "btach"],
            ["batch", "deadline"],
        )
        assert message == (
            "unknown scheduling policies 'dead-line', 'zzzzqqqq', 'btach'; "
            "registered: batch, deadline; did you mean 'deadline' for "
            "'dead-line'? did you mean 'batch' for 'btach'?"
        )


class TestNewAxisValueTouchesOneFile:
    """Registering one class is the whole job: listing, near-miss
    errors, ``RuntimeConfig`` and scenario validation and the generated
    doc all pick it up with no other edit."""

    @pytest.fixture
    def throwaway(self):
        registry = allocator.ALLOCATORS

        @allocator.register_allocator
        class ThrowAway(allocator.AllocationPolicy):
            """A throwaway allocator that only exists in this test."""

            name = "throw-away"

            def __init__(self, spare: int = 3):
                super().__init__()
                self.spare = spare

        try:
            yield ThrowAway
        finally:
            del registry.classes["throw-away"]

    def test_every_consumer_sees_it(self, throwaway):
        assert "throw-away" in allocator.registered_allocators()
        assert isinstance(allocator.make_allocator("throw-away"), throwaway)
        with pytest.raises(RuntimeFlickError, match="throw-away"):
            allocator.make_allocator("throw_away")
        with pytest.raises(RuntimeFlickError, match="bad parameters"):
            allocator.make_allocator("throw-away", spares=1)
        assert RuntimeConfig(allocator="throw-away").allocator == "throw-away"
        Scenario(
            name="x", app="http_lb", arrival=None, allocator="throw-away"
        ).check()
        assert (
            "| `throw-away` | `ThrowAway` | `spare=3` | A throwaway "
            "allocator that only exists in this test. |"
        ) in render_markdown()

    def test_and_it_is_gone_afterwards(self):
        assert "throw-away" not in allocator.registered_allocators()
        assert "throw-away" not in render_markdown()
