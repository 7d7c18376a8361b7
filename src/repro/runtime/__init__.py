"""The FLICK platform runtime: tasks, channels, scheduler, dispatchers."""

from repro.runtime.channel import EOS, TaskChannel
from repro.runtime.costs import OP_US, RuntimeConfig, ops_to_us
from repro.runtime.dispatcher import DispatcherTask, GraphDispatcher
from repro.runtime.graph import Bindings, CodecRegistry, OutboundTarget, TaskGraph
from repro.runtime.platform import FlickPlatform, ProgramInstance
from repro.runtime.policy import (
    PAPER_POLICIES,
    SchedulingPolicy,
    make_policy,
    register_policy,
    registered_policies,
    resolve_policy,
)
from repro.runtime.qos import (
    ServiceClass,
    ServiceClassMap,
    parse_slo_class,
    parse_slo_class_specs,
)
from repro.runtime.scheduler import Scheduler, TaskBase
from repro.runtime.task import ComputeTask, InputTask, MergeTask, OutputTask

__all__ = [
    "EOS",
    "TaskChannel",
    "OP_US",
    "RuntimeConfig",
    "ops_to_us",
    "DispatcherTask",
    "GraphDispatcher",
    "Bindings",
    "CodecRegistry",
    "OutboundTarget",
    "TaskGraph",
    "FlickPlatform",
    "ProgramInstance",
    "PAPER_POLICIES",
    "SchedulingPolicy",
    "make_policy",
    "register_policy",
    "registered_policies",
    "resolve_policy",
    "ServiceClass",
    "ServiceClassMap",
    "parse_slo_class",
    "parse_slo_class_specs",
    "Scheduler",
    "TaskBase",
    "ComputeTask",
    "InputTask",
    "MergeTask",
    "OutputTask",
]
