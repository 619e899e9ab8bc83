"""The serving surface is a written contract: no public symbol undocumented.

``repro.serving`` is the layer other processes build against (artifacts,
streaming, the service, both network fronts, both clients), and
``repro.obs`` is the telemetry vocabulary operators build dashboards
against — so both public surfaces must carry docstrings.  This suite
walks every module in the audited packages and fails on any public
module, class, function, method, or property without one.  A handful of
cross-package entry points named by the serving docs
(``JumpPoseAnalyzer.save/load/stream/analyze_clips``) are pinned
explicitly too.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import repro.obs
import repro.serving
from repro.core.pipeline import JumpPoseAnalyzer


def _serving_modules():
    """Every module in the audited packages (serving + obs), imported."""
    modules = []
    for package in (repro.serving, repro.obs):
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__):
            modules.append(
                importlib.import_module(f"{package.__name__}.{info.name}")
            )
    return modules


def _has_doc(obj) -> bool:
    doc = inspect.getdoc(obj)
    return bool(doc and doc.strip())


def _class_members(cls):
    """Public methods/properties defined on ``cls`` itself (not inherited)."""
    for name, member in vars(cls).items():
        if name.startswith("_"):
            continue
        if isinstance(member, property):
            yield name, member
        elif isinstance(member, (staticmethod, classmethod)):
            yield name, member.__func__
        elif inspect.isfunction(member):
            yield name, member


def _undocumented_in(module) -> "list[str]":
    missing = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are checked where they are defined
        if inspect.isclass(obj):
            if not _has_doc(obj):
                missing.append(f"{module.__name__}.{name}")
            for member_name, member in _class_members(obj):
                if not _has_doc(member):
                    missing.append(f"{module.__name__}.{name}.{member_name}")
        elif inspect.isfunction(obj):
            if not _has_doc(obj):
                missing.append(f"{module.__name__}.{name}")
    return missing


def test_every_serving_module_has_a_docstring():
    for module in _serving_modules():
        assert _has_doc(module), f"{module.__name__} has no module docstring"


def test_no_public_serving_symbol_is_undocumented():
    missing: "list[str]" = []
    for module in _serving_modules():
        missing.extend(_undocumented_in(module))
    assert not missing, (
        "public serving symbols without docstrings:\n  "
        + "\n  ".join(sorted(missing))
    )


def test_analyzer_serving_entry_points_are_documented():
    """The cross-package surface the serving docs lean on."""
    for name in ("save", "load", "stream", "analyze_clips", "analyze_clip"):
        member = inspect.getattr_static(JumpPoseAnalyzer, name)
        if isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        doc = inspect.getdoc(member)
        assert doc and doc.strip(), f"JumpPoseAnalyzer.{name} is undocumented"


def test_docstrings_of_named_apis_state_their_raises():
    """The audited entry points document failure modes, not just intent."""
    assert "ModelError" in inspect.getdoc(JumpPoseAnalyzer.load)
    assert "ModelError" in inspect.getdoc(JumpPoseAnalyzer.save)
    from repro.serving.client import HttpJumpPoseClient, JumpPoseClient

    for client in (JumpPoseClient, HttpJumpPoseClient):
        assert "RemoteError" in inspect.getdoc(client.analyze_clips)
        assert "TransportError" in inspect.getdoc(client.connect)


def test_scaleout_apis_state_their_contracts():
    """The scale-out surface: router, fleet, pipelining, streaming — every
    entry point documents its failure modes and its ordering/identity
    guarantees."""
    from repro.serving.client import JumpPoseClient, RoutingClient
    from repro.serving.service import JumpPoseService, merge_service_stats
    from repro.serving.supervisor import ReplicaSupervisor, rollup_health

    routed = inspect.getdoc(RoutingClient.analyze_clips)
    assert "RemoteError" in routed and "TransportError" in routed
    assert "input order" in routed  # the deterministic-merge guarantee
    assert "failover" in inspect.getdoc(RoutingClient).lower()

    piped = inspect.getdoc(JumpPoseClient.analyze_clips_pipelined)
    assert "RemoteError" in piped and "TransportError" in piped
    assert "completion order" in piped

    streamed = inspect.getdoc(JumpPoseClient.stream_analyze)
    assert "RemoteError" in streamed and "TransportError" in streamed
    assert "ClipResult" in streamed

    assert "ConfigurationError" in inspect.getdoc(ReplicaSupervisor)
    assert "degraded" in inspect.getdoc(rollup_health)
    assert "quantile" in inspect.getdoc(merge_service_stats).lower()
    assert "ModelError" in inspect.getdoc(JumpPoseService.stream_clip)
