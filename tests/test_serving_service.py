"""The long-lived serving layer: ordering, stats, worker pools."""

from __future__ import annotations

import pytest

from repro.core.dbnclassifier import ClassifierConfig
from repro.errors import ConfigurationError, DatasetError, ModelError
from repro.serving.service import JumpPoseService, ServiceStats
from repro.synth.io import save_clip


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, analyzer):
    path = tmp_path_factory.mktemp("service") / "model.npz"
    return analyzer.save(path)


@pytest.fixture(scope="module")
def clips_dir(tmp_path_factory, dataset):
    directory = tmp_path_factory.mktemp("service-clips")
    for clip in dataset.test:
        save_clip(clip, directory / f"{clip.clip_id}.npz")
    return directory


def test_service_validates_configuration(artifact, tmp_path):
    with pytest.raises(ConfigurationError):
        JumpPoseService(artifact, jobs=0)
    with pytest.raises(ConfigurationError):
        JumpPoseService(artifact, batch_size=0)
    with pytest.raises(ConfigurationError):
        JumpPoseService(artifact, decode="magic")
    with pytest.raises(ModelError):
        JumpPoseService(tmp_path / "missing.npz")  # checked eagerly


def test_service_requires_start(artifact, dataset):
    service = JumpPoseService(artifact)
    with pytest.raises(ModelError, match="not running"):
        service.analyze_clips(dataset.test)


def test_in_process_service_matches_direct_analysis(
    artifact, analyzer, dataset
):
    with JumpPoseService(artifact, jobs=1) as service:
        served = service.analyze_clips(dataset.test)
    direct = [analyzer.analyze_clip(clip) for clip in dataset.test]
    assert served == direct


def test_service_paths_load_worker_side(artifact, analyzer, clips_dir, dataset):
    with JumpPoseService(artifact, jobs=1, batch_size=2) as service:
        served = service.analyze_directory(clips_dir)
    expected_order = sorted(clip.clip_id for clip in dataset.test)
    assert [result.clip_id for result in served] == expected_order
    by_id = {clip.clip_id: clip for clip in dataset.test}
    for result in served:
        assert result == analyzer.analyze_clip(by_id[result.clip_id])
    assert "load" in service.stats.profile.stages


def test_service_accumulates_stats(artifact, dataset):
    with JumpPoseService(artifact) as service:
        service.analyze_clips(dataset.test)
        stats = service.stats
    assert stats.clips == len(dataset.test)
    assert stats.frames == sum(len(clip) for clip in dataset.test)
    assert stats.wall_s > 0
    assert len(stats.latencies_s) == stats.clips
    assert stats.clip_throughput > 0
    assert stats.frame_throughput > stats.clip_throughput
    for stage in ("frontend", "decode"):
        assert stats.profile.stages[stage].calls == stats.clips
    payload = stats.as_dict()
    assert payload["latency_p95_s"] >= payload["latency_p50_s"] >= 0
    rendered = stats.render()
    assert "throughput" in rendered and "latency" in rendered


def test_service_decode_override(artifact, analyzer, dataset):
    clip = dataset.test[0]
    with JumpPoseService(artifact, decode="greedy") as service:
        served = service.analyze_clips([clip])
    greedy = analyzer.with_classifier(ClassifierConfig(decode="greedy"))
    assert served == [greedy.analyze_clip(clip)]


def test_empty_request_list_is_noop(artifact):
    with JumpPoseService(artifact) as service:
        assert service.analyze_clips([]) == []
    assert service.stats.clips == 0


def test_empty_directory_rejected(artifact, tmp_path):
    with JumpPoseService(artifact) as service:
        with pytest.raises(ConfigurationError, match="no .npz clips"):
            service.analyze_directory(tmp_path)


@pytest.mark.slow
def test_pooled_service_matches_in_process(artifact, clips_dir, dataset):
    """Two workers, batch size 1: same results, same deterministic order."""
    with JumpPoseService(artifact, jobs=2, batch_size=1) as pooled:
        pooled_results = pooled.analyze_directory(clips_dir)
    with JumpPoseService(artifact, jobs=1) as inline:
        inline_results = inline.analyze_directory(clips_dir)
    assert pooled_results == inline_results
    assert pooled.stats.clips == len(dataset.test)
    assert "decode" in pooled.stats.profile.stages


def test_close_after_failed_request_always_joins(artifact, dataset):
    """Regression: a raising request must not leave the service running.

    ``close()`` (here via ``__exit__`` on the exception path) has to
    tear the worker state down completely and stay idempotent, and the
    service must be restartable afterwards.
    """
    service = JumpPoseService(artifact)
    with pytest.raises(DatasetError):
        with service:
            service.analyze_paths(["definitely-not-a-clip.npz"])
    assert not service.is_running
    service.close()  # second close is a no-op, not an error
    # the same instance restarts cleanly after the failure
    with service:
        results = service.analyze_clips([dataset.test[0]])
    assert len(results) == 1
    assert not service.is_running


@pytest.mark.slow
def test_pooled_close_after_worker_exception_joins_pool(artifact):
    """A worker-side exception must not leak the multiprocessing pool."""
    service = JumpPoseService(artifact, jobs=2, batch_size=1)
    with pytest.raises(DatasetError):
        with service:
            service.analyze_paths(["gone-a.npz", "gone-b.npz"])
    assert not service.is_running
    assert service._pool is None  # joined and dropped, not leaked
    service.close()


def test_service_stats_empty_quantiles():
    stats = ServiceStats()
    assert stats.latency_mean_s == 0.0
    assert stats.latency_quantile(0.95) == 0.0
    assert stats.clip_throughput == 0.0


def test_latency_history_is_bounded():
    """A long-lived server must not hoard one float per clip forever."""
    from repro.serving.service import LATENCY_WINDOW

    stats = ServiceStats()
    for index in range(LATENCY_WINDOW + 500):
        stats.latencies_s.append(float(index))
    assert len(stats.latencies_s) == LATENCY_WINDOW
    # the window keeps the most recent latencies
    assert stats.latencies_s[0] == 500.0
    assert stats.latency_quantile(1.0) == float(LATENCY_WINDOW + 499)
