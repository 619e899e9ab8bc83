"""The Fig 7(a) observation model: likelihoods and occupancy DP."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.posebank import PoseObservationModel
from repro.core.poses import NUM_POSES, Pose
from repro.errors import ConfigurationError, LearningError, ModelError
from repro.features.encoding import FeatureVector
from repro.features.keypoints import PART_ORDER, BodyPart


def _feature(code, n_areas=8):
    return FeatureVector(
        areas=dict(zip(PART_ORDER, code)), n_areas=n_areas
    )


def _toy_samples():
    """Two poses with crisp, distinct feature codes."""
    samples = []
    for _ in range(10):
        samples.append((Pose.STANDING_HANDS_OVERLAP, _feature((2, 2, None, 6, 6))))
        samples.append((Pose.STANDING_HANDS_SWUNG_UP, _feature((2, 2, 2, 6, 6))))
    return samples


def test_configuration_validation():
    with pytest.raises(ConfigurationError):
        PoseObservationModel(n_areas=1)
    with pytest.raises(ConfigurationError):
        PoseObservationModel(leak=1.5)
    with pytest.raises(ConfigurationError):
        PoseObservationModel(alpha=-0.1)


def test_fit_required_before_use():
    model = PoseObservationModel()
    with pytest.raises(ModelError):
        model.part_likelihood(_feature((2, 2, None, 6, 6)), Pose(0))
    with pytest.raises(LearningError):
        model.fit([])


def test_fit_learns_distinct_codes():
    model = PoseObservationModel(alpha=0.1).fit(_toy_samples())
    overlap_feature = _feature((2, 2, None, 6, 6))
    up_feature = _feature((2, 2, 2, 6, 6))
    assert model.part_likelihood(overlap_feature, Pose.STANDING_HANDS_OVERLAP) > \
        model.part_likelihood(overlap_feature, Pose.STANDING_HANDS_SWUNG_UP)
    assert model.part_likelihood(up_feature, Pose.STANDING_HANDS_SWUNG_UP) > \
        model.part_likelihood(up_feature, Pose.STANDING_HANDS_OVERLAP)


def test_vectorised_likelihood_matches_scalar():
    model = PoseObservationModel().fit(_toy_samples())
    feature = _feature((2, 2, None, 6, 6))
    vector = model.part_likelihood_vector(feature)
    assert vector.shape == (NUM_POSES,)
    for pose in (Pose.STANDING_HANDS_OVERLAP, Pose.AIRBORNE_PIKE):
        assert vector[pose] == pytest.approx(model.part_likelihood(feature, pose))


def test_location_distribution_sums_to_one():
    model = PoseObservationModel().fit(_toy_samples())
    for part in PART_ORDER:
        dist = model.location_distribution(Pose.STANDING_HANDS_OVERLAP, part)
        assert dist.sum() == pytest.approx(1.0)
        assert dist.shape == (9,)


def test_feature_area_count_mismatch_rejected():
    model = PoseObservationModel(n_areas=8).fit(_toy_samples())
    with pytest.raises(ModelError):
        model.part_likelihood(_feature((1, 1, 1, 1, 1), n_areas=4), Pose(0))
    with pytest.raises(LearningError):
        PoseObservationModel(n_areas=4).fit(_toy_samples())


def _brute_force_occupancy(model, occupied, pose):
    """Enumerate all 9^5 part placements and the per-area noise channel."""
    probs = [
        model.location_distribution(pose, part) for part in PART_ORDER
    ]
    n = model.n_areas
    total = 0.0
    for placement in itertools.product(range(n + 1), repeat=len(PART_ORDER)):
        weight = 1.0
        for part_index, slot in enumerate(placement):
            weight *= probs[part_index][slot]
        covered = {slot for slot in placement if slot < n}
        emission = 1.0
        for area in range(n):
            if area in covered:
                emission *= (1 - model.miss) if area in occupied else model.miss
            else:
                emission *= model.leak if area in occupied else (1 - model.leak)
        total += weight * emission
    return total


@pytest.mark.parametrize("occupied", [
    frozenset(), frozenset({2}), frozenset({2, 6}), frozenset({0, 2, 6, 7}),
])
def test_occupancy_dp_matches_brute_force(occupied):
    model = PoseObservationModel(n_areas=8, leak=0.05, miss=0.1).fit(_toy_samples())
    pose = Pose.STANDING_HANDS_OVERLAP
    fast = model.occupancy_likelihood(occupied, pose)
    slow = _brute_force_occupancy(model, occupied, pose)
    assert fast == pytest.approx(slow, rel=1e-9)


def test_occupancy_distribution_sums_to_one():
    model = PoseObservationModel(n_areas=8).fit(_toy_samples())
    total = sum(
        model.occupancy_likelihood(
            frozenset(i for i in range(8) if mask & (1 << i)),
            Pose.STANDING_HANDS_OVERLAP,
        )
        for mask in range(256)
    )
    assert total == pytest.approx(1.0, rel=1e-9)


def test_occupancy_rejects_bad_area():
    model = PoseObservationModel().fit(_toy_samples())
    with pytest.raises(ModelError):
        model.occupancy_likelihood(frozenset({99}), Pose(0))


def test_build_pose_network_structure():
    """Fig 7(a): 1 root + 5 hidden parts + 8 observed areas."""
    model = PoseObservationModel().fit(_toy_samples())
    network = model.build_pose_network(Pose.STANDING_HANDS_SWUNG_FORWARD)
    assert len(network.nodes) == 1 + 5 + 8
    assert network.parents("Head") == ["Pose"]
    area_parents = set(network.parents("Area1"))
    assert area_parents == {p.value for p in PART_ORDER}


def test_pose_network_inference_prefers_trained_pose():
    """Observing the trained pose's areas raises P(Pose = yes)."""
    from repro.bayes.elimination import VariableElimination

    model = PoseObservationModel(n_areas=4, alpha=0.1).fit(
        [(Pose.STANDING_HANDS_OVERLAP, _feature((2, 2, None, 1, 1), n_areas=4))] * 8
    )
    network = model.build_pose_network(Pose.STANDING_HANDS_OVERLAP)
    ve = VariableElimination(network)
    evidence = {"Area3": "yes", "Area2": "yes", "Area1": "no", "Area4": "no"}
    posterior = ve.query("Pose", evidence)
    assert posterior.values[1] > 0.5


def test_occupancy_likelihood_equals_exact_ve_on_pose_network():
    """Differential oracle: the classifier's closed-form occupancy
    likelihood is exact variable elimination on the Fig 7(a) network,
    ``P(Pose = yes, areas) / P(Pose = yes)`` with the 0.5 root prior."""
    from repro.bayes.elimination import VariableElimination

    codes = {
        Pose.STANDING_HANDS_OVERLAP: [(2, 2, None, 1, 1), (2, 3, None, 1, 0)],
        Pose.STANDING_HANDS_SWUNG_UP: [(2, 2, 2, 1, 1), (3, 2, 2, 0, 1)],
        Pose.STANDING_HANDS_SWUNG_FORWARD: [(2, 1, 1, 1, 1), (None, 1, 0, 1, 1)],
    }
    samples = [
        (pose, _feature(code, n_areas=4))
        for pose, pose_codes in codes.items()
        for code in pose_codes
    ]
    model = PoseObservationModel(n_areas=4).fit(samples)
    unseen = next(pose for pose in Pose if pose not in codes)
    for pose in list(codes) + [unseen]:
        ve = VariableElimination(model.build_pose_network(pose))
        for bits in itertools.product(("no", "yes"), repeat=4):
            evidence = {"Pose": "yes"}
            evidence.update({f"Area{k + 1}": bit for k, bit in enumerate(bits)})
            occupied = frozenset(k for k, bit in enumerate(bits) if bit == "yes")
            assert ve.evidence_probability(evidence) / 0.5 == pytest.approx(
                model.occupancy_likelihood(occupied, pose), rel=1e-12
            )
