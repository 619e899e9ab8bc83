"""Seeded inputs: the training corpus, the warm-up clip and the traffic pool.

The mix is fixed and recorded in ``BENCHMARK.json``; only the content of
each slot varies with ``--seed``:

* training — one 45-frame clip from a constant seed, so every run serves
  the same model and seed-to-seed spread comes from traffic alone;
* warm-up — the first frames of the training clip (cheap, and it runs
  the whole request path once before timing starts);
* traffic — a pool of four 45-frame 240x320 clips, slot ``i`` using
  choreography variant ``i`` (mod the variant count): two clean, one whose subject commits a
  standard-violation fault, and one with broken frames spliced in
  (background-only, saturated, lower half occluded) so the §2/§3 error
  paths and empty candidate sets are exercised.  Requests walk the pool
  in order, so a run that outlasts the pool repeats clips; the share of
  repeated requests is reported as ``gen.repeat_share``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.synth.dataset import JumpClip, make_clip
from repro.synth.motion import num_script_variants
from repro.synth.variation import Fault

FRAMES = 45
TRAIN_SEED = 2008
WARMUP_FRAMES = 6
POOL_SLOTS = ("clean", "fault", "broken", "clean")
#: Frames replaced in the broken slot, by kind.
BROKEN_FRAMES = {"background": 2, "saturated": 1, "occluded": 2}


def training_clips() -> "list[JumpClip]":
    """The fixed training corpus (identical in every run)."""
    return [make_clip("train-00", seed=TRAIN_SEED, variant=0, target_frames=FRAMES)]


def warmup_clip(training: "list[JumpClip]") -> JumpClip:
    """The first :data:`WARMUP_FRAMES` frames of the first training clip."""
    clip = training[0]
    n = WARMUP_FRAMES
    return dataclasses.replace(
        clip,
        clip_id="warmup",
        frames=clip.frames[:n],
        silhouettes=clip.silhouettes[:n],
        labels=clip.labels[:n],
        stages=clip.stages[:n],
        joints=clip.joints[:n],
        motion=clip.motion[:n],
    )


def splice_broken_frames(clip: JumpClip, rng: np.random.Generator) -> JumpClip:
    """Replace a few seeded frame positions by broken frames."""
    frames = list(clip.frames)
    kinds = [kind for kind, count in BROKEN_FRAMES.items() for _ in range(count)]
    positions = rng.choice(len(frames), size=len(kinds), replace=False)
    half = clip.background.shape[0] // 2
    for position, kind in zip(positions, kinds):
        if kind == "background":
            frame = clip.background.copy()
        elif kind == "saturated":
            frame = np.full_like(clip.background, 255)
        else:
            frame = frames[position].copy()
            frame[half:] = clip.background[half:]
        frames[position] = frame
    return dataclasses.replace(clip, frames=tuple(frames))


def pool_clip(seed: int, slot: int) -> JumpClip:
    """Traffic clip ``slot`` of :data:`POOL_SLOTS` for ``seed``."""
    rng = np.random.default_rng([seed, 45, slot])
    kind = POOL_SLOTS[slot]
    faults = list(Fault)
    fault = (faults[int(rng.integers(len(faults)))],) if kind == "fault" else ()
    clip = make_clip(
        f"s{seed}-{slot}-{kind}",
        seed=int(rng.integers(2**31)),
        variant=slot % num_script_variants(),
        target_frames=FRAMES,
        faults=fault,
    )
    if kind == "broken":
        clip = splice_broken_frames(clip, rng)
    return clip
