"""Shared fixtures: expensive synthetic signals built once per session."""
import os

import numpy as np
import pytest
from hypothesis import settings

from quasivoc import fixtures
from quasivoc.arma import ArmaCascade, ArmaSection, CascadeFrame, project_stable
from quasivoc.signals import FrameGrid

FS = 24000

# CI selects HYPOTHESIS_PROFILE=ci: the same examples on every run, no deadline
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(scope="session")
def vowel_data():
    """1-second synthetic vowel with its exact generator cascade/track."""
    buf, sidecar, cascade, track = fixtures.vowel(150.0, 1.0, FS)
    return buf, sidecar, cascade, track


@pytest.fixture(scope="session")
def multisine_data():
    buf, sidecar = fixtures.multisine(200.0, 10, 1.0, FS, seed=3)
    return buf, sidecar


def random_stable_frame(rng, n_sections=2, p_sec=8, q_sec=8, radius=0.9,
                        coeff_range=0.3):
    """A random stable cascade frame for response/fit tests."""
    secs = [ArmaSection(project_stable(rng.uniform(-coeff_range, coeff_range, p_sec),
                                       radius=radius),
                        rng.uniform(-coeff_range, coeff_range, q_sec))
            for _ in range(n_sections)]
    return CascadeFrame(float(np.exp(rng.uniform(-1, 1))), secs)


def cascade_of(frames, frame_shift=0.005, sample_rate=FS):
    """The cascade of frames whose sections all have the same shapes, on a
    grid of consecutive frame centers."""
    grid = FrameGrid(np.arange(len(frames)) * frame_shift, frame_shift, 0.010)
    return ArmaCascade(grid, [fr.gain for fr in frames],
                       [[s.ar for s in fr.sections] for fr in frames],
                       [[s.ma for s in fr.sections] for fr in frames], sample_rate)


def frame_at(cascade, l):
    """Frame l of a cascade, for the one-frame oracles."""
    return CascadeFrame(cascade.gain[l], [ArmaSection(a, b)
                                          for a, b in zip(cascade.ar[l], cascade.ma[l])])
