"""Shared fixtures: expensive synthetic signals built once per session."""
import os

import numpy as np
import pytest
from hypothesis import settings
from scipy.interpolate import PchipInterpolator
from scipy.signal import lfilter

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


def stacked_cascade(gain, ar, ma, frame_shift=0.005, sample_rate=FS):
    """The cascade of gains (L,), AR (L, r, p) and MA (L, r, q) on a grid of
    consecutive frame centers."""
    grid = FrameGrid(np.arange(len(gain)) * frame_shift, frame_shift, 0.010)
    return ArmaCascade(grid, gain, ar, ma, sample_rate)


def cascade_of(frames, frame_shift=0.005, sample_rate=FS):
    """The cascade of frames whose sections all have the same shapes."""
    return stacked_cascade([fr.gain for fr in frames],
                           [[s.ar for s in fr.sections] for fr in frames],
                           [[s.ma for s in fr.sections] for fr in frames],
                           frame_shift, sample_rate)


def filter_time_domain(gain, ar, ma, x):
    """The lfilter oracle of one cascade row: x through each section's
    difference equation in index order, with zero initial state, then the
    gain. ar is (r, p) and ma (r, q), leading 1s implied."""
    y = np.asarray(x, dtype=np.float64)
    for a, b in zip(ar, ma):
        y = lfilter(np.concatenate(([1.0], b)), np.concatenate(([1.0], a)), y)
    return gain * y


def frame_at(cascade, l):
    """Frame l of a cascade, for the one-frame oracles."""
    return CascadeFrame(cascade.gain[l], [ArmaSection(a, b)
                                          for a, b in zip(cascade.ar[l], cascade.ma[l])])


def pchip_per_column(knot_times, knot_values, query_times):
    """The per-column phase oracle of rendering: one PCHIP interpolator over
    one column's knots, evaluated at queries held to the knot span."""
    t = np.asarray(knot_times, dtype=np.float64)
    q = np.clip(np.asarray(query_times, dtype=np.float64), t[0], t[-1])
    return PchipInterpolator(t, knot_values)(q)
