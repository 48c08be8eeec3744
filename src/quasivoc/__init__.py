"""Quasi-harmonic vocoder with cascaded ARMA spectral envelopes."""

from .signals import (FrameGrid, QuasivocError, SignalBuffer, cubic_interp, linear_interp,
                      make_grid, make_window, read_wav, write_wav)
from .qhm import (F0Track, HarmonicSet, QhmFrameParams, analyze_qhm, detect_f0,
                  framewise_amp_phase, frequency_correction, harmonic_grid,
                  integrate_phase, qhm_ls_fit, refine_adaptive, refine_f0)
from .arma import (ArmaCascade, correction_capacity, fit_cascade, fit_targets,
                   sample_cascade)
from .synth import (compensated_phase, delayed_phase, excitation_phase, render,
                    synthesize_arma, synthesize_qhm)
from .modify import ScaleSchedule, modified_tracks, modify, scaled_times
from .metrics import (MetricReport, f0_rmse, mcd, mel_cepstrum, rtf, snr,
                      vuv_rate)

__version__ = "0.1.0"
