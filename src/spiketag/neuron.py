"""Binary and ternary current-based leaky integrate-and-fire dynamics.

One step of the update/fire/reset cycle:

    isc_t = w_scd * isc_{t-1} + drive_t
    v_t   = w_vd * v_{t-1} * (1 - |spk_{t-1}|) + isc_t
    spk_t = fire(v_t)

The reset is realized at the *next* step through the (1 - |spk|) factor,
so the stored membrane potential is the pre-reset value. Binary mode fires
{0,1} at v >= v_thr; ternary mode fires {-1,0,+1} at +/-v_thr.

A soft-spike variant replaces the hard firing rule with a scaled-arctangent
sigmoid whose exact derivative equals the surrogate gradient, making the
whole forward pass differentiable for finite-difference validation.
"""

import math
from dataclasses import dataclass

import numpy as np

BINARY = "binary"
TERNARY = "ternary"
SPIKE_MODES = (BINARY, TERNARY)

CENTER_ZERO = "zero"
CENTER_THRESHOLD = "threshold"
CENTERINGS = (CENTER_ZERO, CENTER_THRESHOLD)


@dataclass
class NeuronState:
    """Per-layer (spikes, synaptic current, membrane potential).

    Holds one timestep's arrays inside lif_step. For a layer's whole run
    (layers._lif_scan) spk is the (T, ...) spike block and isc and v are
    tuples of the T per-step arrays.
    """

    spk: np.ndarray
    isc: np.ndarray
    v: np.ndarray

    @classmethod
    def zeros(cls, shape, dtype=np.float32):
        return cls(
            spk=np.zeros(shape, dtype=dtype),
            isc=np.zeros(shape, dtype=dtype),
            v=np.zeros(shape, dtype=dtype),
        )


def ternary_threshold(v, v_thr, out):
    """Write +1 where v >= v_thr, -1 where v <= -v_thr, else 0, into out; returns out."""
    return np.subtract(v >= v_thr, v <= -v_thr, dtype=out.dtype, out=out)


def surrogate_grad(v, alpha):
    """Arctangent pseudo-gradient: alpha/2 / (1 + (pi/2 * alpha * v)^2).

    Even in v, maximum alpha/2 at v=0; the derivative of atan_sigmoid.
    """
    z = (math.pi / 2.0) * alpha * np.asarray(v)
    return (alpha / 2.0) / (1.0 + z * z)


def atan_sigmoid(v, alpha):
    """(1/pi) * arctan(pi/2 * alpha * v) + 1/2; spans (0, 1), derivative surrogate_grad."""
    return np.arctan((math.pi / 2.0) * alpha * np.asarray(v)) / math.pi + 0.5


def soft_spike(v, cfg):
    """Differentiable stand-in for the firing rule.

    Chosen so that d(soft_spike)/dv equals the surrogate gradient that cfg's
    spike_mode and surrogate_centering select; binary variants span (0,1),
    ternary variants are odd.
    """
    alpha, v_thr = cfg.alpha, cfg.v_thr
    if cfg.spike_mode == BINARY:
        if cfg.surrogate_centering == CENTER_ZERO:
            return atan_sigmoid(v, alpha)
        return atan_sigmoid(np.asarray(v) - v_thr, alpha)
    if cfg.surrogate_centering == CENTER_ZERO:
        return atan_sigmoid(v, alpha) - 0.5
    v = np.asarray(v)
    return atan_sigmoid(v - v_thr, alpha) - atan_sigmoid(-v - v_thr, alpha)


def spike_grad(v, cfg):
    """Surrogate d(spk)/dv used in the backward pass, at cfg's alpha and v_thr.

    Zero centering is one bump at 0, in either mode. Threshold centering is a
    bump at +v_thr, plus one at -v_thr in ternary mode; the threshold-centered
    ternary form is this package's own construction.
    """
    alpha = cfg.alpha
    if cfg.surrogate_centering == CENTER_ZERO:
        return surrogate_grad(v, alpha)
    v = np.asarray(v)
    above = surrogate_grad(v - cfg.v_thr, alpha)
    if cfg.spike_mode == BINARY:
        return above
    return above + surrogate_grad(v + cfg.v_thr, alpha)


def lif_step(prev, drive, params, cfg, soft=False, *, out):
    """One update/fire/reset cycle under cfg (a layers.NetworkConfig).

    params is the layer's LayerParams; the step reads its decay weights w_scd
    and w_vd. drive is the already-weighted postsynaptic drive, state-shaped.
    The step fires in cfg.spike_mode where v >= cfg.v_thr (and, in ternary
    mode, -1 where v <= -cfg.v_thr), comparing in v's dtype; soft spikes use
    cfg.alpha and cfg.surrogate_centering.
    Returns (spikes, next_state); next_state stores the pre-reset membrane
    potential, the reset taking effect at the following step via (1 - |spk|).

    out is the NeuronState the step writes: its spk, isc and v arrays receive
    the spikes, current and potential, and it is returned as next_state. Its
    isc and v may be prev's own (an update in place); its spk is scratch
    until the spikes are made, so it must not be prev.v or prev.isc.
    """
    isc = np.multiply(params.w_scd, prev.isc, out=out.isc)
    isc += drive
    keep = np.abs(prev.spk, out=out.spk)
    np.subtract(1.0, keep, out=keep)
    v = np.multiply(params.w_vd, prev.v, out=out.v)
    v *= keep
    v += isc
    if soft:
        out.spk[...] = soft_spike(v, cfg)
    elif cfg.spike_mode == TERNARY:
        ternary_threshold(v, cfg.v_thr, out=out.spk)
    else:
        np.greater_equal(v, cfg.v_thr, out=out.spk)
    return out.spk, out
