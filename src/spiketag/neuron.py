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

from .errors import DimensionError

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


@dataclass
class NeuronParams:
    """Trainable neuron parameters for one layer.

    w_scd/w_vd are per-channel decay weights (broadcast over batch and
    sequence); w_fv_pos/w_fv_neg are the scalar postsynaptic weights applied
    by the *caller* when forming the drive (binary mode ignores w_fv_neg).
    Decay weights are unconstrained reals; the reset potential is fixed at zero.
    """

    w_scd: np.ndarray
    w_vd: np.ndarray
    w_fv_pos: np.ndarray | None = None
    w_fv_neg: np.ndarray | None = None
    v_thr: float = 0.1


def heaviside(v):
    """1 where v >= 0, else 0 (H(0) = 1). Works on scalars and arrays."""
    v = np.asarray(v)
    return (v >= 0).astype(v.dtype if v.dtype.kind == "f" else np.float64)


def ternary_threshold(v, v_thr):
    """+1 where v >= v_thr, -1 where v <= -v_thr, else 0."""
    v = np.asarray(v)
    dtype = v.dtype if v.dtype.kind == "f" else np.float64
    return (v >= v_thr).astype(dtype) - (v <= -v_thr).astype(dtype)


def surrogate_grad(v, alpha):
    """Arctangent pseudo-gradient: alpha/2 / (1 + (pi/2 * alpha * v)^2).

    Even in v, maximum alpha/2 at v=0; the derivative of atan_sigmoid.
    """
    z = (math.pi / 2.0) * alpha * np.asarray(v)
    return (alpha / 2.0) / (1.0 + z * z)


def surrogate_grad_ternary(v, alpha, v_thr, centering=CENTER_ZERO):
    """Pseudo-gradient for the ternary firing rule.

    centering="zero" is the single zero-centered bump (the same curve the
    binary rule uses); centering="threshold" sums bumps at both firing
    thresholds. The threshold-centered form is this artifact's construction.
    """
    if centering == CENTER_ZERO:
        return surrogate_grad(v, alpha)
    v = np.asarray(v)
    return surrogate_grad(v - v_thr, alpha) + surrogate_grad(v + v_thr, alpha)


def atan_sigmoid(v, alpha):
    """(1/pi) * arctan(pi/2 * alpha * v) + 1/2; spans (0, 1), derivative surrogate_grad."""
    return np.arctan((math.pi / 2.0) * alpha * np.asarray(v)) / math.pi + 0.5


def soft_spike(v, mode, alpha, v_thr, centering):
    """Differentiable stand-in for the firing rule.

    Chosen so that d(soft_spike)/dv equals the surrogate gradient selected by
    (mode, centering); binary variants span (0,1), ternary variants are odd.
    """
    if mode == BINARY:
        if centering == CENTER_ZERO:
            return atan_sigmoid(v, alpha)
        return atan_sigmoid(np.asarray(v) - v_thr, alpha)
    if centering == CENTER_ZERO:
        return atan_sigmoid(v, alpha) - 0.5
    v = np.asarray(v)
    return atan_sigmoid(v - v_thr, alpha) - atan_sigmoid(-v - v_thr, alpha)


def spike_grad(v, mode, alpha, v_thr, centering):
    """Surrogate d(spk)/dv used in the backward pass, per mode and centering."""
    if mode == BINARY:
        if centering == CENTER_ZERO:
            return surrogate_grad(v, alpha)
        return surrogate_grad(np.asarray(v) - v_thr, alpha)
    return surrogate_grad_ternary(v, alpha, v_thr, centering)


def lif_step(prev, input_psp, params, mode=BINARY, soft=False, alpha=2.0,
             centering=CENTER_ZERO):
    """One update/fire/reset cycle.

    input_psp is the already-weighted postsynaptic drive. Returns
    (spikes, next_state); next_state stores the pre-reset membrane potential,
    the reset taking effect at the following step via (1 - |spk|).
    """
    input_psp = np.asarray(input_psp)
    if prev.isc.shape != input_psp.shape or prev.v.shape != input_psp.shape:
        raise DimensionError(
            f"state shape {prev.v.shape} does not match drive shape {input_psp.shape}"
        )
    isc = params.w_scd * prev.isc + input_psp
    v = params.w_vd * prev.v * (1.0 - np.abs(prev.spk)) + isc
    if soft:
        spk = soft_spike(v, mode, alpha, params.v_thr, centering)
    elif mode == TERNARY:
        spk = ternary_threshold(v, params.v_thr)
    else:
        spk = heaviside(v - params.v_thr)
    return spk, NeuronState(spk=spk, isc=isc, v=v)
