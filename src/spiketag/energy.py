"""Analytic inference-cost model: FLOPs, spike-driven SOPs, and energy.

Conventions under this model: the encoding layer and the final decoder are
FLOP-costed at the dense-accelerator rate (their inputs are analog); the
spiking conv layers are SOP-costed, one accumulate per spike-driven tap, at
the neuromorphic rate. A synaptic operation costs 77 fJ; a dense FLOP costs
12.5 pJ; each negative-spike-driven SOP additionally pays a 3.7 pJ sign
cost (reported as its own line item so alternative accountings can be
recomputed from the counts).
"""

from dataclasses import dataclass, field

from .layers import N_CLASSES, forward

ENERGY_PER_SOP = 77e-15
ENERGY_PER_FLOP_DNN = 12.5e-12
ENERGY_PER_SIGN = 3.7e-12


@dataclass
class LayerProfile:
    name: str
    kind: str  # "conv" | "fc"
    flops: float
    sop_costed: bool = False  # False for the encoding and final layers
    gamma: float = 0.0
    gamma_neg: float = 0.0
    sops: float = 0.0
    neg_sops: float = 0.0
    neg_spike_count: int = 0
    energy: float = 0.0


@dataclass
class EnergyReport:
    layers: list = field(default_factory=list)
    total_flops: float = 0.0
    total_sops: float = 0.0
    total_energy: float = 0.0

    def rows(self):
        lines = ["name\tkind\tflops\tgamma\tsops\tenergy_mJ"]
        for lp in self.layers:
            lines.append(
                f"{lp.name}\t{lp.kind}\t{lp.flops:.0f}\t{lp.gamma:.4f}"
                f"\t{lp.sops:.0f}\t{lp.energy * 1e3:.6f}"
            )
        lines.append(
            f"TOTAL\t-\t{self.total_flops:.0f}\t-\t{self.total_sops:.0f}"
            f"\t{self.total_energy * 1e3:.6f}"
        )
        return "\n".join(lines)

    def to_dict(self):
        return {
            "layers": [vars(lp) for lp in self.layers],
            "total_flops": self.total_flops,
            "total_sops": self.total_sops,
            "total_energy_mJ": self.total_energy * 1e3,
        }


def flops_conv(c, d, w_c, h_c, w_w, h_w):
    """Conv-layer FLOPs: output maps x input channels x output extent x kernel extent x 2."""
    return float(c) * d * w_c * h_c * w_w * h_w * 2.0


def flops_fc(u, u_prev):
    return float(u) * u_prev * 2.0


def spike_counts(spikes, mask):
    """(nonzero, negative, neuron-timesteps) of one layer's (T, B, R, C) spike
    block, counted at the real token positions of the (B, R) mask."""
    nonzero = (spikes != 0).sum(axis=(0, 3))  # per token position
    negative = (spikes < 0).sum(axis=(0, 3))
    neurons = float(mask.sum()) * spikes.shape[0] * spikes.shape[3]
    return float((nonzero * mask).sum()), float((negative * mask).sum()), neurons


def layer_energy(profile):
    """Joules for one layer: FLOP-costed unless sop_costed, when each SOP
    costs ENERGY_PER_SOP and each negative one also ENERGY_PER_SIGN (a
    binary layer has no negative SOPs)."""
    if not profile.sop_costed:
        return dnn_energy(profile.flops)
    return ENERGY_PER_SOP * profile.sops + ENERGY_PER_SIGN * profile.neg_sops


def dnn_energy(flops):
    """12.5 pJ per FLOP, for baseline comparison tables."""
    return ENERGY_PER_FLOP_DNN * float(flops)


def profile_network(net, batch, cfg) -> EnergyReport:
    """Measure firing rates on a sample batch and assemble the cost report.

    FLOPs use the mean real-token sequence length of the sample; SOPs for a
    spiking conv layer are T x gamma x FLOPs with gamma measured in that
    layer (split into a negative-spike share for the ternary sign cost).
    """
    _, trace = forward(batch.embeddings, net, cfg, mask=batch.mask)
    mean_len = float(batch.mask.sum()) / batch.mask.shape[0]  # divided in float64
    t = cfg.time_steps
    report = EnergyReport()

    for li, layer in enumerate(net[:-1]):
        cout, cin, k = layer.kernels.shape
        fl = flops_conv(cout, cin, mean_len, 1, k, 1)
        nonzero, negative, neurons = spike_counts(trace.spk[li], batch.mask)
        gamma = nonzero / neurons if neurons else 0.0
        g_neg = negative / neurons if neurons else 0.0
        prof = LayerProfile(
            name=f"spiking_conv{li}" if li else "encoding0", kind="conv", flops=fl,
            gamma=gamma, gamma_neg=g_neg, neg_spike_count=int(negative),
        )
        if li > 0:  # the encoder's input is analog, so it stays FLOP-costed
            prof.sop_costed = True
            prof.sops = t * gamma * fl
            prof.neg_sops = t * g_neg * fl
        prof.energy = layer_energy(prof)
        report.layers.append(prof)

    out = net[-1]
    fl_out = flops_fc(N_CLASSES, out.kernels.shape[1]) * mean_len * t
    prof = LayerProfile(name="output", kind="fc", flops=fl_out)
    prof.energy = layer_energy(prof)
    report.layers.append(prof)

    report.total_flops = sum(lp.flops for lp in report.layers if not lp.sop_costed)
    report.total_sops = sum(lp.sops for lp in report.layers)
    report.total_energy = sum(lp.energy for lp in report.layers)
    return report
