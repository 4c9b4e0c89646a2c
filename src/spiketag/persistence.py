"""Checkpoint serialization: a single versioned, endian-fixed container.

Layout, byte-exact:

    bytes 0..7    magic b"SPIKEAT1"
    bytes 8..15   header length H, unsigned 64-bit little-endian
    bytes 16..16+H-1  UTF-8 JSON header
    remainder     tensor payloads, 32-bit IEEE-754 little-endian, row-major

The JSON header carries {"version", "network", "train", "meta", "tensors"}
where "tensors" is a manifest of {"name", "shape", "offset", "nbytes"} with
offsets relative to the start of the payload region. Optimizer moments are
stored as ordinary tensors so a resumed run is bit-deterministic.
"""

import contextlib
import dataclasses
import json
import math
import os
import secrets
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, ConfigError
from .layers import NetworkConfig, init_network
from .training import OptimizerState, TrainConfig, named_parameters

MAGIC = b"SPIKEAT1"
FORMAT_VERSION = 1
PAYLOAD_DTYPE = np.dtype("<f4")


@dataclass
class Checkpoint:
    net_cfg: NetworkConfig
    train_cfg: TrainConfig
    tensors: dict  # name -> np.ndarray
    meta: dict = field(default_factory=dict)
    version: int = FORMAT_VERSION


def save(checkpoint: Checkpoint, path):
    """Write the container atomically; tensors are cast to float32 little-endian.

    The bytes go to a new temporary file next to `path`, which is synced to
    disk and then renamed over `path`. A failed write raises CheckpointError,
    removes the temporary file and leaves any previous checkpoint untouched.
    """
    manifest = []
    payload = bytearray()
    for name, arr in checkpoint.tensors.items():
        data = np.ascontiguousarray(arr, dtype=PAYLOAD_DTYPE).tobytes()
        manifest.append(
            {
                "name": name,
                "shape": list(np.asarray(arr).shape),
                "offset": len(payload),
                "nbytes": len(data),
            }
        )
        payload.extend(data)
    header = {
        "version": checkpoint.version,
        "network": dataclasses.asdict(checkpoint.net_cfg),
        "train": dataclasses.asdict(checkpoint.train_cfg),
        "meta": checkpoint.meta,
        "tensors": manifest,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{path}.{secrets.token_hex(4)}.tmp"
    try:
        fh = open(tmp, "xb")  # "x": never reuse a file this call did not create
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    try:
        with fh:
            fh.write(MAGIC)
            fh.write(len(header_bytes).to_bytes(8, "little"))
            fh.write(header_bytes)
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def load(path) -> Checkpoint:
    """Read and check a container written by save(); its tensors tile the payload."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(blob) < len(MAGIC) + 8:
        raise CheckpointError(f"{path}: truncated before the header length")
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:len(MAGIC)]!r}")
    header_len = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "little")
    header_start = len(MAGIC) + 8
    if len(blob) < header_start + header_len:
        raise CheckpointError(f"{path}: truncated inside the header")
    try:
        header = json.loads(blob[header_start : header_start + header_len])
    except ValueError as exc:
        raise CheckpointError(f"{path}: header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version!r} (expected {FORMAT_VERSION})"
        )
    net_cfg, train_cfg = _stored_configs(header, path)
    payload = blob[header_start + header_len :]
    tensors = {}
    end, name = 0, None  # save writes the tensors back to back, in manifest order
    for entry in header["tensors"]:
        name, shape, offset, nbytes = _manifest_entry(entry, path)
        if name in tensors:
            raise CheckpointError(f"{path}: tensor {name} appears twice in the manifest")
        if nbytes != math.prod(shape) * PAYLOAD_DTYPE.itemsize:  # a Python int: no wrap
            raise CheckpointError(f"{path}: tensor {name} declares shape {shape} "
                                  f"but {nbytes} bytes")
        if offset != end:
            raise CheckpointError(f"{path}: tensor {name} starts at payload byte {offset}, "
                                  f"not {end}: the manifest's tensors must tile the payload")
        end += nbytes
        if end > len(payload):
            raise CheckpointError(f"{path}: truncated inside the payload at {name}")
        tensors[name] = np.frombuffer(payload[offset:end], PAYLOAD_DTYPE).reshape(shape).copy()
    if end != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - end} payload bytes follow the end "
                              f"of the last tensor, {name}")
    return Checkpoint(
        net_cfg=net_cfg,
        train_cfg=train_cfg,
        tensors=tensors,
        meta=header.get("meta", {}),
        version=version,
    )


def _stored_configs(header, path):
    """The header's complete network and train configs, checked as on the command line."""
    for key, kind in (("network", dict), ("train", dict), ("tensors", list)):
        if not isinstance(header.get(key), kind):
            raise CheckpointError(f"{path}: header field {key!r} missing or not a {kind.__name__}")
    if not isinstance(header.get("meta", {}), dict):
        raise CheckpointError(f"{path}: header field 'meta' is not a dict")
    for key, cls in (("network", NetworkConfig), ("train", TrainConfig)):
        for f in dataclasses.fields(cls):
            if f.name not in header[key]:
                raise CheckpointError(f"{path}: header section {key!r} lacks field {f.name!r}")
    try:
        return NetworkConfig(**header["network"]), TrainConfig(**header["train"])
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: invalid stored configuration: {exc}") from exc


def _manifest_entry(entry, path):
    """(name, shape, offset, nbytes) of one tensor manifest entry."""
    try:
        name, shape = str(entry["name"]), tuple(entry["shape"])
        offset, nbytes = entry["offset"], entry["nbytes"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed tensor manifest entry {entry!r}") from exc
    if not all(isinstance(n, int) and n >= 0 for n in shape + (offset, nbytes)):
        raise CheckpointError(
            f"{path}: tensor {name} has a non-integer or negative shape, offset or size"
        )
    return name, shape, offset, nbytes


def checkpoint_from_training(net, net_cfg, train_cfg, opt_state=None, meta=None):
    """Bundle parameters (and adam moments, when given) into a Checkpoint."""
    tensors = dict(named_parameters(net))
    meta = dict(meta or {})
    if opt_state is not None:
        meta["optimizer_step"] = opt_state.step
        for name, m in opt_state.m.items():
            tensors[f"adam_m.{name}"] = m
        for name, v in opt_state.v.items():
            tensors[f"adam_v.{name}"] = v
    return Checkpoint(net_cfg=net_cfg, train_cfg=train_cfg, tensors=tensors, meta=meta)


def _copy_stored(checkpoint, name, target):
    """Write the checkpoint's tensor `name` into target, which fixes its shape."""
    if name not in checkpoint.tensors:
        raise CheckpointError(f"checkpoint is missing tensor {name}")
    stored = checkpoint.tensors[name]
    if stored.shape != target.shape:
        raise CheckpointError(f"tensor {name} shape {stored.shape} != expected {target.shape}")
    target[...] = stored


def restore_network(checkpoint: Checkpoint):
    """Rebuild (net, opt_state) from a loaded checkpoint; net's parameters are
    views of opt_state's buffer (training.OptimizerState.for_network).

    Every stored tensor must be a parameter of the configured network or one
    of its Adam moments. The moments are all or nothing: a checkpoint holding
    any of them must hold both moments of every parameter, each shaped like it.
    """
    rng = np.random.default_rng(0)  # shapes only; values overwritten below
    net = init_network(checkpoint.net_cfg, rng, dtype=np.float32)
    params = named_parameters(net)
    known = {*params, *(f"adam_{moment}.{name}" for moment in "mv" for name in params)}
    for name in checkpoint.tensors:
        if name not in known:
            raise CheckpointError(f"checkpoint holds tensor {name}, which its network lacks")
    for name, p in params.items():
        _copy_stored(checkpoint, name, p)
    opt_state = OptimizerState.for_network(net)
    step = checkpoint.meta.get("optimizer_step", 0)
    if isinstance(step, bool) or not isinstance(step, int) or step < 0:
        raise CheckpointError(f"optimizer_step {step!r} is not a non-negative integer")
    opt_state.step = step
    if any(name.startswith(("adam_m.", "adam_v.")) for name in checkpoint.tensors):
        for name in params:
            _copy_stored(checkpoint, f"adam_m.{name}", opt_state.m[name])
            _copy_stored(checkpoint, f"adam_v.{name}", opt_state.v[name])
    return net, opt_state
