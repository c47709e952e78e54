"""Versioned model checkpoints with bit-exact parameter round-trips.

A checkpoint is a .npz archive holding the format version, a JSON snapshot
of the resolved experiment config, the model layout, the loss-scale pair,
the seed, the best epoch, every parameter tensor and, optionally, a JSON
map from each split to the sha256 of the rows the model was trained beside
(``Dataset.sha256``; files written before the field existed have none).
A file that does not start with a zip header is refused unread, and the
version is checked before anything else is touched; unreadable or
truncated files, a field of the wrong dtype or rank (each field but the
parameters is one integer, float or text value), a model layout that is
not a JSON object, parameters that do not match the model layout or are not
finite, and a malformed digest map raise without producing a partial
model. Writes are atomic: the archive goes to a temporary file in the
target directory and is then renamed onto the path.
"""

from __future__ import annotations

import json
import re
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import build_from
from .data import SPLITS, staged_writes
from .errors import CheckpointError, UnsupportedVersionError
from .model import ModelSpec, check_params
from .train import FitResult, LossScale

FORMAT_VERSION = 1
ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")  # a zip's first entry, or the end record of an empty one
# every field but the parameters is one value: its kind, and the numpy dtype kinds that hold it
FIELD_KINDS = {
    "version": "integer", "seed": "integer", "epoch": "integer",
    "scale_rule0": "float", "scale_task0": "float",
    "model_json": "text", "config_json": "text", "data_sha256_json": "text",
}
DTYPE_KINDS = {"integer": "iu", "float": "f", "text": "U"}


@dataclass
class Checkpoint:
    """A loaded checkpoint; ``epoch`` is the epoch whose parameters it holds.

    That is the fit's best validation epoch, not the epoch at which the fit
    stopped. ``data_sha256`` maps each split to the digest of its rows at
    training time, or is None for a file written without it.
    """

    spec: ModelSpec
    params: dict[str, np.ndarray]
    config: dict
    scale: LossScale | None
    seed: int
    epoch: int
    data_sha256: dict[str, str] | None


def save_checkpoint(
    path: str | Path,
    result: FitResult,
    config: dict,
    seed: int,
) -> None:
    arrays: dict[str, np.ndarray] = {
        "version": np.array(FORMAT_VERSION, dtype=np.int64),
        "model_json": np.array(json.dumps(asdict(result.spec), sort_keys=True)),
        "config_json": np.array(json.dumps(config, sort_keys=True)),
        "seed": np.array(seed, dtype=np.int64),
        "epoch": np.array(result.report.best_epoch, dtype=np.int64),
        "scale_rule0": np.array(result.scale.rule0 if result.scale else np.nan),
        "scale_task0": np.array(result.scale.task0 if result.scale else np.nan),
        "data_sha256_json": np.array(json.dumps(result.data_sha256, sort_keys=True)),
    }
    for name, value in result.params.items():
        arrays[f"param:{name}"] = value
    # written through a handle, so np.savez adds no ".npz" to the path
    with staged_writes() as stage, open(stage(path), "wb") as fh:
        np.savez(fh, **arrays)


def _field(archive, name: str):
    """The 0-d field ``name`` as a Python value; ValueError unless its dtype holds the field's kind."""
    value = archive[name]
    kind = FIELD_KINDS[name]
    if value.ndim != 0 or value.dtype.kind not in DTYPE_KINDS[kind]:
        raise ValueError(f"field {name} must hold one {kind}, got {value.dtype} of shape {value.shape}")
    return value.item()


def _data_sha256(path: Path, archive) -> dict[str, str] | None:
    if "data_sha256_json" not in archive.files:
        return None
    digests = json.loads(_field(archive, "data_sha256_json"))
    if not (
        isinstance(digests, dict)
        and sorted(digests) == sorted(SPLITS)
        and all(isinstance(d, str) and re.fullmatch("[0-9a-f]{64}", d) for d in digests.values())
    ):
        raise CheckpointError(f"{path}: malformed data_sha256 field: expected a sha256 for each of {SPLITS}")
    return digests


def _zip_archive(path: Path, fh):
    """``fh`` rewound, if it starts as a zip archive does or is empty.

    ``np.load`` unpickles, or advises unpickling, a file whose magic it
    does not know, so anything else is refused before it is read.
    """
    magic = fh.read(4)
    if magic and magic not in ZIP_MAGIC:  # an empty file is left to np.load, which reports it truncated
        raise CheckpointError(f"{path}: not a checkpoint (no zip archive header)")
    fh.seek(0)
    return fh


def load_checkpoint(path: str | Path) -> Checkpoint:
    path = Path(path)
    try:
        with open(path, "rb") as fh, np.load(_zip_archive(path, fh), allow_pickle=False) as archive:
            if "version" not in archive:
                raise CheckpointError(f"{path}: missing version field")
            version = _field(archive, "version")
            if version != FORMAT_VERSION:
                raise UnsupportedVersionError(
                    f"{path}: format version {version} unsupported (this build reads {FORMAT_VERSION})"
                )
            layout = json.loads(_field(archive, "model_json"))
            if not isinstance(layout, dict):
                raise ValueError(f"field model_json must hold a JSON object, got {type(layout).__name__}")
            spec = build_from(ModelSpec, layout)
            config = json.loads(_field(archive, "config_json"))  # checked where it is read, as a config
            rule0 = _field(archive, "scale_rule0")
            task0 = _field(archive, "scale_task0")
            scale = None if np.isnan(task0) else LossScale(rule0=rule0, task0=task0)
            params = {
                key[len("param:") :]: np.array(archive[key])
                for key in archive.files
                if key.startswith("param:")
            }
            try:
                check_params(spec, params)
            except ValueError as exc:
                raise CheckpointError(f"{path}: invalid parameters: {exc}") from exc
            return Checkpoint(
                spec=spec,
                params=params,
                config=config,
                scale=scale,
                seed=_field(archive, "seed"),
                epoch=_field(archive, "epoch"),
                data_sha256=_data_sha256(path, archive),
            )
    except (
        zipfile.BadZipFile, OSError, EOFError, KeyError, TypeError, ValueError, OverflowError, RecursionError,
    ) as exc:
        raise CheckpointError(f"{path}: corrupt or unreadable checkpoint: {exc}") from exc
