"""Episode data model, embedding-dataset I/O, and a synthetic embedding source.

A dataset is a mapping from class name to a block of d-dimensional float64
embeddings, standing in for the output of some frozen feature extractor.
Episodes (tasks) are value objects built from such datasets: a labelled
support set plus an unlabelled query set, with ground-truth query labels
carried out-of-band so the classifier path can never see them.

File formats
------------
CSV        UTF-8, one row per embedding: ``class_name,f_1,...,f_d``
           (floats written with 17 significant digits).
packed-binary
           magic ``EMB1``, little-endian u32 dimension, u32 class count,
           then per class: u32 name length, UTF-8 name, u32 row count,
           rows of d float64. Round-trips are bit exact.
"""

from __future__ import annotations

import csv
import io
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyClass,
    InvalidSpec,
    NonFiniteInput,
    ParseError,
)

_MAGIC = b"EMB1"

CSV_FORMAT = "csv"
BINARY_FORMAT = "packed-binary"
DATASET_FORMATS = (CSV_FORMAT, BINARY_FORMAT)


@dataclass(frozen=True)
class Task:
    """One few-shot episode.

    Support labels are task-local contiguous ids ``0..way-1``. Ground-truth
    query labels live in ``truth``, aligned with ``query_z`` rows; they are
    for scoring only and no classifier-path function receives them.

    ``class_names`` optionally maps local ids back to the sampled global
    class names for reporting.
    """

    support_z: np.ndarray  # (n, d)
    support_y: np.ndarray  # (n,) ints in [0, way)
    query_z: np.ndarray  # (m, d)
    truth: np.ndarray  # (m,) ints in [0, way)
    way: int
    class_names: tuple[str, ...] | None = None

    def __post_init__(self):
        support_z = np.ascontiguousarray(self.support_z, dtype=np.float64)
        query_z = np.ascontiguousarray(self.query_z, dtype=np.float64)
        support_y = np.asarray(self.support_y, dtype=np.int64)
        truth = np.asarray(self.truth, dtype=np.int64)
        object.__setattr__(self, "support_z", support_z)
        object.__setattr__(self, "query_z", query_z)
        object.__setattr__(self, "support_y", support_y)
        object.__setattr__(self, "truth", truth)

        if support_z.ndim != 2 or query_z.ndim != 2:
            raise DimensionMismatch("support_z and query_z must be 2-d arrays")
        if support_z.shape[1] != query_z.shape[1]:
            raise DimensionMismatch(
                f"support dimension {support_z.shape[1]} != query dimension {query_z.shape[1]}"
            )
        if support_y.shape != (support_z.shape[0],):
            raise DimensionMismatch("support_y must align with support_z rows")
        if truth.shape != (query_z.shape[0],):
            raise DimensionMismatch("truth must align with query_z rows")
        if self.way < 1:
            raise InvalidSpec(f"way must be >= 1, got {self.way}")
        if not np.all(np.isfinite(support_z)) or not np.all(np.isfinite(query_z)):
            raise NonFiniteInput("task embeddings contain NaN or Inf")
        present = np.unique(support_y)
        if present.size != self.way or present[0] != 0 or present[-1] != self.way - 1:
            raise InvalidSpec(
                f"support must contain every class 0..{self.way - 1} at least once"
            )
        if truth.size and (truth.min() < 0 or truth.max() >= self.way):
            raise InvalidSpec("truth labels out of range")
        if self.class_names is not None and len(self.class_names) != self.way:
            raise InvalidSpec("class_names must have one entry per class")

    @property
    def dim(self) -> int:
        return self.support_z.shape[1]

    @property
    def n_support(self) -> int:
        return self.support_z.shape[0]

    @property
    def n_query(self) -> int:
        return self.query_z.shape[0]

    def class_counts(self) -> np.ndarray:
        """Support shot per class, shape (way,)."""
        return np.bincount(self.support_y, minlength=self.way)


@dataclass(frozen=True)
class EmbeddingDataset:
    """Immutable map from global class name to an (n_c, d) embedding block."""

    classes: dict[str, np.ndarray]

    def __post_init__(self):
        if not self.classes:
            raise EmptyClass("dataset has no classes")
        dim = None
        frozen: dict[str, np.ndarray] = {}
        for name, rows in self.classes.items():
            rows = np.ascontiguousarray(rows, dtype=np.float64)
            if rows.ndim != 2 or rows.shape[0] == 0:
                raise EmptyClass(f"class {name!r} has no embeddings")
            if dim is None:
                dim = rows.shape[1]
            elif rows.shape[1] != dim:
                raise DimensionMismatch(
                    f"class {name!r} has dimension {rows.shape[1]}, expected {dim}"
                )
            if not np.all(np.isfinite(rows)):
                raise NonFiniteInput(f"class {name!r} contains NaN or Inf")
            rows.setflags(write=False)
            frozen[name] = rows
        object.__setattr__(self, "classes", frozen)

    @property
    def dim(self) -> int:
        return next(iter(self.classes.values())).shape[1]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(self.classes.keys())

    def counts(self) -> dict[str, int]:
        return {name: rows.shape[0] for name, rows in self.classes.items()}


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the synthetic Gaussian-mixture embedding source.

    Class ``c`` gets mean ``mean_scale * N(0, I)`` and covariance
    ``cov_scale * S0 + perturbation * D_c`` where ``S0`` is one random SPD
    matrix shared by all classes and ``D_c`` is a random nonnegative
    diagonal unique to the class.
    """

    n_classes: int
    dim: int
    mean_scale: float = 1.0
    cov_scale: float = 1.0
    perturbation: float = 0.0
    per_class: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_classes < 1 or self.dim < 1 or self.per_class < 1:
            raise InvalidSpec("n_classes, dim and per_class must all be >= 1")
        if self.mean_scale < 0 or self.cov_scale < 0 or self.perturbation < 0:
            raise InvalidSpec("scales must be nonnegative")


def generate_synthetic(spec: SyntheticSpec) -> EmbeddingDataset:
    """Draw a dataset from the Gaussian mixture described by ``spec``.

    Identical specs (including seed) produce bitwise-identical datasets.
    """
    rng = np.random.default_rng(spec.seed)
    d = spec.dim
    a = rng.standard_normal((d, d))
    shared = (a @ a.T) / d  # random SPD, expected eigenvalue scale ~1

    classes: dict[str, np.ndarray] = {}
    for c in range(spec.n_classes):
        mean = spec.mean_scale * rng.standard_normal(d)
        diag = rng.uniform(0.0, 1.0, size=d)
        cov = spec.cov_scale * shared + spec.perturbation * np.diag(diag)
        # eigh-based square root: tolerates the all-zero degenerate case
        w, v = np.linalg.eigh(cov)
        root = v * np.sqrt(np.clip(w, 0.0, None))
        eps = rng.standard_normal((spec.per_class, d))
        classes[f"class_{c:03d}"] = mean + eps @ root.T
    return EmbeddingDataset(classes=classes)


def load_dataset(path, format: str) -> EmbeddingDataset:
    """Load an embedding dataset from ``path`` in the given format."""
    return _codec(format)[0](path)


def write_dataset(dataset: EmbeddingDataset, path, format: str) -> None:
    """Write ``dataset`` to ``path``; see the module docstring for formats."""
    _codec(format)[1](dataset, path)


def _codec(format: str):
    """The (loader, writer) pair of ``format``."""
    if format not in _CODECS:
        raise InvalidSpec(f"unknown dataset format {format!r}; expected one of {DATASET_FORMATS}")
    return _CODECS[format]


def _load_csv(path) -> EmbeddingDataset:
    classes: dict[str, list[np.ndarray]] = {}
    dim = None
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            # One read decodes the whole file, so exc.start is a file offset.
            text = fh.read()
        except UnicodeDecodeError as exc:
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise ParseError(f"file is not valid UTF-8 ({exc.reason})", line=line) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        for row in reader:
            lineno = reader.line_num  # the physical line the record ends on
            if not row:
                continue  # blank line
            name = row[0]
            if len(row) < 2:
                raise ParseError("row has no feature columns", line=lineno)
            if dim is None:
                dim = len(row) - 1
            elif len(row) - 1 != dim:
                raise DimensionMismatch(
                    f"line {lineno}: row has {len(row) - 1} features, expected {dim}"
                )
            try:
                vec = np.array([float(x) for x in row[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(f"unparseable feature value ({exc})", line=lineno) from None
            if not np.all(np.isfinite(vec)):
                raise ParseError("non-finite feature value", line=lineno)
            classes.setdefault(name, []).append(vec)
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise ParseError(f"malformed CSV ({exc})", line=reader.line_num) from None
    if not classes:
        raise ParseError("file contains no embedding rows")
    return EmbeddingDataset(classes={k: np.vstack(v) for k, v in classes.items()})


def _write_csv(dataset: EmbeddingDataset, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for name, rows in dataset.classes.items():
            for row in rows:
                writer.writerow([name] + [f"{x:.17g}" for x in row])


def _load_binary(path) -> EmbeddingDataset:
    classes: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        pos = 0

        def take(n: int, what: str) -> bytes:
            """The next ``n`` bytes. Every size comes from the file, so it is
            checked against the bytes left before anything is allocated."""
            nonlocal pos
            if pos + n > size:
                raise ParseError(f"truncated file while reading {what}", offset=pos)
            chunk = fh.read(n)
            if len(chunk) != n:  # the file shrank while being read
                raise ParseError(f"truncated file while reading {what}", offset=pos + len(chunk))
            pos += n
            return chunk

        if take(4, "magic") != _MAGIC:
            raise ParseError(f"bad magic bytes, expected {_MAGIC!r}", offset=0)
        dim, n_classes = struct.unpack("<II", take(8, "header"))
        if dim == 0:
            raise ParseError("dimension must be positive", offset=4)
        for _ in range(n_classes):
            (name_len,) = struct.unpack("<I", take(4, "class name length"))
            name_at = pos
            try:
                name = take(name_len, "class name").decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError("class name is not valid UTF-8", offset=name_at) from None
            if name in classes:
                raise ParseError(f"duplicate class name {name!r}", offset=name_at)
            (n_rows,) = struct.unpack("<I", take(4, "row count"))
            rows = take(n_rows * dim * 8, f"rows of class {name!r}")
            # A read-only view of the bytes just read: the file is held once.
            classes[name] = np.frombuffer(rows, dtype="<f8").reshape(n_rows, dim)
    if pos != size:
        raise ParseError("trailing bytes after last class", offset=pos)
    return EmbeddingDataset(classes=classes)


def _write_binary(dataset: EmbeddingDataset, path) -> None:
    # Encode every name before the file is opened, so a bad name leaves no
    # partial file; then write one class at a time, rows from their buffer.
    names = [name.encode("utf-8") for name in dataset.classes]
    with open(path, "wb") as fh:
        fh.write(_MAGIC + struct.pack("<II", dataset.dim, dataset.n_classes))
        for encoded, rows in zip(names, dataset.classes.values()):
            fh.write(struct.pack("<I", len(encoded)) + encoded + struct.pack("<I", rows.shape[0]))
            fh.write(np.ascontiguousarray(rows, dtype="<f8"))


_CODECS = {CSV_FORMAT: (_load_csv, _write_csv), BINARY_FORMAT: (_load_binary, _write_binary)}
