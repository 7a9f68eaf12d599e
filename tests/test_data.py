import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import mahashot.data as data
from mahashot import (
    DimensionMismatch,
    EmbeddingDataset,
    EmptyClass,
    InvalidSpec,
    MahashotError,
    NonFiniteInput,
    ParseError,
    SyntheticSpec,
    Task,
    generate_synthetic,
    load_dataset,
    write_dataset,
)


class TestCsvLoading:
    def test_minimal_file(self, tmp_path):
        p = tmp_path / "mini.csv"
        p.write_text("classA,0.1,0.2\nclassA,0.3,0.4\n")
        ds = load_dataset(p, "csv")
        assert ds.dim == 2
        assert ds.n_classes == 1
        assert ds.classes["classA"].shape == (2, 2)

    def test_differing_row_lengths(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,1.0,2.0\nb,1.0\n")
        with pytest.raises(DimensionMismatch):
            load_dataset(p, "csv")

    def test_counts_match_line_oracle(self, tmp_path, rng):
        # oracle: write the file line by line and tally counts independently
        lines = []
        expected = {}
        for name, count in [("wrens", 3), ("finches", 5), ("larks", 2)]:
            expected[name] = count
            for _ in range(count):
                vals = rng.standard_normal(4)
                lines.append(name + "," + ",".join(f"{v:.6f}" for v in vals))
        p = tmp_path / "birds.csv"
        p.write_text("\n".join(lines) + "\n")

        oracle_counts = {}
        for line in p.read_text().splitlines():
            oracle_counts[line.split(",")[0]] = oracle_counts.get(line.split(",")[0], 0) + 1

        ds = load_dataset(p, "csv")
        assert ds.counts() == oracle_counts == expected
        assert ds.dim == 4

    def test_unparseable_float_reports_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,1.0,2.0\na,1.0,oops\n")
        with pytest.raises(ParseError) as info:
            load_dataset(p, "csv")
        assert info.value.line == 2

    def test_row_errors_report_the_physical_line(self, tmp_path):
        # The quoted class name spans lines 1-2, so "oops" is on line 4.
        p = tmp_path / "bad.csv"
        p.write_text('"two\nlines",1.0,2.0\na,1.0,2.0\na,1.0,oops\n')
        with pytest.raises(ParseError) as info:
            load_dataset(p, "csv")
        assert info.value.line == 4

    def test_undecodable_byte_reports_its_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_bytes(b"a,1.0,2.0\na,3.0,4.0\na,\xff5.0,6.0\n")
        with pytest.raises(ParseError) as info:
            load_dataset(p, "csv")
        assert info.value.line == 3

    def test_undecodable_byte_far_into_the_file_reports_its_line(self, tmp_path):
        # Far past the few KiB a text stream decodes per chunk.
        p = tmp_path / "bad.csv"
        p.write_bytes(b"a,1.0,2.0\n" * 4000 + b"a,\xff,2.0\n")
        with pytest.raises(ParseError) as info:
            load_dataset(p, "csv")
        assert info.value.line == 4001

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "nan.csv"
        p.write_text("a,1.0,nan\n")
        with pytest.raises(ParseError):
            load_dataset(p, "csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InvalidSpec):
            load_dataset(tmp_path / "x", "parquet")

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "gaps.csv"
        p.write_text("a,1.0,2.0\n\na,3.0,4.0\n\n")
        np.testing.assert_array_equal(load_dataset(p, "csv").classes["a"], [[1, 2], [3, 4]])

    def test_row_without_features(self, tmp_path):
        p = tmp_path / "bare.csv"
        p.write_text("a,1.0,2.0\nb\n")
        with pytest.raises(ParseError, match="no feature columns") as info:
            load_dataset(p, "csv")
        assert info.value.line == 2

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        for text in ["", "\n\n\r\n"]:
            p.write_text(text, newline="")
            with pytest.raises(ParseError, match="no embedding rows") as info:
                load_dataset(p, "csv")
            assert info.value.line is None

    @pytest.mark.parametrize(
        "text, line",
        [
            ('a,1.0,2.0\n"' + "x" * 140_000 + ",1.0,2.0\n", 2),  # an unclosed quote
            ("a,1.0,2.0\nb,1.0,2.0\n" + "c" * 140_000 + ",1.0,2.0\n", 3),  # a long name
        ],
        ids=["open-quote", "long-name"],
    )
    def test_oversized_field_reports_its_line(self, tmp_path, text, line):
        p = tmp_path / "big.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match="malformed CSV") as info:
            load_dataset(p, "csv")
        assert info.value.line == line


class TestCsvFuzz:
    """Every truncation and seeded single-byte changes of a small file with a
    quoted name either load or raise a package error."""

    @pytest.fixture
    def blob(self, tmp_path):
        names = ["a", "comma, and\nnewline", "b"]
        ds = EmbeddingDataset({name: np.arange(6.0).reshape(2, 3) + i for i, name in enumerate(names)})
        write_dataset(ds, tmp_path / "ds.csv", "csv")
        return (tmp_path / "ds.csv").read_bytes()

    def test_every_truncation(self, tmp_path, blob):
        p = tmp_path / "cut.csv"
        for n in range(len(blob)):
            load_or_package_error(p, blob[:n], "csv")

    def test_single_byte_changes(self, tmp_path, blob):
        rng = np.random.default_rng(13)
        p = tmp_path / "flip.csv"
        for _ in range(1000):
            changed = bytearray(blob)
            at = int(rng.integers(len(blob)))
            changed[at] ^= int(rng.integers(1, 256))
            load_or_package_error(p, bytes(changed), "csv")


def load_or_package_error(path, blob, format):
    """Whether ``blob`` loads; any error other than a package error fails."""
    path.write_bytes(blob)
    try:
        load_dataset(path, format)
    except MahashotError:
        return False
    return True


def test_unknown_format_writes_nothing(tmp_path):
    ds = EmbeddingDataset({"a": np.zeros((1, 2))})
    with pytest.raises(InvalidSpec, match="unknown dataset format 'bogus'"):
        write_dataset(ds, tmp_path / "out", "bogus")
    assert not (tmp_path / "out").exists()


class TestBinaryFormat:
    def test_round_trip_bitwise(self, tmp_path, rng):
        ds = generate_synthetic(SyntheticSpec(n_classes=4, dim=6, per_class=9, seed=3))
        p = tmp_path / "ds.emb"
        write_dataset(ds, p, "packed-binary")
        back = load_dataset(p, "packed-binary")
        assert back.class_names == ds.class_names
        for name in ds.class_names:
            np.testing.assert_array_equal(back.classes[name], ds.classes[name])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.emb"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError) as info:
            load_dataset(p, "packed-binary")
        assert info.value.offset == 0

    def test_truncated(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_classes=2, dim=3, per_class=4, seed=1))
        p = tmp_path / "ds.emb"
        write_dataset(ds, p, "packed-binary")
        (tmp_path / "cut.emb").write_bytes(p.read_bytes()[:-5])
        with pytest.raises(ParseError):
            load_dataset(tmp_path / "cut.emb", "packed-binary")

    def test_trailing_bytes(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_classes=2, dim=3, per_class=4, seed=1))
        p = tmp_path / "ds.emb"
        write_dataset(ds, p, "packed-binary")
        size = p.stat().st_size
        p.write_bytes(p.read_bytes() + b"\x00")
        with pytest.raises(ParseError, match="trailing bytes") as info:
            load_dataset(p, "packed-binary")
        assert info.value.offset == size

    def test_duplicate_class_name(self, tmp_path):
        one = struct.pack("<I", 1) + b"a" + struct.pack("<I", 1) + struct.pack("<d", 0.5)
        p = tmp_path / "dup.emb"
        p.write_bytes(b"EMB1" + struct.pack("<II", 1, 2) + one + one)
        with pytest.raises(ParseError, match="duplicate class name") as info:
            load_dataset(p, "packed-binary")
        assert info.value.offset == 12 + len(one) + 4

    def test_zero_dimension(self, tmp_path):
        p = tmp_path / "flat.emb"
        p.write_bytes(b"EMB1" + struct.pack("<II", 0, 1) + struct.pack("<I", 1) + b"a")
        with pytest.raises(ParseError, match="dimension must be positive") as info:
            load_dataset(p, "packed-binary")
        assert info.value.offset == 4

    def test_zero_row_class(self, tmp_path):
        blob = b"EMB1" + struct.pack("<II", 2, 1) + struct.pack("<I", 1) + b"a"
        blob += struct.pack("<I", 0)
        p = tmp_path / "empty.emb"
        p.write_bytes(blob)
        with pytest.raises(EmptyClass):
            load_dataset(p, "packed-binary")


    def test_huge_row_count_raises_before_allocating(self, tmp_path):
        # 2**31 rows of d = 4 would be 64 GiB; the file holds 16 bytes of them.
        blob = b"EMB1" + struct.pack("<II", 4, 1) + struct.pack("<I", 1) + b"a"
        blob += struct.pack("<I", 2**31) + b"\x00" * 16
        p = tmp_path / "huge.emb"
        p.write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as info:
                load_dataset(p, "packed-binary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.offset == len(blob) - 16
        assert peak < 2**20

    def test_file_shorter_than_its_stat_raises(self, tmp_path, monkeypatch):
        # A file that shrinks while it is read must not leave unread rows
        # as uninitialised memory.
        ds = generate_synthetic(SyntheticSpec(n_classes=2, dim=3, per_class=4, seed=1))
        p = tmp_path / "ds.emb"
        write_dataset(ds, p, "packed-binary")
        size = p.stat().st_size
        p.write_bytes(p.read_bytes()[:-8])
        monkeypatch.setattr(data, "os", SimpleNamespace(fstat=lambda fd: SimpleNamespace(st_size=size)))
        with pytest.raises(ParseError, match="truncated") as info:
            load_dataset(p, "packed-binary")
        assert info.value.offset == size - 8


class TestBinaryFuzz:
    """Every truncation and seeded single-byte changes of a small file either
    load or raise a package error; none escapes as another exception."""

    @pytest.fixture
    def blob(self, tmp_path):
        ds = EmbeddingDataset({name: np.arange(12.0).reshape(3, 4) + i for i, name in enumerate("abc")})
        write_dataset(ds, tmp_path / "ds.emb", "packed-binary")
        return (tmp_path / "ds.emb").read_bytes()

    def test_every_truncation(self, tmp_path, blob):
        p = tmp_path / "cut.emb"
        loaded = [load_or_package_error(p, blob[:n], "packed-binary") for n in range(len(blob))]
        assert not any(loaded)

    def test_single_byte_changes(self, tmp_path, blob):
        rng = np.random.default_rng(12)
        p = tmp_path / "flip.emb"
        for _ in range(1000):
            changed = bytearray(blob)
            at = int(rng.integers(len(blob)))
            changed[at] ^= int(rng.integers(1, 256))
            load_or_package_error(p, bytes(changed), "packed-binary")


class TestBinaryMemory:
    """The packed-binary reader and writer hold no second copy of the file."""

    @pytest.fixture
    def dataset(self, rng):
        return EmbeddingDataset({f"c{k:02d}": rng.standard_normal((50, 128)) for k in range(40)})

    def test_load_peak_is_the_file_size(self, tmp_path, dataset):
        p = tmp_path / "ds.emb"
        write_dataset(dataset, p, "packed-binary")
        tracemalloc.start()
        try:
            load_dataset(p, "packed-binary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.stat().st_size + 2**20

    def test_write_peak_is_one_class_header(self, tmp_path, dataset):
        tracemalloc.start()
        try:
            write_dataset(dataset, tmp_path / "ds.emb", "packed-binary")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestCsvRoundTrip:
    def test_values_survive(self, tmp_path):
        ds = generate_synthetic(SyntheticSpec(n_classes=3, dim=5, per_class=7, seed=5))
        p = tmp_path / "ds.csv"
        write_dataset(ds, p, "csv")
        back = load_dataset(p, "csv")
        for name in ds.class_names:
            np.testing.assert_allclose(back.classes[name], ds.classes[name], atol=1e-12)


@pytest.mark.parametrize("format", ["csv", "packed-binary"])
def test_any_class_name_round_trips(tmp_path, format):
    names = ["", "a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "naïve – 北京"]
    ds = EmbeddingDataset({name: np.full((2, 3), float(i)) for i, name in enumerate(names)})
    p = tmp_path / "ds"
    write_dataset(ds, p, format)
    back = load_dataset(p, format)
    assert back.class_names == ds.class_names
    for name in names:
        np.testing.assert_array_equal(back.classes[name], ds.classes[name])


class TestSynthetic:
    def test_degenerate_covariance_collapses_to_mean(self):
        spec = SyntheticSpec(
            n_classes=3, dim=4, mean_scale=2.0, cov_scale=0.0, perturbation=0.0,
            per_class=6, seed=9,
        )
        ds = generate_synthetic(spec)
        for rows in ds.classes.values():
            assert np.abs(rows - rows[0]).max() <= 1e-12

    def test_seed_determinism(self):
        spec = SyntheticSpec(n_classes=4, dim=3, per_class=11, seed=42)
        a, b = generate_synthetic(spec), generate_synthetic(spec)
        for name in a.class_names:
            np.testing.assert_array_equal(a.classes[name], b.classes[name])

    def test_sample_means_respect_requested_moments(self):
        # Monte-Carlo: with 1000 draws/class and unit covariance scale the
        # class sample mean should sit within a few standard errors of the
        # generating mean.
        spec = SyntheticSpec(
            n_classes=5, dim=6, mean_scale=3.0, cov_scale=1.0, perturbation=0.0,
            per_class=1000, seed=17,
        )
        ds = generate_synthetic(spec)
        # reconstruct the generating means by replaying the seeded stream
        rng = np.random.default_rng(17)
        a = rng.standard_normal((6, 6))
        shared = (a @ a.T) / 6
        per_dim_sd = np.sqrt(np.diag(shared))
        for c, name in enumerate(ds.class_names):
            mean_c = 3.0 * rng.standard_normal(6)
            rng.uniform(0.0, 1.0, size=6)
            rng.standard_normal((1000, 6))
            sample_mean = ds.classes[name].mean(axis=0)
            se = per_dim_sd / np.sqrt(1000)
            assert np.all(np.abs(sample_mean - mean_c) < 6 * se)

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_classes=0, dim=3)
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_classes=2, dim=3, mean_scale=-1.0)


class TestTaskInvariants:
    def test_every_class_must_appear_in_support(self):
        with pytest.raises(InvalidSpec):
            Task(
                support_z=np.zeros((2, 3)),
                support_y=np.array([0, 0]),
                query_z=np.zeros((1, 3)),
                truth=np.array([0]),
                way=2,
            )

    def test_truth_alignment_enforced(self):
        with pytest.raises(DimensionMismatch):
            Task(
                support_z=np.zeros((2, 3)),
                support_y=np.array([0, 1]),
                query_z=np.zeros((2, 3)),
                truth=np.array([0]),
                way=2,
            )

    def test_dimension_consistency(self):
        with pytest.raises(DimensionMismatch):
            Task(
                support_z=np.zeros((2, 3)),
                support_y=np.array([0, 1]),
                query_z=np.zeros((1, 4)),
                truth=np.array([0]),
                way=2,
            )

    def test_non_finite_rejected(self):
        z = np.zeros((2, 3))
        z[0, 0] = np.nan
        with pytest.raises(NonFiniteInput):
            Task(
                support_z=z,
                support_y=np.array([0, 1]),
                query_z=np.zeros((1, 3)),
                truth=np.array([0]),
                way=2,
            )

    def test_empty_query_allowed_for_reduction_paths(self):
        t = Task(
            support_z=np.eye(2),
            support_y=np.array([0, 1]),
            query_z=np.zeros((0, 2)),
            truth=np.zeros(0, dtype=int),
            way=2,
        )
        assert t.n_query == 0

    def test_class_counts(self, rng):
        t = Task(
            support_z=rng.standard_normal((5, 2)),
            support_y=np.array([0, 0, 1, 2, 2]),
            query_z=rng.standard_normal((1, 2)),
            truth=np.array([1]),
            way=3,
        )
        np.testing.assert_array_equal(t.class_counts(), [2, 1, 2])

    @pytest.mark.parametrize(
        "changes, error, match",
        [
            ({"support_z": np.zeros(3)}, DimensionMismatch, "must be 2-d"),
            ({"query_z": np.zeros((1, 1, 3))}, DimensionMismatch, "must be 2-d"),
            ({"support_y": np.array([0, 1, 1])}, DimensionMismatch, "support_y must align"),
            ({"way": 0}, InvalidSpec, "way must be >= 1"),
            ({"truth": np.array([2])}, InvalidSpec, "truth labels out of range"),
            ({"truth": np.array([-1])}, InvalidSpec, "truth labels out of range"),
            ({"class_names": ("a",)}, InvalidSpec, "one entry per class"),
        ],
        ids=["support-1d", "query-3d", "support-y", "way", "truth-high", "truth-low", "names"],
    )
    def test_boundary_rejections(self, changes, error, match):
        fields = dict(
            support_z=np.eye(2, 3), support_y=np.array([0, 1]), query_z=np.zeros((1, 3)),
            truth=np.array([1]), way=2, class_names=("a", "b"),
        )
        Task(**fields)
        with pytest.raises(error, match=match):
            Task(**{**fields, **changes})

    def test_dataset_rejects_mixed_dims(self):
        with pytest.raises(DimensionMismatch):
            EmbeddingDataset(classes={"a": np.zeros((2, 3)), "b": np.zeros((2, 4))})

    def test_dataset_rejects_no_classes(self):
        with pytest.raises(EmptyClass, match="no classes"):
            EmbeddingDataset(classes={})

    @pytest.mark.parametrize("rows", [np.zeros((0, 3)), np.zeros(3)], ids=["no-rows", "1d"])
    def test_dataset_rejects_an_empty_class(self, rows):
        with pytest.raises(EmptyClass, match="'b' has no embeddings"):
            EmbeddingDataset(classes={"a": np.zeros((2, 3)), "b": rows})

    def test_dataset_rejects_nan(self):
        rows = np.zeros((2, 3))
        rows[1, 2] = np.nan
        with pytest.raises(NonFiniteInput, match="'a' contains NaN"):
            EmbeddingDataset(classes={"a": rows})
