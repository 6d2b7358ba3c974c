import json
import pickle

import numpy as np
import pytest
import scipy.stats

from pbicm.channel import (
    Awgn,
    Dmc,
    RayleighCsi,
    Snr,
    awgn_from_snr,
    bsc,
    density,
    load_dmc,
    make_rng,
    rayleigh_from_snr,
    sample,
    sample_batch,
    save_dmc,
)

from conftest import random_stochastic


def test_snr_to_noise_level():
    assert Snr(0.0).n0 == 1.0
    assert abs(Snr(5.0).n0 - 10 ** (-0.5)) < 1e-15
    assert Snr(10.0).n0 == pytest.approx(0.1, rel=1e-12)
    # the dB value is capped so n0 never underflows to zero
    assert Snr(1e9).n0 == Snr(100.0).n0 == 1e-10


@pytest.mark.parametrize("kind", [Awgn, RayleighCsi])
@pytest.mark.parametrize("n0", [0.0, -1.0, float("nan"), float("inf")])
def test_noise_level_must_be_finite_and_positive(kind, n0):
    with pytest.raises(ValueError, match="finite and positive"):
        kind(n0)


def test_snr_too_low_for_a_float_noise_level():
    with pytest.raises(ValueError, match="-4000"):
        Snr(-4000.0).n0
    with pytest.raises(ValueError):
        awgn_from_snr(-4000.0)


def test_from_snr_accepts_both_forms():
    assert awgn_from_snr(Snr(3.0)).n0 == awgn_from_snr(3.0).n0
    assert rayleigh_from_snr(Snr(3.0)).n0 == rayleigh_from_snr(3.0).n0
    assert isinstance(rayleigh_from_snr(3.0), RayleighCsi)


def test_dmc_validation():
    with pytest.raises(ValueError):
        Dmc(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        Dmc(np.array([[1.5, -0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        Dmc(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Awgn(0.0)
    with pytest.raises(ValueError):
        bsc(1.5)


def test_bsc_matrix():
    np.testing.assert_allclose(bsc(0.1).matrix, [[0.9, 0.1], [0.1, 0.9]])


def test_density_dmc_is_matrix_entry():
    ch = bsc(0.1)
    assert density(ch, 0, 0) == 0.9
    assert density(ch, 1, 0) == 0.1


@pytest.mark.parametrize(
    "y, x, message",
    [
        (-1, 0, "output outside channel support"),
        (2, 0, "output outside channel support"),
        (0, -1, "input outside channel alphabet"),
        (0, 2, "input outside channel alphabet"),
        (0.7, 0, "output outside channel support"),
        (0, 0.5, "input outside channel alphabet"),
    ],
)
def test_density_dmc_rejects_index_outside_alphabet(y, x, message):
    with pytest.raises(ValueError, match=message):
        density(Dmc(np.array([[0.9, 0.1], [0.2, 0.8]])), y, x)


def test_density_awgn_peak_and_normalization():
    ch = Awgn(1.0)
    assert density(ch, 1 + 1j, 1 + 1j) == pytest.approx(1 / np.pi, rel=1e-12)
    # numeric integral over the complex plane is 1
    t = np.linspace(-6, 6, 401)
    dy = t[1] - t[0]
    grid = t[:, None] + 1j * t[None, :]
    vals = np.exp(-np.abs(grid - 0.3 + 0.2j) ** 2 / ch.n0) / (np.pi * ch.n0)
    assert vals.sum() * dy * dy == pytest.approx(1.0, abs=1e-6)


def test_rayleigh_density_reduces_to_awgn_at_unit_fading():
    n0 = 0.4
    y, x = 0.3 - 0.7j, 1j
    assert density(RayleighCsi(n0), (y, 1.0), x) == pytest.approx(
        density(Awgn(n0), y, x), rel=1e-15
    )


def test_sample_dmc_identity_channel():
    ch = Dmc(np.eye(4))
    rng = make_rng(0)
    for x in range(4):
        assert sample(ch, x, rng) == x
    with pytest.raises(ValueError):
        sample(ch, 7, rng)
    with pytest.raises(ValueError, match="input outside channel alphabet"):
        sample(ch, 1.5, rng)  # not truncated to row 1


@pytest.mark.parametrize(
    "ch, x",
    [(Dmc(np.array([[0.2, 0.5, 0.3], [0.6, 0.0, 0.4]])), 1), (Awgn(0.3), 1 - 1j), (RayleighCsi(0.3), 0.5j)],
    ids=["dmc", "awgn", "rayleigh"],
)
def test_sample_is_sample_batch_of_one_input(ch, x):
    for k in range(20):
        one = sample(ch, x, make_rng(9, k))
        batch = sample_batch(ch, np.array([x]), make_rng(9, k))
        if isinstance(ch, RayleighCsi):
            assert one == (batch[0][0], batch[1][0]) and all(type(v) is complex for v in one)
        else:
            assert one == batch[0] and type(one) is type(x)


def test_sample_awgn_statistics():
    rng = make_rng(7)
    y = sample_batch(Awgn(1.0), np.zeros(100_000, dtype=complex), rng)
    # |y|^2 is Exp(1): mean 1, estimator std 1/sqrt(N)
    assert abs(np.mean(np.abs(y) ** 2) - 1.0) < 3 / np.sqrt(y.size)
    # real part is N(0, 1/2); KS against the exact cdf
    p = scipy.stats.kstest(y.real, "norm", args=(0, np.sqrt(0.5))).pvalue
    assert p > 0.01


def test_rayleigh_unit_average_fading_power():
    rng = make_rng(11)
    _, h = sample_batch(RayleighCsi(1.0), np.ones(1_000_000, dtype=complex), rng)
    pw = np.abs(h) ** 2
    assert abs(pw.mean() - 1.0) < 3 * pw.std() / np.sqrt(pw.size)


@pytest.mark.parametrize("x", [[-1, -2], [3]], ids=["negative", "past-the-end"])
def test_sample_batch_dmc_refuses_input_outside_alphabet(x):
    # a negative input is not a row counted from the end
    with pytest.raises(ValueError, match="input outside channel alphabet"):
        sample_batch(Dmc(np.eye(3)), np.array(x), make_rng(0))


def test_sample_batch_dmc_matches_matrix(rng):
    mat = random_stochastic(np.random.default_rng(5), 3, 4)
    ch = Dmc(mat)
    x = np.repeat(np.arange(3), 40_000)
    y = sample_batch(ch, x, make_rng(3))
    for xi in range(3):
        counts = np.bincount(y[x == xi], minlength=4)
        p = scipy.stats.chisquare(counts, mat[xi] * counts.sum()).pvalue
        assert p > 0.01


def test_sample_batch_dmc_stays_in_alphabet_when_row_sums_below_one():
    class TopDraw:
        def random(self, shape):
            return np.full(shape, 1 - 1e-10)

    ch = Dmc([[0.5, 0.5 - 5e-10], [0.5 - 5e-10, 0.5]])  # rows sum to 1 - 5e-10
    y = sample_batch(ch, np.array([0, 1]), TopDraw())
    np.testing.assert_array_equal(y, [1, 1])


def test_make_rng_reproducible_and_stream_separated():
    a = make_rng(42, 1).random(8)
    b = make_rng(42, 1).random(8)
    c = make_rng(42, 2).random(8)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dmc_file_round_trip(tmp_path):
    ch = Dmc(random_stochastic(np.random.default_rng(9), 4, 3))
    csv = tmp_path / "ch.csv"
    save_dmc(ch, csv)
    np.testing.assert_allclose(load_dmc(csv).matrix, ch.matrix, atol=1e-15)

    js = tmp_path / "ch.json"
    save_dmc(ch, js)
    np.testing.assert_allclose(load_dmc(js).matrix, ch.matrix, atol=1e-15)

    hand = tmp_path / "hand.json"
    hand.write_text(
        '{"nx": 2, "ny": 2, "matrix": [0.9, 0.1, 0.1, 0.9]}'
    )
    np.testing.assert_allclose(load_dmc(hand).matrix, bsc(0.1).matrix)

    with pytest.raises(ValueError):
        load_dmc(tmp_path / "ch.txt")
    with pytest.raises(ValueError):
        save_dmc(ch, tmp_path / "ch.txt")


@pytest.mark.parametrize("key", ["nx", "ny", "matrix"])
def test_dmc_json_without_a_key_names_the_file_and_the_key(tmp_path, key):
    f = tmp_path / "ch.json"
    f.write_text(json.dumps({k: v for k, v in {"nx": 2, "ny": 2, "matrix": [0.9, 0.1, 0.1, 0.9]}.items() if k != key}))
    with pytest.raises(ValueError, match=f"missing key '{key}'") as err:
        load_dmc(f)
    assert str(f) in str(err.value)


def test_load_dmc_csv_rejects_rows_beyond_header(tmp_path):
    # a third row used to be dropped, loading a 2 x 2 channel silently
    f = tmp_path / "ch.csv"
    f.write_text("2,2\n0.9,0.1\n0.1,0.9\n0.5,0.5\n")
    with pytest.raises(ValueError, match="Dmc file shape does not match header"):
        load_dmc(f)


def test_load_dmc_json_rejects_matrix_of_wrong_length(tmp_path):
    f = tmp_path / "ch.json"
    f.write_text('{"nx": 2, "ny": 2, "matrix": [0.9, 0.1, 0.1, 0.9, 0.5, 0.5]}')
    with pytest.raises(ValueError, match="Dmc file shape does not match header"):
        load_dmc(f)


def test_load_dmc_json_nested_rows(tmp_path):
    f = tmp_path / "ch.json"
    f.write_text('{"nx": 2, "ny": 2, "matrix": [[0.9, 0.1], [0.1, 0.9]]}')
    np.testing.assert_array_equal(load_dmc(f).matrix, bsc(0.1).matrix)
    f.write_text('{"nx": 2, "ny": 2, "matrix": [[0.9, 0.1], [0.1]]}')
    with pytest.raises(ValueError, match="Dmc file shape does not match header"):
        load_dmc(f)
    f.write_text('{"nx": 2, "ny": 2, "matrix": [[0.9, 0.1, 0.0], [0.1, 0.9]]}')
    with pytest.raises(ValueError, match="Dmc file shape does not match header"):
        load_dmc(f)


@pytest.mark.parametrize(
    "name, content, field",
    [
        ("ch.json", "{", "not valid JSON"),
        ("ch.csv", "nx,ny\n0.9,0.1\n0.1,0.9\n", "header"),
        ("ch.csv", "2\n0.9,0.1\n0.1,0.9\n", "header"),
        ("ch.csv", "2,2\n0.9,x\n0.1,0.9\n", "row 1"),
        ("ch.json", '{"nx": "two", "ny": 2, "matrix": [0.9, 0.1, 0.1, 0.9]}', "nx"),
        ("ch.json", '{"nx": 2, "ny": 2, "matrix": [[0.9, "x"], [0.1, 0.9]]}', "matrix"),
        ("ch.csv", "", "header"),
        ("ch.csv", "2,2\n0.9,0.1\n", "matrix"),
        ("ch.csv", "2,2\n0.9,0.1\n\xff,0.9\n", "not a text file"),
        ("ch.json", '{"nx": 2, "ny": 2, "matrix": 5}', "matrix: expected a list, got 5"),
        ("ch.csv", "2,2\n0.9,0.2\n0.1,0.9\n", "matrix: Dmc matrix must be row-stochastic"),
    ],
    ids=["json-syntax", "csv-header-names", "csv-header-one-value", "csv-entry", "json-count", "json-entry",
         "csv-empty", "csv-shape", "not-utf8", "json-matrix-not-a-list", "csv-not-stochastic"],
)
def test_malformed_dmc_file_names_the_file_and_the_field(tmp_path, name, content, field):
    f = tmp_path / name
    f.write_bytes(content.encode("latin-1"))  # latin-1 writes "\xff" as one byte, which is not UTF-8
    with pytest.raises(ValueError) as err:
        load_dmc(f)
    assert str(err.value).startswith(f"{f}: {field}")


@pytest.mark.parametrize(
    "content, field",
    [
        ('{"nx": 2.7, "ny": 2, "matrix": [[0.9, 0.1], [0.1, 0.9]]}', "nx"),
        ('{"nx": true, "ny": 2, "matrix": [0.9, 0.1]}', "nx"),
        ('{"nx": "2", "ny": 2, "matrix": [0.9, 0.1, 0.1, 0.9]}', "nx"),
        ('{"nx": 2, "ny": 2.0, "matrix": [0.9, 0.1, 0.1, 0.9]}', "ny"),
        ('{"nx": 2, "ny": 2, "matrix": [[true, false], [false, true]]}', "matrix"),
        ('{"nx": 2, "ny": 2, "matrix": [0.9, "0.1", 0.1, 0.9]}', "matrix"),
        ('{"nx": 2, "ny": 2, "matrix": [0.9, null, 0.1, 0.9]}', "matrix"),
    ],
    ids=["count-fraction", "count-bool", "count-string", "count-float", "entry-bool", "entry-string", "entry-null"],
)
def test_dmc_json_reads_counts_and_entries_only_as_json_numbers(tmp_path, content, field):
    f = tmp_path / "ch.json"
    f.write_text(content)
    with pytest.raises(ValueError) as err:
        load_dmc(f)
    assert str(err.value).startswith(f"{f}: {field}: expected a JSON")
    # integer entries are numbers, as 0 and 1 are in a noiseless channel
    f.write_text('{"nx": 2, "ny": 2, "matrix": [[1, 0], [0, 1]]}')
    np.testing.assert_array_equal(load_dmc(f).matrix, np.eye(2))


@pytest.mark.parametrize("shape", [(0, 3), (0, 0), (2, 0)])
def test_dmc_refuses_an_empty_matrix(shape):
    # a 0-row channel would pass the row-sum check, and its capacity divide by zero
    with pytest.raises(ValueError, match="at least one row and one column"):
        Dmc(np.zeros(shape))


@pytest.mark.parametrize(
    "name, content, field",
    [
        ("ch.csv", "0,2\n", "nx"),
        ("ch.csv", "-1,2\n", "nx"),
        ("ch.csv", "2,0\n", "ny"),
        ("ch.json", '{"nx": 0, "ny": 2, "matrix": []}', "nx"),
        ("ch.json", '{"nx": 1, "ny": 0, "matrix": [[]]}', "ny"),
    ],
    ids=["csv-no-rows", "csv-negative-rows", "csv-no-columns", "json-no-rows", "json-no-columns"],
)
def test_dmc_file_with_a_count_below_one_names_the_file_and_the_field(tmp_path, name, content, field):
    f = tmp_path / name
    f.write_text(content)
    with pytest.raises(ValueError) as err:
        load_dmc(f)
    assert str(err.value).startswith(f"{f}: {field}: must be at least 1, got ")


def test_dmc_is_a_value():
    m = random_stochastic(np.random.default_rng(5), 3, 4)
    ch = Dmc(m)
    assert ch == Dmc(m.copy()) and hash(ch) == hash(Dmc(m.copy()))
    assert ch != Dmc(m[::-1]) and ch != Dmc(m[:, :3] / m[:, :3].sum(axis=1, keepdims=True))
    assert bsc(0.1) != Awgn(0.1)
    # the channel holds a read-only copy; the caller's array is untouched
    assert m.flags.writeable
    m[0, 0] += 1.0
    assert ch.matrix[0, 0] != m[0, 0]
    with pytest.raises(ValueError):
        ch.matrix[0, 0] = 0.5


def test_dmc_stays_a_value_across_pickling():
    ch = Dmc(random_stochastic(np.random.default_rng(6), 4, 5))
    back = pickle.loads(pickle.dumps(ch))
    assert back == ch and hash(back) == hash(ch)
    assert not back.matrix.flags.writeable
