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
