import numpy as np
import pytest

from pbicm.channel import Awgn, Dmc, RayleighCsi, load_dmc, make_rng
from pbicm.constellation import int_to_bits, make_constellation
from pbicm.infotheory import E0Evaluator, capacity_subchannel
from pbicm.subchannel import (
    LLR_MAX,
    SubchannelView,
    WbarOutput,
    label_sets,
    llr_bit,
    llr_matrix,
    llr_wbar,
    subchannel_prob,
    wbar_as_dmc,
    wbar_to_csv,
)

from conftest import dmc_in_label_order, random_stochastic

QPSK = make_constellation("QPSK")
BPSK = make_constellation("BPSK")


def test_label_sets_partition():
    s = label_sets(3)
    assert s.shape == (3, 2, 4)
    for i in range(3):
        merged = sorted(np.concatenate([s[i, 0], s[i, 1]]).tolist())
        assert merged == list(range(8))
        for b in (0, 1):
            assert all(((v >> (2 - i)) & 1) == b for v in s[i, b])


def test_label_sets_are_read_only():
    # the cached array is shared by every demapper: a write would change every later LLR
    y = np.array([0.3 + 0.1j, -0.2 - 0.7j])
    before = llr_matrix(Awgn(0.5), QPSK, y)
    with pytest.raises(ValueError):
        label_sets(1)[0, 0, 0] = 1
    np.testing.assert_array_equal(llr_matrix(Awgn(0.5), QPSK, y), before)


def test_single_bit_constellation_reduces_to_base():
    ch = Dmc(random_stochastic(np.random.default_rng(0), 2, 3))
    v = SubchannelView(ch, BPSK, 1)
    for y in range(3):
        for b in (0, 1):
            assert v.prob(y, b) == pytest.approx(ch.matrix[BPSK.labels[b], y], abs=1e-15)


def test_completion_average_against_brute_force():
    rng = np.random.default_rng(17)
    mat = random_stochastic(rng, 4, 3)
    ch = Dmc(mat)
    # W_2(y|b) averages the rows reached with first bit free, second fixed
    for b in (0, 1):
        for y in range(3):
            labels = [(0 << 1) | b, (1 << 1) | b]
            want = np.mean([mat[QPSK.labels[lab], y] for lab in labels])
            got = subchannel_prob(SubchannelView(ch, QPSK, 2), y, b)
            assert got == pytest.approx(want, abs=1e-15)
    # same idea on bit 1 of PSK8 with all four completions
    cons8 = make_constellation("PSK8")
    ch8 = Dmc(random_stochastic(rng, 8, 5))
    for b in (0, 1):
        want = np.mean(
            [ch8.matrix[cons8.labels[(b << 2) | t], 4] for t in range(4)]
        )
        assert subchannel_prob(SubchannelView(ch8, cons8, 1), 4, b) == pytest.approx(
            want, abs=1e-15
        )


def test_subchannel_prob_validates():
    ch = Dmc(random_stochastic(np.random.default_rng(1), 4, 3))
    with pytest.raises(ValueError):
        SubchannelView(ch, QPSK, 3)
    with pytest.raises(ValueError):
        SubchannelView(ch, QPSK, 0)
    with pytest.raises(ValueError):
        subchannel_prob(SubchannelView(ch, QPSK, 1), 0, 2)
    with pytest.raises(ValueError):
        SubchannelView(Dmc(random_stochastic(np.random.default_rng(1), 2, 3)), QPSK, 1)


@pytest.mark.parametrize("s", [1.5, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "entry",
    [
        lambda ch, s: capacity_subchannel(ch, QPSK, s),
        lambda ch, s: E0Evaluator(ch, QPSK, "Subchannel", s).e0(0.5),
        lambda ch, s: SubchannelView(ch, QPSK, s).llr(0),
        lambda ch, s: llr_bit(ch, QPSK, s, 0),
        lambda ch, s: llr_wbar(ch, QPSK, WbarOutput(0, s, 0)),
    ],
    ids=["capacity_subchannel", "E0Evaluator", "SubchannelView", "llr_bit", "WbarOutput"],
)
def test_subchannel_index_must_be_an_integer(entry, s):
    # neither 1.5 nor True names a sub-channel: True is not read as sub-channel 1
    with pytest.raises(ValueError, match="not an integer in 1.."):
        entry(Dmc(random_stochastic(np.random.default_rng(1), 4, 3)), s)


@pytest.mark.parametrize("b", [True, 1.0])
def test_subchannel_prob_reads_any_0_1_bit(b):
    view = SubchannelView(Dmc(random_stochastic(np.random.default_rng(1), 4, 3)), QPSK, 2)
    assert view.prob(1, b) == view.prob(1, 1)


def test_dmc_input_count_is_checked_once_everywhere():
    from pbicm.codec import PbicmSimConfig, hamming74
    from pbicm.infotheory import capacity_pbicm

    ch = Dmc(random_stochastic(np.random.default_rng(2), 8, 3))
    for call in (
        lambda: SubchannelView(ch, QPSK, 1),
        lambda: PbicmSimConfig(hamming74(), QPSK, ch, trials=10),
        lambda: llr_matrix(ch, QPSK, np.array([0])),
        lambda: wbar_as_dmc(ch, QPSK),
        lambda: capacity_pbicm(ch, QPSK),
    ):
        with pytest.raises(ValueError, match=r"Dmc input count must equal 2\*\*L"):
            call()


@pytest.mark.parametrize(
    "base, y", [(Awgn(0.5), 0.3 - 0.8j), (RayleighCsi(0.5), (0.3 - 0.8j, 0.6 + 0.2j))], ids=["awgn", "rayleigh"]
)
def test_subchannel_view_llr_is_llr_bit(base, y):
    cons = make_constellation("QAM16")
    for i in range(1, cons.L + 1):
        assert SubchannelView(base, cons, i).llr(y) == llr_bit(base, cons, i, y)


def test_awgn_subchannel_prob_is_mixture_of_gaussians():
    ch = Awgn(0.5)
    y = 0.3 + 0.1j
    v = SubchannelView(ch, QPSK, 1)
    comps = [QPSK.symbols[0b00], QPSK.symbols[0b01]]  # first bit 0, second free
    want = np.mean([np.exp(-abs(y - s) ** 2 / ch.n0) / (np.pi * ch.n0) for s in comps])
    assert v.prob(y, 0) == pytest.approx(want, rel=1e-12)


def test_bpsk_awgn_llr_closed_form():
    n0 = 0.37
    ch = Awgn(n0)
    for y in (0.0 + 0j, 1.3 - 0.4j, -2.0 + 1j, 0.05j):
        assert llr_bit(ch, BPSK, 1, y) == pytest.approx(4 * y.real / n0, rel=1e-10, abs=1e-12)


def test_rayleigh_llr_scales_with_fading():
    n0 = 0.5
    ch = RayleighCsi(n0)
    y, h = 0.7 - 0.2j, 0.6 + 0.3j
    # conditioned on h the channel is AWGN with input h*x
    want = 4 * (y * np.conj(h)).real / n0
    assert llr_bit(ch, BPSK, 1, (y, h)) == pytest.approx(want, rel=1e-10)


def test_llr_symmetric_output_is_zero():
    ch = dmc_in_label_order(BPSK, [[0.5, 0.5], [0.5, 0.5]])
    assert llr_bit(ch, BPSK, 1, 0) == 0.0


def test_llr_clamping_and_support_error():
    ch = dmc_in_label_order(BPSK, [[1.0, 0.0], [0.0, 1.0]])
    assert llr_bit(ch, BPSK, 1, 0) == LLR_MAX
    assert llr_bit(ch, BPSK, 1, 1) == -LLR_MAX
    ch3 = dmc_in_label_order(BPSK, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        llr_bit(ch3, BPSK, 1, 2)
    with pytest.raises(ValueError):
        llr_matrix(ch3, BPSK, np.array([2]))


@pytest.mark.parametrize("y", [-1, 2, [0, 1, 2], 0.7])
def test_dmc_llr_rejects_output_index_outside_alphabet(y):
    ch = Dmc(np.array([[0.9, 0.1], [0.2, 0.8]]))
    with pytest.raises(ValueError, match="output outside channel support"):
        llr_matrix(ch, BPSK, np.atleast_1d(y))
    with pytest.raises(ValueError, match="output outside channel support"):
        llr_bit(ch, BPSK, 1, np.atleast_1d(y)[-1])


@pytest.mark.parametrize("y", [-1, 2])
def test_dmc_subchannel_prob_rejects_output_index_outside_alphabet(y):
    view = SubchannelView(Dmc(np.array([[0.9, 0.1], [0.2, 0.8]])), BPSK, 1)
    with pytest.raises(ValueError, match="output outside channel support"):
        view.prob(y, 0)


def test_llr_matrix_matches_scalar_calls():
    rng = make_rng(2)
    for base, outs in [
        (Awgn(0.4), rng.normal(size=6) + 1j * rng.normal(size=6)),
        (Dmc(random_stochastic(np.random.default_rng(3), 8, 5)), np.arange(5)),
    ]:
        cons = make_constellation("PSK8")
        z = llr_matrix(base, cons, np.asarray(outs))
        for i in range(1, 4):
            for k, y in enumerate(outs):
                assert z[i - 1, k] == pytest.approx(llr_bit(base, cons, i, y), rel=1e-12, abs=1e-12)
    # Rayleigh path threads the fading coefficient through
    ray = RayleighCsi(0.4)
    y = rng.normal(size=4) + 1j * rng.normal(size=4)
    h = rng.normal(size=4) + 1j * rng.normal(size=4)
    z = llr_matrix(ray, QPSK, y, h)
    for k in range(4):
        assert z[0, k] == pytest.approx(llr_bit(ray, QPSK, 1, (y[k], h[k])), rel=1e-12)


@pytest.mark.parametrize(
    "base, y, h, message",
    [
        (RayleighCsi(0.5), np.array([0.3 + 0.2j]), None, "RayleighCsi base needs fading coefficients"),
        (Awgn(0.5), np.array([0.3 + 0.2j]), np.array([0.1]), "Awgn base takes no fading coefficients"),
        (Dmc(np.array([[0.9, 0.1], [0.2, 0.8]])), np.array([0]), np.array([1.0]), "Dmc base takes no fading"),
        (RayleighCsi(0.5), np.full(5, 0.3 + 0.2j), np.array([0.8 - 0.1j]), "h: 1 given for 5 outputs"),
        (RayleighCsi(0.5), np.full(9000, 0.3 + 0.2j), np.array([0.8 - 0.1j]), "h: 1 given for 9000 outputs"),
        (RayleighCsi(0.5), np.full(3, 0.3 + 0.2j), np.full(4, 0.8 - 0.1j), "h: 4 given for 3 outputs"),
    ],
    ids=["rayleigh_without_h", "awgn_with_h", "dmc_with_h", "one_h_for_5", "one_h_for_9000", "h_longer_than_y"],
)
def test_llr_matrix_refuses_a_fading_coefficient_that_does_not_match_the_base(base, y, h, message):
    # a Rayleigh output without its gain would be demapped at unit gain, an AWGN one with a gain faded;
    # a short h was broadcast against a few outputs and broke on a batch spanning several blocks
    with pytest.raises(ValueError, match=message):
        llr_matrix(base, BPSK if isinstance(base, Dmc) else QPSK, y, h)


@pytest.mark.parametrize("kind", ["awgn", "rayleigh", "dmc"])
def test_llr_matrix_agrees_with_direct_ratio(kind):
    # the batched demapper against the scalar sub-channel law, for every base
    cons = make_constellation("QAM16")
    y = np.array([0.2 + 0.9j, -1.1 - 0.3j])
    h = np.array([0.8 - 0.5j, -0.3 + 1.2j])
    if kind == "dmc":
        base, batch = Dmc(random_stochastic(np.random.default_rng(5), 16, 7)), (np.arange(7),)
    elif kind == "awgn":
        base, batch = Awgn(0.6), (y,)
    else:
        base, batch = RayleighCsi(0.6), (y, h)
    z = llr_matrix(base, cons, *batch)
    outs = batch[0] if len(batch) == 1 else list(zip(*batch))
    for i in range(1, 5):
        v = SubchannelView(base, cons, i)
        for k, yv in enumerate(outs):
            want = np.log(v.prob(yv, 0) / v.prob(yv, 1))
            assert z[i - 1, k] == pytest.approx(want, rel=1e-10)


def test_wbar_output_validation():
    with pytest.raises(ValueError):
        WbarOutput(0.0, 0, 0)
    with pytest.raises(ValueError):
        WbarOutput(0.0, 1, 2)


def test_llr_wbar_dither_antisymmetry():
    base = Awgn(0.5)
    cons = make_constellation("PSK8")
    y = 0.4 - 1.2j
    for s in (1, 2, 3):
        plus = llr_wbar(base, cons, WbarOutput(y, s, 0))
        minus = llr_wbar(base, cons, WbarOutput(y, s, 1))
        assert plus == pytest.approx(llr_bit(base, cons, s, y), abs=0)
        assert plus + minus == 0.0


def test_wbar_as_dmc_structure():
    base = Dmc(random_stochastic(np.random.default_rng(4), 4, 3))
    w = wbar_as_dmc(base, QPSK)
    assert w.matrix.shape == (2, 3 * 2 * 2)
    np.testing.assert_allclose(w.matrix.sum(axis=1), 1.0, atol=1e-12)
    L, ny = 2, 3
    for s in (1, 2):
        v = SubchannelView(base, QPSK, s)
        for y in range(ny):
            for d in (0, 1):
                col = ((s - 1) * ny + y) * 2 + d
                for b in (0, 1):
                    want = v.prob(y, b ^ d) / (2 * L)
                    assert w.matrix[b, col] == pytest.approx(want, abs=1e-15)
    # flipping both the input and the dither leaves the law unchanged
    cols_d0 = np.arange(0, w.ny, 2)
    np.testing.assert_allclose(w.matrix[0, cols_d0], w.matrix[1, cols_d0 + 1], atol=1e-15)


def test_wbar_as_dmc_single_level():
    base = Dmc(random_stochastic(np.random.default_rng(6), 2, 4))
    w = wbar_as_dmc(base, BPSK)
    by_label = base.matrix[BPSK.labels]
    for b in (0, 1):
        for y in range(4):
            for d in (0, 1):
                assert w.matrix[b, y * 2 + d] == pytest.approx(by_label[b ^ d, y] / 2, abs=1e-15)


def test_wbar_llr_matches_matrix_entries():
    base = Dmc(random_stochastic(np.random.default_rng(8), 4, 3))
    w = wbar_as_dmc(base, QPSK)
    for s in (1, 2):
        for y in range(3):
            for d in (0, 1):
                col = ((s - 1) * 3 + y) * 2 + d
                want = np.log(w.matrix[0, col] / w.matrix[1, col])
                got = llr_wbar(base, QPSK, WbarOutput(y, s, d))
                assert got == pytest.approx(want, rel=1e-12)


def test_wbar_requires_dmc():
    with pytest.raises(ValueError):
        wbar_as_dmc(Awgn(1.0), QPSK)


def test_wbar_to_csv_round_trips(tmp_path):
    base = Dmc(random_stochastic(np.random.default_rng(10), 8, 4))
    cons = make_constellation("PSK8")
    path = tmp_path / "wbar.csv"
    wbar_to_csv(base, cons, path)
    loaded = load_dmc(path)
    np.testing.assert_allclose(loaded.matrix, wbar_as_dmc(base, cons).matrix, atol=1e-15)


def test_subchannel_prob_normalizes_over_outputs():
    base = Dmc(random_stochastic(np.random.default_rng(12), 8, 6))
    cons = make_constellation("PSK8")
    for i in (1, 2, 3):
        v = SubchannelView(base, cons, i)
        for b in (0, 1):
            total = sum(v.prob(y, b) for y in range(6))
            assert total == pytest.approx(1.0, abs=1e-12)
    # continuous case: the mixture density integrates to 1 on a dense grid
    aw = Awgn(0.8)
    v = SubchannelView(aw, QPSK, 2)
    t = np.linspace(-5, 5, 301)
    dt = t[1] - t[0]
    grid = t[:, None] + 1j * t[None, :]
    vals = np.vectorize(lambda y: v.prob(y, 0))(grid)
    assert vals.sum() * dt * dt == pytest.approx(1.0, abs=1e-4)
