import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbicm.channel import Awgn, Dmc, RayleighCsi, Snr, make_rng, save_dmc
from pbicm.codec import (
    BinaryCode,
    PbicmSimConfig,
    _ml_decode_batch,
    PbicmState,
    apply_dither,
    deinterleave,
    equivalence_test,
    hamming74,
    interleave,
    make_code,
    make_state,
    ml_decode,
    pbicm_receive,
    pbicm_transmit,
    random_codebook,
    remove_dither_llr,
    repetition,
    simulate,
    wilson_ci,
)
from pbicm.constellation import make_constellation
from pbicm.subchannel import LLR_MAX

QPSK = make_constellation("QPSK")


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------


def test_code_validation():
    with pytest.raises(ValueError):
        BinaryCode("bad", np.zeros((1, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        BinaryCode("bad", np.array([[0, 2], [1, 0]], dtype=np.uint8))
    with pytest.raises(ValueError):
        BinaryCode("bad", np.zeros((2**16 + 1, 1), dtype=np.uint8))
    with pytest.raises(ValueError):
        repetition(0)


def test_code_rejects_zero_blocklength():
    with pytest.raises(ValueError, match="blocklength"):
        random_codebook(0, 4, 1)
    cfg = {
        "code": {"kind": "random", "n": 0, "M": 4},
        "constellation": "QPSK",
        "channel": {"kind": "awgn", "snr_db": 5.0},
        "trials": 10,
    }
    with pytest.raises(ValueError, match="blocklength"):
        PbicmSimConfig.from_json(json.dumps(cfg))


def test_repetition_and_rate():
    c = repetition(5)
    assert c.M == 2 and c.n == 5 and c.rate == pytest.approx(0.2)
    np.testing.assert_array_equal(c.codebook[1], np.ones(5))


def test_hamming74_structure():
    c = hamming74()
    assert (c.M, c.n) == (16, 7)
    assert c.rate == pytest.approx(4 / 7)
    assert c.message_bits == 4
    # distinct codewords with minimum pairwise distance 3
    cb = c.codebook.astype(int)
    dists = [
        (cb[i] ^ cb[j]).sum() for i in range(16) for j in range(i + 1, 16)
    ]
    assert min(dists) == 3


def test_random_codebook_reproducible():
    a = random_codebook(10, 8, seed=3)
    b = random_codebook(10, 8, seed=3)
    c = random_codebook(10, 8, seed=4)
    np.testing.assert_array_equal(a.codebook, b.codebook)
    assert not np.array_equal(a.codebook, c.codebook)


def test_make_code_dispatch():
    assert make_code({"kind": "repetition", "n": 3}).n == 3
    assert make_code({"kind": "hamming74"}).M == 16
    assert make_code({"kind": "random", "n": 6, "M": 4, "seed": 1}).M == 4
    with pytest.raises(ValueError):
        make_code({"kind": "turbo"})


# ---------------------------------------------------------------------------
# interleaving and dither
# ---------------------------------------------------------------------------


def test_interleave_hand_case():
    B = np.array([[1], [2], [3]])
    np.testing.assert_array_equal(interleave(B, np.array([1])), [[2], [3], [1]])
    np.testing.assert_array_equal(interleave(B, np.array([0])), B)
    np.testing.assert_array_equal(deinterleave(interleave(B, np.array([2])), np.array([2])), B)


def test_interleave_single_level_is_identity():
    B = np.arange(6).reshape(1, 6)
    np.testing.assert_array_equal(interleave(B, np.zeros(6, dtype=int)), B)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 4), st.integers(0, 10**6))
def test_interleave_round_trip_property(L, n, T, seed):
    rng = np.random.default_rng(seed)
    B = rng.integers(0, 2, size=(L, n))
    s = rng.integers(0, L, size=n)
    np.testing.assert_array_equal(deinterleave(interleave(B, s), s), B)
    # columns are permuted, never mixed
    assert sorted(interleave(B, s)[:, 0].tolist()) == sorted(B[:, 0].tolist())
    # a leading batch axis acts block by block
    Bt = rng.integers(0, 2, size=(T, L, n))
    St = rng.integers(0, L, size=(T, n))
    for shift in (interleave, deinterleave):
        np.testing.assert_array_equal(shift(Bt, St), [shift(b, x) for b, x in zip(Bt, St)])


def test_dither_involution():
    rng = np.random.default_rng(0)
    b = rng.integers(0, 2, size=(3, 9)).astype(np.uint8)
    d = rng.integers(0, 2, size=(3, 9)).astype(np.uint8)
    np.testing.assert_array_equal(apply_dither(apply_dither(b, d), d), b)
    np.testing.assert_array_equal(apply_dither(b, np.zeros_like(d)), b)
    np.testing.assert_array_equal(apply_dither(b, b), np.zeros_like(b))


def test_remove_dither_llr_signs():
    z = np.array([[1.5, -2.0, 0.5]])
    d = np.array([[0, 1, 1]])
    np.testing.assert_allclose(remove_dither_llr(z, d), [[1.5, 2.0, -0.5]])
    np.testing.assert_allclose(remove_dither_llr(remove_dither_llr(z, d), d), z)


def test_state_validation():
    rng = make_rng(0)
    st_ = make_state(3, 10, rng)
    assert st_.s.shape == (10,) and st_.d.shape == (3, 10)
    assert st_.s.min() >= 0 and st_.s.max() < 3
    with pytest.raises(ValueError):
        PbicmState(np.array([0, 1]), np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        PbicmState(np.array([0, 2, 1]), np.zeros((2, 3), dtype=np.uint8))


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def test_ml_decode_examples():
    c = repetition(3)
    assert ml_decode(c, np.array([2.0, -1.0, 3.0])) == 0
    assert ml_decode(c, np.array([-2.0, 1.0, -3.0])) == 1
    # ties resolve to the lowest message index
    assert ml_decode(c, np.zeros(3)) == 0
    with pytest.raises(ValueError):
        ml_decode(c, np.zeros(4))


def test_ml_decode_noiseless_hamming():
    c = hamming74()
    for msg in range(16):
        z = LLR_MAX * (1.0 - 2.0 * c.codebook[msg])
        assert ml_decode(c, z) == msg


def test_ml_decode_batch_matches_per_row():
    code = random_codebook(64, 4096, seed=1)
    Z = make_rng(2).normal(size=(5, 2, 64))
    dec = _ml_decode_batch(code, Z)
    assert dec.shape == (5, 2)
    signs = 1.0 - 2.0 * code.codebook.astype(float)
    np.testing.assert_array_equal(dec, [[ml_decode(code, z) for z in row] for row in Z])
    np.testing.assert_array_equal(dec, [[np.argmax(signs @ z) for z in row] for row in Z])


# ---------------------------------------------------------------------------
# transmit / receive
# ---------------------------------------------------------------------------


def test_round_trip_noiseless_dmc():
    ch = Dmc(np.eye(4))
    code = hamming74()
    for seed in range(3):
        rng = make_rng(seed)
        state = make_state(2, code.n, rng)
        msgs = make_rng(seed, 5).integers(0, 16, size=2)
        y = pbicm_transmit(msgs, code, state, ch, QPSK, rng)
        np.testing.assert_array_equal(pbicm_receive(y, state, code, ch, QPSK), msgs)


def test_round_trip_high_snr_awgn():
    ch = Awgn(Snr(30.0).n0)
    code = hamming74()
    rng = make_rng(11)
    state = make_state(2, code.n, rng)
    msgs = np.array([5, 12])
    y = pbicm_transmit(msgs, code, state, ch, QPSK, rng)
    np.testing.assert_array_equal(pbicm_receive(y, state, code, ch, QPSK), msgs)


def test_transmit_validation():
    code = hamming74()
    state = make_state(2, code.n, make_rng(0))
    with pytest.raises(ValueError):
        pbicm_transmit(np.array([0]), code, state, Dmc(np.eye(4)), QPSK, make_rng(1))
    with pytest.raises(ValueError):
        pbicm_transmit(np.array([0, 16]), code, state, Dmc(np.eye(4)), QPSK, make_rng(1))


def test_transmit_deterministic_given_rng():
    code = hamming74()
    state = make_state(2, code.n, make_rng(3))
    msgs = np.array([1, 2])
    ch = Awgn(1.0)
    y1 = pbicm_transmit(msgs, code, state, ch, QPSK, make_rng(9))
    y2 = pbicm_transmit(msgs, code, state, ch, QPSK, make_rng(9))
    np.testing.assert_array_equal(y1, y2)


def test_transmitted_symbols_uniform():
    # dither + state make the symbol stream uniform even with frozen messages;
    # an identity Dmc exposes the transmitted point indices directly
    ch = Dmc(np.eye(4))
    code = random_codebook(100_000, 2, seed=2)
    rng = make_rng(21)
    state = make_state(2, code.n, rng)
    y = pbicm_transmit(np.array([0, 0]), code, state, ch, QPSK, rng)
    counts = np.bincount(y, minlength=4)
    from scipy.stats import chisquare

    assert chisquare(counts).pvalue > 0.01


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def _cfg(trials=4000, seed=7, snr_db=2.0, kind="QPSK"):
    return PbicmSimConfig(
        hamming74(), make_constellation(kind), Awgn(Snr(snr_db).n0), trials=trials, seed=seed
    )


def test_simulate_error_free_at_high_snr():
    res = simulate(_cfg(trials=10_000, seed=1, snr_db=50.0))
    assert res.pe_overall == 0.0
    assert res.pe_wbar_direct == 0.0
    assert res.ber_overall == 0.0


def test_simulate_counter_identities():
    res = simulate(_cfg())
    c = res.counts
    lvl = np.array(c["level_errors"])
    # a block errs iff some level errs: exact counter sandwich
    assert lvl.max() <= c["block_errors"] <= lvl.sum()
    assert res.pe_overall == c["block_errors"] / res.trials
    # overall BER is the exact mean of the per-level BERs
    assert res.ber_overall == pytest.approx(np.mean(res.ber_per_level), abs=1e-15)
    kb = c["message_bits"]
    assert res.ber_per_level == pytest.approx(
        [v / (res.trials * kb) for v in c["bit_errors"]], abs=1e-15
    )


def test_simulate_levels_statistically_identical():
    res = simulate(_cfg())
    # both levels see the same binary channel; their CIs overlap, and the
    # direct synthesized-channel estimate falls in line
    (lo1, hi1), (lo2, hi2) = res.pe_per_level_ci
    assert max(lo1, lo2) < min(hi1, hi2)
    wlo, whi = res.pe_wbar_direct_ci
    for lo, hi in res.pe_per_level_ci:
        assert max(lo, wlo) < min(hi, whi)


def test_simulate_deterministic_and_seed_sensitive():
    a = simulate(_cfg(trials=2000, seed=5))
    b = simulate(_cfg(trials=2000, seed=5))
    c = simulate(_cfg(trials=2000, seed=6))
    assert a.to_json() == b.to_json()
    assert a.counts != c.counts


def test_simulate_chunking_consistency():
    # crossing the internal chunk boundary must not change anything about
    # the first trials: error counts only accumulate
    small = simulate(_cfg(trials=5000, seed=9))
    large = simulate(_cfg(trials=9000, seed=9))
    assert large.counts["block_errors"] >= small.counts["block_errors"]


def _pinned_dmc():
    from conftest import random_stochastic

    return Dmc(random_stochastic(np.random.default_rng(4), 4, 5))


@pytest.mark.parametrize(
    "code, kind, channel, trials, seed, counts",
    [
        (
            hamming74(), "QPSK", Awgn(Snr(2.0).n0), 3000, 7,
            {"block_errors": 468, "level_errors": [247, 243], "bit_errors": [447, 460],
             "wbar_errors": 290, "message_bits": 4},
        ),
        (
            repetition(5), "QAM16", RayleighCsi(Snr(8.0).n0), 9000, 3,
            {"block_errors": 217, "level_errors": [60, 51, 54, 57],
             "bit_errors": [60, 51, 54, 57], "wbar_errors": 53, "message_bits": 1},
        ),
        (
            hamming74(), "QPSK", _pinned_dmc(), 3000, 4,
            {"block_errors": 2927, "level_errors": [2621, 2612], "bit_errors": [5339, 5297],
             "wbar_errors": 2638, "message_bits": 4},
        ),
    ],
    ids=["qpsk-awgn-hamming", "qam16-rayleigh-rep5", "qpsk-dmc4x5-hamming"],
)
def test_simulate_counts_pinned(code, kind, channel, trials, seed, counts):
    # exact counters pin the generator draw order, across chunks (9000 > 8192)
    cfg = PbicmSimConfig(code, make_constellation(kind), channel, trials=trials, seed=seed)
    assert simulate(cfg).counts == counts


def test_sim_config_validation():
    with pytest.raises(ValueError):
        _cfg(trials=0)
    with pytest.raises(ValueError):
        PbicmSimConfig(hamming74(), QPSK, Dmc(np.eye(8)), trials=10)


def test_sim_config_from_json(tmp_path):
    cfg = PbicmSimConfig.from_json(
        json.dumps(
            {
                "code": {"kind": "hamming74"},
                "constellation": "QPSK",
                "channel": {"kind": "awgn", "snr_db": 5.0},
                "trials": 100,
                "seed": 3,
            }
        )
    )
    assert cfg.seed == 3 and cfg.trials == 100
    assert isinstance(cfg.channel, Awgn)
    assert cfg.channel.n0 == pytest.approx(10**-0.5)

    mat = np.eye(4)
    save_dmc(Dmc(mat), tmp_path / "ch.csv")
    cfg2 = PbicmSimConfig.from_json(
        json.dumps(
            {
                "code": {"kind": "repetition", "n": 3},
                "constellation": "QPSK",
                "channel": {"kind": "dmc", "file": "ch.csv"},
                "trials": 50,
            }
        ),
        base_dir=tmp_path,
    )
    np.testing.assert_array_equal(cfg2.channel.matrix, mat)
    assert cfg2.seed == 0

    cfg3 = PbicmSimConfig.from_json(
        json.dumps(
            {
                "code": {"kind": "repetition", "n": 3},
                "constellation": "QPSK",
                "channel": {"kind": "dmc", "matrix": mat.tolist()},
                "trials": 50,
            }
        )
    )
    np.testing.assert_array_equal(cfg3.channel.matrix, mat)

    def snr_cfg(kind, snr_db):
        return json.dumps(
            {
                "code": {"kind": "hamming74"},
                "constellation": "QPSK",
                "channel": {"kind": kind, "snr_db": snr_db},
                "trials": 10,
            }
        )

    # the SNR is capped at 100 dB as on the command line, and NaN is refused
    assert PbicmSimConfig.from_json(snr_cfg("awgn", 4000)).channel.n0 == 1e-10
    assert PbicmSimConfig.from_json(snr_cfg("rayleigh", 4000)).channel == RayleighCsi(1e-10)
    with pytest.raises(ValueError):
        PbicmSimConfig.from_json(snr_cfg("awgn", float("nan")))

    with pytest.raises(ValueError):
        PbicmSimConfig.from_json(
            json.dumps(
                {
                    "code": {"kind": "hamming74"},
                    "constellation": "QPSK",
                    "channel": {"kind": "laplace", "snr_db": 1.0},
                    "trials": 10,
                }
            )
        )


def test_wilson_ci_reference_values():
    lo, hi = wilson_ci(5, 10)
    assert lo == pytest.approx(0.236593090512564, abs=1e-12)
    assert hi == pytest.approx(0.7634069094874361, abs=1e-12)
    assert wilson_ci(0, 10)[0] == 0.0
    assert wilson_ci(10, 10)[1] == pytest.approx(1.0, abs=1e-12)
    assert wilson_ci(0, 0) == (0.0, 1.0)
    # interval contains the point estimate and shrinks with n
    w1 = wilson_ci(50, 100)
    w2 = wilson_ci(500, 1000)
    assert w1[0] < 0.5 < w1[1]
    assert (w2[1] - w2[0]) < (w1[1] - w1[0])


# ---------------------------------------------------------------------------
# statistical equivalence
# ---------------------------------------------------------------------------


def test_equivalence_requires_enough_samples():
    with pytest.raises(ValueError):
        equivalence_test(_cfg(trials=100))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_equivalence_null_calibration_awgn(seed):
    rep = equivalence_test(_cfg(trials=1500, seed=seed))
    assert rep.method == "ks"
    assert rep.p_value > 0.01
    assert min(rep.samples_per_bit) > 4000


def test_equivalence_discrete_channel():
    from conftest import random_stochastic

    ch = Dmc(random_stochastic(np.random.default_rng(4), 4, 5))
    cfg = PbicmSimConfig(hamming74(), QPSK, ch, trials=2000, seed=0)
    rep = equivalence_test(cfg)
    assert rep.method == "chi2"
    assert rep.p_value > 0.01


def test_equivalence_detects_missing_dither():
    # the 4-PAM axis of 16-QAM has an asymmetric low bit, so skipping the
    # dither shifts the conditional LLR law far outside sampling noise
    cfg = _cfg(trials=3000, seed=0, kind="QAM16")
    assert equivalence_test(cfg).p_value > 0.01
    assert equivalence_test(cfg, dither=False).p_value < 1e-3


def test_equivalence_detects_frozen_levels_without_dither():
    cfg = _cfg(trials=3000, seed=0, kind="QAM16")
    # freezing the other levels is harmless while the dither is on...
    assert equivalence_test(cfg, zero_other_levels=True).p_value > 0.01
    # ...and glaring once it is off
    assert (
        equivalence_test(cfg, dither=False, zero_other_levels=True).p_value < 1e-3
    )
