import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbicm.channel import Awgn, Dmc, RayleighCsi, Snr, bsc, make_rng, save_dmc
from pbicm.codec import (
    BinaryCode,
    PbicmSimConfig,
    _FLOAT64_MAX_M,
    _SCORE_BLOCK,
    _deinterleaved_llrs,
    _interleaved_labels,
    _ml_decode_batch,
    _two_sample_discrete,
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
from pbicm.constellation import bits_to_int, make_constellation
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


@pytest.mark.parametrize(
    "cb",
    [np.array([[0, 256], [1, 0.0]]), np.array([[0, 0.5], [1, 1]])],
    ids=["wraps-to-0", "truncates-to-0"],
)
def test_code_refuses_entries_the_uint8_cast_would_change(cb):
    with pytest.raises(ValueError, match="0/1 valued"):
        BinaryCode("bad", cb)


@pytest.mark.parametrize("dtype", [bool, np.int64, np.uint8, float])
def test_code_accepts_any_0_1_codebook(dtype):
    code = BinaryCode("c", np.array([[0, 1, 1], [1, 0, 0]], dtype=dtype))
    np.testing.assert_array_equal(code.codebook, [[0, 1, 1], [1, 0, 0]])
    assert code.codebook.dtype == np.uint8


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


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: repetition(True), "n"),
        (lambda: repetition(2.5), "n"),
        (lambda: random_codebook(4, 2.5, 0), "M"),
        (lambda: random_codebook(4, 4, 1.5), "seed"),
    ],
    ids=["repetition-bool-n", "repetition-float-n", "random-float-M", "random-float-seed"],
)
def test_code_sizes_and_seed_must_be_integers(build, field):
    # True is not a length-1 code, and 2.5 is not truncated or left to numpy's TypeError
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        build()


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


@pytest.mark.parametrize("shift", [interleave, deinterleave])
@pytest.mark.parametrize(
    "B, s, message",
    [
        (np.zeros((2, 3)), np.array([0, 1]), r"states of shape \(2,\) do not match .* batch of shape \(2, 3\)"),
        (np.zeros((2, 3)), np.array(0), r"states of shape \(\) do not match"),
        (np.zeros((4, 2, 3)), np.zeros(3, dtype=int), r"states of shape \(3,\) do not match .* \(4, 2, 3\)"),
        (np.zeros(3), np.zeros(3, dtype=int), r"states of shape \(3,\) do not match a \(\.\.\., L, n\) batch"),
    ],
    ids=["short", "0-d", "no_batch_axis", "1-d_batch"],
)
def test_interleave_refuses_states_that_do_not_match_the_batch(shift, B, s, message):
    with pytest.raises(ValueError, match=message):
        shift(B, s)


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


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 4), st.integers(0, 10**6))
def test_label_rotation_and_flat_take_are_interleave_and_deinterleave(L, n, T, seed):
    # the sender rotates packed labels and the receiver reads llr_matrix's
    # (L, N) rows with one take; both must be the public column shifts
    rng = np.random.default_rng(seed)
    B = rng.integers(0, 2, size=(T, L, n)).astype(np.uint8)
    S = rng.integers(0, L, size=(T, n))
    np.testing.assert_array_equal(_interleaved_labels(B, S), bits_to_int(np.moveaxis(interleave(B, S), -2, -1)))
    z = rng.normal(size=(L, T * n))  # LLRs of the T * n outputs, in the order of the states
    np.testing.assert_array_equal(_deinterleaved_llrs(z, S), deinterleave(np.moveaxis(z.reshape(L, T, n), 0, -2), S))
    # one block, as pbicm_transmit and pbicm_receive pass it
    np.testing.assert_array_equal(_interleaved_labels(B[0], S[0]), bits_to_int(interleave(B[0], S[0]).T))
    np.testing.assert_array_equal(_deinterleaved_llrs(z[:, :n], S[0]), deinterleave(z[:, :n], S[0]))


@pytest.mark.parametrize(
    "s", [[0.0, 1.0, 2.0], [True, False, True], [5, 0, 1], [-1, 0, 1]], ids=["float", "bool", "5", "-1"]
)
def test_interleavers_refuse_states_that_are_not_cyclic_shifts(s):
    # states are in {0..L-1}: a float is not an index, a bool not a shift, and 5 or -1 is not wrapped mod L
    B = np.arange(9).reshape(3, 3)
    for shift in (interleave, deinterleave):
        with pytest.raises(ValueError, match="states: not an integer in 0..2"):
            shift(B, s)


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


@pytest.mark.parametrize(
    "s, d",
    [
        ([0.7, 1.2], [[0, 0], [1, 1]]),
        ([0, 1], [[2, 0], [1, 0]]),
        ([0, 1], np.array([[0, 0], [1, 256]])),
    ],
    ids=["float-states", "dither-2", "dither-256"],
)
def test_state_refuses_values_a_cast_would_change(s, d):
    # states are cyclic shifts in {0..L-1} and dither bits in {0, 1}: 0.7 is not truncated, 256 not wrapped
    with pytest.raises(ValueError, match="0/1 valued|not an integer"):
        PbicmState(s, d)


@pytest.mark.parametrize("bad", [2, 256, 0.7])
def test_dither_refuses_a_value_that_is_not_a_bit(bad):
    zeros = np.zeros(3, dtype=np.uint8)
    other = np.array([0, bad, 1])
    for bits, d in ((other, zeros), (zeros, other)):
        with pytest.raises(ValueError, match="0/1 valued"):
            apply_dither(bits, d)
    with pytest.raises(ValueError, match="0/1 valued"):
        remove_dither_llr(np.ones(3), other)  # d = 2 would scale an LLR by -3


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


_RANDOM_4096 = random_codebook(64, 4096, seed=1)
_BLOCK_ROWS = _SCORE_BLOCK // _RANDOM_4096.M  # rows per score block of that code


@pytest.mark.parametrize(
    "code, shape, zero_rows",
    [
        (_RANDOM_4096, (5, 2, 64), ()),
        # two full score blocks and a short third one, a tied row in each
        (_RANDOM_4096, (_BLOCK_ROWS + 47, 2, 64), (0, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 93)),
        (_RANDOM_4096, (0, 64), ()),
        (repetition(9), (40, 9), (3, 17)),
    ],
    ids=["one-block", "three-blocks-with-ties", "empty", "repetition-M2"],
)
def test_ml_decode_batch_matches_per_row(code, shape, zero_rows):
    Z = make_rng(2).normal(size=shape)
    rows = Z.reshape(-1, code.n)
    rows[list(zero_rows)] = 0.0
    dec = _ml_decode_batch(code, Z)
    assert dec.shape == shape[:-1]
    signs = 1.0 - 2.0 * code.codebook.astype(float)
    np.testing.assert_array_equal(dec.ravel(), [ml_decode(code, z) for z in rows])
    np.testing.assert_array_equal(dec.ravel(), [np.argmax(signs @ z) for z in rows])
    # an all-zero row ties every codeword: the lowest message index wins
    assert not dec.ravel()[list(zero_rows)].any()


def test_small_codes_get_the_float64_decisions():
    # codes of at most _FLOAT64_MAX_M codewords skip the float32 certificate;
    # near ties, exact ties and LLRs that are not finite still decide as float64 scores do
    code = hamming74()
    assert code.M <= _FLOAT64_MAX_M < 64
    Z = make_rng(11).normal(size=(3000, 7))
    Z[:10] = 0.0
    Z[10:20] = 1e-12 * Z[10:20] + (1.0 - 2.0 * code.codebook[3])
    Z[20, 2], Z[21, 4], Z[22] = np.nan, np.inf, -np.inf
    np.testing.assert_array_equal(_ml_decode_batch(code, Z), _float64_decisions(code, Z))


def test_ml_decode_batch_rejects_wrong_blocklength():
    with pytest.raises(ValueError, match="length 14, but the code blocklength is 7"):
        _ml_decode_batch(hamming74(), np.zeros((2, 14)))


def test_ml_decode_batch_builds_one_read_only_sign_matrix_per_code():
    code = random_codebook(16, 64, 2)
    Z = make_rng(4).normal(size=(30, 16))
    first = _ml_decode_batch(code, Z)
    signs32 = code.signs32_t
    assert signs32.dtype == np.float32 and signs32.flags.c_contiguous and not signs32.flags.writeable
    assert signs32.shape == (16, 64)
    np.testing.assert_array_equal(signs32, 1.0 - 2.0 * code.codebook.T)
    Z[0] = 0.0  # a row that ties every codeword is rescored in float64 and decides for the first one
    np.testing.assert_array_equal(_ml_decode_batch(code, Z[::-1]), np.r_[first[:0:-1], 0])
    assert code.signs32_t is signs32  # the second decode reused it
    # the rescoring's float64 sign matrix is not kept on the code
    assert {k: v.dtype for k, v in vars(code).items() if isinstance(v, np.ndarray)} == {
        "codebook": np.uint8,
        "signs32_t": np.float32,
    }


def test_ml_decode_batch_memory_bounded():
    # one score block, not the whole (2048, 4096) float64 score array (64 MiB)
    Z = make_rng(3).normal(size=(1024, 2, 64))
    tracemalloc.start()
    try:
        _ml_decode_batch(_RANDOM_4096, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_ml_decode_batch_memory_bounded_when_every_row_is_rescored():
    # an all-zero row ties every codeword, so every block is rescored in float64;
    # a fresh code builds both of its sign matrices under the trace
    code = random_codebook(64, 4096, seed=1)
    Z = np.zeros((1024, 2, 64))
    tracemalloc.start()
    try:
        dec = _ml_decode_batch(code, Z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert not dec.any()


def _float64_decisions(code, Z):
    """Argmax of float64 scores, one row at a time: the decisions the certified decoder must keep."""
    signs = 1.0 - 2.0 * code.codebook.astype(float)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, and argmax takes the first NaN
        return np.array([np.argmax(signs @ z) for z in Z])


def _float32_decisions(code, Z):
    return np.argmax(Z.astype(np.float32) @ code.signs32_t, axis=1)


def _pairs(code, count, seed):
    """Codeword pairs a < b, their +-1 rows, and the coordinates where each pair differs."""
    rng = make_rng(seed)
    ab = np.sort(np.array([rng.choice(code.M, size=2, replace=False) for _ in range(count)]), axis=1)
    signs = 1.0 - 2.0 * code.codebook.astype(float)
    sa, sb = signs[ab[:, 0]], signs[ab[:, 1]]
    return ab[:, 0], ab[:, 1], sa, sb, [np.flatnonzero(x != y) for x, y in zip(sa, sb)], rng


def test_near_ties_are_rescored_in_float64():
    # halfway between codewords a < b, nudged by 1e-9 toward b where they differ:
    # float32 scores cannot see the nudge and tie a with b, float64 scores pick b
    a, b, sa, sb, differ, rng = _pairs(_RANDOM_4096, 200, 6)
    k = rng.integers(2, 64, size=200)[:, None] / 4  # few mantissa bits: float32 sums are exact
    Z = k * (sa + sb) / 2
    j = np.array([rng.choice(d) for d in differ])
    Z[np.arange(200), j] = 1e-9 * sb[np.arange(200), j]
    assert (_float32_decisions(_RANDOM_4096, Z) == a).all()  # the rescoring is needed on every row
    np.testing.assert_array_equal(_ml_decode_batch(_RANDOM_4096, Z), b)
    np.testing.assert_array_equal(_float64_decisions(_RANDOM_4096, Z), b)


def test_certificate_bounds_rounding_below_the_float32_normal_range():
    # with eps = 2^-149, entries 1.4 eps, 1.4 eps for a and 2.6 eps for b give a
    # the lead 0.4 eps in float64; in float32 they round to eps, eps and 3 eps, so
    # b leads by 2 eps, far beyond any relative bound on scores near 2^-135
    eps = 2.0**-149
    a, b, sa, sb, differ, _ = _pairs(_RANDOM_4096, 50, 7)
    Z = np.where(sa == sb, 2.0**-140 * sa, 0.0)
    rows = np.arange(50)
    d = np.array([x[:3] for x in differ])
    Z[rows, d[:, 0]] = 1.4 * eps * sa[rows, d[:, 0]]
    Z[rows, d[:, 1]] = 1.4 * eps * sa[rows, d[:, 1]]
    Z[rows, d[:, 2]] = 2.6 * eps * sb[rows, d[:, 2]]
    assert (_float32_decisions(_RANDOM_4096, Z) == b).all()
    np.testing.assert_array_equal(_ml_decode_batch(_RANDOM_4096, Z), a)
    np.testing.assert_array_equal(_float64_decisions(_RANDOM_4096, Z), a)
    # +-LLR_MAX on the coordinates where a and b agree, a tie that entries below
    # 2^-126 would break toward b in exact arithmetic but cannot in float64
    tiny = make_rng(8).uniform(2.0**-160, 2.0**-126, size=Z.shape)
    Z = np.where(sa == sb, LLR_MAX * sa, tiny * sb)
    np.testing.assert_array_equal(_ml_decode_batch(_RANDOM_4096, Z), _float64_decisions(_RANDOM_4096, Z))
    np.testing.assert_array_equal(_ml_decode_batch(_RANDOM_4096, Z), a)


def test_llrs_that_are_not_finite_get_the_float64_decision():
    code = _RANDOM_4096
    s = 1.0 - 2.0 * code.codebook.astype(float)
    Z = make_rng(9).normal(size=(8, 64))
    Z[0, 5] = np.nan
    Z[1, 7] = np.inf
    Z[2, [3, 9]] = np.inf, -np.inf
    Z[3, :] = -np.inf
    Z[4] = 1e39 * s[77]  # finite in float64, beyond the float32 range
    Z[5] = 1e37 * s[78]  # float32 entries whose sum overflows
    Z[6] = 1e37 * (s[79] + s[80]) / 2
    Z[7] = np.nan
    np.testing.assert_array_equal(_ml_decode_batch(code, Z), _float64_decisions(code, Z))
    np.testing.assert_array_equal(_ml_decode_batch(code, Z)[4:7], [77, 78, 79])


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


def test_receive_rejects_mismatched_lengths():
    code = hamming74()
    ch = Awgn(1.0)
    # a 14-long state with a blocklength-7 code
    state = make_state(2, 14, make_rng(0))
    with pytest.raises(ValueError, match="length 14, but the code blocklength is 7"):
        pbicm_receive(np.zeros(14, dtype=complex), state, code, ch, QPSK)
    # outputs shorter than the state, bare and with their fading gains
    state = make_state(2, code.n, make_rng(0))
    with pytest.raises(ValueError, match="state has length 7"):
        pbicm_receive(np.zeros(6, dtype=complex), state, code, ch, QPSK)
    with pytest.raises(ValueError, match="state has length 7"):
        pbicm_receive((np.zeros(7, dtype=complex), np.ones(6, dtype=complex)), state, code,
                      RayleighCsi(1.0), QPSK)


def test_transmit_validation():
    code = hamming74()
    state = make_state(2, code.n, make_rng(0))
    with pytest.raises(ValueError):
        pbicm_transmit(np.array([0]), code, state, Dmc(np.eye(4)), QPSK, make_rng(1))
    with pytest.raises(ValueError):
        pbicm_transmit(np.array([0, 16]), code, state, Dmc(np.eye(4)), QPSK, make_rng(1))
    with pytest.raises(ValueError, match="message index"):
        pbicm_transmit(np.array([0.7, 1.9]), code, state, Dmc(np.eye(4)), QPSK, make_rng(1))  # not truncated to [0, 1]


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
        (
            _RANDOM_4096, "QPSK", Awgn(Snr(-5.0).n0), 2500, 3,
            {"block_errors": 1184, "level_errors": [669, 698], "bit_errors": [3978, 4276],
             "wbar_errors": 656, "message_bits": 12},
        ),
        (
            hamming74(), "QAM64", Awgn(Snr(11.0).n0), 20000, 3,
            {"block_errors": 12354, "level_errors": [2877, 2910, 2730, 2815, 2754, 2859],
             "bit_errors": [5269, 5331, 4975, 5170, 5167, 5246], "wbar_errors": 2743,
             "message_bits": 4},
        ),
        (  # PSK8 is one 2-D axis: its LLRs come from the whole-plane demapper
            hamming74(), "PSK8", Awgn(Snr(8.0).n0), 6000, 5,
            {"block_errors": 362, "level_errors": [125, 114, 127], "bit_errors": [230, 208, 217],
             "wbar_errors": 123, "message_bits": 4},
        ),
    ],
    ids=["qpsk-awgn-hamming", "qam16-rayleigh-rep5", "qpsk-dmc4x5-hamming",
         "qpsk-awgn-random4096", "qam64-awgn-hamming", "psk8-awgn-hamming"],
)
def test_simulate_counts_pinned(code, kind, channel, trials, seed, counts):
    # exact counters pin the generator draw order and the decoder's decisions,
    # across chunks (9000 > 8192; 2500 trials are 3 chunks of at most 1024 for
    # M = 4096) and across score blocks (256 rows for M = 4096)
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


@pytest.mark.parametrize(
    "channel, key",
    [
        ({"kind": "dmc", "file": "ch.json", "snr_db": 5}, "snr_db"),
        ({"kind": "awgn", "snr_db": 5, "file": "ch.json"}, "file"),
        ({"kind": "rayleigh", "snr_db": 5, "matrix": [[1.0, 0.0], [0.0, 1.0]]}, "matrix"),
        ({"kind": "dmc", "file": "ch.json", "matrix": [[1.0, 0.0], [0.0, 1.0]]}, "matrix"),
    ],
    ids=["snr-on-dmc", "file-on-awgn", "matrix-on-rayleigh", "dmc-file-and-matrix"],
)
def test_sim_config_channel_key_that_does_not_apply_is_refused(tmp_path, channel, key):
    save_dmc(bsc(0.1), tmp_path / "ch.json")
    spec = {"code": {"kind": "repetition", "n": 3}, "constellation": "BPSK", "channel": channel, "trials": 10}
    with pytest.raises(ValueError, match=f"'{key}'"):
        PbicmSimConfig.from_json(json.dumps(spec), base_dir=tmp_path)


@pytest.mark.parametrize(
    "keys, value, field",
    [
        (("code", "n"), 3.9, "code.n"),
        (("code", "M"), "4", "code.M"),
        (("code", "seed"), True, "code.seed"),
        (("trials",), 2.5, "trials"),
        (("seed",), True, "seed"),
        (("channel", "snr_db"), "5", "channel.snr_db"),
        (("channel",), {"kind": "dmc", "matrix": [[True, False], [False, True]]}, "channel.matrix"),
        (("channel",), {"kind": "dmc", "matrix": [1.0, 0.0, 0.0, 1.0]}, "channel.matrix"),
        # the rule of a Dmc file's nested rows: a ragged matrix does not reach numpy's inhomogeneous-shape error
        (("channel",), {"kind": "dmc", "matrix": [[0.9, 0.1], [0.1]]}, "channel.matrix"),
        (("channel",), {"kind": "dmc", "matrix": []}, "channel.matrix"),
        (("channel",), {"kind": "dmc", "matrix": [[0.9, 0.1], 0.5]}, "channel.matrix"),
        (("channel",), {"kind": "dmc", "matrix": [[]]}, "channel.matrix"),
    ],
    ids=["float-n", "string-M", "bool-code-seed", "float-trials", "bool-seed", "string-snr", "bool-matrix", "flat-matrix",
         "ragged-matrix", "no-rows-matrix", "row-not-a-list-matrix", "empty-row-matrix"],
)
def test_sim_config_refuses_a_value_of_the_wrong_json_type(keys, value, field):
    # int() and float() would truncate 3.9, read "4" and read true as 1
    spec = {
        "code": {"kind": "random", "n": 4, "M": 4, "seed": 1},
        "constellation": "BPSK",
        "channel": {"kind": "awgn", "snr_db": 5.0},
        "trials": 10,
        "seed": 0,
    }
    PbicmSimConfig.from_json(json.dumps(spec))  # the spec as written is valid
    *outer, last = keys
    target = spec
    for key in outer:
        target = target[key]
    target[last] = value
    with pytest.raises(ValueError, match=f"^{field}: expected a"):
        PbicmSimConfig.from_json(json.dumps(spec))


@pytest.mark.parametrize("field, value", [("trials", 2.5), ("trials", True), ("seed", 1.5), ("seed", False)])
def test_sim_config_refuses_a_count_that_is_not_an_integer(field, value):
    # only from_json checks JSON types; the constructor must not read 2.5 trials or True as 1
    args = {"trials": 10, "seed": 0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        PbicmSimConfig(hamming74(), QPSK, Awgn(0.5), **args)


@pytest.mark.parametrize("k, n", [(5, 3), (-1, 3), (1, 0)])
def test_wilson_ci_refuses_successes_outside_the_trials(k, n):
    with pytest.raises(ValueError, match=f"k = {k} outside 0..n for n = {n}"):
        wilson_ci(k, n)


@pytest.mark.parametrize("k, n", [(2.5, 10), (True, 10), (3, 10.0)])
def test_wilson_ci_refuses_counts_that_are_not_integers(k, n):
    with pytest.raises(ValueError, match="must be an integer"):
        wilson_ci(k, n)


@pytest.mark.parametrize("z", [-1.96, 0.0, np.nan, np.inf])
def test_wilson_ci_refuses_a_z_that_is_not_finite_and_positive(z):
    # z = -1.96 would give (0.763, 0.237), a lower end above the upper one, and z = nan (0.0, 1.0)
    with pytest.raises(ValueError, match="z must be finite and positive"):
        wilson_ci(5, 10, z=z)


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


def test_two_sample_discrete_is_chi2_contingency_of_the_count_table():
    from scipy.stats import chi2_contingency

    # values -1.5, 0.25, 3 and 7 counted (5, 9, 2, 0) times in a and (7, 4, 6, 3) in b
    a = make_rng(8).permutation(np.repeat([3.0, -1.5, 0.25], [2, 5, 9]))
    b = np.repeat([0.25, 7.0, -1.5, 3.0], [4, 3, 7, 6])
    res = chi2_contingency(np.array([[5, 9, 2, 0], [7, 4, 6, 3]]))
    assert _two_sample_discrete(a, b) == (res[0], res[1])
