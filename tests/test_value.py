"""The value rule of the array-holding types (``pbicm._value.Value``).

Sender and receiver must share exactly the same codes and the same
state/dither sequence, so these types keep read-only copies of what they
checked, compare and hash by contents, and pickle through their
constructors.
"""
import pickle

import numpy as np
import pytest

from pbicm import _ensemble
from pbicm.channel import Awgn, Snr, bsc, make_rng
from pbicm.codec import BinaryCode, PbicmState, hamming74, make_state, ml_decode
from pbicm.constellation import Axis, make_constellation
from pbicm.infotheory import ExponentCurve, e0_evaluator


def _axis():
    return make_constellation("QPSK").axes[0]


def _curve():
    return ExponentCurve("RandomCoding", [0.1, 0.2], [0.3, 0.4])


# equal pairs, each made twice from scratch
MAKERS = {
    "BinaryCode": hamming74,
    "PbicmState": lambda: make_state(3, 8, make_rng(1)),
    "ExponentCurve": _curve,
    "Axis": _axis,
    "Dmc": lambda: bsc(0.1),
    "Constellation": lambda: make_constellation("QAM16"),
}

# one changed field each
DIFFERENT = {
    "BinaryCode": [
        lambda: BinaryCode("other", hamming74().codebook),
        lambda: BinaryCode("hamming74", hamming74().codebook[::-1]),
    ],
    "PbicmState": [
        lambda: PbicmState((make_state(3, 8, make_rng(1)).s + 1) % 3, make_state(3, 8, make_rng(1)).d),
        lambda: PbicmState(make_state(3, 8, make_rng(1)).s, 1 - make_state(3, 8, make_rng(1)).d),
    ],
    "ExponentCurve": [
        lambda: ExponentCurve("SpherePacking", [0.1, 0.2], [0.3, 0.4]),
        lambda: ExponentCurve("RandomCoding", [0.1, 0.25], [0.3, 0.4]),
        lambda: ExponentCurve("RandomCoding", [0.1, 0.2], [0.3, 0.5]),
    ],
    "Axis": [
        lambda: Axis((1,), (0,), _axis().points),
        lambda: Axis((0,), (1,), _axis().points),
        lambda: Axis((0,), (0,), -_axis().points),
    ],
    "Dmc": [lambda: bsc(0.2)],
    "Constellation": [lambda: make_constellation("PSK8")],
}


@pytest.mark.parametrize("name", MAKERS)
def test_equal_contents_compare_and_hash_equal(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    for other in DIFFERENT[name]:
        assert a != other() and other() != a


@pytest.mark.parametrize("name", MAKERS)
def test_pickle_round_trip_is_an_equal_read_only_value(name):
    a = MAKERS[name]()
    back = pickle.loads(pickle.dumps(a))
    assert back == a and hash(back) == hash(a)
    arrays = [v for v in vars(back).values() if isinstance(v, np.ndarray)]
    assert arrays and not any(v.flags.writeable for v in arrays)


def test_e0_evaluators_compare_by_their_fields_not_their_ensembles():
    base, cons = Awgn(Snr(3.0).n0), make_constellation("QPSK")
    a = e0_evaluator(base, cons, "WbarCombined")
    _ensemble.get_ensemble.cache_clear()
    b = e0_evaluator(base, cons, "wbar")
    assert a._ens is not b._ens
    assert a == b
    assert a != e0_evaluator(base, cons, "Unconstrained")
    assert e0_evaluator(base, cons, "Subchannel", 1) != e0_evaluator(base, cons, "Subchannel", 2)


def test_a_code_keeps_its_codebook_when_the_caller_reuses_the_array():
    cb = np.array([[0, 0, 1], [0, 0, 0]], dtype=np.uint8)
    z = np.array([-5.0, -5.0, 1.0])
    code = BinaryCode("c", cb)
    assert ml_decode(code, z) == 1  # builds the code's cached sign matrix
    cb[:] = [[0, 0, 0], [0, 0, 1]]
    np.testing.assert_array_equal(code.codebook, [[0, 0, 1], [0, 0, 0]])
    # the decision follows the codebook the code holds, as a fresh code with it decides
    assert ml_decode(code, z) == ml_decode(BinaryCode("c", code.codebook), z) == 1
    assert ml_decode(BinaryCode("c", cb), z) == 0


def test_states_and_curves_keep_their_arrays_when_the_caller_reuses_them():
    s, d = np.array([0, 1, 2, 1]), np.array([[0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1]], dtype=np.uint8)
    state = PbicmState(s, d)
    s[:], d[:] = 0, 0
    np.testing.assert_array_equal(state.s, [0, 1, 2, 1])
    assert state.d.sum() == 6
    rates, values = np.array([0.1, 0.2]), np.array([0.3, 0.4])
    curve = ExponentCurve("RandomCoding", rates, values)
    rates[:], values[:] = 9.0, 9.0
    np.testing.assert_array_equal(curve.rates, [0.1, 0.2])
    np.testing.assert_array_equal(curve.values, [0.3, 0.4])
    for v in (state.s, state.d, curve.rates, curve.values):
        with pytest.raises(ValueError):
            v[0] = v[1]

