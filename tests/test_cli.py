import json
import subprocess
import sys

import numpy as np
import pytest

from pbicm.channel import Dmc, bsc, save_dmc
from pbicm.cli import main


def run_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def test_capacity_single_point(tmp_path):
    out = tmp_path / "cap.csv"
    assert main(
        [
            "capacity",
            "--constellation",
            "PSK8",
            "--channel",
            "awgn",
            "--snr-db",
            "5",
            "--out",
            str(out),
        ]
    ) == 0
    head, rows = run_csv(out)
    assert head == ["snr_db", "c_cm_bits", "c_pbicm_bits", "c_sub_1_bits", "c_sub_2_bits", "c_sub_3_bits"]
    assert len(rows) == 1
    snr, c_cm, c_pb = (float(v) for v in rows[0][:3])
    assert snr == 5.0
    assert abs(c_cm - 1.86) <= 0.02
    assert abs(c_pb - 1.84) <= 0.02
    assert sum(float(v) for v in rows[0][3:]) == pytest.approx(c_pb, abs=1e-6)


def test_capacity_sweep_sorted_and_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = [
        "capacity",
        "--constellation",
        "BPSK",
        "--channel",
        "awgn",
        "--snr-sweep",
        "4:0:3",
    ]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _, rows = run_csv(a)
    snrs = [float(r[0]) for r in rows]
    assert snrs == sorted(snrs) == [0.0, 2.0, 4.0]
    caps = [float(r[2]) for r in rows]
    assert caps == sorted(caps)  # capacity grows with SNR


def test_capacity_workers_agree(tmp_path, monkeypatch):
    argv = [
        "capacity",
        "--constellation",
        "BPSK",
        "--channel",
        "awgn",
        "--snr-sweep",
        "0:4:3",
    ]
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    monkeypatch.setenv("PBICM_WORKERS", "1")
    main(argv + ["--out", str(one)])
    monkeypatch.setenv("PBICM_WORKERS", "2")
    main(argv + ["--out", str(two)])
    assert one.read_bytes() == two.read_bytes()


def test_capacity_dmc_channel(tmp_path):
    f = tmp_path / "noiseless.csv"
    save_dmc(Dmc(np.eye(4)), f)
    out = tmp_path / "cap.csv"
    main(
        [
            "capacity",
            "--constellation",
            "QPSK",
            "--channel",
            "dmc",
            "--dmc-file",
            str(f),
            "--out",
            str(out),
        ]
    )
    head, rows = run_csv(out)
    assert rows[0][0] == "nan"
    assert float(rows[0][2]) == pytest.approx(2.0, abs=1e-9)


def test_exponents_bsc(tmp_path):
    f = tmp_path / "bsc.csv"
    save_dmc(bsc(0.1), f)
    out = tmp_path / "exp.csv"
    main(
        [
            "exponents",
            "--constellation",
            "BPSK",
            "--channel",
            "dmc",
            "--dmc-file",
            str(f),
            "--rates",
            "0.3,0.1",
            "--out",
            str(out),
        ]
    )
    head, rows = run_csv(out)
    assert head == ["rate_bits", "unconstrained", "pbicm", "pbicm_normalized", "wachsmann_flawed"]
    rates = [float(r[0]) for r in rows]
    assert rates == [0.1, 0.3]
    # with one bit level the parallel scheme is the binary channel itself:
    # E(0.1) = E0(1) - 0.1 in the straight-line region
    e01 = 1 - 2 * np.log2(np.sqrt(0.9) + np.sqrt(0.1)) - 0.1
    assert float(rows[0][2]) == pytest.approx(e01, abs=1e-6)
    for r in rows:
        rate, unc, pb, pbn, wf = (float(v) for v in r)
        assert pbn == pytest.approx(pb, abs=1e-12)  # L = 1
        assert wf >= pb - 1e-12
        assert unc >= 0


def test_exponents_rate_grid(tmp_path):
    out = tmp_path / "exp.csv"
    main(
        [
            "exponents",
            "--constellation",
            "QPSK",
            "--channel",
            "awgn",
            "--snr-db",
            "2",
            "--rate-min",
            "0.2",
            "--rate-max",
            "1.0",
            "--rate-points",
            "3",
            "--out",
            str(out),
        ]
    )
    _, rows = run_csv(out)
    assert [float(r[0]) for r in rows] == [0.2, 0.6, 1.0]
    vals = [float(r[2]) for r in rows]
    assert vals == sorted(vals, reverse=True)


def test_dispersion_json(tmp_path):
    out = tmp_path / "disp.json"
    main(
        [
            "dispersion",
            "--constellation",
            "QPSK",
            "--channel",
            "awgn",
            "--snr-db",
            "5",
            "--out",
            str(out),
        ]
    )
    rep = json.loads(out.read_text())
    assert rep["L"] == 2
    assert rep["v_pbicm"] == pytest.approx(4 * rep["v_wbar"], rel=1e-12)
    assert rep["penalty"] == pytest.approx(0.0, abs=1e-9)
    assert rep["c_pbicm"] == pytest.approx(sum(rep["c_subchannels"]), rel=1e-12)


def test_ratebounds_grid(tmp_path):
    out = tmp_path / "rb.csv"
    main(
        [
            "ratebounds",
            "--constellation",
            "QPSK",
            "--channel",
            "awgn",
            "--snr-db",
            "5",
            "--blocklengths",
            "1000,100",
            "--pe",
            "1e-3,1e-5",
            "--out",
            str(out),
        ]
    )
    head, rows = run_csv(out)
    assert head == ["n", "pe", "lower_bits", "upper_bits"]
    assert len(rows) == 4
    assert [int(r[0]) for r in rows] == [100, 100, 1000, 1000]
    for r in rows:
        assert float(r[2]) < float(r[3])
    # the bracket tightens as n grows at fixed pe
    w100 = float(rows[0][3]) - float(rows[0][2])
    w1000 = float(rows[2][3]) - float(rows[2][2])
    assert w1000 < w100


def test_simulate_and_seed_override(tmp_path):
    spec = tmp_path / "sim.json"
    spec.write_text(
        json.dumps(
            {
                "code": {"kind": "hamming74"},
                "constellation": "QPSK",
                "channel": {"kind": "awgn", "snr_db": 2.0},
                "trials": 2000,
                "seed": 1,
            }
        )
    )
    out1, out2, out3 = (tmp_path / f"r{i}.json" for i in range(3))
    main(["simulate", "--sim-config", str(spec), "--out", str(out1)])
    main(["simulate", "--sim-config", str(spec), "--out", str(out2)])
    main(["simulate", "--sim-config", str(spec), "--seed", "9", "--out", str(out3)])
    assert out1.read_bytes() == out2.read_bytes()
    r1 = json.loads(out1.read_text())
    r3 = json.loads(out3.read_text())
    assert r1["seed"] == 1 and r3["seed"] == 9
    assert 0 < r1["pe_overall"] < 1
    assert r1["counts"] != r3["counts"]


def test_constellation_dump(tmp_path):
    out = tmp_path / "c.json"
    main(["constellation", "--constellation", "QAM16", "--out", str(out)])
    d = json.loads(out.read_text())
    assert d["L"] == 4 and len(d["points"]) == 16
    assert sorted(d["labels"]) == list(range(16))


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"constellation": "PSK8", "snr-db": 5.0}))
    out1 = tmp_path / "o1.csv"
    main(["capacity", "--channel", "awgn", "--config", str(cfg), "--out", str(out1)])
    head, rows = run_csv(out1)
    assert head[3:] == ["c_sub_1_bits", "c_sub_2_bits", "c_sub_3_bits"]  # PSK8 applied
    assert float(rows[0][0]) == 5.0
    # explicit flags win over the config file
    out2 = tmp_path / "o2.csv"
    main(
        [
            "capacity",
            "--channel",
            "awgn",
            "--config",
            str(cfg),
            "--snr-db",
            "3",
            "--out",
            str(out2),
        ]
    )
    assert float(run_csv(out2)[1][0][0]) == 3.0


def test_missing_channel_inputs_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["capacity", "--constellation", "QPSK", "--channel", "awgn"])
    with pytest.raises(SystemExit):
        main(["capacity", "--constellation", "QPSK", "--channel", "dmc"])


def test_library_value_errors_exit_with_one_line(tmp_path):
    with pytest.raises(SystemExit, match="too low"):
        main(["capacity", "--channel", "awgn", "--snr-db", "-4000"])
    spec = tmp_path / "sim.json"
    spec.write_text(
        '{"code": {"kind": "hamming74"}, "constellation": "QPSK",'
        ' "channel": {"kind": "awgn", "snr_db": NaN}, "trials": 10}'
    )
    with pytest.raises(SystemExit, match="finite and positive"):
        main(["simulate", "--sim-config", str(spec)])


def test_config_equals_form_is_applied(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"constellation": "PSK8", "snr-db": 5.0}))
    out = tmp_path / "o.csv"
    main(["capacity", "--channel", "awgn", f"--config={cfg}", "--out", str(out)])
    head, rows = run_csv(out)
    assert head[3:] == ["c_sub_1_bits", "c_sub_2_bits", "c_sub_3_bits"]
    assert float(rows[0][0]) == 5.0


SIM_SPEC_WITHOUT_TRIALS = json.dumps(
    {"code": {"kind": "hamming74"}, "constellation": "QPSK", "channel": {"kind": "awgn", "snr_db": 2.0}}
)


@pytest.mark.parametrize(
    "command, content, named",
    [
        ("capacity", None, ["cfg.json"]),
        ("capacity", '{"snr-db": 5', ["cfg.json"]),
        ("simulate", None, ["sim.json"]),
        ("simulate", SIM_SPEC_WITHOUT_TRIALS, ["sim.json", "'trials'"]),
    ],
    ids=["missing_config", "malformed_config", "missing_sim_config", "sim_config_without_trials"],
)
def test_bad_input_file_exits_with_one_line(tmp_path, command, content, named):
    if command == "capacity":
        path = tmp_path / "cfg.json"
        argv = ["capacity", "--channel", "awgn", "--snr-db", "0", "--config", str(path)]
    else:
        path = tmp_path / "sim.json"
        argv = ["simulate", "--sim-config", str(path)]
    if content is not None:
        path.write_text(content)
    with pytest.raises(SystemExit) as err:
        main(argv)
    msg = err.value.code
    assert isinstance(msg, str) and "\n" not in msg  # a string code exits with status 1
    assert all(part in msg for part in named)


def test_bad_input_file_exit_status_and_stderr(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "pbicm.cli", "simulate", "--sim-config", str(tmp_path / "none.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.strip().splitlines() == [f"{tmp_path / 'none.json'}: No such file or directory"]


def test_verify_passes(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--seed", "0", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rc == 0
    assert rep["all_passed"] is True
    names = {c["name"] for c in rep["checks"]}
    assert names >= {
        "dmc_oracle_equivalence",
        "equivalence_ks_qpsk",
        "equivalence_ks_qam16",
        "sandwich_bounds",
        "capacity_anchor_8psk_5db",
        "qinv_roundtrip",
    }


def test_verify_detects_injected_fault(tmp_path):
    out = tmp_path / "verify.json"
    rc = main(["verify", "--seed", "0", "--inject-fault", "no-dither", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert rc == 1
    assert rep["all_passed"] is False
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["equivalence_ks_qam16"]["passed"] is False
    assert by_name["dmc_oracle_equivalence"]["passed"] is True


def test_console_script_entry_point(tmp_path):
    out = tmp_path / "cap.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pbicm.cli",
            "capacity",
            "--constellation",
            "BPSK",
            "--channel",
            "awgn",
            "--snr-db",
            "0",
            "--out",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
