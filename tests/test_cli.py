import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tritstream.formats import Shape, parse_stream_header, read_lflt, write_lten
from tritstream.synth import SynthConfig, generate


# The CLI runs in a child interpreter, which needs the package's source too.
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "tritstream", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture(scope="module")
def lten_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "in.lten"
    values, sigmas = generate(SynthConfig(shape=Shape(3, 4, 5), seed=6))
    path.write_bytes(write_lten(values, sigmas))
    return str(path), values


class TestEncodeDecode:
    def test_roundtrip_through_files(self, lten_path, tmp_path):
        src, values = lten_path
        stream = str(tmp_path / "out.dpts")
        recon = str(tmp_path / "rec.lflt")
        r = run_cli("encode", src, stream, "--base", "3")
        assert r.returncode == 0
        assert re.fullmatch(r"\d+ bytes, \d+\.\d{4} bits per element\n", r.stdout)
        r = run_cli("decode", stream, recon)
        assert r.returncode == 0
        assert r.stdout.startswith("mse ")
        got = read_lflt(open(recon, "rb").read())
        assert np.array_equal(got, values.astype(np.float32))

    def test_encode_deterministic(self, lten_path, tmp_path):
        src, _ = lten_path
        a, b = str(tmp_path / "a.dpts"), str(tmp_path / "b.dpts")
        assert run_cli("encode", src, a).returncode == 0
        assert run_cli("encode", src, b).returncode == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_budget_decode(self, lten_path, tmp_path):
        src, _ = lten_path
        stream = str(tmp_path / "out.dpts")
        recon = str(tmp_path / "rec.lflt")
        run_cli("encode", src, stream)
        size = os.path.getsize(stream)
        header = parse_stream_header(open(stream, "rb").read()).header_size
        r = run_cli("decode", stream, recon, "--budget", str((header + size) // 2))
        assert r.returncode == 0
        mse = float(r.stdout.split()[1])
        assert mse > 0.0

    def test_mode0_decode_with_sigma_file(self, lten_path, tmp_path):
        src, values = lten_path
        stream = str(tmp_path / "out0.dpts")
        recon = str(tmp_path / "rec0.lflt")
        run_cli("encode", src, stream, "--sigma-mode", "0")
        r = run_cli("decode", stream, recon, "--sigma", src)
        assert r.returncode == 0
        got = read_lflt(open(recon, "rb").read())
        assert np.array_equal(got, values.astype(np.float32))
        # without scales the stream is undecodable: data error
        assert run_cli("decode", stream, recon).returncode == 2

    def test_mode1_decode_rejects_a_sigma_file(self, lten_path, tmp_path):
        src, _ = lten_path
        stream = str(tmp_path / "out1.dpts")
        recon = str(tmp_path / "rec1.lflt")
        run_cli("encode", src, stream, "--sigma-mode", "1")
        r = run_cli("decode", stream, recon, "--sigma", src)
        assert r.returncode == 2
        assert "embeds its scales" in r.stderr


class TestRdCurve:
    def test_csv_shape_and_determinism(self, lten_path, tmp_path):
        src, _ = lten_path
        out = str(tmp_path / "curve.csv")
        r = run_cli("rd-curve", src, out, "--group", "32")
        assert r.returncode == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "base,cumulative_bits,mse"
        rows = [ln.split(",") for ln in lines[1:]]
        assert {row[0] for row in rows} == {"2", "3"}
        for base in ("2", "3"):
            bits = [int(row[1]) for row in rows if row[0] == base]
            mses = [float(row[2]) for row in rows if row[0] == base]
            assert bits == sorted(bits)
            assert mses == sorted(mses, reverse=True)
            assert mses[-1] == 0.0
        out2 = str(tmp_path / "curve2.csv")
        run_cli("rd-curve", src, out2, "--group", "32")
        assert open(out).read() == open(out2).read()

    def test_bad_bases_flag(self, lten_path, tmp_path):
        src, _ = lten_path
        assert run_cli("rd-curve", src, str(tmp_path / "x.csv"),
                       "--bases", "2,5").returncode == 1


class TestExitCodes:
    def test_usage_errors_are_exit_1(self, lten_path, tmp_path):
        src, _ = lten_path
        assert run_cli().returncode == 1
        assert run_cli("encode", src, str(tmp_path / "x"),
                       "--base", "5").returncode == 1
        assert run_cli("frobnicate").returncode == 1
        for group in ("0", "-3"):
            r = run_cli("rd-curve", src, str(tmp_path / "c.csv"), "--group", group)
            assert r.returncode == 1
            assert "--group" in r.stderr
        stream = str(tmp_path / "out.dpts")
        run_cli("encode", src, stream)
        r = run_cli("decode", stream, str(tmp_path / "y"), "--budget", "-1")
        assert r.returncode == 1
        assert "--budget" in r.stderr

    def test_data_errors_are_exit_2(self, lten_path, tmp_path):
        src, _ = lten_path
        missing = str(tmp_path / "nope.lten")
        assert run_cli("encode", missing, str(tmp_path / "x")).returncode == 2
        stream = str(tmp_path / "out.dpts")
        run_cli("encode", src, stream)
        for budget in ("3", "0"):
            r = run_cli("decode", stream, str(tmp_path / "y"), "--budget", budget)
            assert r.returncode == 2
            assert "error:" in r.stderr
        # a stream is not an LTEN file
        assert run_cli("encode", stream, str(tmp_path / "z")).returncode == 2

    def test_version_flag(self):
        r = run_cli("--version")
        assert r.returncode == 0
        assert re.fullmatch(r"\d+\.\d+\.\d+\n", r.stdout)
