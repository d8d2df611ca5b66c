"""Command-line entry points, end to end."""

import re
import signal
import subprocess
import sys
import time

import pytest

from oracles import parse_rendered_table
from srampuf import cli
from srampuf.analyze import MissingBaseline
from srampuf.biasdetect import InsufficientData
from srampuf.chipnet.collector import ChipBusy, ConnectionLost, HarnessClient
from srampuf.chipnet.dumpfile import DumpFormatError, bits_to_words
from srampuf.chipnet.protocol import ProtocolError
from srampuf.chipnet.server import ChipServer
from srampuf.cli import main
from srampuf.floorplan import DEFAULT_DESIGNS, ConfigError, format_config, load_config
from srampuf.layout import Geometry, Orientation, PlacedMacro
from srampuf.report import ReportParseError, load_report
from srampuf.simchip import ChipBank, DesignEntry, ProcessParams

# beta is cranked up so a 2-chip, 2-cycle run already resolves both
# imprint periods; keeps the pipeline tests fast.
PARAMS = ProcessParams(beta=0.8)
SMALL = (
    DesignEntry("A", PlacedMacro(Geometry(64, 16, 4), Orientation.R0), "0(8)1(8)"),
    DesignEntry("B", PlacedMacro(Geometry(128, 8, 8), Orientation.R270, (100, 0)),
                "0(4)1(4)"),
)


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(format_config(PARAMS, SMALL), encoding="utf-8")
    return path


def test_gen_writes_the_default_floorplan(tmp_path, capsys):
    out = tmp_path / "fp.cfg"
    assert main(["gen", "--out", str(out)]) == 0
    assert "wrote 11 designs" in capsys.readouterr().out
    params, designs = load_config(out)
    assert params == ProcessParams()
    assert designs == DEFAULT_DESIGNS


def test_gen_is_idempotent(tmp_path):
    first = tmp_path / "a.cfg"
    second = tmp_path / "b.cfg"
    main(["gen", "--out", str(first)])
    assert main(["gen", "--config", str(first), "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "text,message",
    [
        ("macro lopsided\n", "error: line 1: "),
        # a width the 64-bit data field cannot carry
        ("design W\n depth 64\n width 128\n mux 4\n orient R0\n pattern 0(8)1(8)\n",
         "error: line 1: design 'W': width 128 "),
    ],
)
def test_gen_rejects_a_broken_config(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text, encoding="utf-8")
    assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert "Traceback" not in err


def test_collect_analyze_report_pipeline(tmp_path, small_cfg, capsys):
    dumps = tmp_path / "dumps"
    rc = main(["collect", "--config", str(small_cfg), "--seed", "7",
               "--chips", "2", "--cycles", "2", "--out", str(dumps)])
    assert rc == 0
    assert "wrote 8 dump files" in capsys.readouterr().out
    assert (dumps / "manifest.txt").exists()
    assert (dumps / "floorplan.cfg").exists()

    report_path = tmp_path / "report.json"
    rc = main(["analyze", str(dumps), "--baseline", "A",
               "--out", str(report_path)])
    assert rc == 0
    capsys.readouterr()
    plot_dir = tmp_path / "report_plots"
    assert sorted(p.name for p in plot_dir.iterdir()) == [
        "A_autocorr.dat", "A_profile.dat", "B_autocorr.dat", "B_profile.dat",
    ]
    report = load_report(report_path)
    assert report["meta"]["seed"] == 7

    assert main(["report", str(report_path)]) == 0
    out = capsys.readouterr().out
    table, _, notes = out.partition("\n\n")
    cells = parse_rendered_table(table + "\n")
    assert [c["SRAM-PUF"] for c in cells] == ["A", "B"]
    assert cells[0]["Bias pattern"] == "0(8)1(8)"
    assert cells[1]["Bias pattern"] == "0(4)1(4)"
    assert cells[0]["BD"] == "+"
    assert cells[1]["BD"] == "-"
    assert cells[0]["Orientation"] == "R0"
    assert cells[1]["Orientation"] == "R270"
    assert "note: floorplan reads 2048 bits" in notes


def test_collect_against_an_external_server(tmp_path, small_cfg, capsys):
    inproc = tmp_path / "inproc"
    remote = tmp_path / "remote"
    base = ["--config", str(small_cfg), "--seed", "7",
            "--chips", "1", "--cycles", "1"]
    assert main(["collect", *base, "--out", str(inproc)]) == 0
    with ChipServer(SMALL, PARAMS, 7) as server:
        host, port = server.endpoint
        rc = main(["collect", "--endpoint", f"{host}:{port}",
                   *base, "--out", str(remote)])
    assert rc == 0
    capsys.readouterr()
    for name in ("A_chip000_cycle00.pufdump", "B_chip000_cycle00.pufdump"):
        assert (remote / name).read_bytes() == (inproc / name).read_bytes()


def test_collect_rejects_a_malformed_endpoint(tmp_path, capsys):
    rc = main(["collect", "--endpoint", "nonsense",
               "--chips", "1", "--cycles", "1", "--out", str(tmp_path / "d")])
    assert rc == 1
    assert "host:port" in capsys.readouterr().err


def test_collect_reports_a_dead_endpoint(tmp_path, capsys):
    rc = main(["collect", "--endpoint", "127.0.0.1:1",
               "--chips", "1", "--cycles", "1", "--out", str(tmp_path / "d")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_collect_rejects_more_chips_than_ids_before_writing(tmp_path, small_cfg, capsys):
    out = tmp_path / "d"
    rc = main(["collect", "--config", str(small_cfg), "--chips", "257", "--cycles", "1",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "256" in err and err.count("\n") == 1
    assert not out.exists()


def test_analyze_fails_cleanly_on_an_empty_directory(tmp_path, capsys):
    rc = main(["analyze", str(tmp_path), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert "no .pufdump files" in capsys.readouterr().err


@pytest.fixture()
def small_dumps(tmp_path, small_cfg, capsys):
    dumps = tmp_path / "dumps"
    assert main(["collect", "--config", str(small_cfg), "--seed", "7",
                 "--chips", "2", "--cycles", "2", "--out", str(dumps)]) == 0
    capsys.readouterr()
    return dumps


def _analyze_error(dumps, capsys) -> str:
    rc = main(["analyze", str(dumps), "--baseline", "A", "--out", str(dumps / "r.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error:") and "Traceback" not in err
    return err


def test_analyze_reports_dumps_wider_than_64_bits(small_dumps, capsys):
    # Design A's headers say width=100 and each word carries 25 digits.
    for path in small_dumps.glob("A_*.pufdump"):
        text = path.read_text(encoding="utf-8").replace("width=16", "width=100")
        text = re.sub(r"(?m)^([0-9a-f]{4}): ", r"\1: " + "f" * 21, text)
        path.write_text(text, encoding="utf-8")
    err = _analyze_error(small_dumps, capsys)
    assert err == "error: A_chip000_cycle00.pufdump: width 100 is outside 1-64\n"


@pytest.mark.parametrize("corrupt, message", [
    (lambda b: b.replace(b"0001: ", b"0001: Z"), "bad body line 1: '0001: Z"),
    (lambda b: b.replace(b"depth=128", b"depth=12x"), "bad design line: '#design B depth=12x"),
    (lambda b: b.replace(b"#chip", b"\xff#chip"), "'utf-8' codec can't decode byte 0xff"),
    (lambda b: b.replace(b"0001: ", b"0001: \xff"), "'utf-8' codec can't decode byte 0xff"),
])
def test_analyze_names_the_dump_behind_a_format_error(small_dumps, capsys, corrupt, message):
    path = small_dumps / "B_chip001_cycle01.pufdump"
    path.write_bytes(corrupt(path.read_bytes()))
    err = _analyze_error(small_dumps, capsys)
    assert err.startswith(f"error: B_chip001_cycle01.pufdump: {message}")


def test_report_fails_cleanly_on_a_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("error", [
    ConfigError, ConnectionLost, ChipBusy, InsufficientData, MissingBaseline,
    ProtocolError, ReportParseError, DumpFormatError,
])
def test_every_pipeline_error_is_a_reported_failure(error):
    assert issubclass(error, cli._FAILURES)


def test_serve_runs_as_a_subprocess(tmp_path, small_cfg):
    # Leaving the with block closes the pipes, and ResourceWarning is an error.
    with subprocess.Popen(
        [sys.executable, "-u", "-m", "srampuf.cli", "serve",
         "--config", str(small_cfg), "--seed", "5",
         "--endpoint", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            banner = proc.stdout.readline()
            assert banner.startswith("serving chip bank (seed 5) on ")
            host, _, port = banner.rsplit(maxsplit=1)[-1].rpartition(":")
            client = HarnessClient((host, int(port)))
            try:
                client.select_chip(0)
                assert client.power_on() == 0
                words = client.read_design(0, depth=64, width=16)
            finally:
                client.close()
            bank = ChipBank(SMALL, PARAMS, 5)
            assert list(words) == list(bits_to_words(bank.snapshots(0, 0)["A"].bits))
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) in (0, 130)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


def test_serve_stops_on_sigint_when_started_with_sigint_ignored(small_cfg):
    # What a non-interactive shell does to a job it starts with "&".
    with subprocess.Popen(
        [sys.executable, "-u", "-m", "srampuf.cli", "serve",
         "--config", str(small_cfg), "--seed", "5", "--endpoint", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    ) as proc:
        try:
            assert proc.stdout.readline().startswith("serving chip bank (seed 5) on ")
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=10) in (0, 130)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


# serve() on the main thread; a side thread sends SIGINT to itself, so the
# kernel delivers it away from the thread that must raise KeyboardInterrupt.
SIGINT_ON_A_SIDE_THREAD = """
import signal, threading, time
from srampuf.chipnet.server import serve

def interrupt_this_thread():
    time.sleep(0.5)
    signal.pthread_kill(threading.get_ident(), signal.SIGINT)

threading.Thread(target=interrupt_this_thread, daemon=True).start()
serve(None, None, 5, ("127.0.0.1", 0))
print("stopped")
"""


def test_serve_stops_on_a_sigint_delivered_to_another_thread():
    proc = subprocess.run([sys.executable, "-c", SIGINT_ON_A_SIDE_THREAD],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("serving chip bank (seed 5) on ")
    assert proc.stdout.endswith("stopped\n")


def test_cli_requires_a_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "command" in capsys.readouterr().err
