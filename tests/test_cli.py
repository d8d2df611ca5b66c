"""Command-line entry points, end to end."""

import json
import os
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
from srampuf.chipnet.protocol import OP_POWER_ON, ProtocolError
from srampuf.chipnet.server import ChipServer
from srampuf.cli import main
from srampuf.floorplan import DEFAULT_DESIGNS, ConfigError, format_config, load_config
from srampuf.layout import Geometry, Orientation
from srampuf.report import ReportParseError, load_report
from srampuf.simchip import ChipBank, DesignEntry, ProcessParams

# beta is cranked up so a 2-chip, 2-cycle run already resolves both
# imprint periods; keeps the pipeline tests fast.
PARAMS = ProcessParams(beta=0.8)
SMALL = (
    DesignEntry("A", Geometry(64, 16, 4), Orientation.R0, "0(8)1(8)"),
    DesignEntry("B", Geometry(128, 8, 8), Orientation.R270, "0(4)1(4)", (100, 0)),
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


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key, values", [("sigma_mismatch", "{}"), ("sigma_noise", "{}"),
                                         ("beta", "{}"), ("gradient", "{} 1"),
                                         ("gradient", "1 {}")])
def test_gen_refuses_a_non_finite_parameter(tmp_path, capsys, key, values, value):
    plan = tmp_path / "plan.cfg"
    plan.write_text(f"# plan\n\nparams\n  {key} {values.format(value)}\n", encoding="utf-8")
    out = tmp_path / "out.cfg"
    assert main(["gen", "--config", str(plan), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: line 4: key {key!r}: {value!r} is not finite\n"
    assert not out.exists()


# Line 18 of format_config(PARAMS, SMALL) is "design B".
UNCARRIED = {
    "dotdot-name": (lambda t: t.replace("design B", "design ../x"), 18),
    "slash-name": (lambda t: t.replace("design B", "design a/b"), 18),
    "long-name": (lambda t: t.replace("design B", "design " + "B" * 201), 18),
    "r90-gradient": (lambda t: t.replace("gradient 1.0 1.0", "gradient 1 0")
                     .replace("R270", "R90"), 18),
    "default-designs-gradient": (lambda t: "params\n  gradient 1 0\n", 1),
}


@pytest.mark.parametrize("command", ["gen", "collect"])
@pytest.mark.parametrize("case", list(UNCARRIED))
def test_a_floorplan_collect_cannot_carry_is_refused_before_writing(
        tmp_path, small_cfg, capsys, command, case):
    edit, line = UNCARRIED[case]
    small_cfg.write_text(edit(small_cfg.read_text(encoding="utf-8")), encoding="utf-8")
    out = tmp_path / "t" / ("fp.cfg" if command == "gen" else "dumps")
    counts = ["--chips", "2", "--cycles", "2"] if command == "collect" else []
    assert main([command, "--config", str(small_cfg), *counts, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.rglob("*")] == ["small.cfg"]


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


@pytest.mark.parametrize("name, made, reason", [
    ("missing", False, "no such directory"),
    ("manifest.txt", True, "not a directory"),
])
def test_analyze_refuses_a_dump_path_that_is_not_a_directory(tmp_path, capsys, name, made,
                                                             reason):
    path = tmp_path / name
    if made:
        path.write_text("# collection manifest\n")
    rc = main(["analyze", str(path), "--out", str(tmp_path / "r.json")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}: {reason}\n"
    assert not (tmp_path / "r.json").exists()


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


def _rewrite(old: bytes, new: bytes):
    return lambda path: path.write_bytes(path.read_bytes().replace(old, new))


def _copy_to(name: str):
    return lambda path: path.with_name(name).write_bytes(path.read_bytes())


DUMP = "B_chip001_cycle01.pufdump"


@pytest.mark.parametrize("damage, name, message", [
    (_rewrite(b"0001: ", b"0001: Z"), DUMP, "bad body line 1: '0001: Z"),
    (_rewrite(b"depth=128", b"depth=12x"), DUMP, "bad design line: '#design B depth=12x"),
    (_rewrite(b"#chip", b"\xff#chip"), DUMP, "'utf-8' codec can't decode byte 0xff"),
    (_rewrite(b"0001: ", b"0001: \xff"), DUMP, "'utf-8' codec can't decode byte 0xff"),
    (_rewrite(b"#chip 1", b"#chip 0"), DUMP, "chip disagrees with its file name"),
    (_rewrite(b"#design B", b"#design A"), DUMP, "design disagrees with its file name"),
    (_rewrite(b"orient=R270", b"orient=R0"), DUMP, "orient disagrees with other B dumps"),
    (_copy_to("B_chip1_cycle1.pufdump"), "B_chip1_cycle1.pufdump", "not a dump name"),
    (_copy_to("B_chip0001_cycle01.pufdump"), "B_chip0001_cycle01.pufdump", "not a dump name"),
    (_copy_to("notes.pufdump"), "notes.pufdump", "not a dump name"),
    # Forms the writer never writes, though a reader split at any line end would take them.
    (_rewrite(b"\n", b"\r\n"), DUMP, r"line 1 is '#PUFDUMP v1\r\n', not '#PUFDUMP v1\n'"),
    (lambda path: path.write_bytes(path.read_bytes()[:-1]), DUMP, "line 131 is '007f: "),
    (_rewrite(b"depth=128", b"depth=0128"), DUMP, "line 2 is '#design B depth=0128 width=8 "),
], ids=["body", "depth", "header-utf8", "body-utf8", "chip", "design", "orient", "short-name",
        "long-name", "stray-name", "crlf", "no-final-newline", "depth-leading-zero"])
def test_analyze_names_the_dump_behind_a_format_error(small_dumps, capsys, damage, name,
                                                      message):
    damage(small_dumps / DUMP)
    err = _analyze_error(small_dumps, capsys)
    assert err.startswith(f"error: {name}: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("name", [DUMP, "manifest.txt", "floorplan.cfg"])
def test_analyze_refuses_a_fifo_rather_than_wait_on_it(small_dumps, name):
    (small_dumps / name).unlink()
    os.mkfifo(small_dumps / name)
    # In a child process: a read that blocks on the FIFO fails the test instead of hanging it.
    proc = subprocess.run([sys.executable, "-m", "srampuf.cli", "analyze", str(small_dumps),
                           "--baseline", "A", "--out", str(small_dumps / "r.json")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {name}: not a regular file\n"


@pytest.fixture()
def default_dumps(tmp_path, capsys):
    dumps = tmp_path / "dumps"
    assert main(["collect", "--seed", "7", "--chips", "2", "--cycles", "2",
                 "--out", str(dumps)]) == 0
    capsys.readouterr()
    return dumps


@pytest.mark.parametrize("pattern, missing", [
    ("P3_chip001_cycle01.pufdump", "P3_chip001_cycle01.pufdump"),
    ("*_chip001_cycle01.pufdump", "P1_a_chip001_cycle01.pufdump"),
], ids=["one-design", "every-design"])
def test_analyze_names_a_missing_dump(default_dumps, capsys, pattern, missing):
    for path in default_dumps.glob(pattern):
        path.unlink()
    rc = main(["analyze", str(default_dumps), "--out", str(default_dumps / "r.json")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {missing}: missing") and err.count("\n") == 1


@pytest.mark.parametrize("name, old, new, message", [
    ("floorplan.cfg", "design B\n", "design B\n  bogus 1\n", "line 19: unknown key 'bogus'"),
    ("manifest.txt", "seed 7\n", "seed 12x\n", "invalid literal for int() with base 10: '12x'"),
], ids=["floorplan", "manifest"])
def test_analyze_names_the_plan_file_behind_an_error(small_dumps, capsys, name, old, new,
                                                     message):
    path = small_dumps / name
    path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
    assert _analyze_error(small_dumps, capsys) == f"error: {name}: {message}\n"


def test_report_fails_cleanly_on_a_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.json")]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("edit, message", [
    (lambda report: report["rows"][0].pop("wchd_min"), "A: key 'wchd_min' is missing"),
    (lambda report: report["rows"][0].update(direction=2),
     "A: key 'direction' is 2, not 1, -1 or 0"),
    (lambda report: report["rows"].insert(0, 1), "report rows are not a list of objects"),
    (lambda report: report["rows"][0].update(wchd_min="0.1"),
     "A: key 'wchd_min' has a value of type str"),
    (lambda report: report.update(notes="abc"), "report notes are not a list of strings"),
], ids=["missing key", "direction 2", "row not an object", "string number", "string notes"])
def test_report_refuses_a_malformed_report_in_one_line(small_dumps, capsys, edit, message):
    path = small_dumps / "r.json"
    assert main(["analyze", str(small_dumps), "--baseline", "A", "--out", str(path)]) == 0
    report = load_report(path)
    edit(report)
    path.write_text(json.dumps(report), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(path)]) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("error", [
    ConfigError, ConnectionLost, ChipBusy, InsufficientData, MissingBaseline,
    ProtocolError, ReportParseError, DumpFormatError,
])
def test_every_pipeline_error_is_a_reported_failure(error):
    assert issubclass(error, cli._FAILURES)


@pytest.mark.parametrize("endpoint, seed_lines", [(False, ["seed 0"]), (True, [])])
def test_collect_without_a_seed_records_only_the_seed_it_ran(
        tmp_path, small_cfg, capsys, endpoint, seed_lines):
    dumps, report_path = tmp_path / "dumps", tmp_path / "report.json"
    base = ["collect", "--config", str(small_cfg), "--chips", "2", "--cycles", "2",
            "--out", str(dumps)]
    if endpoint:
        with ChipServer(SMALL, PARAMS, 7) as server:
            host, port = server.endpoint
            assert main([*base, "--endpoint", f"{host}:{port}"]) == 0
    else:
        assert main(base) == 0
    manifest = (dumps / "manifest.txt").read_text(encoding="utf-8").splitlines()
    assert [line for line in manifest if line.startswith("seed")] == seed_lines
    assert main(["analyze", str(dumps), "--baseline", "A", "--out", str(report_path)]) == 0
    capsys.readouterr()
    assert load_report(report_path)["meta"]["seed"] == (None if endpoint else 0)


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
                assert client._control(bytes([OP_POWER_ON])) == 0
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
from srampuf.floorplan import DEFAULT_DESIGNS
from srampuf.simchip import ProcessParams

def interrupt_this_thread():
    time.sleep(0.5)
    signal.pthread_kill(threading.get_ident(), signal.SIGINT)

threading.Thread(target=interrupt_this_thread, daemon=True).start()
serve(DEFAULT_DESIGNS, ProcessParams(), 5, ("127.0.0.1", 0))
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
