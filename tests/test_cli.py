"""End-to-end tests for the `owl` command-line interface."""

import hashlib
import json
import os
import random

import pytest

from owllab import cli, owl, sequence, tdfa
from owllab.matrix import BoolMatrix
from owllab.owl import OwlString, full_symbol, identity_symbol

from frozen import CHAIN_H5, D_H5, D_PRIME_H5, E_H5, E_PRIME_H5


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_string(tmp_path, z, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(z.to_json()))
    return str(path)


def test_seq_single_matrix_text(capsys):
    code, out, _ = run_cli(capsys, "seq", "--height", "5", "--index", "6")
    assert code == 0
    assert out == CHAIN_H5[6]


AUX_H5 = {"e": E_H5, "eprime": E_PRIME_H5, "d": D_H5, "dprime": D_PRIME_H5}


@pytest.mark.parametrize("kind, index", [(k, t) for k, frozen in AUX_H5.items() for t in frozen])
def test_seq_auxiliary_kinds(capsys, monkeypatch, kind, index):
    # An increment is computed from (t, h) alone; the chain is never built.
    def no_chain(h):
        raise AssertionError("build_sequence called")

    monkeypatch.setattr(sequence, "build_sequence", no_chain)
    code, out, _ = run_cli(capsys, "seq", "--height", "5", "--index", str(index), "--kind", kind)
    assert code == 0
    assert out == AUX_H5[kind][index]


def test_seq_full_json(capsys):
    code, out, _ = run_cli(capsys, "seq", "--height", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["command"] == "seq"
    matrices = blob["result"]["matrices"]
    assert len(matrices) == sequence.chain_length(5) + 1
    for t, text in CHAIN_H5.items():
        assert matrices[t] == BoolMatrix.from_text(text).row_hex(), t


def test_seq_index_out_of_range(capsys):
    code, _, err = run_cli(capsys, "seq", "--height", "3", "--index", "2", "--kind", "d")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("kind", ["e", "eprime", "d", "dprime"])
def test_seq_kind_needs_index(capsys, kind):
    # Only the chain itself is written whole; an increment needs its step.
    code, out, err = run_cli(capsys, "seq", "--height", "2", "--kind", kind)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: --kind {kind} needs --index"]


@pytest.mark.parametrize("index", ["7", "-1"])
def test_seq_chain_index_out_of_range(capsys, index):
    code, out, err = run_cli(capsys, "seq", "--height", "3", "--index", index)
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: --index must be in [0, 6] for h=3"]


def test_one_chain_matrix_is_step_t_of_the_chain():
    for h in range(1, 7):
        seq = tuple(sequence.build_sequence(h))
        for t in range(sequence.chain_length(h) + 1):
            assert cli._chain_matrix(h, t, "--index") == seq[t], (h, t)
    seq = tuple(sequence.build_sequence(64))
    for t in (0, 1, sequence.chain_length(64)):
        assert cli._chain_matrix(64, t, "--index") == seq[t], t


def test_one_chain_matrix_cross_checks_every_step_up_to_it(monkeypatch):
    # A widened increment that misses its cell at step 7 stops every read of
    # C_7 or later, and no read before it.
    c6 = tuple(sequence.build_sequence(6))[6]
    e_prime = sequence.e_prime

    def dropped(t, h):
        ep = e_prime(t, h)
        return ep if t != 7 else BoolMatrix(h, tuple(row & (row - 1) for row in ep.rows))

    monkeypatch.setattr(sequence, "e_prime", dropped)
    assert cli._chain_matrix(6, 6, "--index") == c6
    for t in (7, 21):
        with pytest.raises(AssertionError, match="disagree at t=7, h=6"):
            cli._chain_matrix(6, t, "--index")


def test_seq_generic_and_pump_never_build_the_whole_chain(capsys, monkeypatch, tmp_path):
    # Each command that reads step t stops the builder there: it pulls at
    # most C_0 .. C_t, however long the chain is.
    targets = tuple(sequence.build_sequence(3))
    pump_argv, pump_rc, pump_sha = next(p for p in PINNED_REPORTS if p[0].startswith("pump"))
    build = sequence.build_sequence
    pulled = []

    def counted(h):
        for c in build(h):
            pulled.append(c)
            yield c

    def pulled_at_most(n):
        count = len(pulled)
        pulled.clear()
        return count <= n

    monkeypatch.setattr(sequence, "build_sequence", counted)
    for t, text in CHAIN_H5.items():
        assert run_cli(capsys, "seq", "--height", "5", "--index", str(t)) == (0, text, "")
        assert pulled_at_most(t + 1), t
    path = tmp_path / "target.txt"
    generic = ["generic", "--machine", "broken:3:2"]
    for t in (0, 3, 6):
        path.write_text(targets[t].to_text())
        code, by_conn, _ = run_cli(capsys, *generic, "--conn", str(t))
        assert code == 0
        assert pulled_at_most(t + 1), t
        _, by_file, _ = run_cli(capsys, *generic, "--matrix", str(path))
        assert json.loads(by_conn)["result"] == json.loads(by_file)["result"], t
    pump = pump_argv.split()  # ends "--index N"
    for t in (1, 3):
        run_cli(capsys, *pump[:-1], str(t))
        assert pulled_at_most(t + 1), t
    code, out, _ = run_cli(capsys, "--no-timing", *pump)
    assert code == pump_rc
    assert pulled_at_most(int(pump[-1]) + 1)
    assert hashlib.sha256(out.encode()).hexdigest() == pump_sha
    for index in ("-1", "7"):
        code, out, err = run_cli(capsys, "pump", "--machine", "subset:3", "--index", index)
        assert (code, out) == (2, "")
        assert "Traceback" not in err


def test_seq_last_chain_indices_at_full_height(capsys):
    # Stage 2 ends all-ones at N - 1 = 2079; stage 3 drops to zero at N.
    for t, cell in (("2079", "1"), ("2080", "0")):
        code, out, _ = run_cli(capsys, "seq", "--height", "64", "--index", t)
        assert code == 0
        assert out.splitlines() == [cell * 64] * 64
    code, out, err = run_cli(capsys, "seq", "--height", "64", "--index", "2081")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: --index must be in [0, 2080] for h=64"]


def test_verify_seq(capsys):
    code, out, _ = run_cli(capsys, "verify-seq", "--height", "4")
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["ok"] is True
    assert blob["result"]["failures"] == []


def test_run_subcommand(capsys, tmp_path):
    z = OwlString(2, [identity_symbol(2), full_symbol(2)])
    path = write_string(tmp_path, z)
    code, out, _ = run_cli(capsys, "run", "--machine", "subset:2", "--input", path)
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["decision"] == "accept"
    assert blob["result"]["live"] is True


def test_run_with_trace(capsys, tmp_path):
    z = OwlString(2, [identity_symbol(2)])
    path = write_string(tmp_path, z)
    code, out, _ = run_cli(
        capsys, "run", "--machine", "accept_all:2", "--input", path, "--trace"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["trace"][0] == ["go", 1]


@pytest.mark.parametrize("trace", [False, True])
def test_run_simulates_once(capsys, tmp_path, monkeypatch, trace):
    limits = []
    real = tdfa._simulate

    def spy(*args):
        limits.append(args[-1])
        return real(*args)

    monkeypatch.setattr(tdfa, "_simulate", spy)
    z = OwlString(2, [identity_symbol(2), full_symbol(2)])
    path = write_string(tmp_path, z)
    argv = ["run", "--machine", "subset:2", "--input", path] + ["--trace"] * trace
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert limits == [10**5 if trace else 0]
    result = json.loads(out)["result"]
    assert result["decision"] == "accept" and result["steps"] == 4
    assert ("trace" in result) == trace


def test_run_trace_is_null_past_the_limit(capsys, tmp_path):
    # 100,000 symbols take 100,002 steps: 100,003 configurations, one more
    # than run_on_tape keeps, so the trace is dropped and says so.
    z = OwlString(2, [full_symbol(2)] * 100_000)
    path = write_string(tmp_path, z)
    code, out, _ = run_cli(capsys, "run", "--machine", "subset:2", "--input", path, "--trace")
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"decision": "accept", "live": True, "steps": 100_002, "trace": None}


def test_run_height_mismatch(capsys, tmp_path):
    z = OwlString(3, [identity_symbol(3)])
    path = write_string(tmp_path, z)
    code, _, err = run_cli(capsys, "run", "--machine", "subset:2", "--input", path)
    assert code == 2
    assert "height" in err


def test_exits_subcommand(capsys, tmp_path):
    z = OwlString(2, [identity_symbol(2)])
    path = write_string(tmp_path, z)
    code, out, _ = run_cli(capsys, "exits", "--machine", "subset:2", "--input", path)
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["exit_size"] == 4
    assert blob["result"]["exit_states"] == ["s0", "s1", "s2", "s3"]


def test_generic_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "generic", "--machine", "subset:2", "--conn", "1"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["result"]["exit_size"] >= 0
    assert blob["result"]["side"] == "LR"


def test_generic_matrix_file(capsys, tmp_path):
    path = tmp_path / "target.txt"
    path.write_text("10\n01\n")
    code, out, _ = run_cli(
        capsys, "generic", "--machine", "subset:2", "--matrix", str(path)
    )
    assert code == 0
    assert json.loads(out)["result"]["target"] == ["1", "2"]


def test_generic_needs_exactly_one_target(capsys):
    code, _, err = run_cli(capsys, "generic", "--machine", "subset:2")
    assert code == 2
    assert "exactly one" in err


def test_chain_subcommand(capsys):
    code, out, _ = run_cli(capsys, "chain", "--machine", "subset:2")
    assert code == 0
    blob = json.loads(out)
    sizes = blob["result"]["a_sizes"]
    assert sizes == sorted(sizes, reverse=True)


def test_pump_finds_accept_all(capsys):
    code, out, _ = run_cli(
        capsys, "pump", "--machine", "accept_all:2", "--index", "1"
    )
    assert code == 1
    blob = json.loads(out)
    assert blob["result"]["found"] is True
    assert blob["result"]["t_star"] == 1


def test_pump_clean_on_subset(capsys):
    code, out, _ = run_cli(capsys, "pump", "--machine", "subset:2", "--index", "1")
    assert code == 0
    assert json.loads(out)["result"]["found"] is False


def test_fuzz_finds_broken(capsys):
    code, out, _ = run_cli(capsys, "fuzz", "--machine", "broken:3:1")
    assert code == 1
    blob = json.loads(out)
    assert blob["result"]["found"] is True
    assert blob["result"]["kind"] == "fuzz"


def test_fuzz_clean_exhaustive(capsys):
    code, out, _ = run_cli(
        capsys, "fuzz", "--machine", "subset:2", "--max-len", "2", "--exhaustive"
    )
    assert code == 0
    assert json.loads(out)["result"]["detail"]["strings_checked"] == 273


def test_unknown_machine(capsys):
    code, _, err = run_cli(capsys, "pump", "--machine", "nope:9", "--index", "1")
    assert code == 2
    assert "machine" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--machine", "subset:2", "--height", "5"],
        ["pump", "--machine", "accept_all", "--index", "1"],
    ],
)
def test_machine_height_comes_from_the_name(capsys, argv):
    # accept_all:h is the one spelling; no option overrides a machine's height.
    assert cli.main(argv) == 2  # argparse rejects an unknown option
    assert "Traceback" not in capsys.readouterr().err


def test_machine_file_round_trip(capsys, tmp_path):
    table = {
        "s": {"LEND": ["s", "R"], "REND": ["accept", "R"], "default": ["s", "R"]},
        "accept": {
            "LEND": ["accept", "R"],
            "REND": ["accept", "R"],
            "default": ["accept", "R"],
        },
        "reject": {
            "LEND": ["reject", "R"],
            "REND": ["reject", "L"],
            "default": ["reject", "R"],
        },
    }
    blob = {
        "h": 1,
        "states": ["s", "accept", "reject"],
        "start": "s",
        "accept": "accept",
        "reject": "reject",
        "delta": table,
    }
    mpath = tmp_path / "machine.json"
    mpath.write_text(json.dumps(blob))
    z = OwlString(1, [full_symbol(1)])
    zpath = write_string(tmp_path, z)
    code, out, _ = run_cli(capsys, "run", "--machine", str(mpath), "--input", zpath)
    assert code == 0
    assert json.loads(out)["result"]["decision"] == "accept"


def test_invalid_machine_file_rejected(capsys, tmp_path):
    mpath = tmp_path / "bad.json"
    mpath.write_text("{}")
    code, _, err = run_cli(capsys, "run", "--machine", str(mpath), "--input", str(mpath))
    assert code == 2
    assert "cannot load machine" in err


with open(os.path.join(os.path.dirname(__file__), "subset2_table.json")) as _f:
    SUBSET2 = json.load(_f)


def test_machine_file_breaking_the_endmarker_discipline_is_refused(capsys, tmp_path):
    blob = json.loads(json.dumps(SUBSET2))
    blob["delta"]["s1"]["LEND"] = ["s3", "L"]
    mpath = tmp_path / "left.json"
    mpath.write_text(json.dumps(blob))
    zpath = write_string(tmp_path, OwlString(2, [full_symbol(2)]))
    code, out, err = run_cli(capsys, "run", "--machine", str(mpath), "--input", zpath)
    assert code == 2 and out == ""
    want = f"error: cannot load machine {str(mpath)!r}: machine {str(mpath)!r} is invalid: "
    assert err.splitlines() == [want + "delta('s1', LEND) moves left off the left endmarker"]

# The file flags, the kind each names in its error, and the file faults the
# test makes: a directory, a file of non-UTF-8 bytes, a path with no file.
FILE_KINDS = {"--machine": "machine", "--input": "input string", "--matrix": "matrix"}
FILE_FAULTS = ("folder", "bytes.json", "missing.json")

MALFORMED_FILES = {
    "symbols_not_list.json": '{"h": 2, "symbols": 5}',
    "top_level_list.json": "[1, 2]",
    "delta_not_object.json": json.dumps({
        "h": 2, "states": ["go", "accept", "reject"], "start": "go",
        "accept": "accept", "reject": "reject", "delta": 5,
    }),
    "duplicate_key.json": json.dumps({
        "h": 2, "states": ["go", "accept", "reject"], "start": "go",
        "accept": "accept", "reject": "reject", "delta": {
            q: {"LEND": [q, "R"], "REND": ["accept", "R"], "1": [q, "R"], "01": ["reject", "R"],
                "default": [q, "R"]}
            for q in ("go", "accept", "reject")
        },
    }),
    "deep.json": "[" * 200000,
    "ghost_state.json": json.dumps({
        **SUBSET2, "delta": {**SUBSET2["delta"], "ghost": {"default": ["nowhere", "X"]}},
    }),
    "state_twice.json": json.dumps({**SUBSET2, "states": SUBSET2["states"] + ["s1"]}),
    "height3.json": json.dumps(OwlString(3, [full_symbol(3)]).to_json()),
    "hex_prefix.json": '{"h": 2, "symbols": ["0x3"]}',
    "hex_prefix_key.json": json.dumps({
        "h": 2, "states": ["go", "accept", "reject"], "start": "go",
        "accept": "accept", "reject": "reject", "delta": {
            q: {"LEND": [q, "R"], "REND": ["accept", "R"], "0x1": ["reject", "R"],
                "default": [q, "R"]}
            for q in ("go", "accept", "reject")
        },
    }),
}


@pytest.mark.parametrize(
    "argv",
    [
        "run --machine subset:2 --input {dir}/symbols_not_list.json",
        "run --machine subset:2 --input {dir}/top_level_list.json",
        "run --machine {dir}/delta_not_object.json --input {dir}/empty.json",
        "run --machine {dir}/duplicate_key.json --input {dir}/empty.json",
        "run --machine subset:2 --input {dir}/deep.json",
        "run --machine {dir}/deep.json --input {dir}/empty.json",
        "run --machine {dir}/ghost_state.json --input {dir}/empty.json",
        "run --machine {dir}/state_twice.json --input {dir}/empty.json",
        "exits --machine subset:2 --input {dir}/height3.json",
        "exits --machine accept_all:2 --input {dir}/height3.json",
        "run --machine subset:2 --input {dir}/hex_prefix.json",
        "run --machine {dir}/hex_prefix_key.json --input {dir}/empty.json",
        "fuzz --machine subset:2 --samples -5",
        "fuzz --machine subset:2 --max-len -1",
        "generic --machine subset:2 --conn 1 --max-ext-len -1",
        "chain --machine subset:1_0",
        "chain --machine subset:+3",
        "chain --machine subset:\u0663",
        "chain --machine broken:3:+1",
        "chain --machine subset:2 --max-ext-len -1",
        "pump --machine subset:2 --index 1 --max-ext-len -1",
        "verify-seq --height 1_0",
        "seq --height 2 --index +1",
        "seq --height 2 --kind e",
        "seq --height 0",
        "seq --height 65",
        "fuzz --machine subset:2 --samples \u0663",
        "fuzz --machine subset:2 --seed +5",
        "--seed +5 fuzz --machine subset:2",
        "generic --machine subset:2 --conn 1_0",
        "pump --machine subset:2 --index \u0661",
        "--format pretty verify-seq --height 2",
        "run --machine {dir}/folder --input {dir}/empty.json",
        "run --machine {dir}/bytes.json --input {dir}/empty.json",
        "run --machine subset:2 --input {dir}/folder",
        "run --machine subset:2 --input {dir}/bytes.json",
        "run --machine subset:2 --input {dir}/missing.json",
        "generic --machine subset:2 --matrix {dir}/folder",
        "generic --machine subset:2 --matrix {dir}/bytes.json",
        "generic --machine subset:2 --matrix {dir}/missing.json",
    ],
)
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv):
    for name, text in MALFORMED_FILES.items():
        (tmp_path / name).write_text(text)
    write_string(tmp_path, OwlString(2, ()), "empty.json")
    (tmp_path / "folder").mkdir()
    (tmp_path / "bytes.json").write_bytes(b"\xff\xfe{")
    args = argv.format(dir=tmp_path).split()
    code = cli.main(args)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1
    assert "Traceback" not in err
    for flag, value in zip(args, args[1:]):
        if flag in FILE_KINDS and os.path.basename(value) in FILE_FAULTS:
            assert errors[0].startswith(f"error: cannot load {FILE_KINDS[flag]} {value!r}: ")


def test_negative_height_machine_spec_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "chain", "--machine", "subset:-1")
    assert code == 2
    assert out == ""
    assert "dimension must be an integer" in err


def test_machine_spec_parts_are_decimal_digits_only(capsys):
    # int() would read " 3" as 3; the rows above cover "1_0", "+3" and "\u0663".
    code, out, err = run_cli(capsys, "chain", "--machine", "subset: 3")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: bad machine spec 'subset: 3': ' 3' is not a decimal integer"]


def test_integer_flags_are_decimal_digits_only(capsys):
    # The rows above cover "1_0", "+5" and non-ASCII digits.
    assert cli.main(["verify-seq", "--height", " 2"]) == 2
    err = capsys.readouterr().err
    assert "argument --height: ' 2' is not a decimal integer" in err
    assert "Traceback" not in err
    assert run_cli(capsys, "--no-timing", "--seed", "-5", "verify-seq", "--height", "2")[0] == 0


def test_machine_spec_over_the_state_budget_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "chain", "--machine", "broken:16:5")
    assert code == 2
    assert out == ""
    assert [ln for ln in err.splitlines() if "error:" in ln] == [
        "error: bad machine spec 'broken:16:5': 6887 states at h=16, cap=5; at most 4098 are allowed"
    ]
    assert "Traceback" not in err


# Each report's sha256 as first recorded. The exit-chain pins cover the
# bounded ext-len-2 candidate stream (subset:3, and broken:3:2 on its LR side:
# every builtin machine is one-way, so an RL pin would test an empty exit set)
# and the h > 3 generator list (broken:4:2); the pump pin covers a verified
# counterexample, whose liveness fields is_live fills; the h = 64 pin covers
# the chain identity suite (25538 checks) on the product kernel. The
# two-way table machine moves left on some symbols and loops on some bare
# tapes, so its chain pins non-empty RL exit sets and descents that adopt a
# candidate because a continued run loops. The last two pins cover a
# NotFound each: a pump whose alpha is no permutation, and the fuzzer's
# counts by length. Machine paths are relative to the repository root, and
# a report echoes them.
PINNED_REPORTS = [
    ("chain --machine subset:3 --max-ext-len 2", 0,
     "80de091f080a35a35bf887f594289f972c629a913908a2e78c1269a761545be1"),
    ("generic --machine broken:3:2 --conn 3 --max-ext-len 2 --side lr", 0,
     "c8209b91aa0c1da62328f72b4e72cd566b8795ef44d3a1df049af4e51633b3bb"),
    ("pump --machine accept_all:3 --index 6", 1,
     "d2a27b5fea0d90f07a3c394170d4f88b9aa5aa167102b85b2ac2daf1738c5e76"),
    ("verify-seq --height 64", 0,
     "40889c18d655ea4dd6527a643331a76cd54470467414842d55497dc88e16c2bb"),
    ("chain --machine broken:4:2", 0,
     "d12d8c10e69746235fe7ee770b2eb116ea14c7b8158be98072399d05770c473b"),
    ("chain --machine tests/twoway2_table.json --max-ext-len 2", 0,
     "9366f07739393ab25b14450574e944b4a4e56bfe155d8f88af3f789a734c1b97"),
    ("pump --machine subset:3 --index 1", 0,
     "8ddf043320f710aa576ac77e6ea3a4c7a1a6efc764bb83483cebe4671e7b2d4a"),
    ("fuzz --machine subset:2 --max-len 2 --exhaustive", 0,
     "c4215be1a38d93e3e0d888904ea3d6d98e2b83d0c7ba4cd31d3c8c9a4d60ead5"),
]


@pytest.mark.parametrize("argv, rc, sha256", PINNED_REPORTS)
def test_pinned_reports(capsys, monkeypatch, argv, rc, sha256):
    monkeypatch.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    code, out, _ = run_cli(capsys, "--no-timing", *argv.split())
    assert code == rc
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_reports_are_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "--no-timing", "verify-seq", "--height", "3")
    _, out2, _ = run_cli(capsys, "--no-timing", "verify-seq", "--height", "3")
    assert out1 == out2


def test_timing_included_by_default(capsys):
    _, out, _ = run_cli(capsys, "verify-seq", "--height", "2")
    assert "timing_s" in json.loads(out)


def test_config_echoed(capsys):
    _, out, _ = run_cli(capsys, "--seed", "3", "verify-seq", "--height", "2")
    blob = json.loads(out)
    assert blob["config"]["seed"] == 3
    assert blob["config"]["height"] == 2
    assert blob["version"]


def test_global_flags_after_the_subcommand(capsys):
    fuzz = ["fuzz", "--machine", "subset:2", "--samples", "5"]
    flags = ["--no-timing", "--seed", "3"]
    code_before, out_before, _ = run_cli(capsys, *flags, *fuzz)
    code_after, out_after, _ = run_cli(capsys, *fuzz, *flags)
    assert code_before == code_after == 0
    assert out_before == out_after
    blob = json.loads(out_before)
    assert blob["config"]["seed"] == 3 and "timing_s" not in blob


def test_main_returns_argparse_exit_codes(capsys):
    # main returns every exit code; argparse's SystemExit never gets out.
    code, out, err = run_cli(capsys, "chain")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage: owl chain ")
    assert [ln for ln in lines if "error:" in ln] == [
        "owl chain: error: the following arguments are required: --machine"
    ]
    code, out, err = run_cli(capsys, "--help")
    assert code == 0 and err == ""
    assert out.startswith("usage: owl ")


def test_one_parser_serves_every_call_in_a_process(capsys):
    # main builds the parser once per process; what one parse sets, including
    # the subcommand's copies of the global flags, must not leak into the next.
    cli.build_parser.cache_clear()
    generic = ["generic", "--machine", "subset:2", "--conn", "1"]
    code, out, _ = run_cli(capsys, *generic, "--no-timing", "--seed", "3")
    assert code == 0
    blob = json.loads(out)
    assert blob["config"]["seed"] == 3 and "timing_s" not in blob
    assert cli.main(generic + ["--side", "up"]) == 2
    assert "invalid choice" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, *generic)
    assert code == 0
    blob = json.loads(out)
    assert blob["config"]["seed"] == 0
    assert blob["config"]["side"] == "lr"
    assert "timing_s" in blob
    assert cli.build_parser.cache_info().misses == 1


def _every_subcommand(tmp_path):
    """One JSON-reporting argv per subcommand."""
    z = OwlString(2, [identity_symbol(2), full_symbol(2)])
    path = write_string(tmp_path, z)
    return [
        ["seq", "--height", "3"],
        ["verify-seq", "--height", "4"],
        ["run", "--machine", "subset:2", "--input", path, "--trace"],
        ["exits", "--machine", "subset:2", "--input", path, "--side", "rl"],
        ["generic", "--machine", "broken:3:2", "--conn", "3", "--max-ext-len", "2"],
        ["chain", "--machine", "broken:4:2"],
        ["pump", "--machine", "accept_all:3", "--index", "6"],
        ["fuzz", "--machine", "broken:3:1", "--samples", "50"],
    ]


def _assert_plain_json(obj):
    """Only str keys and plain JSON types. json.dumps would turn an int key
    into a string without a word, so this is the only check on key types."""
    if type(obj) is dict:
        for k, v in obj.items():
            assert type(k) is str, k
            _assert_plain_json(v)
    elif type(obj) in (list, tuple):
        for v in obj:
            _assert_plain_json(v)
    else:
        assert obj is None or type(obj) in (str, int, float, bool), obj


@pytest.mark.parametrize("timing", [[], ["--no-timing"]])
def test_reports_are_the_bytes_json_writes(capsys, tmp_path, monkeypatch, timing):
    argvs = _every_subcommand(tmp_path)
    choices = cli.build_parser()._subparsers._group_actions[0].choices
    assert sorted(argv[0] for argv in argvs) == sorted(choices)
    reports = []
    report = cli._report

    def recording(*args):
        reports.append(report(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "_report", recording)
    for argv in argvs:
        code, out, _ = run_cli(capsys, *timing, *argv)
        assert code in (0, 1), argv
        assert len(out.splitlines()) == 1, argv
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n", argv
        assert ("timing_s" in json.loads(out)) == (not timing)
    assert len(reports) == len(argvs)
    for report in reports:
        _assert_plain_json(report)


def test_builtin_name_wins_over_a_file(tmp_path, monkeypatch):
    table = {
        q: {"LEND": ["s", "R"], "REND": ["accept", "R"], "default": ["s", "R"]}
        for q in ("s", "accept", "reject")
    }
    blob = {
        "h": 1, "states": ["s", "accept", "reject"], "start": "s",
        "accept": "accept", "reject": "reject", "delta": table,
    }
    monkeypatch.chdir(tmp_path)
    (tmp_path / "subset:3").write_text(json.dumps(blob))
    builtin = cli.load_machine("subset:3")
    assert builtin.h == 3 and builtin.name == "subset:3"
    from_file = cli.load_machine("./subset:3")
    assert from_file.h == 1 and from_file.name == "./subset:3"


# Seeded mutation fuzz over the three file loaders. Every mutation below is
# invalid by construction, so each case must end in rc 2 with one error line.
FUZZ_CASES_PER_FILE = 100
_SWAP_VALUES = [None, True, 1.5, 7, "junk", ["junk"], {"junk": 1}]
_WRONG_HEIGHTS = [0, 1, 3, 65, -1]


def _valid_string_json():
    edge = owl.OwlSymbol(2, [(1, 2)])
    blob = OwlString(2, [identity_symbol(2), full_symbol(2), edge]).to_json()
    blob["symbols"].append(edge.to_hex())
    return blob


def _valid_machine_json():
    def halting(q):
        return {"LEND": [q, "R"], "REND": [q, "L"], "default": [q, "R"]}

    go = {"LEND": ["go", "R"], "REND": ["accept", "R"], "9": ["go", "R"], "default": ["go", "R"]}
    return {
        "h": 2,
        "states": ["go", "accept", "reject"],
        "start": "go",
        "accept": "accept",
        "reject": "reject",
        "delta": {"go": go, "accept": halting("accept"), "reject": halting("reject")},
    }


VALID_MATRIX_TEXT = "10\n11\n"


def _json_paths(obj, path=()):
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _json_paths(value, path + (key,))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _mutate_json(rng, text):
    """Truncated text, a value of another JSON type, a wrong height, or a
    key renamed to junk (a required field, a state or a symbol goes missing)."""
    kind = rng.choice(["truncate", "swap", "height", "junk_key"])
    if kind == "truncate":
        return text[: rng.randrange(len(text))]
    obj = json.loads(text)
    paths = list(_json_paths(obj))
    if kind == "swap":
        path = rng.choice(paths)
        value = rng.choice([v for v in _SWAP_VALUES if type(v) is not type(_at(obj, path))])
    elif kind == "height":
        path, value = ("h",), rng.choice(_WRONG_HEIGHTS)
    else:
        path = rng.choice([p for p in paths if isinstance(_at(obj, p), dict)])
        value = dict(_at(obj, path))
        value["junk"] = value.pop(rng.choice(sorted(value)))
    if not path:
        return json.dumps(value)
    _at(obj, path[:-1])[path[-1]] = value
    return json.dumps(obj)


def _mutate_matrix(rng, text):
    """Truncated text, a junk character, a wrong shape or height, or a junk line."""
    kind = rng.choice(["truncate", "swap", "height", "junk_line"])
    lines = text.splitlines()
    if kind == "truncate":  # cut into the last row, not just its newline
        return text[: rng.randrange(len(text) - 1)]
    if kind == "swap":
        k = rng.randrange(len(text))
        return text[:k] + rng.choice("2x#") + text[k + 1 :]
    if kind == "height":
        h = len(lines)
        reshape = rng.choice([(-1, 0), (0, -1), (1, 0), (0, 1), (1, 1), (-1, -1)])
        rows, cols = h + reshape[0], h + reshape[1]
        lines = [(ln + "0")[:cols] for ln in lines[:rows]] + ["0" * cols] * (rows - h)
    else:
        lines.insert(rng.randrange(len(lines) + 1), "junk")
    return "\n".join(lines) + "\n"


VALID_STRING_TEXT = json.dumps(_valid_string_json())
VALID_MACHINE_TEXT = json.dumps(_valid_machine_json())
FUZZ_FILES = {  # valid text, its mutation, the command that loads it
    "string": (VALID_STRING_TEXT, _mutate_json, "run --machine subset:2 --input {file}"),
    "machine": (VALID_MACHINE_TEXT, _mutate_json, "run --machine {file} --input {string}"),
    "matrix": (VALID_MATRIX_TEXT, _mutate_matrix, "generic --machine subset:2 --matrix {file}"),
}


@pytest.mark.parametrize("kind", sorted(FUZZ_FILES))
def test_mutated_files_are_usage_errors(capsys, tmp_path, kind):
    valid, mutate, argv = FUZZ_FILES[kind]
    path = tmp_path / "file"
    argv = argv.format(file=path, string=tmp_path / "string.json").split()
    (tmp_path / "string.json").write_text(VALID_STRING_TEXT)
    path.write_text(valid)
    assert cli.main(argv) == 0  # the unmutated file loads and runs
    capsys.readouterr()
    rng = random.Random(kind)
    bad = []
    for _ in range(FUZZ_CASES_PER_FILE):
        text = mutate(rng, valid)
        path.write_text(text)
        try:
            code = cli.main(argv)
        except Exception as exc:  # the failure report shows which text escaped
            code = repr(exc)
        err = capsys.readouterr().err
        errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
        if code != 2 or len(errors) != 1 or "Traceback" in err:
            bad.append((text, code, err))
    assert bad == []
