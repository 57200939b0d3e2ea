"""Fuzz the CLI contract over edge-case flag values and malformed input files.

Every run must exit 0, or 2 with one error line and nothing on stdout, or 1
only when a verify or train check failed and its JSON report is on stdout.
No run may raise: an uncaught exception here is a traceback at the shell.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ecmargin.cli import main

EDGE_VALUES = ["nan", "inf", "-1", "0", "5e-324", "1e308", "1e400", "abc", "1" * 30, "0.5", "3"]
# JSON numbers for the config keys that take them
EDGE_NUMBERS = [-1, 0, 5e-324, 1e308, 10**30, 0.5, 3]

BIG = "9" * 401
# nesting far past the parser's recursion limit
DEEP = b"[" * 200_000
# a CSV field past the csv module's default limit of 131 072 characters
LONG_FIELD = b"x" * 200_000
COUNTS_FILES = [
    ("counts.json", b'{"categories": [{"id": 1, "name": "a", "instance_count": 16}, '
     b'{"id": 2, "name": "b", "instance_count": 81}], "background_ratio": 1.0}'),
    ("counts.csv", b"id,name,instance_count\n1,a,16\n2,b,81\n"),
    ("counts.json", b""),
    ("counts.csv", b""),
    ("counts.csv", b"id,count\n1,16\n"),
    ("counts.json", b'{"categories": [{"id": 1, "name": "\xff", "instance_count": 3}]}'),
    ("counts.csv", b"id,name,instance_count\n1,\xff,3\n2,b,4\n"),
    ("counts.json", b'{"categories": [{"id": 1, "name": "a", "instance_count": %s}, '
     b'{"id": 2, "name": "b", "instance_count": 5}]}' % BIG.encode()),
    ("counts.csv", b"id,name,instance_count\n1,a,%s\n2,b,5\n" % BIG.encode()),
    ("counts.csv", b"id,name,instance_count\n1,a,1%s\n2,b,1%s\n" % (b"0" * 308, b"0" * 308)),
    ("counts.json", b'{"categories": [], "background_ratio": NaN}'),
    ("counts.json", DEEP),
    ("counts.json", b'{"categories": %s' % DEEP),
    ("counts.csv", b"id,name,instance_count\n0,%s,3\n" % LONG_FIELD),
]
SCORES_FILES = [
    b"score,label\n0.9,1\n0.4,1\n0.5,0\n0.1,0\n",
    b"score,label\n0.9,1\n0.3,0\n0.7,1\n0.3,1\n0.55,0\n0.7,0\n1,0\n0,1\n",
    b"",
    b"label,score\n1,0.5\n0,0.2\n",
    b"score,label\n0.5,1\n\xff,0\n",
    b"score,label\n0.5,1\n0.6,1\n",
    b"score,label\nnan,1\n0.2,0\n",
    b"score,label\n1e400,1\n0.2,0\n",
    b"score,label\n0.5,%s\n0.2,0\n" % LONG_FIELD,
]
# small sizes, or 30-digit ones that shape an array past the size cap and so
# must be rejected before anything is allocated
TINY_TRAIN = {"num_classes": 2, "total_samples": 60, "feature_dim": 2, "epochs": 1}
SIZE_KEYS = ["num_classes", "total_samples", "feature_dim", "hidden", "batch_size"]


def optional(draw, argv, flag, values):
    if draw(st.booleans()):
        argv += [flag, draw(values)]


@st.composite
def invocations(draw):
    """(argv with {dir} for the scratch directory, {file name: bytes})."""
    edge = st.sampled_from(EDGE_VALUES)
    command = draw(st.sampled_from(["margins", "bounds", "metrics", "verify", "train"]))
    argv, files = [command], {}
    if command == "margins":
        name, data = draw(st.sampled_from(COUNTS_FILES))
        files[name] = data
        argv += ["--counts", "{dir}/" + name]
        optional(draw, argv, "--background-ratio", edge)
    elif command == "bounds":
        argv += ["--alpha", draw(edge)]
        optional(draw, argv, "--r", edge)
        optional(draw, argv, "--mode", st.sampled_from(["unit", "lower", "upper", "meet"]))
        optional(draw, argv, "--emit-curve", st.just("{dir}/curve.csv"))
    elif command == "metrics":
        files["scores.csv"] = draw(st.sampled_from(SCORES_FILES))
        argv += ["--scores", "{dir}/scores.csv", "--alpha", draw(edge)]
        optional(draw, argv, "--ties", st.sampled_from(["half", "strict"]))
        optional(draw, argv, "--pr-curve", st.just("{dir}/pr.csv"))
    elif command == "verify":
        argv += ["--trials", str(draw(st.integers(1, 3)))]
        optional(draw, argv, "--suite", st.sampled_from(["bounds", "estimators", "margins"]))
    else:
        config = dict(TINY_TRAIN)
        for key in draw(st.sets(st.sampled_from(["seed", "train_seed", "learning_rate"]))):
            config[key] = draw(st.sampled_from(EDGE_NUMBERS))
        for key in draw(st.sets(st.sampled_from(SIZE_KEYS), max_size=2)):
            config[key] = 10**30
        optional_model = draw(st.sampled_from([None, "linear", "mlp"]))
        if optional_model is not None:
            config["model"] = optional_model
        data = json.dumps(config).encode()
        files["train.json"] = draw(
            st.sampled_from(
                [data, data, b"", b"[]", b"{not json", b'{"seed": 1, "loss": "\xff"}', DEEP]
            )
        )
        argv += ["--config", "{dir}/train.json"]
        optional(draw, argv, "--loss-curve", st.just("{dir}/loss.csv"))
    optional(draw, argv, "--seed", edge)
    optional(draw, argv, "--format", st.sampled_from(["json", "csv"]))
    optional(draw, argv, "--out", st.just("{dir}/out.txt"))
    return argv, files


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(invocations())
@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_every_run_keeps_the_exit_code_contract(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert out == "", argv
        # argparse prints its usage first; the handlers print one error line
        assert err.startswith("usage: ") or err.count("\n") == 1, (argv, err)
        assert err.splitlines()[-1].startswith(("error: ", "ecmargin ")), (argv, err)
    elif code == 1:
        report = json.loads(out)
        assert argv[0] in ("verify", "train"), argv
        assert report.get("passed", report.get("bound_audit")) is False, argv
    else:
        assert err == "", (argv, err)
