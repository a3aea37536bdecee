"""Nothing a run writes may depend on set or dict hash order.

``cli run`` on the fig05 trace (and the dual-stack churn trace, whose
ranges see several ingresses and join), and the same replay through a
4-shard ``Pipeline``, in two fresh interpreters under different
``PYTHONHASHSEED`` values (string hashes — and with them the
iteration order of any set of ingress points — differ, and so do object
addresses, which order sets of trie nodes): the records CSV and every
checkpoint file must come out byte-identical.  This is the runtime pin
for "unordered iteration never feeds serialized output"; the byte-level
order tests in ``tests/core/test_admission.py`` and
``tests/core/test_rangetree.py`` cover the sets it cannot reach.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.netflow.records import write_flows_csv
from repro.testkit.traces import dualstack_trace, fig05_trace

SRC = Path(repro.__file__).resolve().parents[1]


#: trace -> (builder, parameter flags that make it classify at CLI defaults)
TRACES = {
    "fig05": (fig05_trace, ("--n-cidr-factor", "0.005")),
    "dualstack": (dualstack_trace, ("--n-cidr-factor", "0.001", "--q", "0.8")),
}


#: ``cli run``'s replay and outputs on a 4-shard Pipeline (the CLI runs
#: one engine), its arguments read by the CLI's own parser
SHARDED_RUN = """
import sys
from repro.cli import _params_from, build_parser
from repro.core.output import write_records_csv
from repro.netflow.records import read_flows_csv_batched
from repro.runtime import CheckpointStore, Pipeline

args = build_parser().parse_args(sys.argv[1:])
store = CheckpointStore(args.checkpoint_dir, retain=args.checkpoint_retain)
with Pipeline(_params_from(args), shards=4, snapshot_seconds=args.snapshot_seconds,
              checkpoint_store=store, checkpoint_every=args.checkpoint_every) as pipeline:
    with open(args.flows) as stream:
        result = pipeline.run(read_flows_csv_batched(stream, args.batch_size))
with open(args.output, "w") as stream:
    write_records_csv(result.final_snapshot(), stream)
"""


def cli_run(
    flows: Path, out: Path, hashseed: int, *extra: str, sharded: bool = False
) -> dict[str, bytes]:
    """One ``cli run`` (or its 4-shard twin) in a fresh interpreter; every
    file it wrote."""
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hashseed))
    program = ["-c", SHARDED_RUN] if sharded else ["-m", "repro.cli"]
    subprocess.run(
        [
            sys.executable, *program, "run", str(flows),
            str(out / "records.csv"), "--snapshot-seconds", "120",
            "--checkpoint-dir", str(out / "ckpt"), "--checkpoint-every", "60",
            "--checkpoint-retain", "100", *extra,
        ],
        check=True, env=env, capture_output=True, timeout=120,
    )
    written = {"records.csv": (out / "records.csv").read_bytes()}
    for path in sorted((out / "ckpt").iterdir()):
        written[path.name] = path.read_bytes()
    return written


@pytest.mark.parametrize(
    "extra, sharded",
    [((), False), ((), True), (("--admission", "lossy", "--admission-promote-weight", "2"), False)],
    ids=["single", "shards4", "lossy"],
)
@pytest.mark.parametrize("trace", sorted(TRACES))
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, trace, extra, sharded):
    build, params = TRACES[trace]
    flows = tmp_path / "flows.csv"
    with open(flows, "w") as stream:
        write_flows_csv(build(), stream)
    one = cli_run(flows, tmp_path / "seed1", 1, *params, *extra, sharded=sharded)
    two = cli_run(flows, tmp_path / "seed2", 2, *params, *extra, sharded=sharded)
    assert len(one) > 5 and one["records.csv"].count(b"\n") > 2
    assert sorted(one) == sorted(two)
    for name in one:
        assert one[name] == two[name], f"{name} differs between hash seeds"
