"""The threaded executor and the transport option are gone, not hidden."""

import pytest

from repro.cli import main
from repro.runtime import EXECUTOR_KINDS, Pipeline


def test_removed_executor_and_transport_are_rejected(capsys):
    assert EXECUTOR_KINDS == ("serial", "mp")
    with pytest.raises(ValueError, match=r"'serial', 'mp'"):
        Pipeline(executor="threaded")
    with pytest.raises(TypeError, match="transport"):
        Pipeline(shards=4, executor="mp", transport="shm")
    for flag in (["--executor", "threaded"], ["--transport", "shm"]):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "flows.csv", "records.csv", *flag])
        assert exit_info.value.code == 2
    capsys.readouterr()  # argparse's usage text
