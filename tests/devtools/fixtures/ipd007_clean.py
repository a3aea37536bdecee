"""Fixture: nothing here may trip IPD007 (no-pickle-hot-path)."""
import pickle

from repro.devtools.markers import hot_path


class Engine:
    @hot_path
    def ingest(self, batch, codec):
        # a caller-supplied binary codec, not object serialization: clean
        return codec.encode(batch)

    def snapshot(self, state):
        # pickle outside hot paths: fine
        return pickle.dumps(state)
