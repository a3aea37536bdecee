"""IPD core: parameters, range trie, two-stage algorithm, LPM, output."""

from .admission import (
    ADMISSION_MODES,
    AdmissionConfig,
    AdmissionController,
    AdmissionImage,
    CountMinSketch,
    decode_admission,
    encode_admission,
)
from .algorithm import IPD, SweepReport
from .bundles import bundle_candidates, dominant_ingress, make_bundle
from .lbdetect import LBVerdict, LoadBalanceDetector
from .iputil import IPV4, IPV6, Prefix, format_ip, mask_ip, parse_ip, parse_prefix
from .lpm import (
    CompiledEntry,
    CompiledLPM,
    LPMTable,
    build_lpm_from_records,
)
from .output import IPDRecord, read_records_csv, write_records_csv
from .params import DEFAULT_PARAMS, IPDParams, default_decay
from .rangetree import RangeTree
from .snapshot import Snapshot
from .state import ClassifiedState, UnclassifiedState
from .statecodec import (
    CODEC_VERSION,
    EngineImage,
    IncompatibleStateError,
    StateCodecError,
    decode_engine,
    decode_subtree,
    encode_engine,
    encode_subtree,
)

__all__ = [
    "ADMISSION_MODES",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionImage",
    "CODEC_VERSION",
    "CompiledEntry",
    "CountMinSketch",
    "CompiledLPM",
    "DEFAULT_PARAMS",
    "EngineImage",
    "IPD",
    "IPDParams",
    "IPDRecord",
    "IPV4",
    "IPV6",
    "IncompatibleStateError",
    "LBVerdict",
    "LoadBalanceDetector",
    "LPMTable",
    "Prefix",
    "RangeTree",
    "Snapshot",
    "StateCodecError",
    "SweepReport",
    "ClassifiedState",
    "UnclassifiedState",
    "build_lpm_from_records",
    "bundle_candidates",
    "decode_admission",
    "decode_engine",
    "decode_subtree",
    "default_decay",
    "dominant_ingress",
    "encode_admission",
    "encode_engine",
    "encode_subtree",
    "format_ip",
    "make_bundle",
    "mask_ip",
    "parse_ip",
    "parse_prefix",
    "read_records_csv",
    "write_records_csv",
]
