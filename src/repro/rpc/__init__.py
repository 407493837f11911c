"""RPC offloading: protobuf wire format, schemas, NIC pipelines."""

from repro.rpc.wire import (
    WireType,
    decode_varint,
    encode_varint,
    zigzag_decode,
    zigzag_encode,
)
from repro.rpc.schema import FieldDescriptor, FieldKind, MessageSchema
from repro.rpc.message import (
    MessageStats,
    decode_message,
    encode_message,
    generate_message,
    message_stats,
)
from repro.rpc.hyperprotobench import BENCH_NAMES, BenchWorkload, make_bench
from repro.rpc.layout import Block, ObjectLayout, UnitKind, layout_message
from repro.rpc.rpcnic import RpcNicPipeline
from repro.rpc.cxl_rpc import CxlRpcPipeline
from repro.rpc.harness import RpcComparison, run_rpc_comparison

__all__ = [
    "WireType",
    "decode_varint",
    "encode_varint",
    "zigzag_decode",
    "zigzag_encode",
    "FieldDescriptor",
    "FieldKind",
    "MessageSchema",
    "MessageStats",
    "decode_message",
    "encode_message",
    "generate_message",
    "message_stats",
    "BENCH_NAMES",
    "BenchWorkload",
    "make_bench",
    "Block",
    "ObjectLayout",
    "UnitKind",
    "layout_message",
    "RpcNicPipeline",
    "CxlRpcPipeline",
    "RpcComparison",
    "run_rpc_comparison",
]
