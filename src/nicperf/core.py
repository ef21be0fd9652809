"""Shared domain types, their dict codec, and accuracy metrics.

Everything here is an immutable value type, safe to share between
concurrent simulation or profiling tasks.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing
from collections.abc import Mapping
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

__all__ = [
    "ResourceKind",
    "ExecutionPattern",
    "TrafficProfile",
    "DEFAULT_TRAFFIC",
    "CounterSnapshot",
    "ZERO_COUNTERS",
    "ThroughputSample",
    "InvalidInputError",
    "Codec",
    "mape",
    "band_accuracy",
]


class InvalidInputError(ValueError):
    """Raised when an operation's preconditions are violated."""


def _read_text(path) -> str:
    """The text of an input file, which must be UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not UTF-8 text: {exc}") from None


#: Wire form of ``math.inf``: an always-backlogged offered rate.
_INF_WIRE = "saturating"


def _float_in(v) -> float:
    if v == _INF_WIRE:
        return math.inf
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"expected a number, got {v!r}")
    return float(v)


def _float_out(v: float):
    return _INF_WIRE if v == math.inf else v


def _int_in(v) -> int:
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def _only(kind: type, what: str) -> Callable:
    """Decoder that passes a value of JSON type ``kind`` unchanged."""
    def dec(v):
        if not isinstance(v, kind):
            raise TypeError(f"expected {what}, got {v!r}")
        return v
    return dec


_bool_in = _only(bool, "true or false")
_str_in = _only(str, "a string")
_list_in = _only(list, "a list")
_dict_in = _only(dict, "an object")


def _same(v):
    return v


#: Decoders of the plain field types; each encodes as itself.
_PLAIN = {int: _int_in, bool: _bool_in, str: _str_in, dict: _dict_in, type(None): _same}


def _converters(hint) -> tuple[Callable, Callable]:
    """(decode, encode) pair for one field type hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is float:
        return _float_in, _float_out
    if hint in _PLAIN:
        return _PLAIN[hint], _same
    if isinstance(hint, type) and issubclass(hint, Enum):
        return hint, lambda v: v.value
    if isinstance(hint, type) and issubclass(hint, Codec):
        return hint.from_dict, hint.to_dict
    if origin in (typing.Union, types.UnionType) and len(args) == 2:
        # ``X | None``, or ``X | tuple[...]`` whose tuple reads from a JSON list.
        (dec, enc), (odec, oenc) = _converters(args[0]), _converters(args[1])
        wire, held = (list, tuple) if typing.get_origin(args[1]) is tuple else (args[1],) * 2
        return ((lambda v: odec(v) if isinstance(v, wire) else dec(v)),
                (lambda v: oenc(v) if isinstance(v, held) else enc(v)))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        dec, enc = _converters(args[0])
        return (lambda v: tuple([dec(e) for e in _list_in(v)])), (lambda v: [enc(e) for e in v])
    if origin is tuple:
        pairs = [_converters(a) for a in args]

        def dec_fixed(v):
            if len(_list_in(v)) != len(pairs):
                raise ValueError(f"expected {len(pairs)} items, got {len(v)}")
            return tuple([d(e) for (d, _), e in zip(pairs, v)])

        return dec_fixed, lambda v: [enc(e) for (_, enc), e in zip(pairs, v)]
    if origin is list:
        dec, enc = _converters(args[0])
        return (lambda v: [dec(e) for e in _list_in(v)]), (lambda v: [enc(e) for e in v])
    if origin in (dict, Mapping):
        (kdec, kenc), (vdec, venc) = _converters(args[0]), _converters(args[1])
        return ((lambda v: {kdec(k): vdec(e) for k, e in _dict_in(v).items()}),
                (lambda v: {kenc(k): venc(e) for k, e in v.items()}))
    raise TypeError(f"no wire format for type {hint!r}")


@functools.cache
def _plan(cls) -> tuple:
    """Per field of ``cls``: (name, decode, encode, required)."""
    hints = typing.get_type_hints(cls)
    return tuple(
        (f.name, *_converters(hints[f.name]),
         f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING)
        for f in dataclasses.fields(cls)
    )


class Codec:
    """``to_dict``/``from_dict`` for a dataclass whose wire format is its fields.

    Output: enums (values and dict keys) as their ``.value``, nested
    dataclasses as dicts, tuples as lists, ``math.inf`` as ``"saturating"``.
    Input must already have each field's JSON type, and nothing is
    coerced: an ``int`` takes an integral number (``16000.0`` but not
    ``16000.7``), a ``float`` a number, a ``str`` a string, a ``dict`` an
    object, a list or tuple a JSON list, and ``X | tuple[...]`` reads a
    JSON list as the tuple.  A missing key takes the field's default;
    unknown keys are ignored, so rows written with fields since removed
    still load.  A bad or missing value raises InvalidInputError naming
    the class and the key.
    """

    def to_dict(self) -> dict:
        return {name: enc(getattr(self, name))
                for name, _, enc, _ in _plan(type(self))}

    @classmethod
    def from_dict(cls, d: dict):
        if not isinstance(d, dict):
            raise InvalidInputError(f"{cls.__name__}: expected an object, got {d!r}")
        kw = {}
        for name, dec, _, required in _plan(cls):
            if name in d:
                try:
                    kw[name] = dec(d[name])
                except InvalidInputError:
                    raise
                except (ValueError, TypeError, AttributeError) as exc:
                    raise InvalidInputError(f"{cls.__name__}.{name}: {exc}") from None
            elif required:
                raise InvalidInputError(f"{cls.__name__}: missing key {name!r}")
        return cls(**kw)


class ResourceKind(str, Enum):
    """On-NIC resources an NF stage can occupy."""

    MEMORY = "memory"
    REGEX_ACCEL = "regex_accel"
    COMPRESSION_ACCEL = "compression_accel"

    @property
    def is_accelerator(self) -> bool:
        return self is not ResourceKind.MEMORY


class ExecutionPattern(str, Enum):
    PIPELINE = "pipeline"
    RUN_TO_COMPLETION = "run_to_completion"


@dataclass(frozen=True)
class TrafficProfile(Codec):
    """Input-traffic attributes of one NF.

    flow_count: concurrent flows
    packet_size: bytes per packet, 64..1500
    mtbr: regex matches per MB of payload (match-to-byte ratio)
    """

    flow_count: int = 16000
    packet_size: int = 1500
    mtbr: float = 600.0

    def __post_init__(self) -> None:
        if not 1 <= self.flow_count < math.inf:
            raise InvalidInputError(
                f"flow_count must be finite and >= 1, got {self.flow_count}"
            )
        if not 64 <= self.packet_size <= 1500:
            raise InvalidInputError(
                f"packet_size must be in [64, 1500], got {self.packet_size}"
            )
        if not 0 <= self.mtbr < math.inf:
            raise InvalidInputError(f"mtbr must be finite and >= 0, got {self.mtbr}")

    def attribute(self, name: str) -> float:
        return float(getattr(self, name))

    def replace(self, **kw) -> "TrafficProfile":
        d = asdict(self)
        d.update(kw)
        return TrafficProfile(**d)


#: The default traffic profile: 16K flows, 1500B packets, 600 matches/MB.
DEFAULT_TRAFFIC = TrafficProfile()


@dataclass(frozen=True)
class CounterSnapshot(Codec):
    """The 7 memory-subsystem performance counters observed during a co-run.

    ipc: instructions per cycle
    irt: instructions retired per second
    l2crd / l2cwr: L2 data cache read / write references per second
    memrd / memwr: main-memory read / write references per second
    wss: working set size in bytes
    """

    ipc: float = 0.0
    irt: float = 0.0
    l2crd: float = 0.0
    l2cwr: float = 0.0
    memrd: float = 0.0
    memwr: float = 0.0
    wss: float = 0.0

    def __post_init__(self) -> None:
        for name in ("ipc", "irt", "l2crd", "l2cwr", "memrd", "memwr", "wss"):
            if not 0 <= getattr(self, name) < math.inf:
                raise InvalidInputError(
                    f"counter {name} must be finite and non-negative, "
                    f"got {getattr(self, name)}"
                )

    @property
    def car(self) -> float:
        """Cache access rate: sum of L2 read and write rates."""
        return self.l2crd + self.l2cwr

    def __add__(self, other: "CounterSnapshot") -> "CounterSnapshot":
        # Elementwise sum; competitor aggregation over multiple co-located
        # NFs (WSS included).
        return CounterSnapshot(
            ipc=self.ipc + other.ipc,
            irt=self.irt + other.irt,
            l2crd=self.l2crd + other.l2crd,
            l2cwr=self.l2cwr + other.l2cwr,
            memrd=self.memrd + other.memrd,
            memwr=self.memwr + other.memwr,
            wss=self.wss + other.wss,
        )


ZERO_COUNTERS = CounterSnapshot()


@dataclass(frozen=True)
class ThroughputSample(Codec):
    """One profiling observation: the row format of all datasets.

    competitor_counters aggregates (sums) the counters of every co-located
    competitor.
    """

    scenario_id: str
    target_nf: str
    traffic: TrafficProfile
    competitor_counters: CounterSnapshot
    observed_throughput: float

    def __post_init__(self) -> None:
        if not 0 < self.observed_throughput < math.inf:
            raise InvalidInputError(
                "observed_throughput must be finite and positive, "
                f"got {self.observed_throughput}"
            )


def _check_vectors(predicted: Sequence[float], actual: Sequence[float]) -> None:
    if len(predicted) == 0 or len(predicted) != len(actual):
        raise InvalidInputError(
            f"need equal non-zero lengths, got {len(predicted)} and {len(actual)}"
        )
    if any(a <= 0 for a in actual):
        raise InvalidInputError("all actual values must be positive")


def mape(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute percentage error, in percent."""
    _check_vectors(predicted, actual)
    total = sum(abs(p - a) / a for p, a in zip(predicted, actual))
    return 100.0 * total / len(actual)


def band_accuracy(
    predicted: Sequence[float], actual: Sequence[float], band: float
) -> float:
    """Percentage of samples whose error relative to actual is within
    ``band`` percent."""
    _check_vectors(predicted, actual)
    if band <= 0:
        raise InvalidInputError(f"band must be positive, got {band}")
    hits = sum(
        1 for p, a in zip(predicted, actual) if 100.0 * abs(p - a) / a <= band
    )
    return 100.0 * hits / len(actual)
