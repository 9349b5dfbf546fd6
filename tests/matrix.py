"""The parity harness: the axes every parity matrix of the suite shares.

A transformed program must behave like the original whichever way a call
travels, so most of the suite is matrices: one script, many paths, the same
answer.  This module holds what those matrices have in common, each read
from the code rather than spelled out, and holds no test of its own:

* :data:`TRANSPORTS` (and :data:`CODECS`, :data:`BINARY`): the transports a
  cluster speaks by default, by name and as instances;
* :class:`ScriptedDrops`: the one way a test loses messages;
* :func:`outcome`: the one way a test records how a call ended;
* :data:`CELLS` × :data:`VIEWS`: the fault cells every view of the
  invocation engine is run on, and :data:`ROWS`, what each (cell, view)
  row must observe.  Where two views differ the row says so, as data.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.api import ServicePolicy, Session
from repro.api.errors import (
    MessageDroppedError,
    NetworkError,
    NodeUnreachableError,
    PartitionError,
    QuorumLostError,
    RemoteInvocationError,
    UnknownTransportError,
)
from repro.network.failures import FailureModel, NoFailures
from repro.network.heartbeat import HeartbeatDetector
from repro.runtime.batching import BatchingProxy
from repro.runtime.cluster import Cluster, default_transport_registry
from repro.runtime.faulttolerance import NO_RETRY, FaultTolerantInvoker, RetryPolicy
from repro.runtime.pipelining import PipelineScheduler
from repro.runtime.replication import ReplicaManager
from repro.transports.codec import BinaryTransport

# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

#: One instance of every transport a cluster speaks by default.
CODECS = tuple(default_transport_registry())
#: Their names: the transport axis of every matrix.
TRANSPORTS = tuple(codec.name for codec in CODECS)
#: The transports built on the shared binary value codec, and their names.
BINARY_CODECS = tuple(codec for codec in CODECS if isinstance(codec, BinaryTransport))
BINARY = tuple(codec.name for codec in BINARY_CODECS)


# ---------------------------------------------------------------------------
# Dropped messages
# ---------------------------------------------------------------------------

#: A drop count that never runs out: every message on the link is lost.
EVERY = math.inf


class ScriptedDrops(FailureModel):
    """Loses the next ``n`` messages of each ``(source, destination)`` link
    in ``drops``; ``n`` may be :data:`EVERY`, and ``None`` for either end
    matches any node.  Partitions, crashes and a drop probability work as on
    any failure model."""

    def __init__(self, drops=()):
        super().__init__()
        self._remaining = Counter()
        self.drop(drops)

    def drop(self, drops) -> None:
        """Lose ``n`` more messages on each link of ``drops``: a mapping or
        ``(link, n)`` pairs, armed now (after a deployment, say)."""
        for link, count in dict(drops).items():
            self._remaining[link] += count

    def should_drop(self, source, destination):
        for link in ((source, destination), (source, None), (None, destination), (None, None)):
            if self._remaining[link] > 0:
                self._remaining[link] -= 1
                return True
        return super().should_drop(source, destination)


def dropping_cluster(nodes, drops=(), **options):
    """A cluster on a network losing the scripted messages, and its drops."""
    failures = ScriptedDrops(drops)
    return Cluster(nodes, failures=failures, **options), failures


def drop_next(cluster, drops) -> ScriptedDrops:
    """Lose the scripted messages on ``cluster``'s network from now on.  A
    network that scripts none yet gets a :class:`ScriptedDrops` in place of
    its default :class:`NoFailures`; any other failure model may hold a
    partition, a crash or a drop probability, and is refused."""
    failures = cluster.network.failures
    if not isinstance(failures, ScriptedDrops):
        if type(failures) is not NoFailures:
            raise ValueError(
                f"drop_next would discard the cluster's {type(failures).__name__}; "
                "build the cluster with dropping_cluster"
            )
        failures = cluster.network.failures = ScriptedDrops()
    failures.drop(drops)
    return failures


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Value:
    """A call that returned ``value``."""

    value: Any


@dataclass(frozen=True)
class Raised:
    """A call that raised.  Two are equal when one ``except`` clause catches
    both: a remote error by its family and the type it stands for (its class
    is also that builtin, so ``except KeyError`` catches a remote one), any
    other by its class."""

    family: type
    remote_type: Optional[str] = None


def raised(error: BaseException) -> Raised:
    """The outcome of a call that raised ``error``."""
    if isinstance(error, RemoteInvocationError):
        return Raised(RemoteInvocationError, error.remote_type)
    return Raised(type(error))


def remote(remote_type: str) -> Raised:
    """What a remote error standing for ``remote_type`` is recorded as."""
    return Raised(RemoteInvocationError, remote_type)


def outcome(fn: Callable, *args, **kwargs):
    """``Value`` of what ``fn(*args, **kwargs)`` returned, or ``Raised``."""
    try:
        return Value(fn(*args, **kwargs))
    except Exception as error:  # noqa: BLE001 - the outcome is the datum
        return raised(error)


# ---------------------------------------------------------------------------
# Fault cells
# ---------------------------------------------------------------------------

class Recorder:
    """Echoes each value, remembers what ran in order, refuses ``"bad"``."""

    def __init__(self):
        self.seen = []

    def echo(self, value):
        self.seen.append(value)
        if value == "bad":
            raise ValueError("refused")
        return value


NODES = ("client", "monitor", "a", "b", "c")
VALUES = ("v0", "v1", "v2", "v3")


@dataclass
class Arranged:
    """One cell, set up: ``echo(value)`` for each value, called from
    ``client`` on ``reference`` under ``knobs`` (a scheduler's keyword
    arguments: ``retry_policy``, ``transport``, ``replica_manager``)."""

    cluster: Any
    reference: Any
    knobs: Dict[str, Any]
    #: What ran where the object is served now, in order.
    ran: Callable[[], list]
    values: tuple = VALUES
    #: Whether a heartbeat detector runs (its probes are traffic too).
    detector_running: bool = False

    @property
    def client(self):
        return self.cluster.space("client")

    @property
    def retry_policy(self) -> RetryPolicy:
        return self.knobs.get("retry_policy", NO_RETRY)


def _plain(drops=(), values=VALUES, **knobs):
    """A cell: one unreplicated :class:`Recorder` on node ``a``."""

    def arrange():
        cluster, _ = dropping_cluster(NODES, drops)
        recorder = Recorder()
        reference = cluster.space("a").export(recorder)
        return Arranged(cluster, reference, knobs, lambda: recorder.seen, values)

    return arrange


def _partitioned():
    arranged = _plain(retry_policy=RetryPolicy(max_attempts=3))()
    arranged.cluster.network.failures.partition(["client"], ["a"])
    return arranged


def _replicated(cluster, manager, knobs, **options):
    group = manager.replicate(Recorder(), name="rec", primary_node="a", readonly=(), **options)
    return Arranged(
        cluster, group.primary_ref, {"replica_manager": manager, **knobs},
        lambda: group.primary_impl.seen, detector_running=manager.detector is not None,
    )


def detected_manager(cluster, monitor="monitor", **options) -> ReplicaManager:
    """A replica manager whose heartbeat detector runs on ``monitor`` and
    watches nodes ``a``, ``b`` and ``c``."""
    detector = HeartbeatDetector(cluster.network, monitor, interval=0.002, miss_threshold=2)
    for node in ("a", "b", "c"):
        detector.watch(node)
    manager = ReplicaManager(cluster, detector=detector, **options)
    detector.start()
    return manager


def _crashed_primary():
    cluster, _ = dropping_cluster(NODES)
    arranged = _replicated(cluster, detected_manager(cluster), {}, backup_nodes=["b"])
    cluster.network.failures.crash_node("a")
    return arranged


def _quorumless_primary():
    """The primary hears the client but not its backups, so every write slot
    comes back ``QuorumLostError`` (``FencedError`` takes the same branch);
    an operator promotes a backup while the refused window waits its backoff
    out, and the re-ship re-resolves to it.  No detector: the promotion is
    one event at a fixed instant, so every view sees it identically."""
    cluster, _ = dropping_cluster(NODES)
    manager = ReplicaManager(cluster)
    patient = RetryPolicy(max_attempts=1, initial_backoff=1.0)
    arranged = _replicated(
        cluster, manager, {"retry_policy": patient}, backup_nodes=["b", "c"], quorum=2
    )
    (group,) = manager.groups()
    cluster.network.failures.partition(["a"], ["b", "c"])
    cluster.network.events.schedule(0.5, lambda: manager.failover(group))
    return arranged


#: The retry policy of the cells that drop messages: a backoff that shows on
#: the clock, doubling after each failed attempt.
RETRY = RetryPolicy(max_attempts=3, initial_backoff=0.25)

#: name -> how the cell is set up.
CELLS = {
    "plain": _plain(),
    "application_error_in_a_slot": _plain(values=("v0", "bad", "v2", "v3")),
    "dropped_request_retried": _plain({("client", "a"): 1}, retry_policy=RETRY),
    "dropped_response_retried": _plain({("a", "client"): 1}, retry_policy=RETRY),
    "retries_exhausted": _plain({("client", "a"): 5}, retry_policy=RETRY),
    "partition_is_fatal": _partitioned,
    "crashed_primary_fails_over": _crashed_primary,
    "refusal_is_rerouted": _quorumless_primary,
    "unknown_transport": _plain(transport="carrier-pigeon"),
}


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------

@dataclass
class Observed:
    """What one (cell, view) row saw."""

    #: Per call, in submission order.
    outcomes: list
    #: What the view's driving call (a flush, a drain, the batch call itself)
    #: raised, or ``None``.
    raised: Optional[Raised]
    #: The view's failure records (none where the view does not retry).
    records: list = field(default_factory=list)
    #: The engine and the futures that carried the calls, where it has them.
    scheduler: Any = None
    futures: list = field(default_factory=list)
    #: Futures of calls to a healthy object on another node, shipped
    #: alongside the cell's calls.
    bystanders: list = field(default_factory=list)

    @property
    def failures(self) -> Counter:
        """``(error type, recovered) -> count`` over the failure records."""
        return Counter((record.error_type, record.recovered) for record in self.records)


def _drove(result) -> Optional[Raised]:
    return result if isinstance(result, Raised) else None


def _settled(futures, drove, scheduler, log=None, bystanders=()):
    log = log if log is not None else scheduler.failure_log
    return Observed(
        [outcome(future.result) for future in futures], _drove(drove), list(log.records),
        scheduler, futures, list(bystanders),
    )


def _slots(drove, count):
    """Per-call outcomes of a batch call: its slots, or its error in each."""
    if isinstance(drove, Raised):
        return [drove] * count
    return [Value(r.value) if r.ok else raised(r.error) for r in drove.value]


def _calls(arranged):
    return [(arranged.reference, "echo", (value,), {}) for value in arranged.values]


def _invoker(arranged):
    return FaultTolerantInvoker(
        arranged.client,
        policy=arranged.retry_policy,
        replica_manager=arranged.knobs.get("replica_manager"),
    )


def _window(width, bystanders=0):
    def drive(arranged):
        scheduler = PipelineScheduler(
            arranged.client, max_batch=8, window=width, **arranged.knobs
        )
        futures = [scheduler.submit(arranged.reference, "echo", v) for v in arranged.values]
        others = []
        # The window's transport is the cell's: a cell that names one has no
        # healthy bystander.
        if bystanders and "transport" not in arranged.knobs:
            healthy = arranged.cluster.space("c").export(Recorder())
            others = [scheduler.submit(healthy, "echo", i) for i in range(bystanders)]
        return _settled(futures, outcome(scheduler.drain), scheduler, bystanders=others)

    return drive


def _invoke(arranged):
    invoker = _invoker(arranged)
    transport = arranged.knobs.get("transport")
    outcomes = [
        outcome(invoker.invoke, arranged.reference, "echo", (value,), transport=transport)
        for value in arranged.values
    ]
    return Observed(outcomes, None, invoker.log.records)


def _invoke_many(arranged):
    invoker = _invoker(arranged)
    drove = outcome(invoker.invoke_many, _calls(arranged), arranged.knobs.get("transport"))
    return Observed(_slots(drove, len(arranged.values)), _drove(drove), invoker.log.records)


def _batching_proxy(arranged):
    invoker = _invoker(arranged)
    proxy = BatchingProxy(
        arranged.reference, space=arranged.client, max_batch=8,
        transport=arranged.knobs.get("transport"), invoker=invoker,
    )
    futures = [proxy.echo(value) for value in arranged.values]
    return _settled(futures, outcome(proxy.flush), proxy.scheduler, invoker.log)


def _bare_batch(arranged):
    drove = outcome(
        arranged.client.invoke_remote_many, _calls(arranged),
        transport=arranged.knobs.get("transport"),
    )
    return Observed(_slots(drove, len(arranged.values)), _drove(drove))


def _service(batch_window=1, pipeline_depth=1):
    """A view through the façade: a session's service attached to the cell's
    object by name, under the cell's transport and retry policy."""

    def drive(arranged):
        arranged.cluster.naming.rebind("rec", arranged.reference)
        policy = ServicePolicy(
            transport=arranged.knobs.get("transport", "rmi"),
            batch_window=batch_window,
            pipeline_depth=pipeline_depth,
        ).with_retry(arranged.retry_policy)
        session = Session(arranged.cluster, node="client")
        service = session.service("rec", policy)
        if batch_window == 1:
            outcomes = [outcome(service.echo, value) for value in arranged.values]
            return Observed(outcomes, None, service.scheduler.failure_log.records)
        futures = [service.future.echo(value) for value in arranged.values]
        return _settled(futures, outcome(session.drain), service.scheduler)

    return drive


@dataclass(frozen=True)
class View:
    """One way to send a cell's calls."""

    drive: Callable[[Arranged], Observed]
    #: ``"single"`` (a frame per call), ``"window"`` (the calls share one
    #: frame and one fate) or ``"bare"`` (one frame, no retry, no failover).
    kind: str
    #: The errors the view's driving call raises when every call failed
    #: with one: the whole window's, not one slot's.
    reraises: tuple = (UnknownTransportError,)


BATCH_RESULTS = (NetworkError, UnknownTransportError)

#: name -> the view.  The first six are views of the engine under the
#: runtime, the last three the façade's policy shapes.
VIEWS = {
    "window 1": View(_window(1), "window"),
    "window 2": View(_window(2, bystanders=4), "window"),
    "invoke": View(_invoke, "single", ()),
    "invoke_many": View(_invoke_many, "window", BATCH_RESULTS),
    "BatchingProxy": View(_batching_proxy, "window", BATCH_RESULTS),
    "bare batch": View(_bare_batch, "bare", BATCH_RESULTS),
    "service, direct": View(_service(), "single", ()),
    "service, batched": View(_service(batch_window=8), "window"),
    "service, pipelined": View(_service(batch_window=8, pipeline_depth=2), "window"),
}
#: The façade's views run the cells that need no hand-built replica manager.
FACADE_VIEWS = ("service, direct", "service, batched", "service, pipelined")
REPLICATED_CELLS = ("crashed_primary_fails_over", "refusal_is_rerouted")


def run(cell: str, view: str):
    """Arrange ``cell`` and drive it through ``view``: ``(arranged, observed)``."""
    arranged = CELLS[cell]()
    return arranged, VIEWS[view].drive(arranged)


# ---------------------------------------------------------------------------
# Rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
    """What a (cell, view) row must observe."""

    #: Per call, in submission order.
    outcomes: tuple
    #: What ran where the object is served at the end, in order.
    ran: tuple
    #: ``(error type, recovered) -> count`` over the view's failure records.
    failures: dict = field(default_factory=dict)


def _by_kind(row, **kinds):
    """One row for every kind of view, unless a kind states its own."""
    return {kind: kinds.get(kind, row) for kind in ("single", "window", "bare")}


def _every(outcome_):
    return (outcome_,) * len(VALUES)


OK = tuple(Value(value) for value in VALUES)
DROPPED = Raised(MessageDroppedError)
_DROPPED = MessageDroppedError.__name__

#: cell -> view kind -> row.  A dropped frame costs one call on a single-call
#: view and the whole window on a batch view; a bare batch neither retries
#: nor fails over.
ROWS = {
    "plain": _by_kind(Row(OK, VALUES)),
    "application_error_in_a_slot": _by_kind(
        Row((Value("v0"), remote("ValueError"), Value("v2"), Value("v3")),
            ("v0", "bad", "v2", "v3"))
    ),
    "dropped_request_retried": _by_kind(
        Row(OK, VALUES, {(_DROPPED, True): 4}),
        single=Row(OK, VALUES, {(_DROPPED, True): 1}),
        bare=Row(_every(DROPPED), ()),
    ),
    "dropped_response_retried": _by_kind(
        # The lost response's batch ran, and runs again on the retry.
        Row(OK, VALUES * 2, {(_DROPPED, True): 4}),
        single=Row(OK, ("v0",) + VALUES, {(_DROPPED, True): 1}),
        bare=Row(_every(DROPPED), VALUES),
    ),
    "retries_exhausted": _by_kind(
        # Three attempts spend three of the five drops on one window ...
        Row(_every(DROPPED), (), {(_DROPPED, True): 8, (_DROPPED, False): 4}),
        # ... and on one call; the next call spends the last two and lands.
        single=Row(
            (DROPPED, Value("v1"), Value("v2"), Value("v3")), ("v1", "v2", "v3"),
            {(_DROPPED, True): 4, (_DROPPED, False): 1},
        ),
        bare=Row(_every(DROPPED), ()),
    ),
    "partition_is_fatal": _by_kind(
        Row(_every(Raised(PartitionError)), (), {("PartitionError", False): 4}),
        bare=Row(_every(Raised(PartitionError)), ()),
    ),
    "crashed_primary_fails_over": _by_kind(
        Row(OK, VALUES, {("NodeUnreachableError", True): 8}),
        single=Row(OK, VALUES, {("NodeUnreachableError", True): 2}),
        bare=Row(_every(Raised(NodeUnreachableError)), ()),
    ),
    "refusal_is_rerouted": _by_kind(
        Row(OK, VALUES, {("QuorumLostError", True): 4}),
        single=Row(OK, VALUES, {("QuorumLostError", True): 1}),
        # Refused after it ran, on the primary that could not replicate.
        bare=Row(_every(Raised(QuorumLostError)), VALUES),
    ),
    "unknown_transport": _by_kind(
        Row(_every(Raised(UnknownTransportError)), (), {("UnknownTransportError", False): 4}),
        bare=Row(_every(Raised(UnknownTransportError)), ()),
    ),
}


def expected_raise(row: Row, view: str) -> Optional[Raised]:
    """What the view's driving call raises: the error every call failed
    with, when it is one the view re-raises."""
    (common, *others) = set(row.outcomes)
    if others or not isinstance(common, Raised):
        return None
    return common if issubclass(common.family, VIEWS[view].reraises) else None


def waited(policy: RetryPolicy, records) -> float:
    """The least simulated time a run spent in backoff: a call retried after
    its k-th failed attempt waited the policy's backoffs 1..k in turn."""
    retried = max((record.attempt for record in records if record.recovered), default=0)
    return sum(policy.backoff_for_attempt(attempt) for attempt in range(1, retried + 1))
