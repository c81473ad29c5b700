"""Layer shims: time calls into each ``repro`` layer from outside ``src/``.

A :class:`Tracer` replaces a fixed list of boundary functions (methods
on classes, or module functions together with every ``repro`` module
that imported them by name) with wrappers that keep a span stack. On
every exit a wrapper adds the call's duration to its span name's
inclusive time, its duration minus its children's to its layer's self
time, and one to its call count. Spans of the first traced trial are
also kept as ``(id, parent, name, start, end)`` records, up to a cap.

Install the shims before the simulated world is built: the program
stores bound methods (timer callbacks, socket handlers, the LAN's
recipient caches) when objects are constructed, and only objects built
after installation call the wrappers. :meth:`Tracer.remove` puts every
original function back.
"""

import collections
import importlib
import json
import sys
import time

#: Layer names, in report order.
LAYERS = ("sim", "net", "gcs", "segments", "core", "placement", "flow", "obs", "check", "shard")


def _rebuild_before(args):
    return args[0]._owners


def _rebuild_after(tracer, args, result, before):
    tracer.extra["flow.rebuilds"] += 1
    if args[0]._owners != before:
        tracer.extra["flow.useful_rebuilds"] += 1


def _events_after(tracer, args, result, before):
    tracer.extra["sim.events"] += result


def _envelopes_after(tracer, args, result, before):
    tracer.extra["shard.envelopes"] += sum(len(batch) for batch in args[3])


class Shim(collections.namedtuple("Shim", "layer target attributes before after span")):
    """Boundary functions of one layer on one class or module.

    ``target`` is ``"module:Class"`` for methods or ``"module"`` for
    functions; the span name of each attribute is ``"<Class or module
    tail>.<attribute>"``. ``before(args)`` runs ahead of the call and
    ``after(tracer, args, result, token)`` after it, ``token`` being
    what ``before`` returned. ``span=False`` only counts calls: for
    leaves called millions of times from inside their own layer,
    where a span would cost more than it attributes.
    """


Shim.__new__.__defaults__ = (None, None, True)

SHIMS = (
    Shim("sim", "repro.sim.scheduler:Scheduler", ("run",), after=_events_after),
    Shim("net", "repro.net.lan:Lan", ("transmit",)),
    Shim("net", "repro.net.host:Host", ("handle_frame",)),
    Shim("net", "repro.net.arp:ArpService", ("announce",)),
    Shim("gcs", "repro.gcs.daemon:SpreadDaemon",
         ("apply_install", "apply_ordered", "_on_datagram")),
    Shim("segments", "repro.gcs.segments:SegmentNode",
         ("_on_datagram", "_send_heartbeat", "_check_leader", "_leader_sweep",
          "_send_beacons", "_send_digests", "_stabilize_audit", "_adopt_view")),
    Shim("segments", "repro.gcs.segments", ("merge_digests",)),
    Shim("core", "repro.core.daemon:WackamoleDaemon",
         ("_try_connect", "_on_disconnect", "_on_group_view", "_on_message",
          "_on_maturity_timeout", "_on_balance_timeout", "_on_arp_conflict",
          "_reannounce_vips", "_stabilize_audit")),
    Shim("core", "repro.core.reallocate", ("reallocate_ips",)),
    Shim("core", "repro.core.placement", ("reallocate_ips_rendezvous",)),
    Shim("core", "repro.core.audit:CoverageAuditor", ("check", "check_by_view")),
    Shim("placement", "repro.core.placement:RendezvousMap",
         ("allocation_for", "owned_index_for")),
    Shim("flow", "repro.flow.engine:FlowEngine", ("_on_tick",)),
    Shim("flow", "repro.flow.resolve:DirectResolver", ("begin_tick",),
         before=_rebuild_before, after=_rebuild_after),
    Shim("flow", "repro.flow.resolve:ArpViewResolver", ("begin_tick",),
         before=_rebuild_before, after=_rebuild_after),
    Shim("flow", "repro.flow.resolve:DirectResolver", ("resolve",), span=False),
    Shim("flow", "repro.flow.resolve:ArpViewResolver", ("resolve",), span=False),
    Shim("obs", "repro.obs.episodes", ("extract_episodes",)),
    Shim("obs", "repro.obs.degraded", ("degraded_spans",)),
    Shim("obs", "repro.obs.stabilization", ("stabilization_spans",)),
    Shim("check", "repro.check.harness:CheckCluster",
         ("settle", "refresh_auditor", "apply_schedule")),
    Shim("shard", "repro.sim.shard.kernel:ShardedKernel", ("start",)),
    Shim("shard", "repro.sim.shard.kernel:InProcessRunner", ("collect",)),
    Shim("shard", "repro.sim.shard.kernel:InProcessRunner", ("advance_all",),
         after=_envelopes_after),
    Shim("shard", "repro.sim.shard.merge", ("merge_artifacts",)),
)

EXTRA_COUNTERS = ("sim.events", "flow.rebuilds", "flow.useful_rebuilds", "shard.envelopes")

#: Most spans kept in the log of the first traced trial.
SPAN_CAP = 100_000


def resolve_target(target):
    """The class or module a ``SHIMS`` target string names."""
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _span_name(target, attribute):
    module_name, _, class_name = target.partition(":")
    return "{}.{}".format(class_name or module_name.rsplit(".", 1)[-1], attribute)


def patch_function(owner, attribute, replacement):
    """Replace ``owner.attribute``; returns the ``(owner, attribute, original)`` undo list.

    For a module function, every loaded ``repro`` module that bound
    the same function object by name is patched too.
    """
    original = getattr(owner, attribute)
    if isinstance(owner, type):
        if attribute not in owner.__dict__:
            raise AttributeError("{} does not define {}".format(owner.__name__, attribute))
        setattr(owner, attribute, replacement)
        return [(owner, attribute, original)]
    undo = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        if module.__dict__.get(attribute) is original:
            setattr(module, attribute, replacement)
            undo.append((module, attribute, original))
    return undo


def restore(undo):
    """Undo :func:`patch_function` changes, newest first."""
    for owner, attribute, original in reversed(undo):
        setattr(owner, attribute, original)


class Tracer:
    """Span-stack shims over the layer boundaries named in :data:`SHIMS`."""

    def __init__(self):
        self.self_time = {layer: 0.0 for layer in LAYERS}
        self.inclusive = {}
        self.calls = {}
        self.extra = {name: 0 for name in EXTRA_COUNTERS}
        self.spans = []
        self.span_names = []
        self.logging = False
        self._stack = []
        self._next_id = [0]
        self._undo = []

    # ------------------------------------------------------------------
    # shims

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for shim in SHIMS:
            owner = resolve_target(shim.target)
            for attribute in shim.attributes:
                name = _span_name(shim.target, attribute)
                function = getattr(owner, attribute)
                if shim.span:
                    wrapper = self._wrap(function, shim.layer, name, shim.before, shim.after)
                else:
                    wrapper = self._count(function, name)
                self._undo.extend(patch_function(owner, attribute, wrapper))
        return self

    def remove(self):
        restore(self._undo)
        self._undo = []

    def _count(self, function, name):
        calls = self.calls
        calls.setdefault(name, 0)

        def counted(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        counted.__wrapped__ = function
        return counted

    def _wrap(self, function, layer, name, before, after):
        self.inclusive.setdefault(name, 0.0)
        self.calls.setdefault(name, 0)
        if name not in self.span_names:
            self.span_names.append(name)
        name_index = self.span_names.index(name)
        tracer = self
        stack = self._stack
        self_time = self.self_time
        inclusive = self.inclusive
        calls = self.calls
        next_id = self._next_id
        clock = time.perf_counter

        def traced(*args, **kwargs):
            token = before(args) if before is not None else None
            span_id = next_id[0] = next_id[0] + 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_time[layer] += duration - frame[0]
                inclusive[name] += duration
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration
                if tracer.logging and len(tracer.spans) < SPAN_CAP:
                    parent = stack[-1][1] if stack else 0
                    tracer.spans.append((span_id, parent, name_index, start, end))
            if after is not None:
                after(tracer, args, result, token)
            return result

        traced.__wrapped__ = function
        return traced

    # ------------------------------------------------------------------
    # totals

    def snapshot(self):
        """A copy of every running total (times in seconds)."""
        return {
            "self_time": dict(self.self_time),
            "inclusive": dict(self.inclusive),
            "calls": dict(self.calls),
            "extra": dict(self.extra),
        }

    # ------------------------------------------------------------------
    # the span log

    def write_spans(self, path):
        """Write the logged spans as JSON: names plus (id, parent, name, start, end)."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.span_names,
                    "columns": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": [
                        [span_id, parent, name, start - origin, end - origin]
                        for span_id, parent, name, start, end in self.spans
                    ],
                },
                handle,
            )


def self_time_from_spans(spans, span_layer):
    """Per-layer self time recomputed from logged spans (the check on the stack).

    ``span_layer`` maps a span's name index to its layer.
    """
    child_time = {}
    for _span_id, parent, _name, start, end in spans:
        if parent:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    totals = {}
    for span_id, _parent, name, start, end in spans:
        layer = span_layer[name]
        totals[layer] = totals.get(layer, 0.0) + (end - start) - child_time.get(span_id, 0.0)
    return totals


def span_layers(tracer):
    """{span name index: layer} for a tracer's :attr:`Tracer.span_names`."""
    layer_of = {}
    for shim in SHIMS:
        for attribute in shim.attributes:
            layer_of[_span_name(shim.target, attribute)] = shim.layer
    return {index: layer_of[name] for index, name in enumerate(tracer.span_names)}


class FirstCall:
    """Records ``(start, end)`` of the first call to one method after :meth:`arm`.

    The untimed hook the workloads use to cut set-up time out of a
    trial that the program runs as one call.
    """

    def __init__(self, owner, attribute):
        self.owner = owner
        self.attribute = attribute
        self.first = None
        self._undo = []

    def arm(self):
        self.first = None

    def span(self, since=None):
        """``(start, end)``: from ``since`` (default: the call's start) to its return."""
        if self.first is None:
            return None
        return (self.first[0] if since is None else since), self.first[1]

    def __enter__(self):
        original = getattr(self.owner, self.attribute)
        probe = self
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if probe.first is not None:
                return original(*args, **kwargs)
            start = clock()
            result = original(*args, **kwargs)
            probe.first = (start, clock())
            return result

        self._undo = patch_function(self.owner, self.attribute, timed)
        return self

    def __exit__(self, *exc_info):
        restore(self._undo)
        self._undo = []


# ----------------------------------------------------------------------
# per-layer metrics


def _calls(*names):
    return lambda totals: sum(totals["calls"].get(name, 0) for name in names)


def _extra(name):
    return lambda totals: totals["extra"][name]


def _inclusive(*names):
    return lambda totals: sum(totals["inclusive"].get(name, 0.0) for name in names)


def _self(layer):
    return lambda totals: totals["self_time"][layer]


#: Work counts, reported as the mean per trial over the fingerprinted
#: trials, so they repeat exactly for a given seed.
COUNT_METRICS = (
    ("sim.events", _extra("sim.events")),
    ("net.frames", _calls("Lan.transmit")),
    ("net.arp_announces", _calls("ArpService.announce")),
    ("gcs.views_installed", _calls("SpreadDaemon.apply_install")),
    ("gcs.agreed_delivered", _calls("SpreadDaemon.apply_ordered")),
    ("segments.views_adopted", _calls("SegmentNode._adopt_view")),
    ("core.reallocations",
     _calls("reallocate.reallocate_ips", "placement.reallocate_ips_rendezvous")),
    ("core.audit_calls", _calls("CoverageAuditor.check", "CoverageAuditor.check_by_view")),
    ("placement.calls", _calls("RendezvousMap.allocation_for", "RendezvousMap.owned_index_for")),
    ("flow.ticks", _calls("FlowEngine._on_tick")),
    ("flow.resolve_calls", _calls("DirectResolver.resolve", "ArpViewResolver.resolve")),
    ("flow.map_rebuilds", _extra("flow.rebuilds")),
    ("obs.extract_calls", _calls(
        "episodes.extract_episodes", "degraded.degraded_spans",
        "stabilization.stabilization_spans")),
    ("check.samples", _calls("CheckCluster.refresh_auditor")),
    ("shard.epochs", _calls("InProcessRunner.advance_all")),
    ("shard.envelopes", _extra("shard.envelopes")),
)

#: Host seconds, reported as the median per trial over every traced trial.
TIME_METRICS = (
    ("sim.unattributed_s", _self("sim")),
    ("net.self_s", _self("net")),
    ("gcs.self_s", _self("gcs")),
    ("segments.self_s", _self("segments")),
    ("core.self_s", _self("core")),
    ("core.audit_s", _inclusive("CoverageAuditor.check", "CoverageAuditor.check_by_view")),
    ("placement.self_s", _self("placement")),
    ("flow.self_s", _self("flow")),
    ("obs.self_s", _self("obs")),
    ("check.self_s", _self("check")),
    ("shard.start_s", _inclusive("ShardedKernel.start")),
    ("shard.advance_s", _inclusive("InProcessRunner.advance_all")),
    ("shard.merge_s", _inclusive("merge.merge_artifacts")),
)


def layer_metrics(deltas, prefix):
    """{metric: value} from per-trial tracer deltas (see :data:`COUNT_METRICS`)."""
    import statistics

    head = deltas[:prefix]
    out = {}
    for name, read in COUNT_METRICS:
        out[name] = sum(read(delta) for delta in head) / len(head)
    rebuilds = sum(delta["extra"]["flow.rebuilds"] for delta in head)
    useful = sum(delta["extra"]["flow.useful_rebuilds"] for delta in head)
    out["flow.useful_rebuild_ratio"] = useful / rebuilds if rebuilds else 0.0
    for name, read in TIME_METRICS:
        out[name] = statistics.median(read(delta) for delta in deltas)
    return out
