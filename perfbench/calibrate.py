"""Host speed, from a fixed pure-Python loop run between and inside trials.

The shared host this benchmark was built on changes speed by up to a
factor of two, in phases that last from a second to many minutes, and
its CPUs change together. Wall time alone then measures the host as
much as the program. So the timed loop keeps a :class:`Timeline` of
*calibration points*: each is the time :func:`calibration_point` takes,
and one is taken before the first step, after the last, and whenever
:data:`INTERVAL` seconds have passed since the previous one, between
steps and, in untraced runs, between two ``Scheduler.run`` calls
inside a trial. A host interval is cut at the points inside it, the
points' own time is left out, and each piece is scaled by how fast the
loop ran around it:

    scaled = host_seconds * (REFERENCE_S / calibration_seconds) ** SPEED_EXPONENT

where ``calibration_seconds`` is the median of the (up to) four
points nearest the piece: two before it and two after it. The median
keeps one disturbed point from moving a piece.

A scaled time is the time the same work would take with the loop at
its reference speed. The loop is this file's own code, so no change
to the program can speed it up or slow it down.
"""

import bisect
import heapq
import statistics
import time

#: Events per calibration loop; about 1 ms on the reference host.
EVENTS = 600
#: Loops per calibration point; the point is their median.
REPEATS = 5
#: Host seconds between calibration points, at least.
INTERVAL = 0.25
#: Median seconds of one loop on the reference host, a 2-CPU shared
#: cloud VM with Python 3.11, in its common (slower) phase. Scaled
#: times read as host seconds when the host runs at that speed.
REFERENCE_S = 0.00100
#: How much of the loop's speed-up the simulator shares. When the
#: reference host sped up, the loop gained more than the workloads
#: did: with the full ratio (exponent 1), scaled campaign trials read
#: 23% slower at host speed 1.7 than at 0.95. Over 7 runs of each
#: workload at host speeds 0.96 to 1.81, exponent 0.85 gave the
#: smallest quartile spreads overall; 1.0 and 0.75 gave larger ones.
SPEED_EXPONENT = 0.85


class _Frame:
    __slots__ = ("src", "payload")

    def __init__(self, src, payload):
        self.src = src
        self.payload = payload


class _Node:
    def __init__(self, index):
        self.index = index
        self.seen = {}
        self.recent = []

    def handle(self, frame, now):
        self.seen[frame.src] = self.seen.get(frame.src, 0) + 1
        if len(self.recent) > 32:
            self.recent.clear()
        self.recent.append((now, frame.payload))
        return (frame.payload * 31 + self.index) & 255


def calibration_loop():
    """Seconds for a miniature event loop shaped like the simulator's.

    Sixteen nodes pass frames through a heap of timed events; each
    event allocates a frame, updates a dict and a list, and schedules
    the next event.
    """
    nodes = [_Node(index) for index in range(16)]
    heap = [(index * 0.001, index, index & 15, index) for index in range(64)]
    heapq.heapify(heap)
    sequence = len(heap)
    clock = time.perf_counter
    start = clock()
    for _ in range(EVENTS):
        now, _sequence, target, payload = heapq.heappop(heap)
        reply = nodes[target].handle(_Frame(target ^ 1, payload), now)
        sequence += 1
        heapq.heappush(heap, (now + 0.001 + (reply & 7) * 1e-4, sequence, reply & 15, reply))
    return clock() - start


def calibration_point():
    """Median seconds of :data:`REPEATS` calibration loops."""
    return statistics.median(calibration_loop() for _ in range(REPEATS))


class Timeline:
    """Calibration points on the host clock, and host intervals scaled by them.

    ``points`` holds ``(start, end, seconds)`` per point, in the order
    taken; every interval passed to :meth:`pieces` begins after the
    first point and ends before the last.
    """

    def __init__(self):
        self.points = []

    def take(self):
        start = time.perf_counter()
        seconds = calibration_point()
        self.points.append((start, time.perf_counter(), seconds))

    def due(self):
        """Take a point when :data:`INTERVAL` has passed since the last one."""
        if not self.points or time.perf_counter() - self.points[-1][1] >= INTERVAL:
            self.take()

    @property
    def seconds(self):
        return [seconds for _start, _end, seconds in self.points]

    def factor(self, index):
        """Scale factor of a piece that begins after point ``index``."""
        window = self.seconds[max(0, index - 1):index + 3]
        return (REFERENCE_S / statistics.median(window)) ** SPEED_EXPONENT

    def pieces(self, start, end):
        """``(host seconds, index of the point before)`` of each piece of [start, end]."""
        index = bisect.bisect_right([point[1] for point in self.points], start) - 1
        cursor = start
        found = []
        for point_start, point_end, _seconds in self.points[index + 1:]:
            if point_start >= end:
                break
            found.append((point_start - cursor, index))
            cursor = point_end
            index += 1
        found.append((end - cursor, index))
        return found

    def host(self, start, end):
        """Host seconds of [start, end], the points inside it left out."""
        return sum(seconds for seconds, _index in self.pieces(start, end))

    def scaled(self, start, end):
        """Scaled seconds of [start, end]."""
        return sum(seconds * self.factor(index) for seconds, index in self.pieces(start, end))
