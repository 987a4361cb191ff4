"""The four workloads: how each builds its inputs, makes one timed call into
slag3's public API and checks what comes back.

All of them run one caller in a closed loop.  A step is one call into the
workload's entry function.  Each workload draws a fixed pool of items from
the seed and steps through it again and again.  A run covers the whole pool
at least once, so the items it checks, and so its attempted and failed
counts, depend on the seed alone, not on the machine's speed.  Runs end on
a cycle boundary, so every run has the same mix: eight steps visit the
eight cubic families or the eight gallery entries once, and classify waits
for every scale stratum as well, because its failures depend on the scale.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import statistics
import time

import numpy as np

import calibrate
import checks
import inputs

AUDIT_MARGIN = 0.05  # share of each domain side kept clear of audit points
KERNEL_WINDOW = 16   # kernel times whose median calibrates one call
SAMPLE_EVERY = 8     # sweep runs the kernel before every 8th patch eval


@dataclasses.dataclass
class Tally:
    """What a run did: per-call latency, items and the check of each item.

    call_s holds wall times; speed holds each call's calibration factor, so
    call_s[i] * speed[i] is the call's time at the reference speed.  items
    counts every item processed, on every pass over the pool; outcomes maps
    each pool item to the failure kind of its first check, or None.
    wrong_answers counts the wrong types that are not scale-induced, and
    unsteady the checks that disagree with the item's first check.
    """

    call_s: list = dataclasses.field(default_factory=list)
    speed: list = dataclasses.field(default_factory=list)
    items: int = 0
    outcomes: dict = dataclasses.field(default_factory=dict)
    wrong_answers: int = 0
    unsteady: int = 0

    @property
    def calls(self):
        return len(self.call_s)

    @property
    def calibrated_s(self):
        return [t * f for t, f in zip(self.call_s, self.speed)]

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failures(self):
        return collections.Counter(f for f in self.outcomes.values() if f)

    @property
    def failed(self):
        return sum(self.failures.values())

    def record(self, key, failure=None, scale_induced=lambda: False):
        """Count one check of pool item `key`, failed with `failure` unless
        that is None.

        Every failure counts against the run.  A wrong type also counts as
        a wrong answer unless `scale_induced()` says so, which is asked
        once, on the item's first check.  A later check of the same item
        must come out the same.
        """
        self.items += 1
        if key in self.outcomes:
            if self.outcomes[key] != failure:
                self.unsteady += 1
            return
        self.outcomes[key] = failure
        if failure == "wrong_type" and not scale_induced():
            self.wrong_answers += 1


def _timed(tally, fn, *args):
    """Call fn, record its latency; return (ok, result or exception name)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a library failure is a measured outcome
        tally.call_s.append(time.perf_counter() - t0)
        return False, checks.error_kind(type(exc).__name__)
    tally.call_s.append(time.perf_counter() - t0)
    return True, out


class _CubicWorkload:
    """The first `pool` cubics of inputs.CubicStream, one per step, each
    passed to the function of `cubics` named by `entry`."""

    cycle = len(inputs.FAMILIES)
    kernel_in_call = False
    entry = None
    pool = None

    def __init__(self, lib, seed, wrap_patch=None):
        self._cubics = lib["cubics"]
        # bound before any tracer patches the module, so that re-checks
        # stay out of the traced counts
        self._untraced_entry = getattr(self._cubics, self.entry)
        stream = inputs.CubicStream(seed)
        self._items = []
        while len(self._items) < self.pool:
            ch = stream.chunk()
            for i, fam in enumerate(ch["family"]):
                self._items.append((
                    fam, self._cubics.HarmonicCubic(ch["coeffs"][i]),
                    ch["r"][i] * ch["scale"][i], ch["s"][i] * ch["scale"][i],
                    inputs.singular_count(fam, ch["r"][i], ch["s"][i])))
        del self._items[self.pool:]
        self._at = 0

    def _next(self):
        """(pool index, item) of the next step."""
        key = self._at % self.pool
        self._at += 1
        return key, self._items[key]

    def _scale_induced(self, h, right):
        """Whether `right` accepts the answer for h scaled to unit norm.

        If it does, a wrong answer at h's own scale comes from the
        library's known lack of scale invariance (ROADMAP item 3).
        """
        try:
            return right(self._untraced_entry(h.scaled(1.0 / h.norm())))
        except Exception:  # an error at unit norm explains nothing
            return False


class Classify(_CubicWorkload):
    """cubics.classify on moved cubics of the eight families."""

    cycle = inputs.CYCLE
    pool = 6 * inputs.CYCLE
    entry = "classify"

    def step(self, tally, calibrated):
        key, (fam, h, r, s, _) = self._next()
        expected = inputs.FAMILIES[fam]
        ok, out = _timed(tally, self._cubics.classify, h)
        failure = checks.check_classify(out, expected, r, s) if ok else out
        tally.record(key, failure, lambda: self._scale_induced(
            h, lambda fit: fit.type.value == expected))


class Singular(_CubicWorkload):
    """cubics.singular_directions on the same cubics as Classify."""

    pool = inputs.CYCLE
    entry = "singular_directions"

    def step(self, tally, calibrated):
        key, (_, h, _, _, count) = self._next()
        ok, out = _timed(tally, self._cubics.singular_directions, h)
        failure = checks.check_singular(
            h.coeffs, out, count,
            lambda w: self._cubics.evaluate_and_gradient(h, w)[1]
        ) if ok else out
        tally.record(key, failure, lambda: self._scale_induced(
            h, lambda dirs: len(dirs) == count))


def moved_gallery(lib, seed, wrap_patch=None):
    """[(name, moved patch, expected type, default counts)] in gallery order.

    Each patch is composed with a seeded SU(3) motion and translation.
    """
    geometry, ambient = lib["geometry"], lib["ambient"]
    out = []
    for name, entry in lib["gallery"].default_gallery().items():
        q, shift = inputs.motion(seed, name)
        patch = geometry.transform_patch(
            entry.patch, ambient.su3_real_matrix(q), shift)
        if wrap_patch is not None:
            patch = wrap_patch(patch)
        out.append((name, patch, entry.expected_type.value,
                    entry.default_counts))
    return out


def _sampling(fn, samples):
    """fn, running the calibration kernel before every SAMPLE_EVERY-th call
    and appending its time to `samples`."""
    count = itertools.count()

    def sampled(u):
        if next(count) % SAMPLE_EVERY == 0:
            samples.append(calibrate.kernel_s())
        return fn(u)

    return sampled


class Sweep:
    """geometry.sweep of each moved gallery entry on its default grid."""

    cycle = 8
    pool = 8
    kernel_in_call = True  # when calibrated

    def __init__(self, lib, seed, wrap_patch=None):
        self._geometry = lib["geometry"]
        self._entries = moved_gallery(lib, seed, wrap_patch)
        self._at = 0

    def step(self, tally, calibrated):
        at = self._at
        _, patch, expected, counts = self._entries[at]
        self._at = (at + 1) % len(self._entries)
        samples = []
        if calibrated:
            # a call lasts seconds, longer than the machine keeps one speed,
            # so sample the kernel inside it and take its time back out
            patch = dataclasses.replace(
                patch, eval=_sampling(patch.eval, samples))
        ok, out = _timed(tally, self._geometry.sweep, patch, counts)
        if samples:
            tally.call_s[-1] -= sum(samples)
            tally.speed.append(calibrate.REFERENCE_S / np.mean(samples))
        if not ok:
            for node in range(int(np.prod(counts))):
                tally.record((at, node), out)
            return
        for node, report in enumerate(out):
            tally.record((at, node), checks.check_node(report, expected))


class Audit:
    """geometry.codazzi_gauss_residual at `pool` seeded interior points,
    the entries taken round-robin."""

    cycle = 8
    pool = 40 * 8
    kernel_in_call = False

    def __init__(self, lib, seed, wrap_patch=None):
        self._geometry = lib["geometry"]
        self._entries = moved_gallery(lib, seed, wrap_patch)
        self._points = next(inputs.unit_points_stream(seed))[:self.pool]
        self._at = 0

    def step(self, tally, calibrated):
        key = self._at % self.pool
        self._at += 1
        _, patch, _, _ = self._entries[key % len(self._entries)]
        lo = np.array([d[0] for d in patch.domain])
        hi = np.array([d[1] for d in patch.domain])
        u = lo + (hi - lo) * (AUDIT_MARGIN + (1 - 2 * AUDIT_MARGIN)
                              * self._points[key])
        ok, out = _timed(tally, self._geometry.codazzi_gauss_residual,
                         patch, u)
        tally.record(key, checks.check_audit(out) if ok else out)


WORKLOADS = {"classify": Classify, "singular": Singular, "sweep": Sweep,
             "audit": Audit}


def run(workload, seconds=None, calls=None, calibrated=True):
    """Closed loop: step until `calls` steps, or until the whole pool has
    been stepped through, `seconds` have passed and a cycle is complete.

    When calibrated, the kernel runs once between calls, and a call's speed
    factor comes from the median of the KERNEL_WINDOW kernel times around
    it, unless the step measured its own.  Otherwise every factor is 1.
    """
    tally = Tally()
    kernel = [calibrate.kernel_s()] if calibrated else None
    t0 = time.perf_counter()
    while True:
        workload.step(tally, calibrated)
        if len(tally.speed) < tally.calls:
            tally.speed.append(None if calibrated else 1.0)
        if calibrated:
            kernel.append(calibrate.kernel_s())
        if calls is not None:
            if tally.calls >= calls:
                break
        elif (tally.calls >= workload.pool
              and tally.calls % workload.cycle == 0
              and time.perf_counter() - t0 >= seconds):
            break
    for i, factor in enumerate(tally.speed):
        if factor is None:
            # call i ran between kernel[i] and kernel[i + 1]
            lo = max(0, i + 1 - KERNEL_WINDOW // 2)
            window = kernel[lo:lo + KERNEL_WINDOW]
            tally.speed[i] = calibrate.REFERENCE_S / statistics.median(window)
    return tally
