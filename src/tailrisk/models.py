"""Benchmark output functions and adapters for external models.

Built-ins cover the two-dimensional analytic benchmarks (a shifted
Rastrigin surface, four degraded low-fidelity variants of it, and a
cross-in-tray surface with an overflow-safe log-space evaluation).
External models plug in as a line-oriented child process: one input
line in, one numeric output line back.  A batch streams through the child, its
input lines written while the replies are read; the timeout applies to
each reply, and a failed request kills the child.

Handles keep no evaluation count: callers count the points they send.
Every handle is a context manager whose exit calls ``close()``.
``tailrisk run`` opens one handle per fidelity and worker thread for
each phase (trials, then reference trials) and closes it when the phase
ends; ``tailrisk fit`` opens and closes one.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
import time

import numpy as np

from .exceptions import EvaluationError

__all__ = [
    "rastrigin",
    "rastrigin_lf",
    "cross_in_tray",
    "BUILTIN_MODELS",
    "ModelHandle",
    "BuiltinModel",
    "CommandModel",
    "evaluate_model",
]

_TWO_PI = 2.0 * math.pi
# Input lines a command model formats at a time.  A 10 000-point batch to
# ``perfbench/workloads/rastrigin_line.py`` took 36-48, 36-38 and 40 ms in
# chunks of 128, 512 and 2048 lines, and 54-56 ms formatted at once.
_CHUNK_LINES = 512


def rastrigin(x):
    """Inverted two-dimensional Rastrigin surface ``10 - sum(x_i^2 - 5 cos(2 pi x_i))``."""
    x = np.asarray(x, dtype=float)
    return 10.0 - np.sum(x * x - 5.0 * np.cos(_TWO_PI * x), axis=-1)


def rastrigin_lf(x, variant: int):
    """Degraded low-fidelity companions of :func:`rastrigin`.

    1. constant offset by 90, 2. magnification by 10, 3. cosine phases
    shifted by ``pi/2``, 4. cosine frequencies halved.  Variants 1-2 are
    perfectly correlated with the reference; 3-4 are only partially.
    """
    x = np.asarray(x, dtype=float)
    if variant == 1:
        return 100.0 - np.sum(x * x - 5.0 * np.cos(_TWO_PI * x), axis=-1)
    if variant == 2:
        return 100.0 - np.sum(10.0 * x * x - 50.0 * np.cos(_TWO_PI * x), axis=-1)
    if variant == 3:
        return 10.0 - np.sum(x * x - 5.0 * np.cos(_TWO_PI * x + math.pi / 2.0), axis=-1)
    if variant == 4:
        return 10.0 - np.sum(x * x - 5.0 * np.cos(math.pi * x), axis=-1)
    raise ValueError(f"low-fidelity variant must be 1..4, got {variant}")


def cross_in_tray(x):
    """Modified cross-in-tray surface, evaluated in log space.

    Mathematically ``-0.001 (|sin x1 sin x2 e^E| + 1)^0.1`` with the
    standard radius term ``E = |100 - sqrt(x1^2 + x2^2)/pi|`` (Jamil & Yang
    2013); "modified" refers to the ``-0.001`` prefactor, which replaces the
    usual ``-0.0001``.  ``e^E`` alone can overflow a double far from the
    origin, so the product is carried as a log magnitude and the outer
    power becomes ``exp(0.1 * softplus(...))``.
    """
    x = np.asarray(x, dtype=float)
    exponent = np.abs(100.0 - np.sqrt(np.sum(x * x, axis=-1)) / math.pi)
    sines = np.sin(x[..., 0]) * np.sin(x[..., 1])
    with np.errstate(divide="ignore"):
        log_magnitude = np.log(np.abs(sines)) + exponent
    softplus = np.maximum(log_magnitude, 0.0) + np.log1p(
        np.exp(-np.abs(log_magnitude))
    )
    return -0.001 * np.exp(0.1 * softplus)


BUILTIN_MODELS = {
    "rastrigin": rastrigin,
    "rastrigin_lf1": lambda x: rastrigin_lf(x, 1),
    "rastrigin_lf2": lambda x: rastrigin_lf(x, 2),
    "rastrigin_lf3": lambda x: rastrigin_lf(x, 3),
    "rastrigin_lf4": lambda x: rastrigin_lf(x, 4),
    "cross_in_tray": cross_in_tray,
}


class ModelHandle:
    """Base class: ``evaluate_batch``, and ``close()`` as a context manager."""

    kind = "abstract"

    def evaluate_batch(self, points) -> np.ndarray:
        raise NotImplementedError

    def close(self):
        """Release what the handle holds; closing twice is harmless."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class BuiltinModel(ModelHandle):
    """Handle over one of the vectorized built-in functions."""

    kind = "builtin"

    def __init__(self, name: str):
        if name not in BUILTIN_MODELS:
            raise ValueError(
                f"unknown builtin model {name!r}; available: {sorted(BUILTIN_MODELS)}"
            )
        self._fn = BUILTIN_MODELS[name]

    def evaluate_batch(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(self._fn(points), dtype=float)


class CommandModel(ModelHandle):
    """One evaluation per line over a child process's stdin/stdout.

    The protocol: one whitespace-separated input line in, one numeric
    output line back, in order.  A batch is streamed: input lines are
    written while replies are read, so the child must answer each line
    without waiting for the end of its input.  ``timeout`` bounds the wait
    for each reply.  Timeouts, crashes, and non-numeric replies raise
    :class:`EvaluationError` with captured diagnostics and kill the child;
    the next request starts a fresh one.  A handle owns one child, started
    by its first batch, and serializes requests; use one handle per worker
    for concurrent evaluation, as ``tailrisk run`` does (one per fidelity
    and worker, closed when the phase ends).  Like every handle it is a
    context manager; ``close()`` stops the child.

    A batch fails when the child writes more replies than it was sent
    lines, or output before its first line or after its last reply, so no
    stray output is read in a later batch.  The protocol has no request
    ids, so a stray line written mid-batch still shifts that batch.
    """

    kind = "command"

    def __init__(self, argv, timeout: float = 30.0):
        if isinstance(argv, (str, os.PathLike)):
            argv = [str(argv)]
        self.timeout = float(timeout)
        if not 0 < self.timeout < math.inf:
            raise ValueError(
                f"timeout must be a positive finite number of seconds, got {timeout!r}"
            )
        self._argv = [str(a) for a in argv]
        self._proc = None
        self._lock = threading.Lock()

    def _ensure_started(self):
        import subprocess  # loaded on first use: builtin models never need it
        if self._proc is None or self._proc.poll() is not None:
            self._proc = subprocess.Popen(
                self._argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            # Writes go straight to the descriptor, only when select
            # reports room, so a full pipe never blocks the reader.
            os.set_blocking(self._proc.stdin.fileno(), False)

    def _ended(self, deadline):
        """How the child ended and its stderr: it is waited for until
        ``deadline``, then killed.  Its stderr is read without waiting, as
        a process it started may hold the pipe open."""
        import subprocess
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            status = f"exit={self._proc.wait(timeout=max(deadline - time.monotonic(), 0.0))}"
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            status = f"killed after {self.timeout}s"
        os.set_blocking(self._proc.stderr.fileno(), False)
        try:
            return status, (self._proc.stderr.read() or b"").decode(errors="replace").strip()
        except Exception:
            return status, ""

    def _kill(self):
        """Discard the child and any output it left unread."""
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.kill()
            proc.wait()
            for stream in (proc.stdin, proc.stdout, proc.stderr):
                stream.close()

    def evaluate_batch(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        with self._lock:
            self._ensure_started()
            try:
                return self._stream(points)
            except BaseException:
                self._kill()
                raise

    def _stream(self, points) -> np.ndarray:
        """Write every input line and read one reply per line, interleaved;
        lines are formatted :data:`_CHUNK_LINES` at a time, as the pipe drains."""
        import select  # loaded on first use, as subprocess is
        lines = (" ".join(map(repr, row)) + "\n" for row in points.tolist())
        pending = memoryview(b"")
        stdin_fd = self._proc.stdin.fileno()
        stdout_fd = self._proc.stdout.fileno()
        values = np.empty(len(points))
        received = 0
        rejected = None
        buffer = b""
        deadline = time.monotonic() + self.timeout
        if select.select([stdout_fd], [], [], 0)[0] and (stray := os.read(stdout_fd, 65536)):
            raise EvaluationError(f"model command wrote {stray[:80]!r} before it was sent a line")
        while received < len(points):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise EvaluationError(
                    f"model command timed out after {self.timeout}s: {' '.join(self._argv)}"
                )
            if not pending:
                pending = memoryview("".join(itertools.islice(lines, _CHUNK_LINES)).encode())
            writers = [stdin_fd] if pending else []
            readable, writable, _ = select.select([stdout_fd], writers, [], remaining)
            if writable:
                try:
                    pending = pending[os.write(stdin_fd, pending):]
                except BlockingIOError:
                    pass
                except BrokenPipeError as exc:
                    # The child stopped reading; collect the replies it
                    # already wrote, then fail at the end of its output.
                    rejected, pending = exc, pending[:0]
                    lines.close()
            if not readable:
                continue
            chunk = os.read(stdout_fd, 65536)
            if not chunk:
                status, stderr = self._ended(deadline)
                what = "closed its output" if rejected is None else "rejected input"
                raise EvaluationError(f"model command {what} ({status}): {stderr}") from rejected
            *replies, buffer = (buffer + chunk).split(b"\n")
            if received + len(replies) > len(points):
                raise EvaluationError(
                    f"model command wrote more replies than the {len(points)} lines sent"
                )
            for reply in replies:
                try:
                    values[received] = float(reply)
                except ValueError as exc:
                    raise EvaluationError(
                        "model command returned non-numeric output "
                        f"{reply.decode(errors='replace')!r}"
                    ) from exc
                received += 1
            if replies:
                deadline = time.monotonic() + self.timeout
        if buffer:
            raise EvaluationError(f"model command wrote {buffer[:80]!r} after its last reply")
        return values

    def close(self):
        """Close the child's input, give it 5 s to exit, then kill it."""
        import subprocess
        if self._proc is not None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                pass
        self._kill()


def evaluate_model(model, points) -> np.ndarray:
    """Evaluate a model at many points: a handle, or a callable called once on
    the batch, whose errors propagate and which must return one value per point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(model, ModelHandle):
        return model.evaluate_batch(points)
    result = np.asarray(model(points), dtype=float)
    if result.shape != (len(points),):
        raise ValueError(f"a model callable must return shape {(len(points),)}, "
                         f"got {result.shape}")
    return result
